import json

import pytest

from powerplace.cli import main
from powerplace.harness import CSV_HEADER, run_scenario
from powerplace.model import AffinityWeights
from powerplace.workload import load_trace


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestGenerate:
    def test_writes_loadable_trace(self, tmp_path, capsys):
        assert run_cli("generate", "--machines", 6, "--apps", 5, "--seed", 3,
                       "--out", tmp_path) == 0
        scn = load_trace(tmp_path / "machines.csv", tmp_path / "applications.csv",
                         tmp_path / "affinity.csv")
        assert scn.num_machines == 6
        assert scn.num_applications == 5

    def test_missing_counts_fail(self, tmp_path, capsys):
        assert run_cli("generate", "--out", tmp_path) == 1
        assert "error:" in capsys.readouterr().err


class TestRun:
    def test_synthetic_run_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "results.csv"
        code = run_cli("run", "--machines", 8, "--apps", 6, "--seed", 1,
                       "--algorithms", "pap,aap,cpaap,first_fit", "--out", out)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 5
        assert "cpaap: feasible=True" in capsys.readouterr().out

    def test_trace_run(self, tmp_path, capsys):
        assert run_cli("generate", "--machines", 5, "--apps", 4, "--seed", 2,
                       "--out", tmp_path) == 0
        out = tmp_path / "res.json"
        code = run_cli("run", "--trace", tmp_path / "machines.csv",
                       tmp_path / "applications.csv", tmp_path / "affinity.csv",
                       "--algorithms", "cpaap", "--out", out, "--format", "json")
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["rows"][0]["algorithm"] == "cpaap"
        assert doc["config"]["trace"]

    def test_unknown_algorithm_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            run_cli("run", "--machines", 4, "--apps", 3, "--algorithms", "round_robin")

    def test_infeasible_placement_still_exits_zero(self, tmp_path, capsys):
        # one tiny machine, far more demand than capacity
        machines = tmp_path / "machines.csv"
        apps = tmp_path / "applications.csv"
        machines.write_text(
            "machine_id,cpu_cap,io_cap,nw_cap,mem_cap,p_idle,p_max\n"
            "0,4.0,10.0,10.0,10.0,50.0,100.0\n"
        )
        apps.write_text("app_id,cpu_req,io_req,nw_req,mem_req,instances\n0,3.0,1.0,1.0,1.0,5\n")
        out = tmp_path / "r.csv"
        code = run_cli("run", "--trace", machines, apps, "--algorithms", "pap", "--out", out)
        assert code == 0
        assert ",false," in out.read_text().splitlines()[1]


    def test_trace_run_honours_config_weights(self, tmp_path, capsys):
        assert run_cli("generate", "--machines", 5, "--apps", 4, "--seed", 2,
                       "--out", tmp_path) == 0
        trace = [tmp_path / "machines.csv", tmp_path / "applications.csv",
                 tmp_path / "affinity.csv"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"weights": [0.1, 0.3, 0.3, 0.3], "alpha": 2.0}))
        out = tmp_path / "res.json"
        assert run_cli("run", "--trace", *trace, "--config", cfg, "--algorithms", "cpaap",
                       "--out", out, "--format", "json") == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["weights"] == [0.1, 0.3, 0.3, 0.3]
        scn = load_trace(*trace, weights=AffinityWeights(0.1, 0.3, 0.3, 0.3), alpha=2.0)
        expected = run_scenario(scn, "cpaap").report
        assert doc["rows"][0]["payoff"] == expected.affinity_payoff
        assert doc["rows"][0]["total_cost"] == expected.total_cost

    def test_trace_without_affinity_honours_anti_affinity_fraction(self, tmp_path, capsys):
        assert run_cli("generate", "--machines", 6, "--apps", 5, "--seed", 2,
                       "--out", tmp_path) == 0
        trace = [tmp_path / "machines.csv", tmp_path / "applications.csv"]
        out = tmp_path / "res.json"
        assert run_cli("run", "--trace", *trace, "--anti-affinity-fraction", 0.5,
                       "--algorithms", "pap", "--out", out, "--format", "json") == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["anti_affinity_fraction"] == 0.5
        scn = load_trace(*trace, anti_affinity_fraction=0.5)
        assert (scn.anti_affinity.sum(axis=1) == 3).all()
        assert doc["rows"][0]["total_cost"] == run_scenario(scn, "pap").report.total_cost

    @pytest.mark.parametrize("source", ["synthetic", "trace"])
    def test_negative_seed_fails_cleanly(self, tmp_path, capsys, source):
        if source == "trace":
            run_cli("generate", "--machines", 4, "--apps", 3, "--out", tmp_path)
            scenario = ["--trace", tmp_path / "machines.csv", tmp_path / "applications.csv"]
        else:
            scenario = ["--machines", 4, "--apps", 3]
        assert run_cli("run", *scenario, "--seed", -1) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'seed' must be >= 0" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_trace_needs_two_or_three_files(self, tmp_path, capsys, command):
        assert run_cli(command, "--trace", tmp_path / "machines.csv") == 1
        assert "--trace takes" in capsys.readouterr().err


class TestConfigFile:
    @pytest.mark.parametrize(
        "config, key",
        [
            ({"weights": [1, 0, 0]}, "weights"),
            ({"weights": "abcd"}, "weights"),
            ({"weights": [1, 0, 0, True]}, "weights"),
            ({"seed": None}, "seed"),
            ({"machine_count": 99}, "machine_count"),
            ({"machines": 6.5}, "machines"),
            ({"apps": True}, "apps"),
            ({"alpha": "4"}, "alpha"),
            ({"pi_threshold": False}, "pi_threshold"),
            ({"user_affinity_density": [0.2]}, "user_affinity_density"),
            ({"seed": -1}, "seed"),
        ],
        ids=["weights-short", "weights-string", "weights-bool", "seed-null", "unknown-key",
             "machines-float", "apps-bool", "alpha-string", "pi-bool", "density-list",
             "seed-negative"],
    )
    def test_bad_value_fails_cleanly(self, tmp_path, capsys, config, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run_cli("run", "--machines", 4, "--apps", 3, "--config", cfg) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(key) in err
        assert "Traceback" not in err


    @pytest.mark.parametrize(
        "config, message",
        [
            ({"alpha": True}, "'alpha' must be a real number, got True"),
            ({"machines": 6.5}, "'machines' must be an integer, got 6.5"),
            ({"weights": [1, 0, 0, "0"]}, "'weights' entry must be a real number, got '0'"),
            ({"weights": [1, 0]}, "'weights' must be a list of 4 numbers, got [1, 0]"),
        ],
        ids=["alpha-bool", "machines-float", "weights-string-entry", "weights-short"],
    )
    def test_numbers_take_the_model_rule(self, tmp_path, capsys, config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run_cli("run", "--machines", 4, "--apps", 3, "--config", cfg) == 1
        assert capsys.readouterr().err == f"error: config {cfg}: {message}\n"


class TestSweep:
    def test_sweep_writes_rows(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = run_cli("sweep", "--kind", "anti_affinity", "--values", "0.1,0.3",
                       "--machines", 6, "--apps", 5, "--reps", 2,
                       "--algorithms", "pap,cpaap", "--out", out)
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 2 * 2 * 2

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"machines": 6, "apps": 5, "alpha": 2.0, "seed": 9}))
        out = tmp_path / "sweep.csv"
        code = run_cli("sweep", "--kind", "alpha", "--values", "1.0,2.0",
                       "--config", cfg, "--apps", 4, "--algorithms", "pap", "--out", out)
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        # seed column comes from the config file; apps override changed scale only
        assert lines[1].split(",")[2] == "9"

    @pytest.mark.parametrize("kind, given", [("machines", "--apps"), ("applications", "--machines")])
    def test_count_sweep_needs_no_base_count(self, tmp_path, capsys, kind, given):
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--kind", kind, "--values", "4,5", given, 3,
                       "--algorithms", "pap", "--out", out) == 0
        assert [line.split(",")[0] for line in out.read_text().splitlines()[1:]] == ["4.0", "5.0"]
        assert "(0 failed)" in capsys.readouterr().out

    def test_bad_sweep_point_fails_before_any_run(self, tmp_path, capsys):
        out = tmp_path / "z.csv"
        assert run_cli("sweep", "--kind", "anti_affinity", "--values", "0.5,1.0",
                       "--machines", 4, "--apps", 3, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: sweep point anti_affinity=1: anti_affinity_fraction")
        assert not out.exists()

    def test_oracle_sweep_past_the_budget_fails_before_any_run(self, tmp_path, capsys):
        # 4 applications of 1-4 instances on 4 machines make 1,544,760 nodes, 5 make 54.1M
        out = tmp_path / "oracle.json"
        assert run_cli("sweep", "--kind", "applications", "--values", "3,4,5", "--machines", 4,
                       "--algorithms", "cpaap,oracle", "--format", "json", "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: sweep point applications=5: an oracle search there could pass "
                              "its 10,000,000-node budget: 5 applications of up to 4 instances on "
                              "4 machines make 54,066,635 nodes")
        assert not out.exists()

    def test_bad_values_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            run_cli("sweep", "--kind", "alpha", "--values", "fast,slow",
                    "--machines", 5, "--apps", 5, "--out", tmp_path / "x.csv")


class TestValidate:
    def test_good_trace(self, tmp_path, capsys):
        run_cli("generate", "--machines", 4, "--apps", 3, "--out", tmp_path)
        code = run_cli("validate", "--trace", tmp_path / "machines.csv",
                       tmp_path / "applications.csv", tmp_path / "affinity.csv")
        assert code == 0
        assert "ok:" in capsys.readouterr().out

    def test_bad_trace_nonzero_exit(self, tmp_path, capsys):
        bad = tmp_path / "machines.csv"
        bad.write_text("machine_id,cpu_cap\n0,8\n")
        apps = tmp_path / "applications.csv"
        apps.write_text("app_id,cpu_req,io_req,nw_req,mem_req,instances\n0,1,1,1,1,1\n")
        assert run_cli("validate", "--trace", bad, apps) == 1
        assert "missing columns" in capsys.readouterr().err

    def test_non_finite_trace_nonzero_exit(self, tmp_path, capsys):
        machines = tmp_path / "machines.csv"
        machines.write_text("machine_id,cpu_cap,io_cap,nw_cap,mem_cap\n0,nan,1,1,1\n")
        apps = tmp_path / "applications.csv"
        apps.write_text("app_id,cpu_req,io_req,nw_req,mem_req,instances\n0,1,1,1,1,1\n")
        assert run_cli("validate", "--trace", machines, apps) == 1
        assert "line 2: 'cpu_cap' must be finite" in capsys.readouterr().err

    def test_missing_file_nonzero_exit(self, tmp_path, capsys):
        assert run_cli("validate", "--trace", tmp_path / "nope.csv", tmp_path / "nada.csv") == 1
