import json

import pytest

from powerplace.cli import main
from powerplace.harness import CSV_HEADER
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
