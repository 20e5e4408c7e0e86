import json
import math

import pytest

from powerplace import total_cost
from powerplace.affinity import build_final_affinity
from powerplace.oracle import optimal_place
from powerplace.harness import (
    CSV_HEADER,
    HarnessError,
    ResultRow,
    ResultsTable,
    SweepSpec,
    emit_results,
    run_scenario,
    run_sweep,
)
from powerplace.workload import GeneratorConfig, generate_synthetic

from support import app, final_matrix, machine, scenario


BASE = GeneratorConfig(6, 5, seed=100)


class TestRunScenario:
    def test_report_fields_populated(self):
        scn = generate_synthetic(BASE)
        result = run_scenario(scn, "cpaap")
        r = result.report
        assert r.feasible
        assert r.runtime_s >= 0.0
        assert r.power_cost > 0
        assert result.outcome.trace

    def test_unknown_algorithm(self):
        scn = generate_synthetic(BASE)
        with pytest.raises(HarnessError):
            run_scenario(scn, "simulated_annealing")

    def test_oracle_single_instance_matches_direct_cost(self):
        scn = scenario([machine(0, cpu=10, p_idle=100, p_max=200)], [app(0, cpu=5)], user=[[1]])
        f = final_matrix([[0.75]])
        result = run_scenario(scn, "oracle", f)
        direct = total_cost(scn, result.outcome.allocation, f)
        assert result.report.feasible
        assert result.report.total_cost == direct.total
        assert result.outcome.trace == ((0, 0, 0),)

    def test_infeasible_oracle_outcome_has_no_failure_point(self):
        # unlike a greedy strategy, the exact solver names no instance it
        # could not place: it reports an empty trace and allocation
        scn = scenario([machine(0, cpu=1)], [app(0, cpu=1, instances=2)])
        out = run_scenario(scn, "oracle", final_matrix([[0.0]])).outcome
        assert out.feasible is False and out.failed_at is None and out.trace == ()
        assert out.allocation.counts.tolist() == [[0]]
        assert run_scenario(scn, "first_fit").outcome.failed_at == (0, 1)

    def test_oracle_cut_short_by_budget_is_an_error(self):
        scn = generate_synthetic(GeneratorConfig(4, 4, seed=2, instance_range=(2, 2)))
        f = build_final_affinity(scn)
        with pytest.raises(HarnessError, match="node budget"):
            run_scenario(scn, "oracle", f, oracle_budget=50)
        full = run_scenario(scn, "oracle", f)
        assert full.report.feasible
        optimum = optimal_place(scn, f).optimal.counts
        assert full.outcome.allocation.counts.tolist() == optimum.tolist()

    def test_repeat_runs_identical_except_runtime(self):
        scn = generate_synthetic(BASE)
        f = build_final_affinity(scn)
        a = run_scenario(scn, "pap", f)
        b = run_scenario(scn, "pap", f)
        assert a.outcome.trace == b.outcome.trace
        assert a.report.total_cost == b.report.total_cost
        assert a.report.satisfaction_ratio == b.report.satisfaction_ratio


class TestSweepSpec:
    def test_rejects_empty_algorithms(self):
        with pytest.raises(HarnessError):
            SweepSpec("alpha", (1.0, 2.0), BASE, ())

    def test_rejects_non_monotone_values(self):
        with pytest.raises(HarnessError):
            SweepSpec("alpha", (1.0, 3.0, 2.0), BASE, ("pap",))

    def test_rejects_unknown_kind_and_algorithm(self):
        with pytest.raises(HarnessError):
            SweepSpec("weights", (1.0,), BASE, ("pap",))
        with pytest.raises(HarnessError):
            SweepSpec("alpha", (1.0,), BASE, ("round_robin",))

    def test_oracle_scale_guard(self):
        with pytest.raises(HarnessError, match="oracle"):
            SweepSpec("alpha", (1.0, 2.0), BASE, ("oracle",))
        tiny = GeneratorConfig(3, 2, seed=0, instance_range=(1, 2))
        SweepSpec("alpha", (1.0, 2.0), tiny, ("oracle",))  # fits the guard

    @pytest.mark.parametrize("values", [(float("nan"), 1.0), (1.0, float("inf"))])
    def test_rejects_non_finite_values(self, values):
        with pytest.raises(HarnessError, match="sweep values must be finite"):
            SweepSpec("alpha", values, BASE, ("pap",))

    @pytest.mark.parametrize("kind", ["machines", "applications"])
    def test_rejects_fractional_counts(self, kind):
        # int() would turn both points into the same count
        with pytest.raises(HarnessError, match="whole numbers"):
            SweepSpec(kind, (4.2, 4.9), BASE, ("pap",))

    def test_decreasing_values_allowed(self):
        SweepSpec("machines", (20, 10, 5), BASE, ("pap",))

    def test_bad_point_fails_before_any_run(self, monkeypatch):
        import powerplace.harness as harness

        calls = []
        monkeypatch.setattr(harness, "generate_synthetic", lambda *a: calls.append(a))
        monkeypatch.setattr(harness, "run_scenario", lambda *a, **k: calls.append(a))
        with pytest.raises(HarnessError, match=r"sweep point anti_affinity=1: anti_affinity_fraction"):
            SweepSpec("anti_affinity", (0.5, 1.0), BASE, ("pap",))
        assert calls == []

    def test_points_set_the_swept_field(self):
        spec = SweepSpec("machines", (4.0, 7.0), BASE, ("pap",))
        assert [p.machine_count for p in spec.points] == [4, 7]
        assert all(type(p.machine_count) is int for p in spec.points)
        assert {p.application_count for p in spec.points} == {BASE.application_count}
        spec = SweepSpec("alpha", (1, 2), BASE, ("pap",))
        assert [p.alpha for p in spec.points] == [1.0, 2.0]


class TestRunSweep:
    def test_row_count_is_product(self):
        spec = SweepSpec(
            kind="anti_affinity",
            values=(0.1, 0.2, 0.3, 0.4, 0.5),
            base=BASE,
            algorithms=("pap", "aap", "cpaap"),
            repetitions=5,
        )
        table = run_sweep(spec)
        assert len(table.rows) == 75
        assert all(r.error is None for r in table.rows)

    def test_rows_sorted_and_seeds_paired(self):
        spec = SweepSpec("alpha", (1.0, 2.0), BASE, ("cpaap", "pap"), repetitions=2)
        table = run_sweep(spec)
        keys = [(r.sweep_point, r.algorithm, r.seed) for r in table.rows]
        assert keys == sorted(keys)
        seeds = {r.seed for r in table.rows}
        assert seeds == {BASE.seed, BASE.seed + 1}

    def test_mean_aggregation(self):
        spec = SweepSpec("alpha", (2.0,), BASE, ("pap",), repetitions=3)
        table = run_sweep(spec)
        means = table.mean_by_point()
        rows = [r for r in table.rows]
        expected = sum(r.total_cost for r in rows) / 3
        assert means[(2.0, "pap")]["total_cost"] == pytest.approx(expected, rel=1e-12)
        assert means[(2.0, "pap")]["feasible_rate"] == 1.0

    def test_failure_recorded_and_sweep_continues(self, monkeypatch):
        import powerplace.harness as harness

        real = harness.run_scenario

        def flaky(scenario, algorithm, affinity=None, oracle_budget=0):
            if algorithm == "aap":
                raise RuntimeError("boom")
            return real(scenario, algorithm, affinity)

        monkeypatch.setattr(harness, "run_scenario", flaky)
        spec = SweepSpec("alpha", (1.0,), BASE, ("pap", "aap"), repetitions=2)
        table = harness.run_sweep(spec)
        errors = [r for r in table.rows if r.error is not None]
        good = [r for r in table.rows if r.error is None]
        assert len(errors) == 2 and all(r.algorithm == "aap" for r in errors)
        assert "boom" in errors[0].error
        assert len(good) == 2
        assert all(math.isnan(r.total_cost) for r in errors)


class TestEmitResults:
    def make_table(self, reps=2):
        spec = SweepSpec("alpha", (1.0, 4.0), BASE, ("pap", "cpaap"), repetitions=reps)
        return run_sweep(spec)

    def test_csv_header_exact(self, tmp_path):
        table = self.make_table()
        path = emit_results(table, tmp_path / "out.csv", "csv")
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(table.rows)

    def test_single_row_csv(self, tmp_path):
        spec = SweepSpec("alpha", (4.0,), BASE, ("pap",), repetitions=1)
        path = emit_results(run_sweep(spec), tmp_path / "one.csv", "csv")
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert len(fields) == len(CSV_HEADER.split(","))
        assert fields[1] == "pap"
        assert fields[3] in ("true", "false")

    def test_csv_byte_stable_except_runtime(self, tmp_path):
        a = emit_results(self.make_table(), tmp_path / "a.csv", "csv").read_text()
        b = emit_results(self.make_table(), tmp_path / "b.csv", "csv").read_text()
        strip = lambda text: [line.rsplit(",", 1)[0] for line in text.splitlines()]
        assert strip(a) == strip(b)

    def test_json_round_trip(self, tmp_path):
        table = self.make_table()
        path = emit_results(table, tmp_path / "out.json", "json")
        doc = json.loads(path.read_text())
        assert doc["config"]["base"]["machine_count"] == BASE.machine_count
        assert len(doc["rows"]) == len(table.rows)
        for row, original in zip(doc["rows"], table.rows):
            assert row["algorithm"] == original.algorithm
            assert row["seed"] == original.seed
            assert row["total_cost"] == pytest.approx(original.total_cost, rel=0, abs=0)
        assert doc["aggregates"]

    def test_json_writes_undefined_metrics_as_null(self, tmp_path):
        def reject(token):
            raise ValueError(f"{token} is not JSON")

        failed = ResultRow(1.0, "pap", 0, error="RuntimeError: x")
        zero_cost = ResultRow(1.0, "aap", 0, feasible=True, total_cost=0.0, psi=math.nan)
        table = ResultsTable(rows=(failed, zero_cost), config={})
        text = emit_results(table, tmp_path / "out.json", "json").read_text()
        doc = json.loads(text, parse_constant=reject)
        assert doc["rows"][0]["avg_util"] is None
        assert doc["rows"][0]["error"] == "RuntimeError: x"
        assert doc["rows"][1]["total_cost"] == 0.0 and doc["rows"][1]["psi"] is None
        assert doc["aggregates"][0]["psi"] is None
        csv_row = emit_results(table, tmp_path / "out.csv", "csv").read_text().splitlines()[1]
        assert csv_row.split(",")[4] == "nan"

    def test_empty_table_rejected(self, tmp_path):
        with pytest.raises(HarnessError):
            emit_results(ResultsTable(rows=(), config={}), tmp_path / "x.csv", "csv")

    def test_rho_one_when_user_affinity_everywhere(self, tmp_path):
        scn = generate_synthetic(GeneratorConfig(5, 4, seed=3, user_affinity_density=1.0,
                                                 anti_affinity_fraction=0.0))
        result = run_scenario(scn, "aap")
        assert result.report.feasible
        assert result.report.satisfaction_ratio == 1.0
