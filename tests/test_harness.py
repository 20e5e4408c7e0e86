import json
import math
from dataclasses import replace

import numpy as np
import pytest

from powerplace import AffinityWeights, total_cost
from powerplace.affinity import build_final_affinity
from powerplace.oracle import DEFAULT_NODE_BUDGET, optimal_place
from powerplace import harness
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
from powerplace.workload import GeneratorConfig, ResourceRanges, generate_synthetic

from support import app, final_matrix, machine, scenario


BASE = GeneratorConfig(6, 5, seed=100)

# Room for every instance a generated scenario can ask for.
ROOMY = ResourceRanges(cpu=(1e6, 1e6), io=(1e6, 1e6), nw=(1e6, 1e6), mem=(1e6, 1e6))


def space_nodes(m, instances):
    """Nodes of the oracle's whole count-row space: every row of every level.

    Level i has the rows of each row above it, C(m + k - 1, k) for k
    instances on m machines.
    """
    total, level = 0, 1
    for k in instances:
        level *= math.comb(m + k - 1, k)
        total += level
    return total


def oracle_admits(config):
    """Whether a sweep may run the oracle at ``config``: S and the grid's cells both within the budget."""
    m, n, k = config.machine_count, config.application_count, config.instance_range[1]
    cells = math.comb(m + k - 1, k) * k * m
    return space_nodes(m, [k] * n) <= DEFAULT_NODE_BUDGET and cells <= DEFAULT_NODE_BUDGET


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

    @pytest.mark.parametrize(
        "m, n, instance_range, seed",
        [(3, 3, (2, 2), 0), (4, 3, (1, 3), 1), (2, 6, (1, 3), 3), (5, 5, (2, 2), 0), (4, 4, (1, 4), 2)],
    )
    def test_space_is_the_node_count_when_every_row_fits(self, m, n, instance_range, seed):
        cfg = GeneratorConfig(m, n, seed=seed, instance_range=instance_range,
                              capacity_ranges=ROOMY, anti_affinity_fraction=0.0)
        scn = generate_synthetic(cfg)
        instances = scn.instances.tolist()
        if instance_range[0] < instance_range[1]:
            assert len(set(instances)) > 1, instances  # the draw mixes counts
        result = optimal_place(scn, build_final_affinity(scn))
        assert result.exhausted
        assert result.nodes_explored == space_nodes(m, instances)
        # the rule's S takes every application at the most instances, a bound
        assert space_nodes(m, instances) <= space_nodes(m, [instance_range[1]] * n)
        SweepSpec("alpha", (1.0,), cfg, ("oracle",))

    def test_every_shape_the_old_guard_admitted_is_admitted(self):
        # that guard: at most 4 machines and 8 instances in all
        for m in range(1, 5):
            for k in range(1, 9):
                for n in range(1, 8 // k + 1):
                    SweepSpec("alpha", (1.0,), GeneratorConfig(m, n, instance_range=(1, k)), ("oracle",))

    def test_admits_exactly_the_points_within_the_budget(self):
        for m in range(1, 9):
            for k in range(1, 7):
                for n in range(1, 9):
                    cfg = GeneratorConfig(m, n, instance_range=(1, k))
                    try:
                        SweepSpec("alpha", (1.0,), cfg, ("oracle",))
                        admitted = True
                    except HarnessError:
                        admitted = False
                    assert admitted == oracle_admits(cfg), (m, n, k)

    @pytest.mark.parametrize(
        "m, n, k, admitted",
        [(3161, 2, 1, True),  # S = 9,995,082, the slowest shape admitted
         (3162, 2, 1, False),  # S = 10,001,406
         (2, 1, 2235, True),  # the grid compares 9,994,920 cells
         (2, 1, 2236, False)],  # 10,003,864 cells
    )
    def test_budget_edges(self, m, n, k, admitted):
        cfg = GeneratorConfig(m, n, instance_range=(1, k))
        assert oracle_admits(cfg) is admitted
        if admitted:
            SweepSpec("alpha", (1.0,), cfg, ("oracle",))
        else:
            with pytest.raises(HarnessError, match="oracle"):
                SweepSpec("alpha", (1.0,), cfg, ("oracle",))

    @pytest.mark.parametrize(
        "kind, values, base, message",
        [("applications", (5.0, 6.0), GeneratorConfig(6, 1, instance_range=(2, 2)),
          "sweep point applications=6: an oracle search there could pass its 10,000,000-node "
          "budget: 6 applications of up to 2 instances on 6 machines make 90,054,426 nodes"),
         ("alpha", (1.0,), GeneratorConfig(2, 1, instance_range=(1, 10**6)),
          "sweep point alpha=1: an oracle search there could pass its 10,000,000-node "
          "budget: the grid of 1000000 instances on 2 machines compares 2,000,002,000,000 cells"),
         ("alpha", (1.0,), GeneratorConfig(10**6, 1, instance_range=(1, 10**6)),
          "the grid of 1000000 instances on 1000000 machines compares more than 10,000,000 cells"),
         ("alpha", (1.0,), GeneratorConfig(25, 20),
          "20 applications of up to 4 instances on 25 machines make about 10^86.2 nodes")],
        ids=["6x6x2", "2-machines-1e6-instances", "1e6-machines", "25x20"],
    )
    def test_refused_before_any_scenario(self, monkeypatch, kind, values, base, message):
        def no_scenario(config):
            raise AssertionError("a refused sweep generated a scenario")

        monkeypatch.setattr(harness, "generate_synthetic", no_scenario)
        with pytest.raises(HarnessError) as caught:
            run_sweep(SweepSpec(kind, values, base, ("cpaap", "oracle")))
        assert message in str(caught.value)
        # the same points without the oracle are admitted
        SweepSpec(kind, values, base, ("cpaap",))

    @pytest.mark.parametrize("values", [(float("nan"), 1.0), (1.0, float("inf"))])
    def test_rejects_non_finite_values(self, values):
        with pytest.raises(HarnessError, match="sweep values must be finite"):
            SweepSpec("alpha", values, BASE, ("pap",))

    @pytest.mark.parametrize(
        "kind, values, message",
        [("alpha", (True,), "alpha sweep value must be a real number, got True"),
         ("machines", (True, 3), "machines sweep value must be a real number, got True"),
         ("applications", ("4",), "applications sweep value must be a real number, got '4'"),
         ("anti_affinity", (0.1, None), "anti_affinity sweep value must be a real number, got None")],
        ids=["alpha-bool", "machines-bool", "str", "none"],
    )
    def test_values_take_the_model_number_rule(self, kind, values, message):
        # the same rule as GeneratorConfig's: True is no alpha and no count
        with pytest.raises(HarnessError, match=message):
            SweepSpec(kind, values, BASE, ("pap",))

    def test_numpy_values_held_as_floats(self):
        spec = SweepSpec("machines", (np.int64(4), np.float32(7.0)), BASE, ("pap",))
        assert spec.values == (4.0, 7.0) and all(type(v) is float for v in spec.values)
        assert [p.machine_count for p in spec.points] == [4, 7]

    @pytest.mark.parametrize("kind", ["machines", "applications"])
    def test_rejects_fractional_counts(self, kind):
        # int() would turn both points into the same count
        with pytest.raises(HarnessError, match="whole numbers"):
            SweepSpec(kind, (4.2, 4.9), BASE, ("pap",))

    @pytest.mark.parametrize(
        "repetitions, message",
        [(2.5, "'repetitions' must be an integer, got 2.5"),
         ("2", "'repetitions' must be an integer, got '2'"),
         (True, "'repetitions' must be an integer, got True"),
         (0, "repetitions must be >= 1")],
        ids=["float", "str", "bool", "zero"],
    )
    def test_rejects_bad_repetitions(self, repetitions, message):
        with pytest.raises(HarnessError, match=message):
            SweepSpec("alpha", (1.0,), BASE, ("pap",), repetitions=repetitions)

    def test_numpy_integer_repetitions_held_as_int(self):
        spec = SweepSpec("alpha", (1.0,), BASE, ("pap",), repetitions=np.int64(2))
        assert type(spec.repetitions) is int and spec.repetitions == 2

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

    def test_an_oracle_point_deeper_than_the_recursion_limit_has_no_error(self):
        # one machine takes every application's one instance: 1,200 levels,
        # past Python's default recursion limit of 1,000
        base = GeneratorConfig(1, 1, instance_range=(1, 1), capacity_ranges=ROOMY)
        table = run_sweep(SweepSpec("applications", (1200.0,), base, ("oracle",)))
        assert [(r.error, r.feasible) for r in table.rows] == [(None, True)]

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


def _without_runtime(rows):
    # compared as text: a NaN metric equals itself only by identity
    return [repr(replace(r, runtime_ms=None)) for r in rows]


def _one_point_sweeps(kind, values, base, algorithms, reps):
    rows = []
    for value in values:
        rows.extend(run_sweep(SweepSpec(kind, (value,), base, algorithms, repetitions=reps)).rows)
    return sorted(rows, key=lambda r: (r.sweep_point, r.algorithm, r.seed))


def _counting(monkeypatch, name):
    import powerplace.harness as harness

    real = getattr(harness, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, name, wrapper)
    return calls


class TestSharedAlphaScenarios:
    """Points that differ only in alpha share each seed's scenario and affinity."""

    @pytest.mark.parametrize(
        "base, algorithms",
        [
            (BASE, ("pap", "aap", "cpaap", "first_fit")),
            (GeneratorConfig(4, 2, seed=5, instance_range=(1, 4)), ("cpaap", "oracle")),
        ],
    )
    def test_rows_equal_one_point_sweeps(self, base, algorithms):
        values = (0.5, 4.0, 16.0, 70.0)
        shared = run_sweep(SweepSpec("alpha", values, base, algorithms, repetitions=3)).rows
        alone = _one_point_sweeps("alpha", values, base, algorithms, 3)
        assert _without_runtime(shared) == _without_runtime(alone)
        assert all(r.error is None for r in shared)
        # alpha reaches the rows: the points' costs differ
        assert len({r.total_cost for r in shared if r.algorithm == "cpaap"}) > 3

    @pytest.mark.parametrize(
        "kind, values, calls_per_rep",
        [("alpha", (0.5, 4.0, 16.0), 1), ("machines", (4, 6, 9), 3),
         ("anti_affinity", (0.0, 0.2, 0.4), 3)],
    )
    def test_generates_once_per_seed_and_distinct_config(self, monkeypatch, kind, values, calls_per_rep):
        generated = _counting(monkeypatch, "generate_synthetic")
        built = _counting(monkeypatch, "build_final_affinity")
        table = run_sweep(SweepSpec(kind, values, BASE, ("pap", "aap"), repetitions=4))
        assert len(table.rows) == len(values) * 2 * 4
        assert len(generated) == len(built) == calls_per_rep * 4
        assert sorted(config.seed for (config,) in generated) == sorted(
            BASE.seed + rep for rep in range(4) for _ in range(calls_per_rep)
        )

    def test_list_pairs_sweep_as_tuples(self):
        lists = GeneratorConfig(
            6, 5, seed=100, instance_range=[1, 3],
            capacity_ranges=ResourceRanges([8, 64], [100, 1000], [100, 1000], [16, 256]),
            demand_ranges=ResourceRanges([1, 8], [10, 100], [10, 100], [1, 16]),
            power_idle_range=[80.0, 150.0], power_max_range=[200.0, 400.0],
        )
        tuples = GeneratorConfig(6, 5, seed=100, instance_range=(1, 3))
        assert lists == tuples and hash(lists) == hash(tuples)
        values, algorithms = (0.5, 4.0, 16.0), ("pap", "cpaap")
        rows = [run_sweep(SweepSpec("alpha", values, base, algorithms, repetitions=2)).rows
                for base in (lists, tuples)]
        assert _without_runtime(rows[0]) == _without_runtime(rows[1])

    def test_generation_failure_is_recorded_on_every_point_of_its_seed(self, monkeypatch):
        import powerplace.harness as harness

        real = harness.generate_synthetic

        def failing(config):
            if config.seed == BASE.seed + 1:
                raise RuntimeError(f"cannot draw seed {config.seed}")
            return real(config)

        monkeypatch.setattr(harness, "generate_synthetic", failing)
        values, algorithms = (0.5, 4.0, 16.0), ("pap", "cpaap")
        table = run_sweep(SweepSpec("alpha", values, BASE, algorithms, repetitions=3))
        bad = [r for r in table.rows if r.seed == BASE.seed + 1]
        assert len(bad) == len(values) * len(algorithms)
        assert {r.error for r in bad} == {f"RuntimeError: cannot draw seed {BASE.seed + 1}"}
        assert all(math.isnan(r.total_cost) and not r.feasible for r in bad)
        assert all(r.error is None for r in table.rows if r.seed != BASE.seed + 1)
        alone = _one_point_sweeps("alpha", values, BASE, algorithms, 3)
        assert _without_runtime(table.rows) == _without_runtime(alone)


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

    def test_numpy_scalar_config_writes_the_plain_config_json(self, tmp_path):
        def reject(token):
            raise ValueError(f"{token} is not JSON")

        numpy_base = GeneratorConfig(
            np.int64(6), 5, seed=np.uint32(4), instance_range=(np.int32(1), 3),
            alpha=np.float32(2.0), weights=AffinityWeights(*np.float32([0.25] * 4)))
        plain_base = GeneratorConfig(6, 5, seed=4, instance_range=(1, 3), alpha=2.0,
                                     weights=AffinityWeights(0.25, 0.25, 0.25, 0.25))
        docs = []
        for base in (numpy_base, plain_base):
            table = run_sweep(SweepSpec("anti_affinity", (0.1, 0.3), base, ("pap", "cpaap")))
            path = emit_results(table, tmp_path / "out.json", "json")
            doc = json.loads(path.read_text(), parse_constant=reject)
            for row in doc["rows"]:
                del row["runtime_ms"]
            docs.append(doc)
        assert docs[0] == docs[1]
        assert len(docs[0]["rows"]) == 4 and all(row["error"] is None for row in docs[0]["rows"])

    def test_empty_table_rejected(self, tmp_path):
        with pytest.raises(HarnessError):
            emit_results(ResultsTable(rows=(), config={}), tmp_path / "x.csv", "csv")

    def test_rho_one_when_user_affinity_everywhere(self, tmp_path):
        scn = generate_synthetic(GeneratorConfig(5, 4, seed=3, user_affinity_density=1.0,
                                                 anti_affinity_fraction=0.0))
        result = run_scenario(scn, "aap")
        assert result.report.feasible
        assert result.report.satisfaction_ratio == 1.0
