import math
from dataclasses import replace

import numpy as np
import pytest

from powerplace import (
    AllocationMatrix,
    delta_cost,
    metrics,
    total_cost,
)
from powerplace.affinity import build_final_affinity
from powerplace import costs
from powerplace.costs import utilizations
from powerplace.harness import run_scenario
from powerplace.workload import GeneratorConfig, generate_synthetic

from support import app, final_matrix, machine, replay_delta_sum, scenario


def alloc(rows):
    return AllocationMatrix(np.array(rows, dtype=np.int64))


class TestUtilization:
    def test_empty_machine(self):
        scn = scenario([machine(0, cpu=10)], [app(0, cpu=5)])
        assert utilizations(scn, AllocationMatrix.zeros(1, 1)).tolist() == [0.0]

    def test_half(self):
        scn = scenario([machine(0, cpu=10), machine(1, cpu=20)], [app(0, cpu=5, instances=2)])
        assert utilizations(scn, alloc([[1, 1]])).tolist() == [0.5, 0.25]

    def test_saturated(self):
        scn = scenario([machine(0, cpu=10)], [app(0, cpu=5, instances=2)])
        assert utilizations(scn, alloc([[2]])).tolist() == [1.0]

    def test_float_saturation_snaps_to_one(self):
        # 3 * 0.1 / 0.3 is 1.0000000000000002 in binary floating point
        scn = scenario([machine(0, cpu=0.3)], [app(0, cpu=0.1, instances=3)])
        assert utilizations(scn, alloc([[3]])).tolist() == [1.0]


class TestMachinePower:
    """A machine's draw idle + span * pi^3, read from ``total_cost(...).power`` on one machine."""

    def power(self, placed, cpu):
        scn = scenario([machine(0, cpu=10, p_idle=100, p_max=200)], [app(0, cpu=cpu)])
        return total_cost(scn, alloc([[placed]]), final_matrix([[0.0]])).power

    def test_idle_endpoint(self):
        assert self.power(0, cpu=5) == 100.0

    def test_max_endpoint(self):
        assert self.power(1, cpu=10) == 200.0

    def test_midpoint_cubic(self):
        assert self.power(1, cpu=5) == pytest.approx(112.5, rel=1e-12)

    def test_convexity_witness(self):
        # doubling load more than doubles the dynamic draw
        m = machine(0, cpu=20, p_idle=100, p_max=300)
        scn = scenario([m], [app(0, cpu=2, instances=8)])
        def dyn(k):
            return total_cost(scn, alloc([[k]]), final_matrix([[0.0]])).power - m.p_idle
        assert dyn(8) - dyn(0) > 2 * (dyn(4) - dyn(0))


class TestTotalCost:
    def one_machine_case(self, alpha=4.0):
        scn = scenario([machine(0, cpu=10, p_idle=100, p_max=200)], [app(0, cpu=5)], alpha=alpha)
        return scn, final_matrix([[0.5]])

    def test_empty_allocation(self):
        scn, f = self.one_machine_case()
        out = total_cost(scn, AllocationMatrix.zeros(1, 1), f)
        assert out.power == 100.0
        assert out.payoff == 0.0
        assert out.reduced == 0.0
        assert out.total == 100.0

    def test_single_placement_breakdown(self):
        scn, f = self.one_machine_case()
        out = total_cost(scn, alloc([[1]]), f)
        assert out.power == pytest.approx(112.5, rel=1e-12)
        assert out.payoff == pytest.approx(0.5, rel=1e-12)
        assert out.total == pytest.approx(110.5, rel=1e-12)
        assert out.reduced == pytest.approx(10.5, rel=1e-12)

    def test_alpha_zero_total_is_power(self):
        scn, f = self.one_machine_case(alpha=0.0)
        out = total_cost(scn, alloc([[1]]), f)
        assert out.total == out.power

    def test_only_counts_matter(self):
        rng = np.random.default_rng(5)
        machines = [machine(j, *rng.uniform(20, 50, 4)) for j in range(3)]
        apps = [app(i, *rng.uniform(1, 5, 4), instances=3) for i in range(2)]
        scn = scenario(machines, apps)
        f = build_final_affinity(scn)
        counts = [[1, 2, 0], [0, 1, 2]]
        assert total_cost(scn, alloc(counts), f) == total_cost(scn, alloc(counts), f)


class TestDeltaCost:
    def test_basic_step(self):
        m = machine(0, p_idle=100, p_max=200)
        assert delta_cost(m, 0.0, 0.5, 0.5, 4.0) == pytest.approx(10.5, rel=1e-12)

    def test_no_change_no_affinity(self):
        m = machine(0, p_idle=100, p_max=200)
        assert delta_cost(m, 0.3, 0.3, 0.0, 4.0) == 0.0

    def test_pure_cubic_span(self):
        m = machine(0, p_idle=100, p_max=200)
        assert delta_cost(m, 0.0, 1.0, 0.7, 0.0) == pytest.approx(100.0, rel=1e-12)

    def test_ordering_contract(self):
        m = machine(0)
        with pytest.raises(ValueError):
            delta_cost(m, 0.6, 0.5, 0.0, 1.0)

    def test_replay_matches_reduced_cost(self):
        for seed in range(10):
            scn = generate_synthetic(GeneratorConfig(6, 5, seed=seed))
            f = build_final_affinity(scn)
            result = run_scenario(scn, "cpaap", f)
            assert result.report.feasible
            total = replay_delta_sum(scn, f, result.outcome.trace)
            assert total == pytest.approx(result.report.reduced_cost, rel=1e-6, abs=1e-9)


class TestMetrics:
    def test_full_satisfaction(self):
        scn = scenario(
            [machine(0, cpu=10, p_idle=100, p_max=200)],
            [app(0, cpu=5)],
            user=[[1]],
        )
        f = final_matrix([[0.5]])
        rep = metrics(scn, alloc([[1]]), f)
        assert rep.satisfaction_ratio == 1.0
        assert rep.avg_utilization == 0.5
        assert rep.payoff_ratio == pytest.approx(0.5 / 110.5, rel=1e-12)
        assert rep.feasible
        assert rep.psi_well_defined

    def test_empty_allocation(self):
        scn = scenario([machine(0)], [app(0, instances=2)])
        rep = metrics(scn, AllocationMatrix.zeros(1, 1), final_matrix([[0.4]]))
        assert rep.satisfaction_ratio == 0.0
        assert rep.avg_utilization == 0.0
        assert not rep.feasible

    def test_psi_nan_when_total_zero(self):
        # idle-free machine and alpha tuned so total cost crosses zero exactly
        scn = scenario([machine(0, cpu=10, p_idle=0, p_max=0)], [app(0, cpu=5)], alpha=0.0)
        rep = metrics(scn, alloc([[1]]), final_matrix([[1.0]]))
        assert math.isnan(rep.payoff_ratio)
        assert not rep.psi_well_defined

    def test_psi_signed_when_total_negative(self):
        scn = scenario([machine(0, cpu=10, p_idle=0, p_max=10)], [app(0, cpu=5)], alpha=100.0)
        rep = metrics(scn, alloc([[1]]), final_matrix([[1.0]]))
        assert rep.total_cost < 0
        assert rep.payoff_ratio < 0
        assert not rep.psi_well_defined

    def test_a_numpy_alpha_scores_as_the_python_float(self):
        scn = generate_synthetic(GeneratorConfig(25, 20, seed=0))
        f = build_final_affinity(scn)
        allocation = run_scenario(scn, "cpaap", f).outcome.allocation
        plain = metrics(replace(scn, alpha=4.0), allocation, f)
        for alpha in (np.float32(4.0), np.float64(4.0), np.int64(4)):
            report = metrics(replace(scn, alpha=alpha), allocation, f)
            assert report == plain
            assert all(type(getattr(report, name)) is float for name in (
                "total_cost", "reduced_cost", "power_cost", "affinity_payoff", "payoff_ratio"))

    def test_utilizations_computed_once_and_costs_unchanged(self, monkeypatch):
        scn = generate_synthetic(GeneratorConfig(9, 7, seed=2))
        f = build_final_affinity(scn)
        allocation = run_scenario(scn, "cpaap", f).outcome.allocation
        calls = []

        def counted(*args):
            calls.append(args)
            return utilizations(*args)

        monkeypatch.setattr(costs, "utilizations", counted)
        rep = metrics(scn, allocation, f)
        assert len(calls) == 1
        breakdown = total_cost(scn, allocation, f)
        assert (rep.total_cost, rep.reduced_cost, rep.power_cost, rep.affinity_payoff) == tuple(breakdown)
        assert rep.avg_utilization == float(utilizations(scn, allocation).sum()) / scn.num_machines

    def test_report_invariants_on_random_runs(self):
        for seed in range(8):
            scn = generate_synthetic(GeneratorConfig(7, 6, seed=seed))
            f = build_final_affinity(scn)
            for algorithm in ("pap", "aap", "cpaap", "first_fit"):
                rep = run_scenario(scn, algorithm, f).report
                idle_sum = sum(m.p_idle for m in scn.machines)
                assert rep.total_cost == pytest.approx(rep.reduced_cost + idle_sum, rel=1e-6)
                assert rep.total_cost == pytest.approx(
                    rep.power_cost - scn.alpha * rep.affinity_payoff, rel=1e-6
                )
                assert 0.0 <= rep.satisfaction_ratio <= 1.0
                assert 0.0 <= rep.avg_utilization <= 1.0
