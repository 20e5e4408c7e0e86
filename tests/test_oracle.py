import math

import pytest

from powerplace import (
    aap_place,
    cpaap_place,
    first_fit_place,
    optimal_place,
    pap_place,
    total_cost,
    validate_allocation,
)
from powerplace import oracle
from powerplace.affinity import build_final_affinity
from powerplace.oracle import _BLOCK_CELLS, DEFAULT_NODE_BUDGET
from powerplace.workload import GeneratorConfig, generate_synthetic

from support import (
    app,
    brute_force_optimal,
    final_matrix,
    fresh_oracle_cost,
    machine,
    replay_oracle,
    scenario,
    traced_peak,
)


class TestOptimalPlace:
    def test_single_point_space(self):
        scn = scenario([machine(0, cpu=10, p_idle=100, p_max=200)], [app(0, cpu=5)])
        f = final_matrix([[0.5]])
        res = optimal_place(scn, f)
        assert res.exhausted
        assert res.optimal.counts.tolist() == [[1]]
        # span * pi^3 - alpha * f
        assert res.optimal_reduced_cost == pytest.approx(100 * 0.125 - 4 * 0.5, rel=1e-12)

    def test_prefers_low_cost_machine_with_preloaded_peer(self):
        # filler app pinned to machine 0 creates pi = 0.5 there; the probe
        # app's two options then cost 12.1 (machine 1) vs 83.9 (machine 0)
        scn = scenario(
            [machine(0, cpu=10), machine(1, cpu=10)],
            [app(0, cpu=5), app(1, cpu=5)],
            anti=[[0, 1], [0, 0]],
        )
        f = final_matrix([[0.0, 0.0], [0.9, 0.1]])
        res = optimal_place(scn, f)
        assert res.exhausted
        assert res.optimal.counts.tolist() == [[1, 0], [0, 1]]
        assert res.optimal_reduced_cost == pytest.approx(12.5 + 12.5 - 4 * 0.1, rel=1e-12)

    def test_fully_blocked_row_has_no_solution(self):
        scn = scenario([machine(0)], [app(0)], anti=[[1]])
        res = optimal_place(scn, build_final_affinity(scn))
        assert res.exhausted
        assert res.optimal is None
        assert res.optimal_reduced_cost is None

    def test_optimal_passes_validation(self):
        for seed in range(10):
            scn = generate_synthetic(
                GeneratorConfig(3, 3, seed=seed, instance_range=(1, 2), anti_affinity_fraction=0.3)
            )
            f = build_final_affinity(scn)
            res = optimal_place(scn, f)
            assert res.exhausted
            if res.optimal is not None:
                assert validate_allocation(scn, res.optimal).feasible_complete

    def test_matches_labeled_brute_force(self):
        for seed in range(20):
            scn = generate_synthetic(
                GeneratorConfig(3, 2, seed=seed, instance_range=(1, 3), anti_affinity_fraction=0.3)
            )
            f = build_final_affinity(scn)
            res = optimal_place(scn, f)
            bf_counts, bf_cost = brute_force_optimal(scn, f)
            if bf_counts is None:
                assert res.optimal is None
            else:
                assert res.optimal is not None
                assert res.optimal_reduced_cost == pytest.approx(bf_cost, rel=1e-9, abs=1e-12)
                assert res.optimal.counts.tolist() == bf_counts

    def test_reported_cost_matches_total_cost(self):
        scn = generate_synthetic(GeneratorConfig(3, 3, seed=5, instance_range=(1, 2)))
        f = build_final_affinity(scn)
        res = optimal_place(scn, f)
        assert res.optimal is not None
        breakdown = total_cost(scn, res.optimal, f)
        assert res.optimal_reduced_cost == pytest.approx(breakdown.reduced, rel=1e-9, abs=1e-9)

    def test_equal_cost_tie_breaks_lexicographically(self):
        # row-major lexicographic order puts zeros first, so [[0, 1]]
        # beats [[1, 0]] among equal-cost optima
        scn = scenario([machine(0, cpu=10), machine(1, cpu=10)], [app(0, cpu=5)])
        f = final_matrix([[0.5, 0.5]])
        res = optimal_place(scn, f)
        assert res.optimal.counts.tolist() == [[0, 1]]
        # and repeat runs return the same matrix
        assert optimal_place(scn, f).optimal.counts.tolist() == [[0, 1]]

    def test_equal_cost_tie_across_earlier_rows_keeps_the_first(self):
        # [[0, 1], [1, 0]] and [[1, 0], [0, 1]] cost the same bits on twin
        # machines; they sit under different rows of app 0, and the first wins
        scn = scenario([machine(0, cpu=10), machine(1, cpu=10)], [app(0, cpu=5), app(1, cpu=5)])
        f = final_matrix([[0.5, 0.5], [0.5, 0.5]])
        res = optimal_place(scn, f)
        assert res.optimal.counts.tolist() == [[0, 1], [1, 0]]
        assert res.optimal_reduced_cost == 12.5 + 12.5 - 4 * 1.0

    def test_budget_exhaustion_is_flagged(self):
        scn = generate_synthetic(GeneratorConfig(4, 4, seed=0, instance_range=(2, 2)))
        f = build_final_affinity(scn)
        res = optimal_place(scn, f, budget=3)
        assert not res.exhausted

    def test_cost_is_recomputed_from_counts_bit_for_bit(self):
        # the reported cost depends only on the optimum's counts, never on
        # the branches searched before it
        for seed in range(30):
            if seed % 2:
                config = GeneratorConfig(3, 3, seed=seed, instance_range=(1, 3), anti_affinity_fraction=0.3)
            else:
                config = GeneratorConfig(4, 4, seed=seed, instance_range=(2, 2))
            scn = generate_synthetic(config)
            f = build_final_affinity(scn)
            res = optimal_place(scn, f)
            if res.optimal is not None:
                assert res.optimal_reduced_cost == fresh_oracle_cost(scn, f, res.optimal.counts)

    @pytest.mark.parametrize(
        "budget, nodes, counts",
        [
            (1, 2, None),  # the first row of app 1 trips before any is scored
            (2, 3, [[0, 1], [0, 1]]),  # trips inside app 1's first batch of rows
            (3, 4, [[0, 1], [1, 0]]),
            (5, 6, [[0, 1], [1, 0]]),  # trips inside app 1's second batch
            (6, 6, [[0, 1], [1, 0]]),
        ],
    )
    def test_budget_trip_inside_last_rows_keeps_best_so_far(self, budget, nodes, counts):
        # nodes in order: app 0 [0, 1]; app 1 [0, 1], [1, 0]; app 0 [1, 0];
        # app 1 [0, 1], [1, 0]. App 1 on machine 0 next to app 0 costs 21.4,
        # on machine 1 with it 100, and [[1, 0], [0, 1]] 25.
        scn = scenario([machine(0, cpu=10), machine(1, cpu=10)], [app(0, cpu=5), app(1, cpu=5)])
        f = final_matrix([[0.0, 0.0], [0.9, 0.0]])
        res = optimal_place(scn, f, budget=budget)
        assert res.nodes_explored == nodes
        assert res.exhausted == (budget >= 6)
        if counts is None:
            assert res.optimal is None and res.optimal_reduced_cost is None
        else:
            assert res.optimal.counts.tolist() == counts
            assert res.optimal_reduced_cost == fresh_oracle_cost(scn, f, counts)

    @pytest.mark.parametrize(
        "config",
        [
            GeneratorConfig(4, 2, seed=1, instance_range=(2, 3)),
            GeneratorConfig(3, 3, seed=2, instance_range=(1, 3), anti_affinity_fraction=0.3),
            GeneratorConfig(4, 3, seed=3, instance_range=(1, 2)),
            GeneratorConfig(2, 3, seed=5, instance_range=(2, 3)),
            GeneratorConfig(4, 1, seed=4, instance_range=(3, 5)),
        ],
        ids=["4x2", "3x3-anti", "4x3", "2x3", "4x1"],
    )
    def test_every_budget_matches_the_replay(self, config, monkeypatch):
        # a trip at any node, in a level above the batch, between batches or
        # at any batched level, ends at node budget + 1 with the best of the
        # rows before it; the batch takes the last level only, the last two,
        # and then the whole search
        scn = generate_synthetic(config)
        f = build_final_affinity(scn)
        n, m = scn.num_applications, scn.num_machines
        rows = [math.comb(k + m - 1, m - 1) for k in scn.instances.tolist()]
        for batched in sorted({1, min(2, n), n}):
            monkeypatch.setattr(oracle, "_BLOCK_CELLS", math.prod(rows[n - batched:]))
            assert oracle._Search(scn, f, 1).depth == n - batched
            full = optimal_place(scn, f).nodes_explored
            for budget in range(1, full + 1):
                res = optimal_place(scn, f, budget=budget)
                replay_oracle(scn, f, res, budget)
                assert type(res.nodes_explored) is int
                if res.optimal is not None:
                    assert res.optimal_reduced_cost == fresh_oracle_cost(scn, f, res.optimal.counts)

    def test_batch_in_several_blocks_matches_the_replay(self):
        # every row of app 0 fits, and every row of app 1 fits each of them:
        # 462 x 462 leaves are more than one batch holds, so each row of app 0
        # is a node of its own, followed by one batch of app 1's 462 rows
        spans = (60, 150, 80, 120, 90, 110)
        caps = (40, 24, 30, 36, 28, 32)
        scn = scenario(
            [machine(j, cpu=c, p_idle=100, p_max=100 + s) for j, (c, s) in enumerate(zip(caps, spans))],
            [app(0, cpu=1.0, instances=6), app(1, cpu=1.5, instances=6)],
        )
        f = final_matrix([[0.9, 0.5, 0.2, 0.1, 0.3, 0.0], [0.7, 0.0, 0.4, 0.6, 0.8, 0.2]])
        assert 462 < _BLOCK_CELLS < 462 * 462
        assert oracle._Search(scn, f, 1).depth == 1
        step = _BLOCK_CELLS // 462
        first = step * (1 + 462)  # the first `step` rows of app 0 and their batches
        # inside the first batch; at the end of a batch, so that the next row
        # of app 0 trips on its own node; after none and after one of that
        # row's app 1 rows; inside a later batch; exhausted
        for budget in (4000, first, first + 1, first + 2, 68_000, DEFAULT_NODE_BUDGET):
            res = optimal_place(scn, f, budget=budget)
            replay_oracle(scn, f, res, budget)
            assert res.optimal_reduced_cost == fresh_oracle_cost(scn, f, res.optimal.counts)
        assert res.exhausted and res.nodes_explored == 462 * 463

    def test_largest_tiny_solve_keeps_a_small_working_set(self):
        # the largest of perfbench's 200 oracle-tiny solves, all in one
        # batch: per-machine (node, row) gathers peak near 0.26 MB, where
        # (node, row, machine) broadcast indexing peaks near 1.5 MB
        scn = generate_synthetic(GeneratorConfig(4, 4, seed=99, instance_range=(2, 2)))
        f = build_final_affinity(scn)
        optimal_place(scn, f)
        res, peak = traced_peak(lambda: optimal_place(scn, f))
        assert res.exhausted and res.nodes_explored == 11_105
        assert peak <= 768 * 1024

    def test_dominates_heuristics(self):
        for seed in range(15):
            scn = generate_synthetic(
                GeneratorConfig(3, 3, seed=seed, instance_range=(1, 2), anti_affinity_fraction=0.3)
            )
            f = build_final_affinity(scn)
            res = optimal_place(scn, f)
            for place in (pap_place, aap_place, cpaap_place):
                out = place(scn, f)
                if out.feasible:
                    assert res.optimal is not None
                    heur = total_cost(scn, out.allocation, f).reduced
                    assert res.optimal_reduced_cost <= heur + 1e-9 * max(1.0, abs(heur))


class TestFeasibilityCheck:
    def test_plentiful_single_machine(self):
        scn = scenario([machine(0, cpu=100, io=100, nw=100, mem=100)], [app(0, cpu=1, instances=3)])
        assert optimal_place(scn, build_final_affinity(scn)).optimal is not None

    def test_blocked_row_is_infeasible(self):
        scn = scenario([machine(0), machine(1)], [app(0)], anti=[[1, 1]])
        # scenario() builder forbids an all-ones row via generation, but a
        # hand-built matrix may express it
        res = optimal_place(scn, build_final_affinity(scn))
        assert res.exhausted and res.optimal is None

    def test_split_assignment_found_where_stacking_fails(self):
        scn = scenario(
            [machine(0, cpu=10), machine(1, cpu=10)],
            [app(0, cpu=6, instances=2)],
        )
        assert optimal_place(scn, build_final_affinity(scn)).optimal is not None
        out = first_fit_place(scn)
        assert out.feasible
        assert out.allocation.counts.tolist() == [[1, 1]]

    def test_budget_trip_is_indeterminate(self):
        scn = generate_synthetic(GeneratorConfig(4, 4, seed=1, instance_range=(2, 2)))
        assert not optimal_place(scn, build_final_affinity(scn), budget=1).exhausted

    def test_infeasible_scenarios_bound_heuristics(self):
        # whenever enumeration proves infeasibility every heuristic must
        # fail as well
        checked = 0
        for seed in range(40):
            scn = generate_synthetic(
                GeneratorConfig(
                    2, 3, seed=seed, instance_range=(2, 3),
                    capacity_ranges=_tight_caps(), anti_affinity_fraction=0.4,
                )
            )
            f = build_final_affinity(scn)
            res = optimal_place(scn, f)
            if res.exhausted and res.optimal is None:
                checked += 1
                assert not pap_place(scn, f).feasible
                assert not aap_place(scn, f).feasible
                assert not cpaap_place(scn, f).feasible
                assert not first_fit_place(scn).feasible
        assert checked > 0, "tight generator never produced an infeasible case"


def _tight_caps():
    from powerplace.workload import ResourceRanges

    return ResourceRanges(cpu=(8, 12), io=(100, 1000), nw=(100, 1000), mem=(16, 256))
