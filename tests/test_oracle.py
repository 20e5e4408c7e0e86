import math

import numpy as np
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
from powerplace.model import ModelError
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

    @pytest.mark.parametrize(
        "budget, message",
        [
            (2.5, "node budget must be an integer, got 2.5"),
            (float("nan"), "node budget must be an integer, got nan"),
            (True, "node budget must be an integer, got True"),
            ("5", "node budget must be an integer, got '5'"),
            (None, "node budget must be an integer, got None"),
            (0, "node budget must be positive"),
            (-3, "node budget must be positive"),
            (3, None),
            (np.int64(3), None),
        ],
        ids=["float", "nan", "bool", "str", "none", "zero", "negative", "int", "numpy-int"],
    )
    def test_budget_is_a_positive_integer(self, budget, message):
        scn = generate_synthetic(GeneratorConfig(4, 4, seed=0, instance_range=(2, 2)))
        f = build_final_affinity(scn)
        if message is not None:
            with pytest.raises(ModelError, match=f"^{message}$"):
                optimal_place(scn, f, budget=budget)
            return
        res = optimal_place(scn, f, budget=budget)
        assert type(res.nodes_explored) is int and res.nodes_explored == 4
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


# The results of the row-by-row ledger search, pinned: (machines,
# applications, seed, budget, nodes, exhausted, optimum rows, cost), two
# instances per application. The batch takes all but the first level on
# 5x5x2 and the last four on 4x6x2 and 4x8x2, so levels above it build
# ladders and batch entries share states, and their tables, with earlier
# entries. Costs are checked to 1e-12
# only: the affinity comes from a BLAS matmul whose kernel may round the
# last bit differently.
_LARGER_SPACES = [
    (5, 5, 0, DEFAULT_NODE_BUDGET, 31512, True, "20000 00002 00110 00002 11000", -0.7932026053207644),
    (5, 5, 1, DEFAULT_NODE_BUDGET, 44221, True, "01010 10100 10001 02000 00020", -9.537232498887022),
    (5, 5, 2, DEFAULT_NODE_BUDGET, 41529, True, "01001 00200 11000 00002 00011", 13.406190646930138),
    (5, 5, 3, DEFAULT_NODE_BUDGET, 63526, True, "01010 11000 00020 00200 00011", -5.7587605882495385),
    (5, 5, 4, DEFAULT_NODE_BUDGET, 70280, True, "20000 10001 01100 00101 10010", -8.038590451362795),
    (5, 5, 5, DEFAULT_NODE_BUDGET, 37016, True, "10100 00002 02000 02000 10010", -18.229180168796407),
    (5, 5, 6, DEFAULT_NODE_BUDGET, 16768, True, "00002 02000 10100 10001 00020", -12.472331866800136),
    (5, 5, 7, DEFAULT_NODE_BUDGET, 74787, True, "00200 10001 20000 10010 02000", -25.507504944697345),
    (5, 5, 8, DEFAULT_NODE_BUDGET, 80363, True, "00020 02000 00200 10001 01001", -30.787274098793723),
    (5, 5, 9, DEFAULT_NODE_BUDGET, 26656, True, "01010 20000 00002 00110 00002", -21.6183570629495),
    (4, 6, 0, DEFAULT_NODE_BUDGET, 2525, True, "2000 0011 0200 2000 1100 2000", 152.55052051612026),
    (4, 6, 1, DEFAULT_NODE_BUDGET, 213415, True, "0200 1001 1100 0200 0020 0002", 5.940341055707375),
    (4, 6, 2, DEFAULT_NODE_BUDGET, 142246, True, "1100 0020 0101 1010 2000 0200", 28.38982193223354),
    (4, 6, 3, DEFAULT_NODE_BUDGET, 141914, True, "0011 1010 0002 0020 0002 0110", 22.69035036541873),
    (4, 6, 4, DEFAULT_NODE_BUDGET, 537841, True, "0200 1010 0020 2000 0020 1001", -5.4804793349044),
    (4, 8, 0, 2_000_000, 3124, True, None, None),
    (4, 8, 1, 2_000_000, 2_000_001, False, "0002 1001 2000 0020 1001 0200 0002 0002", 67.03204793678904),
]


@pytest.mark.parametrize(
    "m, n, seed, budget, nodes, exhausted, rows, cost",
    _LARGER_SPACES,
    ids=[f"{m}x{n}x2-seed{seed}" for m, n, seed, *_ in _LARGER_SPACES],
)
def test_larger_spaces_keep_their_results(m, n, seed, budget, nodes, exhausted, rows, cost):
    scn = generate_synthetic(GeneratorConfig(m, n, seed=seed, instance_range=(2, 2)))
    res = optimal_place(scn, build_final_affinity(scn), budget=budget)
    assert (res.nodes_explored, res.exhausted) == (nodes, exhausted)
    if rows is None:
        assert res.optimal is None and res.optimal_reduced_cost is None
    else:
        assert res.optimal.counts.tolist() == [list(map(int, row)) for row in rows.split()]
        assert res.optimal_reduced_cost == pytest.approx(cost, rel=1e-12, abs=0)


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
