import math
from dataclasses import replace

import numpy as np
import pytest

from powerplace import (
    AllocationMatrix,
    ModelError,
    aap_place,
    cpaap_place,
    first_fit_place,
    optimal_place,
    pap_place,
    total_cost,
    validate_allocation,
)
from powerplace import placement
from powerplace.affinity import AffinityMatrix, build_final_affinity
from powerplace.placement import PapPriorityState
from powerplace.workload import GeneratorConfig, ResourceRanges, generate_synthetic

from support import (
    app,
    check_trace_shape,
    final_matrix,
    machine,
    probe_log,
    replay_aap,
    replay_cpaap,
    replay_first_fit,
    replay_pap,
    reused_candidate_steps,
    scenario,
    sort_applications,
    spent_machines,
)

ALGOS = {
    "pap": lambda scn, f: pap_place(scn, f),
    "aap": lambda scn, f: aap_place(scn, f),
    "cpaap": lambda scn, f: cpaap_place(scn, f),
    "first_fit": lambda scn, f: first_fit_place(scn),
}


class TestSortApplications:
    def test_decreasing_cpu(self):
        apps = [app(0, cpu=2), app(1, cpu=4)]
        assert [a.id for a in sort_applications(apps)] == [1, 0]

    def test_lexicographic_second_key(self):
        apps = [app(0, cpu=4, io=10), app(1, cpu=4, io=20)]
        assert [a.id for a in sort_applications(apps)] == [1, 0]

    def test_identical_demands_keep_id_order(self):
        apps = [app(0, cpu=4, io=7, nw=3, mem=2), app(1, cpu=4, io=7, nw=3, mem=2)]
        assert [a.id for a in sort_applications(apps)] == [0, 1]

    def test_scenario_order_matches_the_reference_under_heavy_ties(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(1, 13))
            # two values per resource, so most keys tie with another application's
            rows = rng.integers(1, 3, (n, 4)).astype(float).tolist()
            apps = [app(i, *row, instances=int(c))
                    for i, (row, c) in enumerate(zip(rows, rng.integers(1, 4, n)))]
            scn = scenario([machine(0)], apps)
            assert scn.placement_order == tuple(
                (a.id, a.instances) for a in sort_applications(apps))


class TestPap:
    def test_balances_two_identical_machines(self):
        scn = scenario([machine(0, cpu=10), machine(1, cpu=10)], [app(0, cpu=5, instances=2)])
        out = pap_place(scn, build_final_affinity(scn))
        assert out.feasible
        assert out.allocation.counts.tolist() == [[1, 1]]
        assert out.trace == ((0, 0, 0), (0, 1, 1))

    def test_anti_affinity_blocks_only_machine(self):
        scn = scenario([machine(0)], [app(0)], anti=[[1]])
        out = pap_place(scn, build_final_affinity(scn))
        assert not out.feasible
        assert out.failed_at == (0, 0)
        assert out.allocation.counts.sum() == 0

    def test_capacity_exhaustion_mid_application(self):
        scn = scenario([machine(0, cpu=10)], [app(0, cpu=5, instances=3)])
        out = pap_place(scn, build_final_affinity(scn))
        assert not out.feasible
        assert out.failed_at == (0, 2)
        assert out.allocation.counts.tolist() == [[2]]
        assert len(out.trace) == 2

    def test_priority_update_rule(self):
        state = PapPriorityState(omega=[0.0], threshold=0.5)
        state.after_placement(0, 0.3)
        assert state.omega[0] == 0.3
        state.after_placement(0, 0.6)   # 0.3 < threshold: tracks utilization
        assert state.omega[0] == 0.6
        state.after_placement(0, 0.9)   # at/above threshold, below 1: jumps to 1
        assert state.omega[0] == 1.0
        state.after_placement(0, 0.95)  # from 1 on: doubles
        assert state.omega[0] == 2.0
        state.after_placement(0, 1.0)
        assert state.omega[0] == 4.0

    def test_infinite_threshold_tracks_utilization_and_never_escalates(self):
        # cpaap's candidate one: no utilization reaches the threshold, so
        # omega is the utilization, full machines included
        state = PapPriorityState(omega=[0.0, 0.0], threshold=math.inf)
        for pi in (0.3, 0.6, 0.9, 1.0, 1.0):
            state.after_placement(0, pi)
            assert state.omega[0] == pi
        assert state.after_placement(1, 0.5) == 0
        assert state.omega == [1.0, 0.5]
        assert state.order == [(0.5, 1), (1.0, 0)]

    def test_shared_threshold_alternates_evenly(self):
        # below the shared threshold omega tracks utilization, so two
        # identical machines take turns
        apps = [app(0, cpu=5, instances=6)]
        plain = scenario([machine(0, cpu=100), machine(1, cpu=100)], apps)
        out = pap_place(plain, build_final_affinity(plain))
        assert out.allocation.counts.tolist() == [[3, 3]]

    def test_replayed_choices_and_omega_monotone(self):
        for seed in range(12):
            scn = generate_synthetic(GeneratorConfig(8, 7, seed=seed, anti_affinity_fraction=0.3))
            f = build_final_affinity(scn)
            out = pap_place(scn, f)
            replay_pap(scn, f, out)
            check_trace_shape(scn, out)


class TestAap:
    def test_argmax_selection(self):
        scn = scenario([machine(j) for j in range(3)], [app(0)])
        out = aap_place(scn, final_matrix([[0.2, 0.9, 0.5]]))
        assert out.allocation.counts.tolist() == [[0, 1, 0]]

    def test_tie_breaks_by_lower_utilization(self):
        scn = scenario(
            [machine(0, cpu=10), machine(1, cpu=10)],
            [app(0, cpu=5), app(1, cpu=2)],
            anti=[[0, 1], [0, 0]],
        )
        # app 0 (larger) forced to machine 0 first; app 1 sees equal
        # affinity and goes to the emptier machine 1
        out = aap_place(scn, final_matrix([[0.5, 0.5], [0.5, 0.5]]))
        assert out.allocation.counts.tolist() == [[1, 0], [0, 1]]

    def test_feasibility_filter_precedes_argmax(self):
        scn = scenario(
            [machine(0, cpu=4), machine(1, cpu=10)],
            [app(0, cpu=5)],
        )
        out = aap_place(scn, final_matrix([[0.9, 0.1]]))
        assert out.allocation.counts.tolist() == [[0, 1]]

    @pytest.mark.parametrize("block", ["anti_affinity", "full"])
    def test_equal_affinity_run_skips_a_blocked_emptier_machine(self, block):
        # apps 0-3 each fit one machine only and leave cpu utilization
        # 0.6, 0.2, 0.4, 0.8 on machines 0-3; app 3 also fills machine 1's
        # memory. App 4 sees one run of equal affinity: the emptiest
        # machine, 1, is anti-affine or full, so the next-emptiest, 2, wins
        machines = [machine(j, cpu=10, mem=16) for j in range(4)]
        apps = [app(0, cpu=8), app(1, cpu=6), app(2, cpu=4),
                app(3, cpu=2, mem=16 if block == "full" else 0), app(4, cpu=1, mem=1)]
        anti = [[1, 1, 1, 0], [0, 1, 1, 1], [1, 1, 0, 1], [1, 0, 1, 1],
                [0, 1, 0, 0] if block == "anti_affinity" else [0, 0, 0, 0]]
        scn = scenario(machines, apps, anti=anti)
        out = aap_place(scn, final_matrix([[0.5] * 4] * 5))
        assert out.trace[-1] == (4, 0, 2)
        assert out.allocation.counts.tolist() == [
            [0, 0, 0, 1], [1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0]]

    def test_replayed_per_step_optimality(self):
        for seed in range(12):
            scn = generate_synthetic(GeneratorConfig(8, 7, seed=seed, anti_affinity_fraction=0.3))
            f = build_final_affinity(scn)
            out = aap_place(scn, f)
            replay_aap(scn, f, out)
            check_trace_shape(scn, out)


def read_only(values):
    values.setflags(write=False)
    return values


# Tight cpu, so machines fill and the run fails midway.
TIGHT = ResourceRanges(cpu=(4, 16), io=(100, 200), nw=(100, 200), mem=(8, 32))


def tie_laden(config):
    """A scenario whose affinity matrix has long runs of equal values.

    Rows 0-1 are 0.0 throughout, rows 2-3 are 0.5 throughout, and every
    other row has 0.5 in its even columns. The built matrix already holds
    0.0 where no machine fits and the user preference is 0, and 0.5 where
    it is 1.
    """
    scn = generate_synthetic(config)
    values = build_final_affinity(scn).values.copy()
    values[:2] = 0.0
    values[2:4] = 0.5
    values[4:, ::2] = 0.5
    return scn, values


class TestAffinityLayouts:
    """aap and cpaap read the live rows in place, whatever their strides."""

    CONFIGS = {
        "feasible": GeneratorConfig(
            48, 12, seed=3, instance_range=(2, 5), anti_affinity_fraction=0.3,
            user_affinity_density=0.5,
        ),
        "fails-midway": GeneratorConfig(
            40, 30, seed=1, instance_range=(3, 6), anti_affinity_fraction=0.3,
            user_affinity_density=0.5, capacity_ranges=TIGHT,
        ),
    }

    @staticmethod
    def layouts(values):
        """The same values as a C-ordered copy and as three strided arrays."""
        wide = np.zeros((values.shape[0], 2 * values.shape[1]))
        wide[:, ::2] = values
        return {
            "c-contiguous": read_only(values.copy()),
            "transposed-view": read_only(np.ascontiguousarray(values.T)).T,
            "fortran": read_only(np.asfortranarray(values)),
            "every-other-column": read_only(wide)[:, ::2],
        }

    @pytest.mark.parametrize("case", ["feasible", "fails-midway"])
    @pytest.mark.parametrize(
        "place, replay", [(aap_place, replay_aap), (cpaap_place, replay_cpaap)],
        ids=["aap", "cpaap"],
    )
    def test_strided_rows_match_the_contiguous_copy(self, case, place, replay):
        scn, values = tie_laden(self.CONFIGS[case])
        outcomes = {}
        for name, layout in self.layouts(values).items():
            f = AffinityMatrix(values=layout)
            # kept without a copy, so the walk meets the strided rows
            assert f.values is layout
            assert f.values.flags.c_contiguous == (name == "c-contiguous")
            out = place(scn, f)
            replay(scn, f, out)
            outcomes[name] = out
        ref = outcomes["c-contiguous"]
        assert ref.feasible == (case == "feasible") and ref.trace
        for name, out in outcomes.items():
            assert out.trace == ref.trace, name
            assert out.failed_at == ref.failed_at, name
            assert out.pairs_examined == ref.pairs_examined, name
            assert np.array_equal(out.allocation.counts, ref.allocation.counts), name


class TestRankingWidth:
    """The shared ranking holds machine ids as uint8 up to 256 machines, uint16 above."""

    @pytest.mark.parametrize("m, dtype", [(256, np.uint8), (257, np.uint16)])
    @pytest.mark.parametrize(
        "place, replay", [(aap_place, replay_aap), (cpaap_place, replay_cpaap)],
        ids=["aap", "cpaap"],
    )
    def test_the_widest_id_ranks_first(self, m, dtype, place, replay):
        # only the last machine has a user preference, so every row ranks
        # the widest id first; the other identical machines tie behind it
        user = np.zeros((3, m), dtype=int)
        user[:, -1] = 1
        scn = scenario([machine(j) for j in range(m)], [app(i, instances=3) for i in range(3)], user=user)
        f = build_final_affinity(scn)
        out = place(scn, f)
        assert f.ranked.dtype == dtype
        assert np.all(f.ranked[:, 0] == m - 1)
        replay(scn, f, out)


class TestCpaap:
    def worked_example(self, alpha):
        # filler app is anti-affined to machine 1, pinning pi = 0.5 onto
        # machine 0 before the probe app places
        scn = scenario(
            [machine(0, cpu=10), machine(1, cpu=10)],
            [app(0, cpu=5), app(1, cpu=5)],
            anti=[[0, 1], [0, 0]],
            alpha=alpha,
        )
        f = final_matrix([[0.0, 0.0], [0.9, 0.1]])
        return scn, f

    def test_power_term_wins_at_low_alpha(self):
        scn, f = self.worked_example(alpha=4.0)
        out = cpaap_place(scn, f)
        assert out.allocation.counts.tolist() == [[1, 0], [0, 1]]

    def test_affinity_term_wins_at_high_alpha(self):
        scn, f = self.worked_example(alpha=1000.0)
        out = cpaap_place(scn, f)
        assert out.allocation.counts.tolist() == [[1, 0], [1, 0]]

    def test_alpha_zero_balances_identical_machines(self):
        scn = scenario(
            [machine(0, cpu=10), machine(1, cpu=10)],
            [app(0, cpu=2, instances=4)],
            alpha=0.0,
        )
        out = cpaap_place(scn, final_matrix([[0.1, 0.9]]))
        assert out.allocation.counts.tolist() == [[2, 2]]

    def test_cost_tie_goes_to_lowest_utilization(self):
        scn = scenario([machine(0), machine(1)], [app(0, cpu=2)], alpha=0.0)
        out = cpaap_place(scn, final_matrix([[0.1, 0.9]]))
        assert out.allocation.counts.tolist() == [[1, 0]]

    def test_single_feasible_machine_degenerate(self):
        scn = scenario([machine(0), machine(1)], [app(0)], anti=[[0, 1]])
        out = cpaap_place(scn, final_matrix([[0.0, 1.0]]))
        assert out.feasible
        assert out.allocation.counts.tolist() == [[1, 0]]

    def test_replayed_step_dominance(self):
        for seed in range(12):
            scn = generate_synthetic(GeneratorConfig(8, 7, seed=seed, anti_affinity_fraction=0.3))
            f = build_final_affinity(scn)
            out = cpaap_place(scn, f)
            replay_cpaap(scn, f, out)
            check_trace_shape(scn, out)


class TestCpaapKeptCandidate:
    """The candidate that lost a step is reused at the next step of its application.

    Each run is checked against ``replay_cpaap``, which ranks both
    candidates afresh at every step. The probes show which scans ran: a
    kept step makes one, the winner's, where a step that searches both
    makes two.
    """

    def test_candidate_one_loses_three_steps_then_wins(self):
        # machine 1 has all the affinity: at alpha 2 it wins while its cube
        # term grows by 0.1, 0.7 and 1.9, then loses at 3.7 to machine 0's 0.1
        scn = scenario([machine(0), machine(1)], [app(0, cpu=1, instances=5)], alpha=2.0)
        f = final_matrix([[0.0, 1.0]])
        with probe_log() as probes:
            out = cpaap_place(scn, f)
        candidates = replay_cpaap(scn, f, out)
        assert candidates == [(0, 0, 1)] * 5
        assert [j for _, _, j in out.trace] == [1, 1, 1, 0, 0]
        # step 1 searches both; steps 2-4 keep machine 0 and only walk, the
        # fourth placing on it; step 5 keeps machine 1 and only scans (pi, id)
        assert probes == [1, 0, 1, 1, 1, 0]
        assert out.pairs_examined == 5 * 2
        assert reused_candidate_steps(candidates) == [1, 2, 3, 4]

    def test_coinciding_candidates_are_both_searched_again(self):
        # machine 2 leads the affinity ranking and has memory for two
        # instances; then the walk reaches machine 0, the kept candidate one,
        # and the two coincide, so step 4 searches both again
        scn = scenario(
            [machine(0), machine(1), machine(2, mem=2)], [app(0, cpu=1, mem=1, instances=4)],
            alpha=10.0)
        f = final_matrix([[0.5, 0.0, 1.0]])
        with probe_log() as probes:
            out = cpaap_place(scn, f)
        candidates = replay_cpaap(scn, f, out)
        assert candidates == [(0, 0, 2), (0, 0, 2), (0, 0, 0), (0, 1, 0)]
        assert [j for _, _, j in out.trace] == [2, 2, 0, 0]
        assert probes == [2, 0, 2, 2, 0, 2, 0, 1]
        assert out.pairs_examined == 4 * 3
        assert reused_candidate_steps(candidates) == [1, 2]

    def test_a_run_failing_after_kept_steps_counts_its_failing_step(self):
        # machines 0 and 1 take two instances each; machine 2 is anti-affine
        # but still walked, second in the affinity ranking
        scn = scenario(
            [machine(0), machine(1), machine(2)],
            [app(0, cpu=4, instances=6), app(1, cpu=4)],
            anti=[[0, 0, 1], [0, 0, 0]], alpha=100.0)
        f = final_matrix([[0.0, 1.0, 0.5], [0.0, 0.0, 0.0]])
        with probe_log() as probes:
            out = cpaap_place(scn, f)
        candidates = replay_cpaap(scn, f, out)
        assert out.failed_at == (0, 4) and not out.feasible
        assert candidates == [(0, 0, 1), (0, 0, 1), (0, 0, 0), (0, 0, 0)]
        # steps 2 and 3 keep machine 0; step 4 follows a coincidence and
        # searches both, with machine 1 retired from the (pi, id) order;
        # the failing step walks all three and scans nothing
        assert probes == [1, 0, 1, 1, 2, 0, 1, 2, 0, 2, 0, 1, 2, 0]
        assert out.pairs_examined == 5 * 3
        assert reused_candidate_steps(candidates) == [1, 2]


class TestFirstFit:
    def test_everything_on_machine_zero_until_full(self):
        scn = scenario([machine(0, cpu=10), machine(1, cpu=10)], [app(0, cpu=4, instances=3)])
        out = first_fit_place(scn)
        assert out.allocation.counts.tolist() == [[2, 1]]

    def test_anti_affine_machine_skipped(self):
        scn = scenario([machine(0), machine(1)], [app(0)], anti=[[1, 0]])
        out = first_fit_place(scn)
        assert out.allocation.counts.tolist() == [[0, 1]]

    def test_no_feasible_machine(self):
        scn = scenario([machine(0, cpu=2)], [app(0, cpu=5)])
        out = first_fit_place(scn)
        assert not out.feasible
        assert out.failed_at == (0, 0)

    def test_scan_restarts_per_application_and_counts_skipped_machines(self):
        scn = scenario([machine(0), machine(1)], [app(0, cpu=6, instances=2), app(1, cpu=4, instances=3)])
        out = first_fit_place(scn)
        # app 1 starts again at machine 0, which app 0 left 4 cpu on
        assert out.trace == ((0, 0, 0), (0, 1, 1), (1, 0, 0), (1, 1, 1))
        assert out.failed_at == (1, 2)
        # probes from machine 0 every time: 1 + 2, then 1 + 2 + M for the failing step
        assert out.pairs_examined == 8


class TestSharedContracts:
    def test_requires_final_affinity(self):
        scn = scenario([machine(0)], [app(0)])
        wide = final_matrix([[0.5, 0.5]])
        for place in (pap_place, aap_place, cpaap_place, optimal_place):
            with pytest.raises(ModelError):
                place(scn, wide)
        alloc = AllocationMatrix.zeros(1, 1)
        with pytest.raises(ModelError):
            total_cost(scn, alloc, wide)
        with pytest.raises(ModelError):
            total_cost(scn, AllocationMatrix.zeros(1, 2), final_matrix([[0.5]]))

    def test_determinism(self):
        scn = generate_synthetic(GeneratorConfig(12, 10, seed=42, anti_affinity_fraction=0.2))
        f = build_final_affinity(scn)
        for name, place in ALGOS.items():
            a = place(scn, f)
            b = place(scn, f)
            assert a.trace == b.trace, name
            assert np.array_equal(a.allocation.counts, b.allocation.counts)
            assert a.pairs_examined == b.pairs_examined

    def test_successful_outcomes_pass_validation(self):
        for seed in range(15):
            scn = generate_synthetic(
                GeneratorConfig(9, 8, seed=seed, anti_affinity_fraction=(seed % 3) * 0.2)
            )
            f = build_final_affinity(scn)
            for name, place in ALGOS.items():
                out = place(scn, f)
                if out.feasible:
                    assert validate_allocation(scn, out.allocation).feasible_complete, (name, seed)

    def test_work_bound(self):
        for seed in range(5):
            scn = generate_synthetic(GeneratorConfig(10, 8, seed=seed))
            f = build_final_affinity(scn)
            bound = 4 * scn.total_instances * scn.num_machines
            for name, place in ALGOS.items():
                out = place(scn, f)
                assert out.pairs_examined <= bound, name

    @pytest.mark.parametrize("name", ALGOS)
    def test_first_instance_failing_leaves_zero_counts(self, name):
        scn = scenario(
            [machine(j, cpu=2) for j in range(3)], [app(0, cpu=5, instances=2), app(1, cpu=1)],
        )
        out = ALGOS[name](scn, build_final_affinity(scn))
        assert out.failed_at == (0, 0)
        assert out.trace == ()
        assert out.pairs_examined == 3  # M: the failing step tries every machine
        counts = out.allocation.counts
        assert counts.dtype == np.int64
        assert counts.shape == (2, 3)
        assert not counts.any()

    @pytest.mark.parametrize("name", ALGOS)
    def test_counts_are_the_placed_cells_of_the_trace(self, name):
        scn = generate_synthetic(
            GeneratorConfig(6, 40, seed=3, instance_range=(3, 6), capacity_ranges=TIGHT)
        )
        out = ALGOS[name](scn, build_final_affinity(scn))
        assert not out.feasible and out.trace
        expected = np.zeros((40, 6), dtype=np.int64)
        for i, _, j in out.trace:
            expected[i, j] += 1
        counts = out.allocation.counts
        assert counts.dtype == np.int64
        assert np.array_equal(counts, expected)

    def test_scenario_not_mutated(self):
        scn = generate_synthetic(GeneratorConfig(6, 5, seed=1))
        f = build_final_affinity(scn)
        before = scn.anti_affinity.copy()
        pap_place(scn, f)
        cpaap_place(scn, f)
        assert np.array_equal(scn.anti_affinity, before)


@pytest.fixture
def retired(monkeypatch):
    """The machines the next runs retire, in order, as _greedy's retire hook sees them."""
    calls = []
    real = placement._greedy

    def spy(scenario, choose, retire=None):
        def logged(j):
            calls.append(j)
            retire(j)
        return real(scenario, choose, retire and logged)

    monkeypatch.setattr(placement, "_greedy", spy)
    return calls


SCANNING = ["pap", "cpaap", "first_fit"]


class TestSpentMachines:
    """A machine left below the least demand in some resource leaves the scans."""

    @staticmethod
    def one_spent_machine():
        # app 0 may only use machine 0 and leaves it 1 mem, under the floor
        # of 2; its 1000 cpu keeps it at the front of pap's (omega, id) order
        machines = [machine(0, cpu=1000, mem=4), machine(1, mem=16), machine(2, mem=16)]
        apps = [app(0, cpu=1, mem=3), app(1, cpu=0.5, mem=2, instances=3)]
        return scenario(machines, apps, anti=[[0, 1, 1], [0, 0, 0]])

    @pytest.mark.parametrize("name", SCANNING)
    def test_a_machine_exactly_at_the_floor_keeps_taking_instances(self, name, retired):
        # the first instance leaves mem 2, the floor, so the second still fits;
        # the second leaves 0 and spends the machine
        scn = scenario([machine(0, mem=4)], [app(0, cpu=1, mem=2, instances=2)])
        out = ALGOS[name](scn, build_final_affinity(scn))
        assert out.feasible and out.trace == ((0, 0, 0), (0, 1, 0))
        assert retired == [0] == spent_machines(scn, out)

    @pytest.mark.parametrize("name", ["pap", "first_fit"])
    def test_a_machine_below_the_floor_is_never_probed_again(self, name, retired):
        scn = self.one_spent_machine()
        f = build_final_affinity(scn)
        with probe_log() as probes:
            out = ALGOS[name](scn, f)
        assert out.feasible and out.trace[0] == (0, 0, 0)
        assert retired == [0] == spent_machines(scn, out)
        # machine 0 is probed once, for the placement that spent it
        assert probes.count(0) == 1 and probes[0] == 0
        if name == "pap":
            replay_pap(scn, f, out)
        else:
            replay_first_fit(scn, out)

    def test_cpaap_retires_the_spent_machine_and_still_places(self, retired):
        scn = self.one_spent_machine()
        f = build_final_affinity(scn)
        out = cpaap_place(scn, f)
        assert retired == [0] == spent_machines(scn, out)
        replay_cpaap(scn, f, out)

    @pytest.mark.parametrize("name", SCANNING)
    def test_a_resource_whose_floor_is_zero_never_retires_a_machine(self, name, retired):
        # no application asks for io, nw or mem, so none left is not spent
        scn = scenario([machine(0, io=0, nw=0, mem=0)], [app(0, cpu=1, instances=3)])
        out = ALGOS[name](scn, build_final_affinity(scn))
        assert out.feasible and out.trace == ((0, 0, 0), (0, 1, 0), (0, 2, 0))
        assert retired == [] == spent_machines(scn, out)

    def test_a_retired_pap_machine_ahead_of_the_chosen_one_counts_as_a_probe(self):
        scn = self.one_spent_machine()
        f = build_final_affinity(scn)
        with probe_log() as probes:
            out = pap_place(scn, f)
        # app 1's last instance: machine 0, retired at omega 0.001, is ahead
        # of machine 1 at 0.05; only machine 1 is probed, and both count
        assert out.trace[-1] == (1, 2, 1)
        assert probes == [0, 1, 2, 1]
        assert out.pairs_examined == 1 + 1 + 1 + 2
        replay_pap(scn, f, out)

    def test_retired_pairs_are_counted_in_the_full_order(self):
        state = PapPriorityState(omega=[0.0] * 3, threshold=0.5)
        state.after_placement(0, 0.1)
        state.retire(0)
        assert state.order == [(0.0, 1), (0.0, 2)] and state.retired == [(0.1, 0)]
        assert state.after_placement(2, 0.2) == 1  # (0.0, 2) follows (0.0, 1)
        assert state.after_placement(1, 0.3) == 0
        # (0.2, 2) leads the live pairs but follows the retired (0.1, 0)
        assert state.after_placement(2, 0.4) == 1

    def test_scenario_keeps_the_floor_and_the_order_through_replace(self):
        scn = generate_synthetic(GeneratorConfig(6, 9, seed=4, instance_range=(1, 5)))
        for s in (scn, replace(scn, alpha=70.0)):
            floor = [min(a.demand.as_tuple()[c] for a in s.applications) for c in range(4)]
            assert s.demand_floor == tuple(floor)
            assert all(type(v) is float for v in s.demand_floor)
            assert s.placement_order == tuple(
                (a.id, a.instances) for a in sort_applications(s.applications))


class TestProbeCounts:
    """Exact probes on one seeded fleet-shaped scenario, next to unchanged work counts.

    ``pairs_examined`` counts every machine a scan that never drops one
    would probe; the probes are what the scans really draw. A scan that
    never retires a machine probes 7,380 (pap), 3,311 (cpaap) and 8,231
    (first_fit) times here; aap's walk retires nothing.
    """

    PINNED = {  # name: (probes, pairs_examined)
        "pap": (3_139, 7_380),
        "aap": (1_682, 48_400),
        "cpaap": (2_397, 48_400),
        "first_fit": (3_950, 22_322),
    }

    @pytest.mark.parametrize("name", PINNED)
    def test_probes_and_pairs_are_pinned(self, name):
        scn = generate_synthetic(GeneratorConfig(
            100, 160, seed=7, instance_range=(2, 4), anti_affinity_fraction=0.5))
        f = build_final_affinity(scn)
        with probe_log() as probes:
            out = ALGOS[name](scn, f)
        assert out.feasible
        assert (len(probes), out.pairs_examined) == self.PINNED[name]
