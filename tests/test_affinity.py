import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerplace import (
    AffinityWeights,
    ModelError,
    system_affinity_matrix,
    final_affinity,
)
from powerplace import affinity
from powerplace.affinity import FINAL, SYSTEM, AffinityMatrix, build_final_affinity
from powerplace.workload import GeneratorConfig, generate_synthetic

from support import WEIGHTS, app, machine, scenario, traced_peak


class TestWeights:
    def test_must_sum_to_one(self):
        with pytest.raises(ModelError):
            AffinityWeights(0.4, 0.2, 0.2, 0.1)

    def test_tolerates_binary_representation_noise(self):
        AffinityWeights(0.1, 0.2, 0.3, 0.4)

    def test_no_negative_weights(self):
        with pytest.raises(ModelError):
            AffinityWeights(-0.5, 0.5, 0.5, 0.5)


def system_affinity(m, a, weights):
    """Score of one pair, read from the matrix of a 1x1 scenario."""
    alone = scenario([replace(m, id=0)], [replace(a, id=0)], weights=weights)
    return float(system_affinity_matrix(alone).values[0, 0])


class TestSystemAffinity:
    def test_headroom_example(self):
        m = machine(0, 8, 100, 100, 16)
        a = app(0, 4, 50, 25, 8)
        assert system_affinity(m, a, WEIGHTS) == pytest.approx(0.55, rel=1e-12)

    def test_demand_equal_capacity_gives_zero(self):
        m = machine(0, 8, 100, 100, 16)
        a = app(0, 8, 100, 100, 16)
        assert system_affinity(m, a, WEIGHTS) == 0.0

    def test_near_zero_demand_approaches_weight_sum(self):
        # demand.cpu must stay positive, so probe the zero-demand limit
        m = machine(0, 8, 100, 100, 16)
        a = app(0, 1e-12, 0, 0, 0)
        assert system_affinity(m, a, WEIGHTS) == pytest.approx(1.0, rel=1e-9)

    def test_oversized_demand_gives_zero(self):
        m = machine(0, 8, 100, 100, 16)
        a = app(0, 9, 1, 1, 1)
        assert system_affinity(m, a, WEIGHTS) == 0.0

    def test_zero_capacity_component_contributes_nothing(self):
        m = machine(0, 8, 0, 100, 16)
        a = app(0, 4, 0, 25, 8)
        expected = 0.4 * 0.5 + 0.2 * 0.75 + 0.2 * 0.5
        assert system_affinity(m, a, WEIGHTS) == pytest.approx(expected, rel=1e-12)

    def test_weights_at_tolerance_edge_stay_clamped(self):
        # a legal weight vector may sum to 1 + O(1e-10); full headroom must
        # still score exactly 1
        w = AffinityWeights(0.25, 0.25, 0.25, 0.25 + 9e-10)
        m = machine(0, 8, 100, 100, 16)
        a = app(0, 1e-12, 0, 0, 0)
        assert system_affinity(m, a, w) <= 1.0

    @settings(max_examples=200)
    @given(
        cap=st.tuples(*[st.floats(0.1, 1e4) for _ in range(4)]),
        req=st.tuples(*[st.floats(0.01, 1e4) for _ in range(4)]),
    )
    def test_score_always_in_unit_interval(self, cap, req):
        s = system_affinity(machine(0, *cap), app(0, *req), WEIGHTS)
        assert 0.0 <= s <= 1.0

    @settings(max_examples=100)
    @given(
        cap=st.tuples(*[st.floats(1.0, 1e3) for _ in range(4)]),
        req=st.tuples(*[st.floats(0.5, 1.0) for _ in range(4)]),
        shrink=st.floats(0.1, 0.9),
        component=st.integers(0, 3),
    )
    def test_monotone_in_single_demand_component(self, cap, req, shrink, component):
        m = machine(0, *cap)
        base = system_affinity(m, app(0, *req), WEIGHTS)
        smaller = list(req)
        smaller[component] *= shrink
        if smaller[0] <= 0:
            smaller[0] = 1e-9
        assert system_affinity(m, app(0, *smaller), WEIGHTS) >= base - 1e-12

    def test_matrix_matches_scalar(self):
        # every cell of a 5x6 matrix equals the score of its pair alone
        rng = np.random.default_rng(3)
        machines = [machine(j, *rng.uniform(5, 50, 4)) for j in range(6)]
        apps = [app(i, *rng.uniform(1, 60, 4)) for i in range(5)]
        scn = scenario(machines, apps)
        mat = system_affinity_matrix(scn)
        assert mat.kind == SYSTEM
        for i, a in enumerate(apps):
            for j, m in enumerate(machines):
                assert mat.values[i, j] == pytest.approx(
                    system_affinity(m, a, WEIGHTS), rel=1e-12, abs=1e-15
                )


class TestFinalAffinity:
    def system(self, values):
        return AffinityMatrix(np.asarray(values, dtype=float), SYSTEM)

    def test_blend_example(self):
        out = final_affinity(np.array([[1]]), self.system([[0.55]]))
        assert out.kind == FINAL
        assert out.values[0, 0] == pytest.approx(0.775, rel=1e-12)

    def test_both_zero(self):
        out = final_affinity(np.array([[0]]), self.system([[0.0]]))
        assert out.values[0, 0] == 0.0

    def test_upper_bound_attained(self):
        out = final_affinity(np.array([[1]]), self.system([[1.0]]))
        assert out.values[0, 0] == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ModelError):
            final_affinity(np.zeros((2, 2)), self.system([[0.5]]))

    def test_rejects_final_kind_input(self):
        f = AffinityMatrix(np.array([[0.5]]), FINAL)
        with pytest.raises(ModelError):
            final_affinity(np.array([[0]]), f)

    def test_generated_scenarios_stay_in_unit_interval(self):
        for seed in range(5):
            scn = generate_synthetic(GeneratorConfig(8, 6, seed=seed))
            mat = final_affinity(scn.user_affinity, system_affinity_matrix(scn))
            assert (mat.values >= 0).all() and (mat.values <= 1).all()
            expected = (scn.user_affinity + system_affinity_matrix(scn).values) / 2
            assert np.array_equal(mat.values, expected)


class TestUserAntiConsistency:
    """A pair may not be both user-affine and anti-affine; Scenario checks it."""

    def test_all_zero_passes(self):
        zeros = np.zeros((2, 2))
        scenario([machine(0), machine(1)], [app(0), app(1)], user=zeros, anti=zeros)

    def test_overlap_fails_with_witness(self):
        u = [[0, 0], [1, 0]]
        a = [[0, 1], [1, 0]]
        with pytest.raises(ModelError, match="app 1, machine 0"):
            scenario([machine(0), machine(1)], [app(0), app(1)], user=u, anti=a)

    def test_disjoint_supports_pass(self):
        scenario([machine(0), machine(1)], [app(0)], user=[[1, 0]], anti=[[0, 1]])

    def test_shape_mismatch(self):
        u = np.zeros((1, 2))
        a = np.zeros((2, 1))
        with pytest.raises(ModelError, match="shape"):
            scenario([machine(0), machine(1)], [app(0)], user=u, anti=a)


class TestAffinityMatrixType:
    def test_rejects_out_of_range(self):
        with pytest.raises(ModelError):
            AffinityMatrix(np.array([[1.5]]), SYSTEM)
        with pytest.raises(ModelError):
            AffinityMatrix(np.array([[-0.1]]), FINAL)
        for bad in (math.nan, math.inf):
            with pytest.raises(ModelError):
                AffinityMatrix(np.array([[0.5, bad]]), FINAL)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ModelError):
            AffinityMatrix(np.array([[0.5]]), "both")

    def test_keeps_a_read_only_float_matrix_and_copies_any_other(self):
        kept = np.array([[0.5, 1.0]])
        kept.setflags(write=False)
        assert AffinityMatrix(kept, FINAL).values is kept
        for other in (np.array([[0.5, 1.0]]), np.array([[0, 1]]), [[0.5, 1.0]]):
            values = AffinityMatrix(other, FINAL).values
            assert values.dtype == np.float64 and not values.flags.writeable
            assert not np.shares_memory(values, np.asarray(other))


def one_shot(scn):
    """(system, final) affinity as one broadcast over all (N, M, 4) cells."""
    caps = np.array([m.capacity.as_tuple() for m in scn.machines])
    reqs = np.array([a.demand.as_tuple() for a in scn.applications])
    betas = np.array(scn.weights.as_tuple())
    with np.errstate(divide="ignore", invalid="ignore"):
        head = np.where(caps > 0, (caps[None, :, :] - reqs[:, None, :]) / caps[None, :, :], 0.0)
    blocked = (reqs[:, None, :] > caps[None, :, :]).any(axis=2)
    system = np.where(blocked, 0.0, np.minimum(head @ betas, 1.0))
    return system, (scn.user_affinity + system) / 2.0


def zero_capacity_fleet(n, m, seed):
    """n apps on m machines; a third of each lack some of io, nw and mem."""
    rng = np.random.default_rng(seed)
    machines = [machine(j, *rng.uniform(5, 50, 4)) for j in range(m)]
    for j in range(0, m, 3):
        machines[j] = machine(j, 40.0, *rng.choice([0.0, 30.0], 3))
    apps = [app(i, *rng.uniform(0.5, 30, 4)) for i in range(n)]
    for i in range(0, n, 3):
        apps[i] = app(i, 5.0, *rng.choice([0.0, 20.0], 3))
    user = (rng.random((n, m)) < 0.3).astype(int)
    return scenario(machines, apps, user=user)


class TestBlockedBuild:
    """The build scores rows in blocks; every cell must match the one-shot formula bit for bit."""

    @pytest.mark.parametrize(
        "make",
        [
            # 100 machines: two whole blocks of rows and 5 rows over
            lambda: generate_synthetic(GeneratorConfig(100, 2 * (affinity._BLOCK_CELLS // 100) + 5, seed=4)),
            lambda: generate_synthetic(GeneratorConfig(affinity._BLOCK_CELLS + 7, 3, seed=5)),
            lambda: generate_synthetic(GeneratorConfig(1, 1, seed=6)),
            lambda: zero_capacity_fleet(60, 300, seed=7),
        ],
        ids=["rows-not-a-block-multiple", "machines-over-one-block", "1x1", "zero-capacities"],
    )
    def test_matches_one_shot_through_int64_views(self, make):
        scn = make()
        system, final = one_shot(scn)
        assert np.array_equal(system_affinity_matrix(scn).values.view(np.int64), system.view(np.int64))
        built = build_final_affinity(scn)
        assert built.kind == FINAL and not built.values.flags.writeable
        assert np.array_equal(built.values.view(np.int64), final.view(np.int64))
        blended = final_affinity(scn.user_affinity, system_affinity_matrix(scn)).values
        assert np.array_equal(blended.view(np.int64), final.view(np.int64))

    def test_peak_memory_stays_within_twice_the_result(self):
        scn = generate_synthetic(GeneratorConfig(400, 640, seed=7, anti_affinity_fraction=0.5))
        built, peak = traced_peak(lambda: build_final_affinity(scn))
        assert peak <= 2 * built.values.nbytes
