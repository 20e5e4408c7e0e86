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
from powerplace.affinity import FINAL, SYSTEM, AffinityMatrix
from powerplace.workload import GeneratorConfig, generate_synthetic

from support import WEIGHTS, app, machine, scenario


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
