import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerplace import (
    AffinityWeights,
    AllocationMatrix,
    Application,
    Machine,
    ModelError,
    ResourceVector,
    Scenario,
    validate_allocation,
)
from powerplace.model import CapacityLedger
from powerplace.oracle import optimal_place
from powerplace.placement import first_fit_place
from powerplace.affinity import build_final_affinity

from support import app, machine, scenario, traced_peak
from powerplace.workload import GeneratorConfig, generate_synthetic


def alloc(rows):
    return AllocationMatrix(np.array(rows, dtype=np.int64))


class TestTypes:
    def test_negative_resource_rejected(self):
        with pytest.raises(ModelError):
            ResourceVector(1, -0.5, 0, 0)

    def test_machine_power_ordering(self):
        with pytest.raises(ModelError):
            Machine(0, ResourceVector(8, 1, 1, 1), p_idle=200, p_max=100)

    def test_machine_needs_cpu(self):
        with pytest.raises(ModelError):
            Machine(0, ResourceVector(0, 1, 1, 1), p_idle=10, p_max=20)

    def test_application_needs_cpu_and_instances(self):
        with pytest.raises(ModelError):
            Application(0, ResourceVector(0, 1, 1, 1), 1)
        with pytest.raises(ModelError):
            Application(0, ResourceVector(1, 1, 1, 1), 0)

    @pytest.mark.parametrize("bad", [0.0, np.float64(1.0), 2.5, True, np.bool_(True), "1"],
                             ids=["float", "np_float", "fraction", "bool", "np_bool", "str"])
    @pytest.mark.parametrize(
        "build, name",
        [
            (lambda v: machine(v), "machine id"),
            (lambda v: app(v), "application id"),
            (lambda v: app(0, instances=v), "instances"),
        ],
        ids=["machine_id", "application_id", "instances"],
    )
    def test_ids_and_instance_counts_must_be_integers(self, build, name, bad):
        # a float id equals its position (0.0 == 0) and then fails as an index
        with pytest.raises(ModelError, match=f"{name} must be an integer"):
            build(bad)

    def test_numpy_integer_ids_and_counts_are_stored_as_ints(self):
        one = np.int64(1)
        scn = scenario([machine(np.int64(0)), machine(one)], [app(np.int32(0), instances=one + 1)])
        values = [scn.machines[1].id, scn.applications[0].id, scn.applications[0].instances]
        assert values == [1, 0, 2] and {type(v) for v in values} == {int}
        out = first_fit_place(scn)
        assert out.allocation.counts.tolist() == [[2, 0]]
        assert {type(v) for event in out.trace for v in event} == {int}

    def test_scenario_rejects_user_anti_overlap(self):
        with pytest.raises(ModelError, match="both set"):
            scenario([machine(0)], [app(0)], user=[[1]], anti=[[1]])

    def test_scenario_rejects_misordered_ids(self):
        with pytest.raises(ModelError):
            scenario([machine(1)], [app(0)])

    def test_scenario_matrices_read_only(self):
        scn = scenario([machine(0)], [app(0)])
        with pytest.raises(ValueError):
            scn.user_affinity[0, 0] = 1

    @pytest.mark.parametrize("bad", [0.5, 1.7, math.nan, -1, 2])
    @pytest.mark.parametrize("name", ["user_affinity", "anti_affinity"])
    def test_scenario_rejects_a_non_binary_cell_by_name(self, name, bad):
        cells = np.array([[0, bad]])
        other = np.zeros((1, 2), dtype=int)
        user, anti = (cells, other) if name == "user_affinity" else (other, cells)
        with pytest.raises(ModelError, match=f"{name} must be binary"):
            scenario([machine(0), machine(1)], [app(0)], user=user, anti=anti)

    @pytest.mark.parametrize("dtype", [float, bool, np.uint8, np.int32])
    def test_scenario_stores_binary_cells_as_int64(self, dtype):
        scn = scenario([machine(0), machine(1)], [app(0)],
                       user=np.array([[1, 0]], dtype=dtype), anti=np.array([[0, 1]], dtype=dtype))
        assert scn.user_affinity.dtype == np.int64 and scn.anti_affinity.dtype == np.int64
        assert scn.user_affinity.tolist() == [[1, 0]] and scn.anti_affinity.tolist() == [[0, 1]]

    def test_anti_rows_are_bytes_built_once_and_shared(self):
        anti = [[0, 1, 0], [1, 0, 1]]
        scn = scenario([machine(0), machine(1), machine(2)], [app(0), app(1)], anti=anti)
        assert scn.anti_rows == (bytes([0, 1, 0]), bytes([1, 0, 1]))
        assert "anti_rows" not in repr(scn)
        assert CapacityLedger(scn).anti is scn.anti_rows
        with pytest.raises(TypeError):
            Scenario(scn.machines, scn.applications, scn.user_affinity, scn.anti_affinity,
                     scn.weights, scn.alpha, scn.pi_threshold, scn.anti_rows)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "build",
        [
            lambda v: ResourceVector(v, 1, 1, 1),
            lambda v: ResourceVector(1, 1, 1, v),
            lambda v: machine(0, p_idle=v),
            lambda v: machine(0, p_max=v),
            lambda v: AffinityWeights(v, 0.2, 0.2, 0.2),
            lambda v: scenario([machine(0)], [app(0)], alpha=v),
            lambda v: scenario([machine(0)], [app(0)], pi_threshold=v),
        ],
        ids=["cpu", "mem", "p_idle", "p_max", "beta1", "alpha", "pi_threshold"],
    )
    def test_non_finite_rejected(self, build, bad):
        with pytest.raises(ModelError):
            build(bad)

    def test_allocation_rejects_negative_and_float(self):
        with pytest.raises(ModelError):
            AllocationMatrix(np.array([[-1]]))
        with pytest.raises(ModelError):
            AllocationMatrix(np.array([[0.5]]))

    def test_allocation_rejects_a_count_that_wraps_to_negative(self):
        # 2**63 fits a uint64 but wraps to -2**63 as an int64
        with pytest.raises(ModelError, match=">= 0"):
            AllocationMatrix(np.array([[1, 2**63]], dtype=np.uint64))
        assert AllocationMatrix(np.array([[2**63 - 1]], dtype=np.uint64)).counts[0, 0] == 2**63 - 1

    def test_array_holding_types_compare_and_hash_by_identity(self):
        scn = generate_synthetic(GeneratorConfig(3, 2, seed=1))
        pairs = {
            "Scenario": (scn, replace(scn, alpha=2.0)),
            "AffinityMatrix": (build_final_affinity(scn), build_final_affinity(scn)),
            "AllocationMatrix": (alloc([[1, 0, 2], [0, 1, 0]]), alloc([[1, 0, 2], [0, 1, 0]])),
        }
        for name, (a, b) in pairs.items():
            assert (a == a) is True and (a == b) is False and (a != b) is True, name
            assert hash(a) == hash(a) and len({a, b}) == 2, name


def ledger_for(machines, apps, anti=None):
    return CapacityLedger(scenario(machines, apps, anti=anti))


class TestRemainingCapacity:
    def test_allocates_a_small_share_of_the_matrix(self):
        # the ledger holds per-machine and per-application state and shares
        # the scenario's anti-affinity rows, so it allocates no N x M copy.
        # That state is about 130 bytes per machine or application, so at
        # 1000 x 1000 it is near 3% of one N x M int64 matrix
        scn = generate_synthetic(GeneratorConfig(1000, 1000, seed=7, anti_affinity_fraction=0.5))
        _, peak = traced_peak(lambda: CapacityLedger(scn))
        assert peak < 0.05 * scn.num_applications * scn.num_machines * 8

    def test_empty_allocation_is_identity(self):
        ledger = ledger_for([machine(0, 8, 100, 100, 16)], [app(0, 4, 50, 25, 8)])
        assert ledger.remaining[0] == [8, 100, 100, 16]
        assert ledger.pi[0] == 0.0

    def test_one_instance(self):
        ledger = ledger_for([machine(0, 8, 100, 100, 16)], [app(0, 4, 50, 25, 8)])
        ledger.add(0, 0)
        assert ledger.remaining[0] == [4, 50, 75, 8]
        assert ledger.pi[0] == 0.5

    def test_two_instances_exhaust(self):
        ledger = ledger_for([machine(0, 8, 100, 100, 16)], [app(0, 4, 50, 25, 8)])
        ledger.add(0, 0)
        ledger.add(0, 0)
        assert ledger.remaining[0] == [0, 0, 50, 0]
        assert ledger.pi[0] == 1.0
        assert not ledger.admissible(0, 0)

    def test_float_residue_clamped_and_utilization_snapped(self):
        # 0.3 - 0.1 - 0.1 - 0.1 is -2.8e-17 and 3 * 0.1 / 0.3 overshoots 1
        ledger = ledger_for([machine(0, 0.3, 0.3, 0, 0)], [app(0, 0.1, 0.1)])
        for _ in range(3):
            assert ledger.pi_after(0, 0) <= 1.0
            ledger.add(0, 0)
        assert ledger.remaining[0] == [0.0, 0.0, 0.0, 0.0]
        assert ledger.pi[0] == 1.0

    def test_monotone_non_increasing(self):
        rng = np.random.default_rng(11)
        apps = [app(i, *rng.uniform(1, 5, 4)) for i in range(4)]
        ledger = ledger_for([machine(0, 100, 1000, 1000, 100)], apps)
        prev = list(ledger.remaining[0])
        for _ in range(12):
            i = int(rng.integers(0, 4))
            assert ledger.admissible(i, 0)
            ledger.add(i, 0)
            cur = list(ledger.remaining[0])
            assert all(c <= p for c, p in zip(cur, prev))
            prev = cur


class TestFits:
    def test_exact_fit_boundary(self):
        ledger = ledger_for([machine(0, 4, 50, 25, 8)], [app(0, 4, 50, 25, 8)])
        assert ledger.admissible(0, 0)

    def test_single_component_violation(self):
        ledger = ledger_for([machine(0, 3, 100, 100, 16)], [app(0, 4, 50, 25, 8)])
        assert not ledger.admissible(0, 0)

    def test_zero_demand(self):
        # cpu must be positive on both sides; the other components may be 0
        ledger = ledger_for([machine(0, 8, 0, 0, 0)], [app(0, 4, 0, 0, 0)])
        assert ledger.admissible(0, 0)

    def test_anti_affinity_blocks_and_every_probe_counts(self):
        ledger = ledger_for([machine(0), machine(1)], [app(0)], anti=[[1, 0]])
        assert not ledger.admissible(0, 0)
        assert ledger.admissible(0, 1)
        assert ledger.pairs == 2

    def test_first_admissible_follows_the_given_order_not_the_ids(self):
        ledger = ledger_for([machine(j) for j in range(3)], [app(0)])
        assert ledger.first_admissible(0, [2, 0, 1]) == 2
        assert ledger.first_admissible(0, range(3)) == 0

    @pytest.mark.parametrize(
        "blocked, anti",
        [
            (machine(0), [[1, 0]]),
            (machine(0, cpu=3), None),
            (machine(0, io=49), None),
            (machine(0, nw=24), None),
            (machine(0, mem=7), None),
        ],
        ids=["anti_affinity", "cpu", "io", "nw", "mem"],
    )
    def test_first_admissible_skips_a_blocked_machine(self, blocked, anti):
        ledger = ledger_for([blocked, machine(1)], [app(0, 4, 50, 25, 8)], anti=anti)
        assert ledger.first_admissible(0, [0]) == -1
        assert ledger.first_admissible(0, [0, 1]) == 1

    def test_first_admissible_takes_an_exact_fit(self):
        ledger = ledger_for([machine(0, 4, 50, 25, 8)], [app(0, 4, 50, 25, 8)])
        assert ledger.first_admissible(0, [0]) == 0

    def test_first_admissible_of_no_machines_is_minus_one(self):
        ledger = ledger_for([machine(0)], [app(0)])
        assert ledger.first_admissible(0, []) == -1
        assert ledger.first_admissible(0, iter(())) == -1

    def test_first_admissible_counts_no_pairs(self):
        ledger = ledger_for([machine(0, cpu=3), machine(1)], [app(0, cpu=4)])
        assert ledger.first_admissible(0, [0, 1]) == 1
        assert ledger.first_admissible(0, [0]) == -1
        assert ledger.pairs == 0

    def test_first_admissible_leaves_an_iterator_just_past_its_machine(self):
        # machines 1 and 3 fit; the rest of the iterator starts at 2
        machines = [machine(j, cpu=10 if j % 2 else 3) for j in range(4)]
        ledger = ledger_for(machines, [app(0, cpu=4)])
        rest = iter(range(4))
        assert ledger.first_admissible(0, rest) == 1
        assert list(rest) == [2, 3]
        rest = iter([3, 1, 0])
        assert ledger.first_admissible(0, rest) == 3
        assert ledger.first_admissible(0, rest) == 1
        assert ledger.first_admissible(0, rest) == -1

    @settings(max_examples=200)
    @given(
        st.lists(st.floats(1e-6, 1e6), min_size=3, max_size=3),
        st.lists(st.floats(0, 1e6), min_size=9, max_size=9),
    )
    def test_additivity(self, cpus, rest):
        d = (cpus[0], *rest[0:3])
        d2 = (cpus[1], *rest[3:6])
        r = (cpus[2], *rest[6:9])
        combined = tuple(a + b for a, b in zip(d, d2))
        apps = [app(0, *d), app(1, *d2), app(2, *combined)]
        ledger = ledger_for([machine(0, *r)], apps)
        if ledger.admissible(0, 0):
            ledger.add(0, 0)
            if ledger.admissible(1, 0):
                assert ledger_for([machine(0, *r)], apps).admissible(2, 0)


class TestValidateAllocation:
    def two_by_two(self):
        return scenario(
            [machine(0), machine(1)],
            [app(0, instances=2), app(1, instances=1)],
            anti=[[0, 0], [0, 1]],
        )

    def test_empty_allocation_fails_only_completeness(self):
        scn = self.two_by_two()
        report = validate_allocation(scn, AllocationMatrix.zeros(2, 2))
        assert report.anti_affinity.ok
        assert report.capacity.ok
        assert not report.completeness.ok
        assert report.completeness.witness == (0, -1)
        assert not report.feasible_complete

    def test_anti_affinity_witness(self):
        scn = self.two_by_two()
        report = validate_allocation(scn, alloc([[1, 1], [0, 1]]))
        assert not report.anti_affinity.ok
        assert report.anti_affinity.witness == (1, 1)

    def test_capacity_witness(self):
        scn = scenario([machine(0, cpu=10)], [app(0, cpu=6, instances=2)])
        report = validate_allocation(scn, alloc([[2]]))
        assert not report.capacity.ok
        assert report.capacity.witness == (-1, 0)
        assert "cpu" in report.capacity.detail

    def test_oracle_output_is_feasible_complete(self):
        scn = self.two_by_two()
        result = optimal_place(scn, build_final_affinity(scn))
        assert result.optimal is not None
        report = validate_allocation(scn, result.optimal)
        assert report.feasible_complete

    def test_shape_mismatch_raises(self):
        scn = self.two_by_two()
        with pytest.raises(ModelError):
            validate_allocation(scn, AllocationMatrix.zeros(1, 2))
