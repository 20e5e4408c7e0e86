import math
import warnings
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
from powerplace.placement import aap_place, cpaap_place, first_fit_place, pap_place
from powerplace.affinity import build_final_affinity
from powerplace.costs import metrics

from support import admissible, app, machine, scenario, traced_peak
from powerplace.workload import GeneratorConfig, generate_synthetic, load_trace, save_trace


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

    def test_total_instances_is_exact_past_int64(self):
        scn = scenario([machine(0)], [app(0, instances=2**62), app(1, instances=2**62)])
        assert scn.total_instances == 2**63 and type(scn.total_instances) is int

    def test_scenario_rejects_user_anti_overlap(self):
        with pytest.raises(ModelError, match="both set"):
            scenario([machine(0)], [app(0)], user=[[1]], anti=[[1]])

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

    # an object matrix is read as floats first
    @pytest.mark.parametrize("dtype", [float, bool, np.uint8, np.int32, np.int64, object])
    def test_scenario_stores_binary_cells_as_bool(self, tmp_path, dtype):
        machines, apps = [machine(0), machine(1)], [app(0), app(1, instances=2)]
        user, anti = [[1, 0], [0, 1]], [[0, 1], [0, 0]]
        scn = scenario(machines, apps,
                       user=np.array(user, dtype=dtype), anti=np.array(anti, dtype=dtype))
        assert scn.user_affinity.dtype == bool and scn.anti_affinity.dtype == bool
        assert scn.user_affinity.tolist() == user and scn.anti_affinity.tolist() == anti
        # the cells' input type changes no result: as from Python lists
        plain = scenario(machines, apps, user=user, anti=anti)
        placed = alloc([[1, 1], [0, 2]])  # app 0 on its forbidden machine 1
        assert metrics(scn, placed, build_final_affinity(scn)) == metrics(
            plain, placed, build_final_affinity(plain))
        assert validate_allocation(scn, placed) == validate_allocation(plain, placed)
        written = [save_trace(s, tmp_path / name) for s, name in ((scn, "cells"), (plain, "plain"))]
        for name in written[0]:
            assert written[0][name].read_bytes() == written[1][name].read_bytes(), name
        # a read-only bool matrix is kept; any other is copied, read-only
        for writable in (True, False):
            cells = np.array(user, dtype=dtype)
            cells.setflags(write=writable)
            held = scenario(machines, apps, user=cells, anti=anti).user_affinity
            assert (held is cells) == (dtype is bool and not writable)
            assert held.dtype == bool and not held.flags.writeable

    @pytest.mark.parametrize("bad", [[[1 + 1j, 0]], [["1", "0"]], [[b"1", b"0"]]],
                             ids=["complex", "str", "bytes"])
    @pytest.mark.parametrize("name", ["user_affinity", "anti_affinity"])
    def test_scenario_rejects_cells_that_are_not_numbers(self, name, bad):
        cells, other = np.array(bad), np.zeros((1, 2), dtype=int)
        user, anti = (cells, other) if name == "user_affinity" else (other, cells)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a ComplexWarning is no rejection
            with pytest.raises(ModelError, match=f"{name} must be binary"):
                scenario([machine(0), machine(1)], [app(0)], user=user, anti=anti)

    def test_anti_rows_are_bytes_built_once_and_shared(self):
        anti = [[0, 1, 0], [1, 0, 1]]
        scn = scenario([machine(0), machine(1), machine(2)], [app(0), app(1)], anti=anti)
        assert scn.anti_rows == (bytes([0, 1, 0]), bytes([1, 0, 1]))
        assert "anti_rows" not in repr(scn)
        assert CapacityLedger(scn).anti is scn.anti_rows
        with pytest.raises(TypeError):
            Scenario(scn.capacities, scn.idles, scn.peaks, scn.demands, scn.instances,
                     scn.user_affinity, scn.anti_affinity, scn.weights, scn.alpha,
                     scn.pi_threshold, scn.anti_rows)

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

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda v: ResourceVector(v, 1, 1, 1), "resource component 'cpu' must be a real number"),
            (lambda v: ResourceVector(1, 1, v, 1), "resource component 'nw' must be a real number"),
            (lambda v: Machine(0, ResourceVector(1, 1, 1, 1), p_idle=v, p_max=2.0),
             "machine 0: p_idle must be a real number"),
            (lambda v: Machine(3, ResourceVector(1, 1, 1, 1), p_idle=0.0, p_max=v),
             "machine 3: p_max must be a real number"),
        ],
        ids=["cpu", "nw", "p_idle", "p_max"],
    )
    @pytest.mark.parametrize("bad", ["1", True, None], ids=["str", "bool", "none"])
    def test_resource_and_power_numbers_take_the_model_rule(self, build, message, bad):
        with pytest.raises(ModelError, match=message):
            build(bad)

    def test_numpy_and_int_components_are_held_as_floats(self):
        # a float32 capacity would run the ledger in float32
        vec = ResourceVector(np.float32(10.0), 1, np.int64(2), np.float64(0.5))
        mach = Machine(0, vec, p_idle=np.float32(100.0), p_max=200)
        held = [*vec.as_tuple(), mach.p_idle, mach.p_max]
        assert held == [10.0, 1.0, 2.0, 0.5, 100.0, 200.0] and {type(v) for v in held} == {float}
        scn = scenario([mach], [app(0, cpu=np.float32(3.3), instances=2)])
        ledger = CapacityLedger(scn)
        ledger.add(0, 0)
        ledger.add(0, 0)
        cpu = float(np.float32(3.3))
        assert ledger.remaining[0][0] == 10.0 - cpu - cpu and type(ledger.remaining[0][0]) is float
        assert ledger.pi[0] == (cpu + cpu) / 10.0 and type(ledger.pi[0]) is float

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

    def test_copy_with_new_alpha_shares_the_affinity_matrices(self):
        scn = generate_synthetic(GeneratorConfig(3, 2, seed=1))
        copy = replace(scn, alpha=2.0)
        assert copy.user_affinity is scn.user_affinity and copy.anti_affinity is scn.anti_affinity
        # a writable matrix is copied, so the caller cannot change the scenario
        user = np.zeros((1, 1), dtype=np.int64)
        held = scenario([machine(0)], [app(0)], user=user).user_affinity
        assert held is not user and not held.flags.writeable
        # a read-only matrix is still checked
        bad = np.full((1, 1), 2, dtype=np.int64)
        bad.setflags(write=False)
        with pytest.raises(ModelError, match="user_affinity must be binary"):
            scenario([machine(0)], [app(0)], user=bad)


class TestColumns:
    def test_copy_with_new_alpha_shares_the_columns(self):
        scn = generate_synthetic(GeneratorConfig(3, 2, seed=1))
        copy = replace(scn, alpha=2.0)
        for name in ("capacities", "idles", "peaks", "demands", "instances"):
            assert getattr(copy, name) is getattr(scn, name), name
        # a writable column, or one of another dtype, is copied, read-only
        caps = np.array(scn.capacities)
        held = replace(scn, capacities=caps, instances=scn.instances.astype(np.int32))
        assert held.capacities is not caps and not held.capacities.flags.writeable
        assert held.instances.dtype == np.int64 and not held.instances.flags.writeable

    @pytest.mark.parametrize(
        "name, cell, value, message",
        [
            ("capacities", (1, 0), 0.0, "resource component 'cpu' must be > 0"),
            ("capacities", (0, 2), math.nan, "resource component 'nw' must be finite and >= 0"),
            ("demands", (1, 3), -1.0, "resource component 'mem' must be finite and >= 0"),
            ("idles", 1, 300.0, "machine 1: need 0 <= p_idle <= p_max"),
            ("peaks", 2, math.inf, "machine 2: p_idle and p_max must be finite"),
            ("instances", 1, 0, "application 1: instances must be >= 1"),
        ],
    )
    def test_a_column_takes_the_rule_of_its_records(self, name, cell, value, message):
        scn = generate_synthetic(GeneratorConfig(3, 2, seed=1))
        col = np.array(getattr(scn, name))
        col[cell] = value
        with pytest.raises(ModelError) as err:
            replace(scn, **{name: col})
        assert str(err.value) == message

    def test_a_count_past_int64_is_caught_before_the_cast(self):
        scn = generate_synthetic(GeneratorConfig(3, 2, seed=1))
        with pytest.raises(ModelError, match="application 1: instances must be < 2"):
            replace(scn, instances=np.array([1, 2**63], dtype=np.uint64))
        with pytest.raises(ModelError, match="instances must hold integers"):
            replace(scn, instances=[1.0, 2.0])

    @pytest.mark.parametrize(
        "columns, message",
        [
            ({"capacities": np.zeros((0, 4))}, "need at least one machine and one application"),
            ({"peaks": np.ones(4)}, r"peaks must have shape \(3,\), got \(4,\)"),
            ({"demands": np.ones((2, 3))}, r"demands must have shape \(2, 4\)"),
            ({"idles": ["1", "2", "3"]}, "idles must hold real numbers"),
            ({"capacities": np.ones((3, 4), dtype=bool)}, "capacities must hold real numbers"),
        ],
        ids=["no-machines", "peaks-shape", "demands-shape", "strings", "bools"],
    )
    def test_bad_columns_rejected(self, columns, message):
        scn = generate_synthetic(GeneratorConfig(3, 2, seed=1))
        with pytest.raises(ModelError, match=message):
            replace(scn, **columns)

    def test_no_path_builds_a_record(self, monkeypatch, tmp_path):
        def refuse(record):
            raise AssertionError(f"a {type(record).__name__} was built")

        for record in (ResourceVector, Machine, Application):
            monkeypatch.setattr(record, "__post_init__", refuse)
        scn = generate_synthetic(GeneratorConfig(3, 3, seed=4, instance_range=(1, 2)))
        paths = save_trace(scn, tmp_path / "power")
        loaded = load_trace(paths["machines"], paths["applications"], paths["affinity"])
        lines = paths["machines"].read_text().splitlines()
        bare = tmp_path / "bare.csv"
        bare.write_text("".join(",".join(line.split(",")[:5]) + "\n" for line in lines))
        drawn = load_trace(bare, paths["applications"], paths["affinity"], seed=3)
        for s in (scn, loaded, drawn, replace(scn, alpha=2.0)):
            f = build_final_affinity(s)
            for out in (pap_place(s, f), aap_place(s, f), cpaap_place(s, f), first_fit_place(s)):
                metrics(s, out.allocation, f)
            assert optimal_place(s, f).exhausted
        monkeypatch.undo()
        for s in (scn, loaded, drawn):
            assert [[*mach.capacity.as_tuple(), mach.p_idle, mach.p_max] for mach in s.machines] == \
                np.column_stack((s.capacities, s.idles, s.peaks)).tolist()
            assert [mach.id for mach in s.machines] == list(range(s.num_machines))
            assert [[a.id, *a.demand.as_tuple(), a.instances] for a in s.applications] == \
                [[i, *d, k] for i, (d, k) in enumerate(zip(s.demands.tolist(), s.instances.tolist()))]


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
        assert not admissible(ledger, 0, 0)

    def test_admitted_adds_stay_nonnegative_and_utilization_snapped(self):
        # ten adds of 0.03 on 0.3 are all admitted, and the cpu used sums to
        # 0.30000000000000004, whose utilization 1.0000000000000002 snaps to 1
        ledger = ledger_for([machine(0, 0.3, 0.3, 0, 0)], [app(0, 0.03, 0.03)])
        for _ in range(10):
            assert admissible(ledger, 0, 0)
            assert ledger.pi_after(0, 0) <= 1.0
            ledger.add(0, 0)
            assert min(ledger.remaining[0]) >= 0.0
        assert ledger.used_cpu[0] / 0.3 == 1.0000000000000002
        assert ledger.pi[0] == 1.0
        assert not admissible(ledger, 0, 0)
        # an exact fit lands on 0.0, with no clamp to put it there
        ledger = ledger_for([machine(0, 0.3, 0.3, 0, 0)], [app(0, 0.3, 0.3)])
        assert admissible(ledger, 0, 0)
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
            assert admissible(ledger, i, 0)
            ledger.add(i, 0)
            cur = list(ledger.remaining[0])
            assert all(c <= p for c, p in zip(cur, prev))
            prev = cur


class TestFits:
    def test_exact_fit_boundary(self):
        ledger = ledger_for([machine(0, 4, 50, 25, 8)], [app(0, 4, 50, 25, 8)])
        assert admissible(ledger, 0, 0)

    def test_single_component_violation(self):
        ledger = ledger_for([machine(0, 3, 100, 100, 16)], [app(0, 4, 50, 25, 8)])
        assert not admissible(ledger, 0, 0)

    def test_zero_demand(self):
        # cpu must be positive on both sides; the other components may be 0
        ledger = ledger_for([machine(0, 8, 0, 0, 0)], [app(0, 4, 0, 0, 0)])
        assert admissible(ledger, 0, 0)

    def test_anti_affinity_blocks_and_every_probe_counts(self):
        ledger = ledger_for([machine(0), machine(1)], [app(0)], anti=[[1, 0]])
        assert not admissible(ledger, 0, 0)
        assert admissible(ledger, 0, 1)
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
        if admissible(ledger, 0, 0):
            ledger.add(0, 0)
            if admissible(ledger, 1, 0):
                assert admissible(ledger_for([machine(0, *r)], apps), 2, 0)


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

    def test_capacity_detail_prints_plain_floats(self):
        # numpy 2 would print np.float64(5.5) for a numpy scalar's repr
        scn = scenario([machine(0, cpu=4)], [app(0, cpu=5.5)])
        report = validate_allocation(scn, alloc([[1]]))
        assert report.capacity.detail == "machine 0 over cpu: used 5.5 > cap 4.0"

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
