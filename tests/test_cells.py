"""Scoring from the placed cells.

An allocation holds its placed cells, and its dense count matrix is a
read-only view built on demand. A scenario's numbers are read-only columns
built once. Every score adds its terms in one fixed order, cell order then
machine order, which plain Python must reproduce bit for bit, and which no
BLAS kernel can change.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from powerplace.affinity import AffinityMatrix
from powerplace.costs import metrics, utilizations
from powerplace.harness import run_scenario
from powerplace.model import AllocationMatrix, ModelError, validate_allocation
from powerplace.placement import aap_place, cpaap_place, pap_place
from powerplace.workload import GeneratorConfig, WorkloadError, generate_synthetic, load_trace

from support import app, machine, scenario


def stored_case(m=30, n=25, seed=5):
    """A generated scenario with affinity values drawn, not built, and allocations on it.

    The allocations are pap's, aap's and cpaap's, and a random one that
    breaks every constraint.
    """
    scn = generate_synthetic(GeneratorConfig(m, n, seed=seed, instance_range=(2, 4),
                                             anti_affinity_fraction=0.2))
    rng = np.random.default_rng(seed)
    affinity = AffinityMatrix(rng.random((n, m)))
    allocations = [place(scn, affinity).allocation for place in (pap_place, aap_place, cpaap_place)]
    allocations.append(AllocationMatrix(rng.integers(0, 3, (n, m))))
    return scn, affinity, allocations


class TestAllocationMatrix:
    def test_cells_are_the_nonzero_counts_in_row_major_order(self):
        dense = np.array([[0, 2, 0], [1, 0, 0], [0, 0, 5]])
        a = AllocationMatrix(dense)
        assert a.shape == (3, 3)
        assert a.cells.tolist() == [1, 3, 8] and a.cell_counts.tolist() == [2, 1, 5]
        dense[0, 1] = 7  # the caller's array is not the allocation's
        assert a.counts.tolist() == [[0, 2, 0], [1, 0, 0], [0, 0, 5]]
        b = AllocationMatrix.from_cells((3, 3), [8, 1, 3, 8, 8, 1, 8, 8])
        assert b.cells.tolist() == [1, 3, 8] and b.cell_counts.tolist() == [2, 1, 5]
        assert np.array_equal(b.counts, a.counts) and b.counts is b.counts

    def test_everything_it_holds_is_read_only(self):
        a = AllocationMatrix(np.array([[1, 0], [0, 2]]))
        out = pap_place(scenario([machine(0)], [app(0)]), AffinityMatrix([[0.5]]))
        for alloc in (a, out.allocation):
            for arr in (alloc.counts, alloc.cells, alloc.cell_counts):
                with pytest.raises(ValueError):
                    arr[0] = 3

    def test_dense_constructor_keeps_its_checks(self):
        for bad in (np.array([1, 2]), np.array([[0.5]]), np.array([[-1]]),
                    np.array([[1, 2**63]], dtype=np.uint64)):
            with pytest.raises(ModelError):
                AllocationMatrix(bad)

    def test_an_empty_allocation_holds_no_cells(self):
        scn = scenario([machine(0, cpu=1)], [app(0, cpu=5)])
        outcome = run_scenario(scn, "oracle").outcome
        assert not outcome.feasible and outcome.trace == ()
        for alloc in (AllocationMatrix.zeros(2, 3), outcome.allocation):
            assert alloc.cells.size == 0 and alloc.cell_counts.size == 0
            assert not alloc.counts.any()

    def test_oracle_trace_is_application_major_machine_ascending(self):
        scn = scenario([machine(0, cpu=10), machine(1, cpu=10)],
                       [app(0, cpu=5, instances=3), app(1, cpu=2, instances=2)])
        out = run_scenario(scn, "oracle", affinity=AffinityMatrix([[0.9, 0.1], [0.2, 0.8]])).outcome
        counts = out.allocation.counts.tolist()
        assert out.trace == tuple(
            (i, k, j) for i, row in enumerate(counts)
            for k, j in enumerate(j for j, c in enumerate(row) for _ in range(c))
        )


def test_scenario_columns_are_read_only_copies_of_the_model():
    scn = generate_synthetic(GeneratorConfig(6, 5, seed=3))
    columns = {
        "capacities": [m.capacity.as_tuple() for m in scn.machines],
        "demands": [a.demand.as_tuple() for a in scn.applications],
        "spans": [m.p_max - m.p_idle for m in scn.machines],
        "idles": [m.p_idle for m in scn.machines],
        "instances": [a.instances for a in scn.applications],
    }
    for name, want in columns.items():
        col = getattr(scn, name)
        assert col.tolist() == [list(w) if isinstance(w, tuple) else w for w in want], name
        assert not col.flags.writeable, name
    assert scn.capacity_rows == tuple(columns["capacities"])
    assert scn.demand_rows == tuple(columns["demands"])


def test_an_instance_count_past_int64_is_a_model_error(tmp_path):
    with pytest.raises(ModelError, match="instances must be < 2"):
        app(0, instances=2**63)
    (tmp_path / "machines.csv").write_text("machine_id,cpu_cap,io_cap,nw_cap,mem_cap,p_idle,p_max\n"
                                           "0,16,200,200,32,100,250\n")
    (tmp_path / "applications.csv").write_text("app_id,cpu_req,io_req,nw_req,mem_req,instances\n"
                                               "0,4,50,25,8,1e20\n")
    with pytest.raises(WorkloadError, match="applications.csv line 2: .*instances must be < 2"):
        load_trace(tmp_path / "machines.csv", tmp_path / "applications.csv")


def python_scores(scn, affinity, counts):
    """payoff, on-affine count, utilizations and power, added one term at a time.

    Cells in row-major order first: the payoff, the on-affine count and each
    machine's cpu. Then machines in id order: idle draws, span * pi**3 and
    utilizations.
    """
    n, m = scn.num_applications, scn.num_machines
    f = affinity.values.tolist()
    payoff, on_affine, cpu = 0.0, 0, [0.0] * m
    for i in range(n):
        for j in range(m):
            c = int(counts[i][j])
            if c:
                payoff += f[i][j] * c
                on_affine += c * int(scn.user_affinity[i, j])
                cpu[j] += scn.applications[i].demand.cpu * c
    idle, dynamic, util = 0.0, 0.0, 0.0
    pis = []
    for j, mach in enumerate(scn.machines):
        pi = min(cpu[j] / mach.capacity.cpu, 1.0)
        pis.append(pi)
        idle += mach.p_idle
        dynamic += (mach.p_max - mach.p_idle) * pi * pi * pi
        util += pi
    return payoff, on_affine, pis, idle + dynamic, dynamic, util / m


def test_scores_add_cells_then_machines_in_order_bit_for_bit():
    scn, affinity, allocations = stored_case()
    for alloc in allocations:
        payoff, on_affine, pis, power, dynamic, avg = python_scores(scn, affinity, alloc.counts)
        rep = metrics(scn, alloc, affinity)
        assert utilizations(scn, alloc).tolist() == pis
        assert rep.affinity_payoff == payoff
        assert rep.satisfaction_ratio == on_affine / scn.total_instances
        assert rep.power_cost == power
        assert rep.total_cost == power - scn.alpha * payoff
        assert rep.reduced_cost == dynamic - scn.alpha * payoff
        assert rep.avg_utilization == avg


def scored() -> list[str]:
    """Every score and verdict of ``stored_case`` at 120 x 100, as exact text."""
    scn, affinity, allocations = stored_case(120, 100, seed=11)
    out = []
    for alloc in allocations:
        rep = metrics(scn, alloc, affinity)
        out.append(repr(validate_allocation(scn, alloc)))
        out.extend(v.hex() for v in vars(rep).values() if isinstance(v, float))
        out.extend(v.hex() for v in utilizations(scn, alloc).tolist())
    return out


def _linked_to_openblas() -> bool:
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        np.show_config()
    return "openblas" in text.getvalue().lower()


@pytest.mark.skipif(not _linked_to_openblas(), reason="numpy is not linked against OpenBLAS")
@pytest.mark.parametrize("kernel", ["Sandybridge", "Haswell"])
def test_no_blas_kernel_moves_a_score(kernel):
    here = Path(__file__).parent
    path = os.pathsep.join([str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "OPENBLAS_CORETYPE": kernel, "PYTHONPATH": path}
    code = "import json, test_cells; print(json.dumps(test_cells.scored()))"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert json.loads(run.stdout.splitlines()[-1]) == scored()
