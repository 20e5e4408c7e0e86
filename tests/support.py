"""Shared test helpers: scenario builders and independent re-checkers.

The replay validators re-simulate a placement applying each algorithm's
rule the slow way (a full re-sort, a ranking of every machine, or a scan
from machine 0 per step), and require the same trace, failure point and
work count. pap's, aap's and cpaap's keep their own bookkeeping;
first_fit's probes each machine through ``admissible``, which counts one
pair per call in ``ledger.pairs``, while first_fit scans with
CapacityLedger.first_admissible, which counts nothing, and adds its own
count.
The exact solver's replay searches depth first with one call per machine
and instance, and must agree with the solver's whole-row enumeration on
nodes, the exhausted flag, the optimum and, within float noise, its cost.
The brute-force optimum enumerates labeled instances (not count vectors)
and computes the objective with plain Python arithmetic.
``spent_machines`` and ``probe_log`` show which machines a run retired
and which machines it really probed, where ``pairs_examined`` counts the
probes of scans that retire nothing.
The dense scorers are validate_allocation, total_cost and metrics as they
were before scoring read only the placed cells: passes over the whole
N x M count matrix, with matmuls for the per-machine sums. They are the
reference for the cell path's verdicts, witnesses and values.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import operator
import tracemalloc

import numpy as np

from powerplace import (
    AffinityWeights,
    Application,
    Machine,
    ResourceVector,
    Scenario,
    delta_cost,
)
from powerplace.affinity import AffinityMatrix, require_final
from powerplace.costs import CostBreakdown, MetricsReport
from powerplace.model import (
    CAPACITY_SLACK,
    RESOURCE_NAMES,
    CapacityLedger,
    ConstraintResult,
    ModelError,
    ValidationReport,
)
from powerplace.oracle import DEFAULT_NODE_BUDGET

WEIGHTS = AffinityWeights(0.4, 0.2, 0.2, 0.2)


def machine(j, cpu=10.0, io=100.0, nw=100.0, mem=16.0, p_idle=100.0, p_max=200.0):
    return Machine(j, ResourceVector(cpu, io, nw, mem), p_idle, p_max)


def app(i, cpu=5.0, io=0.0, nw=0.0, mem=0.0, instances=1):
    return Application(i, ResourceVector(cpu, io, nw, mem), instances)


def scenario(machines, applications, user=None, anti=None, weights=WEIGHTS,
             alpha=4.0, pi_threshold=0.5):
    n, m = len(applications), len(machines)
    if user is None:
        user = np.zeros((n, m), dtype=int)
    if anti is None:
        anti = np.zeros((n, m), dtype=int)
    # the records' numbers stacked into the scenario's columns: an id is a row
    return Scenario(
        capacities=[mach.capacity.as_tuple() for mach in machines],
        idles=[mach.p_idle for mach in machines],
        peaks=[mach.p_max for mach in machines],
        demands=[a.demand.as_tuple() for a in applications],
        instances=[a.instances for a in applications],
        user_affinity=np.asarray(user),
        anti_affinity=np.asarray(anti),
        weights=weights,
        alpha=alpha,
        pi_threshold=pi_threshold,
    )


def scenarios_equal(a, b):
    return (
        a.machines == b.machines
        and a.applications == b.applications
        and np.array_equal(a.user_affinity, b.user_affinity)
        and np.array_equal(a.anti_affinity, b.anti_affinity)
        and a.weights == b.weights
        and a.alpha == b.alpha
        and a.pi_threshold == b.pi_threshold
    )


def traced_peak(fn):
    """``(fn(), peak)``: the most memory ``fn`` held at once, in bytes, as tracemalloc sees it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return out, peak


def final_matrix(values) -> AffinityMatrix:
    return AffinityMatrix(values=np.asarray(values, dtype=float))


def admissible(ledger: CapacityLedger, i, j) -> bool:
    """Application i may take one more instance on machine j.

    Counts one pair in ``ledger.pairs``, which the ledger itself never does.
    """
    ledger.pairs += 1
    return ledger.first_admissible(i, (j,)) >= 0


class Replay:
    """Step-by-step re-simulation of a trace with independent bookkeeping."""

    def __init__(self, scn: Scenario):
        self.scn = scn
        self.m = scn.num_machines
        self.caps = [mach.capacity.as_tuple() for mach in scn.machines]
        self.used = [[0.0] * 4 for _ in range(self.m)]
        self.counts = np.zeros((scn.num_applications, self.m), dtype=int)

    def pi(self, j):
        # the ledger snaps float overshoot of a full machine to 1.0
        return min(self.used[j][0] / self.caps[j][0], 1.0)

    def admissible(self, i, j, slack=1e-9):
        if self.scn.anti_affinity[i, j]:
            return False
        d = self.scn.applications[i].demand.as_tuple()
        return all(
            self.used[j][c] + d[c] <= self.caps[j][c] * (1 + slack) + 1e-12
            for c in range(4)
        )

    def apply(self, i, j):
        d = self.scn.applications[i].demand.as_tuple()
        for c in range(4):
            self.used[j][c] += d[c]
        self.counts[i, j] += 1


def check_trace_shape(scn, outcome):
    """Trace/allocation agreement plus per-app contiguous instance indexing."""
    counts = np.zeros_like(outcome.allocation.counts)
    seen = {}
    for i, k, j in outcome.trace:
        assert k == seen.get(i, 0), "instance indices must be contiguous per app"
        seen[i] = k + 1
        counts[i, j] += 1
    assert (counts == outcome.allocation.counts).all()
    if outcome.feasible:
        assert len(outcome.trace) == scn.total_instances


def sort_applications(applications):
    """Applications in decreasing demand order (cpu, io, nw, mem), id tiebreak:
    the reference for ``Scenario.placement_order``."""
    return sorted(
        applications,
        key=lambda a: (-a.demand.cpu, -a.demand.io, -a.demand.nw, -a.demand.mem, a.id),
    )


def expected_steps(scn):
    """(application id, instance index) in the order every strategy places them."""
    return [(a.id, k) for a in sort_applications(scn.applications) for k in range(a.instances)]


def replay_pap(scn, affinity, outcome):
    """Re-run pap by re-sorting every machine by (omega, id) before each instance.

    Each step must pick the first admissible machine in that order, an
    infeasible run must stop at the first instance no machine admits, and
    pairs_examined must count every probe: the scan up to the chosen
    machine, and all M machines on the failing step.
    """
    rep = Replay(scn)
    omega = [0.0] * rep.m
    steps = expected_steps(scn)
    pairs = 0
    for s, (i, k) in enumerate(steps):
        for j in sorted(range(rep.m), key=lambda c: (omega[c], c)):
            pairs += 1
            if rep.admissible(i, j):
                break
        else:
            assert outcome.failed_at == (i, k), f"pap failed at {outcome.failed_at}, not {(i, k)}"
            assert len(outcome.trace) == s
            break
        assert s < len(outcome.trace), f"pap stopped at {outcome.failed_at}, {(i, k)} fits"
        assert outcome.trace[s] == (i, k, j), f"pap placed {outcome.trace[s]}, scan says {(i, k, j)}"
        rep.apply(i, j)
        pi = rep.pi(j)
        prev = omega[j]
        if prev < scn.pi_threshold:
            omega[j] = pi
        elif prev < 1.0:
            omega[j] = 1.0
        else:
            omega[j] = 2.0 * prev
        assert omega[j] >= prev, "omega must never decrease"
    else:
        assert outcome.failed_at is None and len(outcome.trace) == len(steps)
    assert outcome.pairs_examined == pairs


def replay_first_fit(scn, outcome):
    """Re-run first_fit probing from machine 0 for every instance.

    Each probe goes through ``admissible``, which counts it, so the re-run's
    count is every probe of the plain scan: the machines up to the chosen
    one, and all M on the failing step. first_fit must make the same
    choices, stop at the same instance and report that count.
    """
    ledger = CapacityLedger(scn)
    steps = expected_steps(scn)
    for s, (i, k) in enumerate(steps):
        j = next((c for c in range(scn.num_machines) if admissible(ledger, i, c)), None)
        if j is None:
            assert outcome.failed_at == (i, k), f"first_fit failed at {outcome.failed_at}, not {(i, k)}"
            assert len(outcome.trace) == s
            break
        assert s < len(outcome.trace), f"first_fit stopped at {outcome.failed_at}, {(i, k)} fits"
        assert outcome.trace[s] == (i, k, j), f"first_fit placed {outcome.trace[s]}, scan says {(i, k, j)}"
        ledger.add(i, j)
    else:
        assert outcome.failed_at is None and len(outcome.trace) == len(steps)
    assert outcome.pairs_examined == ledger.pairs


def _replay_ranked(scn, outcome, name, pick):
    """Re-run a strategy that ranks all M machines before each instance.

    ``pick(rep, i, cands)`` is the strategy's rule over the admissible
    machines ``cands``. Each step must place where the rule says, an
    infeasible run must stop at the first instance no machine admits, and
    pairs_examined must be M per step, the failing step included.
    """
    rep = Replay(scn)
    steps = expected_steps(scn)
    for s, (i, k) in enumerate(steps):
        cands = [c for c in range(rep.m) if rep.admissible(i, c)]
        if not cands:
            assert outcome.failed_at == (i, k), f"{name} failed at {outcome.failed_at}, not {(i, k)}"
            assert len(outcome.trace) == s
            break
        j = pick(rep, i, cands)
        assert s < len(outcome.trace), f"{name} stopped at {outcome.failed_at}, {(i, k)} fits"
        assert outcome.trace[s] == (i, k, j), f"{name} placed {outcome.trace[s]}, rule says {(i, k, j)}"
        rep.apply(i, j)
    else:
        assert outcome.failed_at is None and len(outcome.trace) == len(steps)
    ranked = len(outcome.trace) + (outcome.failed_at is not None)
    assert outcome.pairs_examined == rep.m * ranked


def replay_aap(scn, affinity, outcome):
    """Re-run aap: each step takes the admissible machine of least (-f, pi, id)."""
    f = affinity.values.tolist()

    def pick(rep, i, cands):
        return min(cands, key=lambda c: (-f[i][c], rep.pi(c), c))

    _replay_ranked(scn, outcome, "aap", pick)


def replay_cpaap(scn, affinity, outcome):
    """Re-run cpaap: least (pi, id) against least (-f, pi, id), by delta_cost.

    The first candidate wins a tie of the two cost deltas.
    """
    f = affinity.values.tolist()

    def pick(rep, i, cands):
        j1 = min(cands, key=lambda c: (rep.pi(c), c))
        j2 = min(cands, key=lambda c: (-f[i][c], rep.pi(c), c))
        if j1 == j2:
            return j1
        cpu = scn.applications[i].demand.cpu

        def step_cost(c):
            new = min((rep.used[c][0] + cpu) / rep.caps[c][0], 1.0)
            return delta_cost(scn.machines[c], rep.pi(c), new, f[i][c], scn.alpha)

        return j1 if step_cost(j1) <= step_cost(j2) else j2

    _replay_ranked(scn, outcome, "cpaap", pick)


def spent_machines(scn, outcome):
    """Machines the trace leaves below the scenario's demand floor in some resource.

    A machine is spent only by a placement on it, so these are the
    machines the run retired.
    """
    ledger = CapacityLedger(scn)
    for i, _, j in outcome.trace:
        ledger.add(i, j)
    return [j for j, r in enumerate(ledger.remaining) if any(map(operator.lt, r, scn.demand_floor))]


@contextlib.contextmanager
def probe_log():
    """Every machine ``CapacityLedger.first_admissible`` probes while open, in order.

    The probes are drawn one at a time from the caller's iterator, so an
    iterator handed on still resumes just past the machine returned.
    """
    seen = []
    real = CapacityLedger.first_admissible

    def logged(self, i, machines):
        def tap():
            for j in machines:
                seen.append(j)
                yield j
        return real(self, i, tap())

    CapacityLedger.first_admissible = logged
    try:
        yield seen
    finally:
        CapacityLedger.first_admissible = real


class _ReplayBudgetHit(Exception):
    pass


def replay_oracle(scn, affinity, result, budget=DEFAULT_NODE_BUDGET):
    """Re-run the exact search one machine and one instance per call.

    ``assign(i, j, left)`` spreads the ``left`` unplaced instances of
    application i over machines j..m-1: first none on j, then one more at a
    time while CapacityLedger admits it, restoring machine j's slot after.
    Each completed row is a node, counted before it is extended or scored,
    and the search stops at node ``budget + 1``. The leaf cost keeps a
    running payoff. ``result`` (optimal_place at ``budget``) must report
    the same nodes, exhausted flag and optimum, and a cost within 1e-9 of
    ``max(1, |cost|)``.
    """
    n, m = scn.num_applications, scn.num_machines
    ledger = CapacityLedger(scn)
    spans = [mach.p_max - mach.p_idle for mach in scn.machines]
    instances = [a.instances for a in scn.applications]
    f = affinity.values.tolist()
    counts = [[0] * m for _ in range(n)]
    payoff, nodes, best_cost, best_counts = 0.0, 0, math.inf, None

    def assign(i, j, left):
        nonlocal payoff, nodes, best_cost, best_counts
        if j == m:
            if left:
                return
            nodes += 1
            if nodes > budget:
                raise _ReplayBudgetHit
            if i + 1 < n:
                assign(i + 1, 0, instances[i + 1])
                return
            dynamic = 0.0
            for span, pi in zip(spans, ledger.pi):
                dynamic += span * pi * pi * pi
            cost = dynamic - scn.alpha * payoff
            if cost < best_cost:
                best_cost, best_counts = cost, [row[:] for row in counts]
            return
        assign(i, j + 1, left)
        saved = list(ledger.remaining[j]), ledger.used_cpu[j], ledger.pi[j]
        placed = 0
        while placed < left and admissible(ledger, i, j):
            ledger.add(i, j)
            counts[i][j] += 1
            payoff += f[i][j]
            placed += 1
            assign(i, j + 1, left - placed)
        ledger.remaining[j], ledger.used_cpu[j], ledger.pi[j] = saved
        counts[i][j] -= placed
        payoff -= placed * f[i][j]

    try:
        assign(0, 0, instances[0])
        exhausted = True
    except _ReplayBudgetHit:
        exhausted = False
    assert result.nodes_explored == nodes, f"{result.nodes_explored} nodes, replay {nodes}"
    assert result.exhausted == exhausted
    if best_counts is None:
        assert result.optimal is None and result.optimal_reduced_cost is None
    else:
        assert result.optimal is not None, f"replay found {best_counts}"
        assert result.optimal.counts.tolist() == best_counts
        assert abs(result.optimal_reduced_cost - best_cost) <= 1e-9 * max(1.0, abs(best_cost))


def fresh_oracle_cost(scn, affinity, counts):
    """optimal_place's cost recomputed from ``counts`` alone.

    Instances go through a new CapacityLedger application by application
    and machine by machine, each machine's payoff adds one f per instance
    in that order, and the terms ``span * pi**3 - alpha * payoff`` are
    summed in machine order.
    """
    n, m = scn.num_applications, scn.num_machines
    ledger = CapacityLedger(scn)
    f = affinity.values.tolist()
    payoff = [0.0] * m
    for i in range(n):
        for j in range(m):
            for _ in range(int(counts[i][j])):
                ledger.add(i, j)
                payoff[j] += f[i][j]
    cost = 0.0
    for j, mach in enumerate(scn.machines):
        span, pi = mach.p_max - mach.p_idle, ledger.pi[j]
        cost += span * pi * pi * pi - scn.alpha * payoff[j]
    return cost


def replay_delta_sum(scn, f, trace):
    """Sum of delta_cost over a trace, utilizations tracked from scratch."""
    used = [0.0] * scn.num_machines
    acc = 0.0
    for i, _, j in trace:
        mach = scn.machines[j]
        old = min(used[j] / mach.capacity.cpu, 1.0)
        used[j] += scn.applications[i].demand.cpu
        new = min(used[j] / mach.capacity.cpu, 1.0)
        acc += delta_cost(mach, old, new, float(f.values[i, j]), scn.alpha)
    return acc


def brute_force_reduced_cost(scn, affinity, counts) -> float:
    """Objective from scratch in plain Python (math.fsum, no numpy)."""
    f = affinity.values
    dynamic = []
    for j, mach in enumerate(scn.machines):
        used = math.fsum(
            scn.applications[i].demand.cpu * int(counts[i][j])
            for i in range(scn.num_applications)
        )
        pi = min(used / mach.capacity.cpu, 1.0)
        dynamic.append((mach.p_max - mach.p_idle) * pi**3)
    payoff = math.fsum(
        float(f[i, j]) * int(counts[i][j])
        for i in range(scn.num_applications)
        for j in range(scn.num_machines)
    )
    return math.fsum(dynamic) - scn.alpha * payoff


def brute_force_optimal(scn, affinity):
    """Labeled-instance enumeration: every machine tuple per instance.

    Returns (best_counts, best_cost) or (None, None) when nothing feasible.
    Exponential; keep instances few.
    """
    labels = [i for i, a in enumerate(scn.applications) for _ in range(a.instances)]
    m = scn.num_machines
    best_counts, best_cost = None, None
    for assignment in itertools.product(range(m), repeat=len(labels)):
        counts = [[0] * m for _ in range(scn.num_applications)]
        for inst, j in zip(labels, assignment):
            counts[inst][j] += 1
        ok = True
        for i in range(scn.num_applications):
            for j in range(m):
                if counts[i][j] and scn.anti_affinity[i, j]:
                    ok = False
        if not ok:
            continue
        for j, mach in enumerate(scn.machines):
            cap = mach.capacity.as_tuple()
            for c in range(4):
                used = math.fsum(
                    scn.applications[i].demand.as_tuple()[c] * counts[i][j]
                    for i in range(scn.num_applications)
                )
                if used > cap[c] * (1 + 1e-9) + 1e-12:
                    ok = False
        if not ok:
            continue
        cost = brute_force_reduced_cost(scn, affinity, counts)
        key = (cost, tuple(v for row in counts for v in row))
        if best_cost is None or key < (best_cost, tuple(v for row in best_counts for v in row)):
            best_counts, best_cost = counts, cost
    return best_counts, best_cost


def dense_validate_allocation(scenario, allocation) -> ValidationReport:
    """validate_allocation over the dense count matrix, as it was before the cell path."""
    counts = allocation.counts
    n, m = scenario.num_applications, scenario.num_machines
    if counts.shape != (n, m):
        raise ModelError(f"allocation shape {counts.shape} does not match scenario ({n}, {m})")

    hits = np.argwhere((scenario.anti_affinity == 1) & (counts > 0))
    if hits.size:
        i, j = (int(v) for v in hits[0])
        anti = ConstraintResult(False, (i, j), f"app {i} has {int(counts[i, j])} instance(s) on forbidden machine {j}")
    else:
        anti = ConstraintResult(True)

    placed = counts.sum(axis=1)
    wanted = np.array([a.instances for a in scenario.applications], dtype=np.int64)
    short = np.nonzero(placed != wanted)[0]
    if short.size:
        i = int(short[0])
        completeness = ConstraintResult(
            False, (i, -1), f"app {i} placed {int(placed[i])} of {int(wanted[i])} instances"
        )
    else:
        completeness = ConstraintResult(True)

    caps = np.array([mach.capacity.as_tuple() for mach in scenario.machines])
    reqs = np.array([app.demand.as_tuple() for app in scenario.applications])
    usage = counts.T.astype(float) @ reqs  # (M, 4)
    limit = caps * (1.0 + CAPACITY_SLACK) + 1e-12
    over = np.argwhere(usage > limit)
    if over.size:
        j, c = (int(v) for v in over[0])
        capacity = ConstraintResult(
            False,
            (-1, j),
            f"machine {j} over {RESOURCE_NAMES[c]}: "
            f"used {float(usage[j, c])!r} > cap {float(caps[j, c])!r}",
        )
    else:
        capacity = ConstraintResult(True)

    return ValidationReport(anti_affinity=anti, completeness=completeness, capacity=capacity)


def dense_cost_and_utilizations(scenario, allocation, affinity):
    """total_cost and utilizations over the dense count matrix, as they were before the cell path."""
    require_final(scenario, affinity)
    shape = (scenario.num_applications, scenario.num_machines)
    if allocation.counts.shape != shape:
        raise ModelError(f"allocation shape {allocation.counts.shape} does not match scenario {shape}")
    cpu_req = np.array([a.demand.cpu for a in scenario.applications])
    cpu_cap = np.array([m.capacity.cpu for m in scenario.machines])
    pis = np.minimum((allocation.counts.T.astype(float) @ cpu_req) / cpu_cap, 1.0)
    idle_sum = 0.0
    dynamic = 0.0
    for j, mach in enumerate(scenario.machines):
        pi = float(pis[j])
        idle_sum += mach.p_idle
        dynamic += (mach.p_max - mach.p_idle) * pi * pi * pi
    payoff = float((affinity.values * allocation.counts).sum())
    power = idle_sum + dynamic
    total = power - scenario.alpha * payoff
    reduced = dynamic - scenario.alpha * payoff
    return CostBreakdown(total=total, reduced=reduced, power=power, payoff=payoff), pis


def dense_metrics(scenario, allocation, affinity) -> MetricsReport:
    """metrics over the dense count matrix, as it was before the cell path."""
    breakdown, pis = dense_cost_and_utilizations(scenario, allocation, affinity)
    report = dense_validate_allocation(scenario, allocation)
    on_affine = float((scenario.user_affinity * allocation.counts).sum())
    psi = float("nan") if breakdown.total == 0.0 else breakdown.payoff / breakdown.total
    return MetricsReport(
        total_cost=breakdown.total,
        reduced_cost=breakdown.reduced,
        power_cost=breakdown.power,
        affinity_payoff=breakdown.payoff,
        satisfaction_ratio=on_affine / scenario.total_instances,
        avg_utilization=float(pis.sum()) / scenario.num_machines,
        payoff_ratio=psi,
        psi_well_defined=breakdown.total > 0.0,
        feasible=report.feasible_complete,
    )
