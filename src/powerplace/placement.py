"""Greedy placement algorithms.

Four single-pass strategies share the same skeleton: sort applications by
decreasing demand, then place instances one at a time on a machine that is
not forbidden and has room. They differ only in how the machine is chosen:

  pap        lowest priority parameter first; the parameter tracks
             utilization below a threshold, then escalates (1, then
             doubling) so hot machines drop out of rotation. The machines
             are kept sorted by (parameter, id): a step costs its probes
             plus one list delete and one insert, not a sort of M machines
  aap        highest final affinity first. The affinity matrix is
             argsorted row by row once per call; a step walks its
             application's row to the first admissible machine, then
             only the rest of that run of equal affinity, for the lower
             utilization
  cpaap      evaluates the lowest-utilization machine and the
             highest-affinity machine and takes the cheaper step
             by the objective delta. The lowest-utilization machine is
             the first admissible one in a (utilization, id) order that
             is kept sorted as pap's is; the other comes from aap's walk
  first_fit  lowest machine id first (baseline). A machine that rejects
             an instance rejects the rest of its application's instances,
             so each scan resumes at the machine the last one took

All are deterministic: every tie falls back to machine id. Infeasibility
is an outcome, not an exception; the partial allocation and trace are
returned for diagnosis.

``pairs_examined`` is the work count. pap and first_fit count their
probes: the machines tried up to the one chosen, all M on a failing step.
first_fit counts the machines its resumed scan skips as the rejected
probes they are, so a step that places on machine j counts j + 1.
aap and cpaap rank all M machines by definition, so each of their steps
counts M, the failing one included, however few machines the walk tries.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .affinity import AffinityMatrix, require_final
from .costs import delta_cost
from .model import (
    AllocationMatrix,
    Application,
    CapacityLedger,
    Scenario,
)

PlacementEvent = tuple[int, int, int]  # (application id, instance index, machine id)


@dataclass(frozen=True)
class PlacementOutcome:
    """Result of one placement run.

    ``trace`` lists placements in execution order. ``failed_at`` names the
    first (application id, instance index) that could not be placed; the
    allocation then holds everything placed up to that point.
    ``pairs_examined`` counts (candidate machine, instance) pairs, the
    work unit of these algorithms: the feasibility probes of pap and
    first_fit (the machines first_fit's resumed scan skips count as the
    rejected probes they are), and M per step of aap and cpaap, which rank
    every machine.
    """

    allocation: AllocationMatrix
    feasible: bool
    failed_at: Optional[tuple[int, int]]
    trace: tuple[PlacementEvent, ...]
    pairs_examined: int


@dataclass
class PapPriorityState:
    """Per-machine priority parameters for the power-aware strategy.

    omega starts at 0 for every machine. After a placement on machine j:
    below the utilization threshold omega tracks the machine's utilization;
    at or above it omega jumps to 1; from 1 on it doubles on every further
    placement. ``order`` keeps every (omega[j], j) ascending, pap's scan
    order; an update moves only j's pair, so omega need not be monotone.
    """

    omega: list[float]
    threshold: float
    order: list[tuple[float, int]] = field(init=False)

    def __post_init__(self) -> None:
        self.order = sorted((w, j) for j, w in enumerate(self.omega))

    def after_placement(self, j: int, pi: float) -> None:
        w = self.omega[j]
        self.omega[j] = new = pi if w < self.threshold else 1.0 if w < 1.0 else 2.0 * w
        del self.order[bisect_left(self.order, (w, j))]
        insort(self.order, (new, j))


def sort_applications(applications: Sequence[Application]) -> list[Application]:
    """Applications in decreasing demand order (cpu, io, nw, mem), id tiebreak."""
    return sorted(
        applications,
        key=lambda a: (-a.demand.cpu, -a.demand.io, -a.demand.nw, -a.demand.mem, a.id),
    )


def _greedy(scenario: Scenario, choose: Callable[[CapacityLedger, int], int]) -> PlacementOutcome:
    """The pass every strategy shares; ``choose`` is its choice rule.

    Applications go in ``sort_applications`` order, instances one at a
    time. ``choose(ledger, i)`` returns the machine for the next instance
    of application i, or -1 when none is admissible, which ends the run.
    It adds its work to ``ledger.pairs``: pap the probes its scan makes,
    first_fit the probes its scan makes or skips, aap and cpaap M per step.
    """
    ledger = CapacityLedger(scenario)
    counts = np.zeros((scenario.num_applications, scenario.num_machines), dtype=np.int64)
    trace: list[PlacementEvent] = []
    failed_at = None
    order = sort_applications(scenario.applications)
    for i, k in ((app.id, k) for app in order for k in range(app.instances)):
        j = choose(ledger, i)
        if j < 0:
            failed_at = (i, k)
            break
        ledger.add(i, j)
        counts[i, j] += 1
        trace.append((i, k, j))
    return PlacementOutcome(
        allocation=AllocationMatrix(counts),
        feasible=failed_at is None,
        failed_at=failed_at,
        trace=tuple(trace),
        pairs_examined=ledger.pairs,
    )


def pap_place(scenario: Scenario, affinity: AffinityMatrix) -> PlacementOutcome:
    """Power-aware placement: first admissible machine in (omega, id) order."""
    require_final(scenario, affinity)
    m = scenario.num_machines
    state = PapPriorityState(omega=[0.0] * m, threshold=scenario.pi_threshold)

    def choose(ledger: CapacityLedger, i: int) -> int:
        anti = ledger.anti[i]
        d0, d1, d2, d3 = ledger.demands[i]
        remaining = ledger.remaining
        for k, (_, j) in enumerate(state.order, 1):
            r = remaining[j]
            if not anti[j] and d0 <= r[0] and d1 <= r[1] and d2 <= r[2] and d3 <= r[3]:
                ledger.pairs += k
                # the returned machine is always placed, so its priority
                # moves on now, with the utilization it is about to have
                state.after_placement(j, ledger.pi_after(i, j))
                return j
        ledger.pairs += m
        return -1

    return _greedy(scenario, choose)


def _best_by_affinity(ledger: CapacityLedger, i: int, fi: list[float], order: list[int]) -> int:
    """Admissible machine with the least key (-fi[j], pi[j], j), or -1.

    ``order`` holds the machines by decreasing fi, equal fi in any order.
    The first admissible one fixes the best affinity; only the rest of its
    run of equal fi can still beat it, on (pi, id). The admissibility test is
    ``CapacityLedger.admissible`` written out, without counting a probe.
    """
    anti = ledger.anti[i]
    d0, d1, d2, d3 = ledger.demands[i]
    remaining = ledger.remaining
    pi = ledger.pi
    best = -1
    for j in order:
        if best >= 0:
            if fi[j] != v:
                break
            p = pi[j]
            if p > best_pi or (p == best_pi and j > best):
                continue
        r = remaining[j]
        if not anti[j] and d0 <= r[0] and d1 <= r[1] and d2 <= r[2] and d3 <= r[3]:
            best, v, best_pi = j, fi[j], pi[j]
    return best


def aap_place(scenario: Scenario, affinity: AffinityMatrix) -> PlacementOutcome:
    """Affinity-aware placement: admissible machine with the highest affinity.

    Ties go to the lower current utilization, then the lower machine id.
    """
    require_final(scenario, affinity)
    values = affinity.values
    # One argsort per call, kept as a numpy array and read reversed through
    # a view, so no negated copy of the matrix is made. An application's
    # instances are placed one after another, so only its row is live and
    # becomes Python lists; N x M lists would only add memory.
    ranked = values.argsort(axis=1)[:, ::-1]
    m = scenario.num_machines
    live, fi, order = -1, [], []

    def choose(ledger: CapacityLedger, i: int) -> int:
        nonlocal live, fi, order
        ledger.pairs += m
        if i != live:
            live, fi, order = i, values[i].tolist(), ranked[i].tolist()
        return _best_by_affinity(ledger, i, fi, order)

    return _greedy(scenario, choose)


def cpaap_place(scenario: Scenario, affinity: AffinityMatrix) -> PlacementOutcome:
    """Combined placement: cheaper of the two candidate machines per step.

    Candidate one is the admissible machine with the lowest utilization
    (id tiebreak); candidate two has the highest affinity (utilization,
    then id tiebreak). The objective delta of placing on each decides,
    with candidate one winning ties. The candidates may coincide.
    """
    require_final(scenario, affinity)
    values = affinity.values
    ranked = values.argsort(axis=1)[:, ::-1]  # live rows as in aap_place
    live, fi, order = -1, [], []
    machines = scenario.machines
    m = len(machines)
    alpha = scenario.alpha
    # every (pi[j], j) ascending, candidate one's scan order; a placement
    # moves only the chosen machine's pair, as PapPriorityState.order does
    by_pi = [(0.0, j) for j in range(m)]

    def choose(ledger: CapacityLedger, i: int) -> int:
        nonlocal live, fi, order
        ledger.pairs += m
        anti = ledger.anti[i]
        d0, d1, d2, d3 = ledger.demands[i]
        remaining = ledger.remaining
        for _, j1 in by_pi:
            r = remaining[j1]
            if not anti[j1] and d0 <= r[0] and d1 <= r[1] and d2 <= r[2] and d3 <= r[3]:
                break
        else:
            return -1
        if i != live:
            live, fi, order = i, values[i].tolist(), ranked[i].tolist()
        j2 = _best_by_affinity(ledger, i, fi, order)
        pi = ledger.pi
        after = ledger.pi_after(i, j1)
        if j1 != j2:
            after2 = ledger.pi_after(i, j2)
            cost1 = delta_cost(machines[j1], pi[j1], after, fi[j1], alpha)
            cost2 = delta_cost(machines[j2], pi[j2], after2, fi[j2], alpha)
            if cost1 > cost2:
                j1, after = j2, after2
        # the returned machine is always placed: its pair moves now, to the
        # utilization CapacityLedger.add is about to give it
        del by_pi[bisect_left(by_pi, (pi[j1], j1))]
        insort(by_pi, (after, j1))
        return j1

    return _greedy(scenario, choose)


def first_fit_place(scenario: Scenario) -> PlacementOutcome:
    """Baseline: lowest-id admissible machine for every instance.

    An application's instances are placed one after another and remaining
    capacity only shrinks, so a machine that rejected one instance rejects
    every later instance of that application. The scan for the next one
    resumes at the machine the last one took; the machines it skips are
    counted as the rejected probes they are, so a step placing on j adds
    j + 1 to ``pairs_examined`` and a failing step adds M.
    """
    m = scenario.num_machines
    live, start = -1, 0

    def choose(ledger: CapacityLedger, i: int) -> int:
        nonlocal live, start
        if i != live:
            live, start = i, 0
        anti = ledger.anti[i]
        d0, d1, d2, d3 = ledger.demands[i]
        remaining = ledger.remaining
        for j in range(start, m):
            r = remaining[j]
            if not anti[j] and d0 <= r[0] and d1 <= r[1] and d2 <= r[2] and d3 <= r[3]:
                start = j
                ledger.pairs += j + 1
                return j
        ledger.pairs += m
        return -1

    return _greedy(scenario, choose)
