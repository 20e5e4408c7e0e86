"""Greedy placement algorithms.

Four single-pass strategies share one skeleton, ``_greedy``: sort
applications by decreasing demand, then place instances one at a time.
Each step takes a machine that ``CapacityLedger.first_admissible`` accepts
(not anti-affine, and every resource fits), the first in the strategy's
own machine order:

  pap        (priority parameter, id), kept sorted; the parameter tracks
             utilization below a threshold, then escalates (1, then
             doubling) so hot machines drop out of rotation
  aap        decreasing final affinity, from one argsort per call; the
             rest of the first machine's run of equal affinity may still
             win on (utilization, id)
  cpaap      the cheaper by objective delta of aap's machine and the first
             in (utilization, id) order, kept sorted as pap's order is
  first_fit  machine id (baseline); a machine that rejects an instance
             rejects the rest of its application's, so each scan resumes
             at the machine the last one took

All are deterministic: every tie falls back to machine id. Infeasibility
is an outcome, not an exception; the partial allocation and trace are
returned for diagnosis. ``PlacementOutcome`` defines the work count.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from operator import itemgetter
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
    first (application id, instance index) a strategy could not place; the
    allocation then holds everything placed up to that point. The exact
    solver's outcome (``harness.run_scenario`` with "oracle") has no such
    point: an infeasible scenario gives ``failed_at`` None, an empty trace
    and an all-zero allocation. ``pairs_examined`` counts (candidate
    machine, instance) pairs: the probes of pap and first_fit, all M on a
    failing step (the machines first_fit's resumed scan skips count as the
    rejected probes they are, so placing on j counts j + 1), and M per
    step of aap and cpaap, which rank every machine.
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

    def after_placement(self, j: int, pi: float) -> int:
        """Move j's parameter on after a placement; returns j's old position in ``order``."""
        w = self.omega[j]
        self.omega[j] = new = pi if w < self.threshold else 1.0 if w < 1.0 else 2.0 * w
        return _refile(self.order, (w, j), (new, j))


def _refile(order: list[tuple[float, int]], old: tuple[float, int], new: tuple[float, int]) -> int:
    """Replace ``old`` by ``new`` in the ascending list ``order``; returns old's position."""
    k = bisect_left(order, old)
    del order[k]
    insort(order, new)
    return k


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
    It finds the machine with ``ledger.first_admissible`` and adds its
    work, as ``PlacementOutcome`` counts it, to ``ledger.pairs``.
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
        j = ledger.first_admissible(i, map(itemgetter(1), state.order))
        if j < 0:
            ledger.pairs += m
            return j
        # the returned machine is always placed, so its priority moves on
        # now, with the utilization it is about to have; its old position
        # in the scan order gives the probes made
        ledger.pairs += state.after_placement(j, ledger.pi_after(i, j)) + 1
        return j

    return _greedy(scenario, choose)


class _AffinityWalk:
    """aap's choice rule: the admissible machine of least (-fi[j], pi[j], j).

    The matrix is argsorted once, read reversed through a view, so no
    negated copy is made. An application's instances are placed one after
    another, so only its rows are live: ``fi`` (affinity) and ``order``
    (argsorted), memoryviews that yield Python numbers for only the
    machines a walk reaches; a strided row is not copied. ``choose`` hands
    ``iter(order)`` to ``first_admissible``, whose machine fixes the best
    affinity. That scan stops just past the machine it returns, so the same
    iterator goes on through the rest of the run of equal affinity, where
    an admissible machine can still win on (pi, id). A step ranks every
    machine, so it counts M pairs, however few the walk reaches.
    """

    __slots__ = ("values", "ranked", "live", "fi", "order")

    def __init__(self, affinity: AffinityMatrix):
        self.values = affinity.values
        self.ranked = self.values.argsort(axis=1)[:, ::-1]
        self.live = -1

    def choose(self, ledger: CapacityLedger, i: int) -> int:
        """Application i's machine by the rule above, or -1 when none is admissible."""
        if i != self.live:
            self.live, self.fi, self.order = i, memoryview(self.values[i]), memoryview(self.ranked[i])
        fi = self.fi
        ledger.pairs += len(fi)
        rest = iter(self.order)
        best = ledger.first_admissible(i, rest)
        if best < 0:
            return best
        pi = ledger.pi
        v, best_pi = fi[best], pi[best]
        for j in rest:
            if fi[j] != v:
                break
            p = pi[j]
            if (p < best_pi or (p == best_pi and j < best)) and ledger.first_admissible(i, (j,)) >= 0:
                best, best_pi = j, p
        return best


def aap_place(scenario: Scenario, affinity: AffinityMatrix) -> PlacementOutcome:
    """Affinity-aware placement: admissible machine with the highest affinity.

    Ties go to the lower current utilization, then the lower machine id.
    """
    require_final(scenario, affinity)
    return _greedy(scenario, _AffinityWalk(affinity).choose)


def cpaap_place(scenario: Scenario, affinity: AffinityMatrix) -> PlacementOutcome:
    """Combined placement: cheaper of the two candidate machines per step.

    Candidate one is the admissible machine with the lowest utilization
    (id tiebreak); candidate two has the highest affinity (utilization,
    then id tiebreak). The objective delta of placing on each decides,
    with candidate one winning ties. The candidates may coincide.
    """
    require_final(scenario, affinity)
    walk = _AffinityWalk(affinity)
    machines = scenario.machines
    m = len(machines)
    alpha = scenario.alpha
    # every (pi[j], j) ascending, candidate one's scan order; a placement
    # moves only the chosen machine's pair, as PapPriorityState.order does
    by_pi = [(0.0, j) for j in range(m)]

    def choose(ledger: CapacityLedger, i: int) -> int:
        # both candidates are admissible, so they exist or fail together
        j2 = walk.choose(ledger, i)
        if j2 < 0:
            return j2
        j1 = ledger.first_admissible(i, map(itemgetter(1), by_pi))
        pi = ledger.pi
        after = ledger.pi_after(i, j1)
        if j1 != j2:
            fi = walk.fi
            after2 = ledger.pi_after(i, j2)
            cost1 = delta_cost(machines[j1], pi[j1], after, fi[j1], alpha)
            cost2 = delta_cost(machines[j2], pi[j2], after2, fi[j2], alpha)
            if cost1 > cost2:
                j1, after = j2, after2
        # the returned machine is always placed: its pair moves now, to the
        # utilization CapacityLedger.add is about to give it
        _refile(by_pi, (pi[j1], j1), (after, j1))
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
        j = ledger.first_admissible(i, range(start, m))
        if j < 0:
            ledger.pairs += m
            return j
        start = j
        ledger.pairs += j + 1
        return j

    return _greedy(scenario, choose)
