"""Greedy placement algorithms.

Four single-pass strategies share one skeleton, ``_greedy``: take the
applications in decreasing demand order, the scenario's
``placement_order``, and place their instances one at a time. Each step
takes a machine that ``CapacityLedger.first_admissible`` accepts (not
anti-affine, and every resource fits), the first in the strategy's own
machine order:

  pap        (priority parameter, id), kept sorted; the parameter tracks
             utilization below a threshold, then escalates (1, then
             doubling) so hot machines drop out of rotation
  aap        decreasing final affinity, from the matrix's ranking, built
             once per matrix; the rest of the first machine's run of equal
             affinity may still win on (utilization, id)
  cpaap      the cheaper by objective delta of aap's machine and the first
             in pap's order under a threshold no utilization reaches, which
             is (utilization, id) order; the candidate that lost a step is
             reused at the next step of its application, and only the
             winner's is searched again
  first_fit  machine id (baseline); a machine that rejects an instance
             rejects the rest of its application's, so each scan resumes
             at the machine the last one took

A machine left with less than the scenario's ``demand_floor`` in some
resource is spent: it admits no instance again. pap, cpaap's first
candidate and first_fit retire it from their orders; their choices and
work counts are those of scans that keep it. aap's walk keeps it.

All are deterministic: every tie falls back to machine id. Infeasibility
is an outcome, not an exception; the partial allocation and trace are
returned for diagnosis. ``PlacementOutcome`` defines the work count.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from itertools import islice
from operator import itemgetter
from typing import Callable, Optional

from .affinity import AffinityMatrix, require_final
from .costs import _span_delta
from .model import AllocationMatrix, CapacityLedger, Scenario

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
    machine, instance) pairs: the probes of pap and first_fit as scans that
    keep every machine would make them (the spent machines they retired
    count as the rejected probes they would be, and so do the machines
    first_fit's resumed scan skips, so placing on j counts j + 1), M per
    step of aap and cpaap, which rank every machine (a cpaap step that
    reuses its affinity candidate included), and M on the failing step of
    every strategy.
    """

    allocation: AllocationMatrix
    feasible: bool
    failed_at: Optional[tuple[int, int]]
    trace: tuple[PlacementEvent, ...]
    pairs_examined: int


@dataclass(slots=True)
class PapPriorityState:
    """Per-machine priority parameters for the power-aware strategy.

    omega starts at 0 for every machine. After a placement on machine j:
    below the utilization threshold omega tracks the machine's utilization;
    at or above it omega jumps to 1; from 1 on it doubles on every further
    placement. ``order`` keeps every (omega[j], j) ascending, pap's scan
    order; an update moves only j's pair, so omega need not be monotone.
    Under an infinite threshold omega[j] is always j's utilization, and
    ``order`` is (utilization, id) order. A retired machine's pair moves
    from ``order`` to ``retired``, also ascending: nothing is placed on it
    again, so its pair is frozen.
    """

    omega: list[float]
    threshold: float
    order: list[tuple[float, int]] = field(init=False)
    retired: list[tuple[float, int]] = field(init=False)

    def __post_init__(self) -> None:
        self.order = sorted(zip(self.omega, range(len(self.omega))))
        self.retired = []

    def after_placement(self, j: int, pi: float) -> int:
        """Move j's parameter on after a placement; returns j's old position.

        The position is in the order of every pair, retired ones included.
        """
        w = self.omega[j]
        self.omega[j] = new = pi if w < self.threshold else 1.0 if w < 1.0 else 2.0 * w
        order = self.order
        key = (w, j)
        k = bisect_left(order, key)
        del order[k]
        insort(order, (new, j))
        return k + bisect_left(self.retired, key) if self.retired else k

    def retire(self, j: int) -> None:
        """Move j's pair from ``order`` to ``retired``; j takes no further placement."""
        key = (self.omega[j], j)
        del self.order[bisect_left(self.order, key)]
        insort(self.retired, key)


def _greedy(
    scenario: Scenario,
    choose: Callable[[CapacityLedger, int], int],
    retire: Optional[Callable[[int], None]] = None,
) -> PlacementOutcome:
    """The pass every strategy shares; ``choose`` is its choice rule.

    Applications go in the scenario's ``placement_order``, instances one
    at a time. ``choose(ledger, i)`` returns the machine for the next
    instance of application i, or -1 when none is admissible, which ends
    the run. It finds the machine with ``ledger.first_admissible`` and,
    when it finds one, adds its work, as ``PlacementOutcome`` counts it, to
    ``ledger.pairs``. The failing step's M pairs are added here. The
    allocation's cells are built from the trace once, at the end.

    A machine is spent once, in some resource, what it has left is below
    the scenario's ``demand_floor``: it admits no instance again, since
    remaining capacity only shrinks. ``retire(j)``, when given, is called
    once for each machine j that a placement leaves spent, so the rule can
    stop scanning it.
    """
    ledger = CapacityLedger(scenario)
    m = scenario.num_machines
    add, remaining = ledger.add, ledger.remaining
    f0, f1, f2, f3 = scenario.demand_floor
    trace: list[PlacementEvent] = []
    place = trace.append
    failed_at = None
    for i, count in scenario.placement_order:
        for k in range(count):
            j = choose(ledger, i)
            if j < 0:
                ledger.pairs += m
                failed_at = (i, k)
                break
            add(i, j)
            place((i, k, j))
            if retire is not None:
                r0, r1, r2, r3 = remaining[j]
                if r0 < f0 or r1 < f1 or r2 < f2 or r3 < f3:
                    retire(j)
        if failed_at is not None:
            break
    return PlacementOutcome(
        allocation=AllocationMatrix.from_cells(
            (scenario.num_applications, m), [i * m + j for i, _, j in trace]),
        feasible=failed_at is None,
        failed_at=failed_at,
        trace=tuple(trace),
        pairs_examined=ledger.pairs,
    )


def pap_place(scenario: Scenario, affinity: AffinityMatrix) -> PlacementOutcome:
    """Power-aware placement: first admissible machine in (omega, id) order."""
    require_final(scenario, affinity)
    state = PapPriorityState(omega=[0.0] * scenario.num_machines, threshold=scenario.pi_threshold)

    def choose(ledger: CapacityLedger, i: int) -> int:
        j = ledger.first_admissible(i, map(itemgetter(1), state.order))
        if j >= 0:
            # the returned machine is always placed, so its priority moves on
            # now, with the utilization it is about to have; its old position
            # in the scan order gives the probes made
            ledger.pairs += state.after_placement(j, ledger.pi_after(i, j)) + 1
        return j

    return _greedy(scenario, choose, state.retire)


class _AffinityWalk:
    """aap's choice rule: the admissible machine of least (-fi[j], pi[j], j).

    The ranking is the matrix's own ``AffinityMatrix.ranked``, built on
    its first walk and shared by every later one. An application's
    instances are placed one after another, so only its rows are live:
    ``fi`` (affinity) and ``order`` (ranked machine ids), memoryviews that
    yield Python numbers for only the machines a walk reaches; a strided
    affinity row is not copied. ``choose`` hands ``iter(order)`` to
    ``first_admissible``, whose machine fixes the best affinity. That scan
    stops just past the machine it returns, so the same iterator goes on
    through the rest of the run of equal affinity, where an admissible
    machine can still win on (pi, id). A step that finds a machine ranks
    every machine, so it counts M pairs, however few the walk reaches;
    ``_greedy`` counts a failing step.
    """

    __slots__ = ("values", "ranked", "live", "fi", "order")

    def __init__(self, affinity: AffinityMatrix):
        self.values = affinity.values
        self.ranked = affinity.ranked
        self.live = -1

    def choose(self, ledger: CapacityLedger, i: int) -> int:
        """Application i's machine by the rule above, or -1 when none is admissible."""
        if i != self.live:
            self.live, self.fi, self.order = i, memoryview(self.values[i]), memoryview(self.ranked[i])
        fi = self.fi
        rest = iter(self.order)
        best = ledger.first_admissible(i, rest)
        if best < 0:
            return best
        ledger.pairs += len(fi)
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

    An application's instances are placed one after another, and a step
    changes only the machine it places on, whose remaining capacity
    shrinks and whose utilization grows. So the candidate that lost a
    step is still admissible, unchanged, and still ahead of the winner in
    its own order: it is the same candidate at the next step, and only
    the winner's side is searched again. The kept candidate's machine,
    utilization after placing and cost delta are reused; they have the
    bits a new search would give. When the candidates coincide, or a new
    application starts, both are searched. A step that reuses candidate
    two still counts M pairs, as its walk would have.
    """
    require_final(scenario, affinity)
    walk = _AffinityWalk(affinity)
    spans = scenario.spans.tolist()
    alpha = scenario.alpha
    m = len(spans)
    # no utilization reaches an infinite threshold, so omega[j] is pi[j] and
    # the state's order is (pi, id), candidate one's scan order
    state = PapPriorityState(omega=[0.0] * m, threshold=math.inf)
    # the candidate the last step kept: 1 or 2 with its machine, utilization
    # after placing and cost delta, or 0 when the step kept none
    live, kept, kept_j, kept_after, kept_cost = -1, 0, -1, 0.0, 0.0

    def choose(ledger: CapacityLedger, i: int) -> int:
        nonlocal live, kept, kept_j, kept_after, kept_cost
        if i != live:
            live, kept = i, 0
        if kept == 2:
            j2, after2, cost2 = kept_j, kept_after, kept_cost
            ledger.pairs += m
        else:
            # both candidates are admissible, so they exist or fail together;
            # a kept candidate one is admissible, so this walk finds a machine
            j2 = walk.choose(ledger, i)
            if j2 < 0:
                return j2
        if kept == 1:
            j1, after, cost1 = kept_j, kept_after, kept_cost
        else:
            j1 = ledger.first_admissible(i, map(itemgetter(1), state.order))
            after = ledger.pi_after(i, j1)
        if j1 == j2:
            kept = 0
        else:
            pi, fi = ledger.pi, walk.fi
            if kept != 1:
                cost1 = _span_delta(spans[j1], pi[j1], after, fi[j1], alpha)
            if kept != 2:
                after2 = ledger.pi_after(i, j2)
                cost2 = _span_delta(spans[j2], pi[j2], after2, fi[j2], alpha)
            if cost1 > cost2:
                kept, kept_j, kept_after, kept_cost = 1, j1, after, cost1
                j1, after = j2, after2
            else:
                kept, kept_j, kept_after, kept_cost = 2, j2, after2, cost2
        # the returned machine is always placed: its pair moves now, to the
        # utilization CapacityLedger.add is about to give it
        state.after_placement(j1, after)
        return j1

    return _greedy(scenario, choose, state.retire)


def first_fit_place(scenario: Scenario) -> PlacementOutcome:
    """Baseline: lowest-id admissible machine for every instance.

    An application's instances are placed one after another and remaining
    capacity only shrinks, so a machine that rejected one instance rejects
    every later instance of that application. The scan for the next one
    resumes at the machine the last one took, in ``alive``, the ids of the
    machines not yet retired, ascending. The machines it skips, retired or
    not, are counted as the rejected probes they are, so a step placing on
    j adds j + 1 to ``pairs_examined`` and a failing step adds M.
    """
    alive = list(range(scenario.num_machines))
    live, start = -1, 0

    def choose(ledger: CapacityLedger, i: int) -> int:
        nonlocal live, start
        if i != live:
            live, start = i, 0
        j = ledger.first_admissible(i, islice(alive, start, None))
        if j >= 0:
            start = alive.index(j, start)
            ledger.pairs += j + 1
        return j

    def retire(j: int) -> None:
        # j was just placed, so it is alive[start]; the next scan resumes
        # at the machine after it
        del alive[start]

    return _greedy(scenario, choose, retire)
