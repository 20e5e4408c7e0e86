"""Exhaustive exact minimizer of the reduced objective for tiny instances.

Enumerates allocations as per-application count rows over machines
(instances of one application are interchangeable, so labeled-instance
enumeration would only multiply the space by factorials). Each recursion
level is one application, and each node is one whole row that fits:
rows are listed once per (instances, per-machine room) in ascending
lexicographic order. A machine's state (remaining capacity, cpu used, its
cost term) depends only on its column of counts so far, so states are
memoized in one trie per machine and a node only picks pointers; each
"state after 0, 1, ... instances" ladder is built once through
CapacityLedger. The last application's rows are scored as sums of
per-machine terms. Intended for desk-scale ground truth, roughly up to 8
instances on 4 machines.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, attrgetter, getitem
from typing import Optional

import numpy as np

from .affinity import AffinityMatrix, require_final
from .model import AllocationMatrix, CapacityLedger, ModelError, Scenario

DEFAULT_NODE_BUDGET = 10_000_000

_LADDER = attrgetter("ladder")
_TERMS = attrgetter("terms")


@dataclass(frozen=True)
class OracleResult:
    """Outcome of the exhaustive search.

    ``optimal`` is None iff no complete feasible allocation was found.
    ``exhausted`` is True iff the whole space was enumerated; if the node
    budget tripped first, any reported optimum is only the best of the
    explored region and optimality is not claimed. A scenario has no
    feasible allocation iff ``optimal`` is None on an exhausted search.
    ``nodes_explored`` counts completed rows (one application's counts).
    """

    optimal: Optional[AllocationMatrix]
    optimal_reduced_cost: Optional[float]
    nodes_explored: int
    exhausted: bool


class _BudgetHit(Exception):
    """The node budget tripped; unwinds the search to ``optimal_place``."""


class _MachineState:
    """One machine after one column of counts (applications 0..i-1).

    ``term`` is the machine's share of the reduced cost,
    ``span * pi**3 - alpha * payoff``. ``ladder`` is filled on first use:
    the states after 0, 1, ... instances of application i, as far as the
    machine admits them, up to that application's count. Its first entry
    is a fresh state, never this one, so the trie holds no cycle.
    """

    __slots__ = ("remaining", "used_cpu", "payoff", "term", "ladder", "terms")

    def __init__(self, remaining: tuple, used_cpu: float, payoff: float, term: float):
        self.remaining = remaining
        self.used_cpu = used_cpu
        self.payoff = payoff
        self.term = term
        self.ladder: Optional[list[_MachineState]] = None
        self.terms: Optional[list[float]] = None


def _rows(k: int, lengths: tuple) -> list[tuple]:
    """Every row of counts summing to k with ``row[j] < lengths[j]``, ascending lexicographically."""
    if len(lengths) == 1:
        return [(k,)] if k < lengths[0] else []
    return [(c, *rest) for c in range(min(k + 1, lengths[0])) for rest in _rows(k - c, lengths[1:])]


class _Search:
    """One exhaustive search; lives for one ``optimal_place`` call."""

    __slots__ = ("ledger", "spans", "f", "alpha", "instances", "last", "budget",
                 "nodes", "row_cache", "path", "best_cost", "best_rows")

    def __init__(self, scenario: Scenario, affinity: AffinityMatrix, budget: int):
        self.ledger = CapacityLedger(scenario)
        self.spans = scenario.spans.tolist()
        self.f = affinity.values.tolist()
        self.alpha = scenario.alpha
        self.instances = scenario.instances.tolist()
        self.last = scenario.num_applications - 1
        self.budget = budget
        self.nodes = 0
        self.row_cache: dict[tuple, tuple[list[tuple], list[list[int]]]] = {}
        self.path: list[tuple] = [()] * self.last
        self.best_cost = float("inf")
        self.best_rows: Optional[list[tuple]] = None

    def roots(self) -> list[_MachineState]:
        """Every machine empty: no cpu used, no payoff, a cost term of 0."""
        return [_MachineState(cap, 0.0, 0.0, 0.0) for cap in self.ledger.caps]

    def ladder(self, state: _MachineState, i: int, j: int) -> list[_MachineState]:
        """Build ``state.ladder`` for application i on machine j through the ledger."""
        ledger = self.ledger
        ledger.remaining[j] = list(state.remaining)
        ledger.used_cpu[j] = state.used_cpu
        fij, span, alpha, k = self.f[i][j], self.spans[j], self.alpha, self.instances[i]
        payoff = state.payoff
        ladder = [_MachineState(state.remaining, state.used_cpu, payoff, state.term)]
        while len(ladder) <= k and ledger.first_admissible(i, (j,)) >= 0:
            ledger.add(i, j)
            payoff += fij
            pi = ledger.pi[j]
            ladder.append(_MachineState(tuple(ledger.remaining[j]), ledger.used_cpu[j], payoff,
                                        span * pi * pi * pi - alpha * payoff))
        state.ladder = ladder
        state.terms = [s.term for s in ladder]
        return ladder

    def descend(self, i: int, states: list[_MachineState]) -> None:
        """Enumerate application i's rows from the machine states ``states``."""
        ladders = list(map(_LADDER, states))
        if None in ladders:
            ladders = [s.ladder or self.ladder(s, i, j) for j, s in enumerate(states)]
        # A ladder's length is the machine's room for application i plus one.
        key = (self.instances[i], tuple(map(len, ladders)))
        entry = self.row_cache.get(key)
        if entry is None:
            rows = _rows(*key)
            entry = self.row_cache[key] = rows, [list(col) for col in zip(*rows)]
        rows, cols = entry
        if not rows:
            return
        if i == self.last:
            self.score(list(map(_TERMS, states)), rows, cols)
            return
        path = self.path
        for row in rows:
            self.nodes += 1
            if self.nodes > self.budget:
                raise _BudgetHit
            path[i] = row
            self.descend(i + 1, list(map(getitem, ladders, row)))

    def score(self, terms: list[list[float]], rows: list[tuple], cols: list[list[int]]) -> None:
        """Cost every row of the last application, summing per-machine terms in machine order."""
        pairs = zip(terms, cols)
        t, col = next(pairs)
        costs = list(map(t.__getitem__, col))
        for t, col in pairs:
            costs = list(map(add, costs, map(t.__getitem__, col)))
        allowed = self.budget - self.nodes
        tripped = len(costs) > allowed
        if tripped:
            costs = costs[:allowed]
        self.nodes += len(costs)
        if costs:
            low = min(costs)
            # Rows are in ascending lexicographic order and the first of
            # equal costs is kept, so a strict comparison keeps the
            # lexicographically smallest of equal-cost optima.
            if low < self.best_cost:
                self.best_cost = low
                self.best_rows = [*self.path, rows[costs.index(low)]]
        if tripped:
            self.nodes += 1
            raise _BudgetHit


def optimal_place(
    scenario: Scenario,
    affinity: AffinityMatrix,
    budget: int = DEFAULT_NODE_BUDGET,
) -> OracleResult:
    """Minimum-reduced-cost complete allocation, by exhaustive enumeration.

    Equal-cost ties resolve to the lexicographically smallest allocation
    matrix in row-major order, so results are stable across runs. The
    search stops at node ``budget + 1``. The reported cost depends only on
    the optimum's counts: per machine, the cost term after its column is
    placed one instance at a time in application order, summed in machine
    order.
    """
    if budget <= 0:
        raise ModelError("node budget must be positive")
    require_final(scenario, affinity)
    search = _Search(scenario, affinity, budget)
    try:
        search.descend(0, search.roots())
        exhausted = True
    except _BudgetHit:
        exhausted = False
    if search.best_rows is None:
        optimal = None
        cost = None
    else:
        optimal = AllocationMatrix(np.array(search.best_rows, dtype=np.int64))
        cost = search.best_cost
    return OracleResult(
        optimal=optimal,
        optimal_reduced_cost=cost,
        nodes_explored=search.nodes,
        exhausted=exhausted,
    )
