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
CapacityLedger. The last two levels are one array batch: a machine state
of the second-to-last level keeps a table of the last application's cost
terms, one row per entry of its ladder, and every (row, last row) pair is
costed at once by gathering from those tables and adding the terms in
machine order, in blocks of about 64k pairs. The nodes, their order and
the optimum are those of the row-by-row search, a budget trip inside a
batch included. Intended for desk-scale ground truth, roughly up to 8
instances on 4 machines.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter, getitem
from typing import Optional

import numpy as np

from .affinity import AffinityMatrix, require_final
from .model import AllocationMatrix, CapacityLedger, ModelError, Scenario

DEFAULT_NODE_BUDGET = 10_000_000

# Pairs of rows costed at once, so a batch's working set stays bounded.
_BLOCK_CELLS = 1 << 16

_INF = float("inf")
_LADDER = attrgetter("ladder")


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
    ``table`` is filled on first use when i is the second-to-last
    application (see ``_Search.table``).
    """

    __slots__ = ("remaining", "used_cpu", "payoff", "term", "ladder", "table")

    def __init__(self, remaining: tuple, used_cpu: float, payoff: float, term: float):
        self.remaining = remaining
        self.used_cpu = used_cpu
        self.payoff = payoff
        self.term = term
        self.ladder: Optional[list[_MachineState]] = None
        self.table: Optional[np.ndarray] = None


def _rows(k: int, lengths: tuple) -> list[tuple]:
    """Every row of counts summing to k with ``row[j] < lengths[j]``, ascending lexicographically."""
    if len(lengths) == 1:
        return [(k,)] if k < lengths[0] else []
    return [(c, *rest) for c in range(min(k + 1, lengths[0])) for rest in _rows(k - c, lengths[1:])]


class _Search:
    """One exhaustive search; lives for one ``optimal_place`` call."""

    __slots__ = ("ledger", "spans", "f", "alpha", "instances", "last", "budget", "nodes",
                 "row_cache", "path", "best_cost", "best_rows", "grid", "grid_rows", "width")

    def __init__(self, scenario: Scenario, affinity: AffinityMatrix, budget: int):
        self.ledger = CapacityLedger(scenario)
        self.spans = scenario.spans.tolist()
        self.f = affinity.values.tolist()
        self.alpha = scenario.alpha
        self.instances = scenario.instances.tolist()
        self.last = scenario.num_applications - 1
        self.budget = budget
        self.nodes = 0
        self.row_cache: dict[tuple, tuple[list[tuple], np.ndarray]] = {}
        # Rows of applications 0 .. last - 2; the batch picks the last two.
        self.path: list[tuple] = [()] * max(self.last - 1, 0)
        self.best_cost = float("inf")
        self.best_rows: Optional[list[tuple]] = None
        # Every row of the last application, whatever the machines' room. A
        # table row is a ladder length, then the terms after 0 .. k instances,
        # so ``grid`` holds each count plus one, as (machine, 1, row).
        k = self.instances[self.last]
        self.grid_rows = _rows(k, (k + 1,) * scenario.num_machines)
        self.grid = np.array(self.grid_rows, dtype=np.int64).T[:, None, :] + 1
        self.width = k + 2

    def run(self) -> None:
        """Search from every machine empty: no cpu used, no payoff, a cost term of 0."""
        roots = [_MachineState(cap, 0.0, 0.0, 0.0) for cap in self.ledger.caps]
        if self.last:
            self.descend(0, roots)
            return
        # One application: the batch with a single prefix row that is no node.
        rows, at = self.rows((0, (1,) * len(roots)))
        self.score([self.table([root], j) for j, root in enumerate(roots)], rows, at, counted=False)

    def rows(self, key: tuple) -> tuple[list[tuple], np.ndarray]:
        """The rows for ``(instances, ladder lengths)`` and where each row's entries start.

        ``at[j, r]`` is the offset of row r's entry on machine j in the
        machines' tables laid end to end.
        """
        entry = self.row_cache.get(key)
        if entry is None:
            rows = _rows(*key)
            lengths = key[1]
            starts = np.cumsum((0, *lengths[:-1]))
            at = (np.array(rows, dtype=np.int64).reshape(len(rows), len(lengths)) + starts).T
            entry = self.row_cache[key] = rows, at * self.width
        return entry

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
        return ladder

    def table(self, ladder: list[_MachineState], j: int) -> np.ndarray:
        """The last application's cost terms on machine j, one row per state of ``ladder``.

        A row holds the number of terms, then the terms after 0, 1, ...
        instances, ``inf`` past the machine's room.
        """
        last, width, out = self.last, self.width, []
        for state in ladder:
            terms = [s.term for s in state.ladder or self.ladder(state, last, j)]
            out.append(len(terms))
            out += terms
            out += [_INF] * (width - 1 - len(terms))
        return np.array(out)

    def descend(self, i: int, states: list[_MachineState]) -> None:
        """Enumerate application i's rows from the machine states ``states``."""
        ladders = list(map(_LADDER, states))
        if None in ladders:
            ladders = [s.ladder or self.ladder(s, i, j) for j, s in enumerate(states)]
        # A ladder's length is the machine's room for application i plus one.
        rows, at = self.rows((self.instances[i], tuple(map(len, ladders))))
        if not rows:
            return
        if i + 1 == self.last:
            tables = []
            for j, s in enumerate(states):
                if s.table is None:
                    s.table = self.table(s.ladder, j)
                tables.append(s.table)
            self.score(tables, rows, at)
            return
        path = self.path
        for row in rows:
            self.nodes += 1
            if self.nodes > self.budget:
                raise _BudgetHit
            path[i] = row
            self.descend(i + 1, list(map(getitem, ladders, row)))

    def score(self, tables: list[np.ndarray], rows: list[tuple], at: np.ndarray,
              counted: bool = True) -> None:
        """Cost every (row, last application's row) pair, in blocks of rows.

        ``rows`` are the second-to-last application's, each a node when
        ``counted``, followed by one node per last row that fits it. A pair
        costs its per-machine terms summed in machine order; infeasible
        pairs gather an ``inf``. If the budget trips inside a block, only
        the pairs before node ``budget + 1`` are scored.
        """
        flat = np.concatenate(tables)
        grid, budget, span = self.grid, self.budget, len(self.grid_rows)
        step = max(1, _BLOCK_CELLS // span)
        for start in range(0, len(rows), step):
            block = at[:, start:start + step]
            # A last row fits where every count is below its ladder's length.
            fits = (grid <= flat.take(block)[:, :, None]).all(axis=0)
            # accumulate adds in machine order, ((t0 + t1) + t2) + ..., so a
            # cost has the same bits however numpy would order a sum.
            cost = np.add.accumulate(flat.take(block[:, :, None] + grid))[-1].ravel()
            nodes = self.nodes + counted * len(fits) + int(np.count_nonzero(fits))
            tripped = nodes > budget
            limit = self.trip(fits, counted) if tripped else cost.size
            if limit:
                # Pairs are in ascending lexicographic order and argmin keeps
                # the first of equal costs, so a strict comparison keeps the
                # lexicographically smallest of equal-cost optima.
                best = int(cost[:limit].argmin())
                if cost[best] < self.best_cost:
                    self.best_cost = float(cost[best])
                    r, g = divmod(best, span)
                    last_row = self.grid_rows[g]
                    self.best_rows = [*self.path, rows[start + r], last_row] if counted else [last_row]
            if tripped:
                self.nodes = budget + 1
                raise _BudgetHit
            self.nodes = nodes

    def trip(self, fits: np.ndarray, counted: bool) -> int:
        """How many of a block's pairs, in order, come before node ``budget + 1``."""
        counts = fits.sum(axis=1)
        # The node count after each row's last pair, and the first row past the budget.
        ends = self.nodes + np.cumsum(counts + counted)
        r = int(np.searchsorted(ends, self.budget, side="right"))
        # The pairs of row r that fit the budget; -1 when row r's own node trips.
        allowed = self.budget - int(ends[r] - counts[r])
        cut = int(np.flatnonzero(fits[r])[allowed - 1]) + 1 if allowed > 0 else 0
        return r * fits.shape[1] + cut


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
        search.run()
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
