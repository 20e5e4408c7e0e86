"""Exhaustive exact minimizer of the reduced objective for tiny instances.

Enumerates allocations as per-application count rows over machines
(instances of one application are interchangeable, so labeled-instance
enumeration would only multiply the space by factorials). Each level is
one application, and each node is one whole row that fits: rows are
listed in ascending lexicographic order. A machine's state (remaining
capacity, cpu used, its cost term) depends only on its column of counts
so far, so states are built once, through CapacityLedger, and memoized
per machine. The deepest levels whose rows make at most about 64k leaves
at full room (the last level always; on 4 machines x 4 applications x 2
instances, the whole search) are expanded as one array frontier: each
machine's states below the batch's entry state get a table per level,
the next state's id for every row (-1 past the machine's room) and, at
the last level, the cost terms (``inf`` past it). A level's nodes are
the frontier's rows that fit on every machine; a leaf's cost is its
terms added in machine order. Levels above the batch recurse row by row.
The nodes, their order and the optimum are those of a row-by-row
search, a budget trip inside the batch included. Intended for desk-scale
ground truth, roughly up to 8 instances on 4 machines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import getitem
from typing import Optional

import numpy as np

from .affinity import AffinityMatrix, require_final
from .model import AllocationMatrix, CapacityLedger, ModelError, Scenario

DEFAULT_NODE_BUDGET = 10_000_000

# Worst-case leaves of one batch, so its working set stays bounded.
_BLOCK_CELLS = 1 << 16

_INF = float("inf")


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
    ``span * pi**3 - alpha * payoff``. Filled on first use: above the
    batch, ``ladder`` (see ``_Search.ladder``); at the batch's first level,
    ``tables`` (see ``_Search.tables``).
    """

    __slots__ = ("remaining", "used_cpu", "payoff", "term", "ladder", "tables")

    def __init__(self, remaining: tuple, used_cpu: float, payoff: float, term: float):
        self.remaining = remaining
        self.used_cpu = used_cpu
        self.payoff = payoff
        self.term = term
        self.ladder: Optional[list[_MachineState]] = None
        self.tables: Optional[list[np.ndarray]] = None


def _rows(k: int, lengths: tuple) -> list[tuple]:
    """Every row of counts summing to k with ``row[j] < lengths[j]``, ascending lexicographically."""
    if len(lengths) == 1:
        return [(k,)] if k < lengths[0] else []
    return [(c, *rest) for c in range(min(k + 1, lengths[0])) for rest in _rows(k - c, lengths[1:])]


class _Search:
    """One exhaustive search; lives for one ``optimal_place`` call."""

    __slots__ = ("ledger", "spans", "f", "alpha", "instances", "last", "depth", "budget",
                 "nodes", "row_cache", "grids", "path", "best_cost", "best_rows")

    def __init__(self, scenario: Scenario, affinity: AffinityMatrix, budget: int):
        self.ledger = CapacityLedger(scenario)
        self.spans = scenario.spans.tolist()
        self.f = affinity.values.tolist()
        self.alpha = scenario.alpha
        self.instances = instances = scenario.instances.tolist()
        self.last = depth = scenario.num_applications - 1
        self.budget = budget
        self.nodes = 0
        self.row_cache: dict[tuple, list[tuple]] = {}
        # The batch: the deepest levels, the last always, whose rows make
        # at most _BLOCK_CELLS leaves at every machine's full room.
        m = scenario.num_machines
        leaves = math.comb(instances[depth] + m - 1, m - 1)
        while depth and leaves * math.comb(instances[depth - 1] + m - 1, m - 1) <= _BLOCK_CELLS:
            depth -= 1
            leaves *= math.comb(instances[depth] + m - 1, m - 1)
        self.depth = depth
        # Per batched level, every row whatever the room, and its counts as (machine, row).
        grids = {k: _rows(k, (k + 1,) * m) for k in set(instances[depth:])}
        grids = {k: (rows, np.array(rows, dtype=np.intp).reshape(-1, m).T) for k, rows in grids.items()}
        self.grids = [grids[k] for k in instances[depth:]]
        self.path: list[tuple] = [()] * depth  # the rows above the batch
        self.best_cost = _INF
        self.best_rows: Optional[list[tuple]] = None

    def run(self) -> None:
        """Search from every machine empty: no cpu used, no payoff, a cost term of 0."""
        self.descend(0, [_MachineState(cap, 0.0, 0.0, 0.0) for cap in self.ledger.caps])

    def climb(self, state: _MachineState, i: int, j: int):
        """(payoff, term) after each instance of application i machine j admits from ``state``."""
        ledger = self.ledger
        ledger.remaining[j] = list(state.remaining)
        ledger.used_cpu[j] = state.used_cpu
        fij, span, alpha = self.f[i][j], self.spans[j], self.alpha
        payoff = state.payoff
        for _ in range(self.instances[i]):
            if ledger.first_admissible(i, (j,)) < 0:
                return
            ledger.add(i, j)
            payoff += fij
            pi = ledger.pi[j]
            yield payoff, span * pi * pi * pi - alpha * payoff

    def ladder(self, state: _MachineState, i: int, j: int) -> list[_MachineState]:
        """Machine j's states after 0, 1, ... more instances of application i.

        The first is a fresh state, never ``state``, so the trie holds no cycle.
        """
        ladder = [_MachineState(state.remaining, state.used_cpu, state.payoff, state.term)]
        remaining, used_cpu = self.ledger.remaining, self.ledger.used_cpu
        for payoff, term in self.climb(state, i, j):
            ladder.append(_MachineState(tuple(remaining[j]), used_cpu[j], payoff, term))
        return ladder

    def tables(self, state: _MachineState, j: int) -> list[np.ndarray]:
        """Machine j's table per batched level, below its entry state ``state``.

        The machine's states at a level are numbered in the order they are
        built. A level above the last maps each state and count 0 .. k to
        the next level's state, -1 past the room; the last level's holds
        the cost terms, ``inf`` past the room, and builds no state. Each
        table is then spread over its level's grid: column r is row r.
        """
        states, out = [state], []
        for i, (_, grid) in enumerate(self.grids, self.depth):
            if i == self.last:
                table = [[s.term, *(t for _, t in self.climb(s, i, j))] for s in states]
                pad = _INF
            else:
                table, below = [], []
                for s in states:
                    ladder = self.ladder(s, i, j)
                    table.append(range(len(below), len(below) + len(ladder)))
                    below += ladder
                states, pad = below, -1
            width = self.instances[i] + 1
            out.append(np.array([[*row, *[pad] * (width - len(row))] for row in table])[:, grid[j]])
        return out

    def descend(self, i: int, states: list[_MachineState]) -> None:
        """Enumerate application i's rows from the machine states ``states``."""
        if i == self.depth:
            self.batch(states)
            return
        for j, s in enumerate(states):
            s.ladder = s.ladder or self.ladder(s, i, j)
        ladders = [s.ladder for s in states]
        # A ladder's length is the machine's room for application i plus one.
        key = (self.instances[i], tuple(map(len, ladders)))
        rows = self.row_cache.get(key)
        if rows is None:
            rows = self.row_cache[key] = _rows(*key)
        for row in rows:
            self.nodes += 1
            if self.nodes > self.budget:
                raise _BudgetHit
            self.path[i] = row
            self.descend(i + 1, list(map(getitem, ladders, row)))

    def batch(self, states: list[_MachineState]) -> None:
        """Enumerate the batched levels below the entry states ``states`` as one frontier.

        The frontier holds each machine's state id per node. Gathered at
        those ids, each machine's table is a (node, grid row) array; the
        rows that fit every machine are the next level's nodes, node-major
        and row-minor as in a row-by-row search. If the budget trips, only
        the leaves before node ``budget + 1`` are scored.
        """
        for j, s in enumerate(states):
            s.tables = s.tables or self.tables(s, j)
        tables = [s.tables for s in states]
        fronts = [np.zeros(1, dtype=np.intp)] * len(states)
        picks = []  # per level, each node's flat (parent, grid row) index
        for level in range(self.last - self.depth):
            ids = [t[level].take(front, axis=0) for t, front in zip(tables, fronts)]
            # -1 is the only negative id, so OR-ing the ids finds any.
            picks.append(np.flatnonzero(reduce(np.bitwise_or, ids) >= 0))
            fronts = [a.take(picks[-1]) for a in ids]
        cost = tables[0][-1].take(fronts[0], axis=0)
        for t, front in zip(tables[1:], fronts[1:]):
            # Added in machine order, ((t0 + t1) + t2) + ..., so a leaf's
            # cost has the bits of the sum optimal_place documents.
            cost += t[-1].take(front, axis=0)
        cost = cost.ravel()
        nodes = self.nodes + sum(map(len, picks)) + int(np.count_nonzero(cost < _INF))
        tripped = nodes > self.budget
        if tripped:
            picks.append(np.flatnonzero(cost < _INF))
            cost = cost[:self.cut(picks)]
        if cost.size:
            # Leaves are in ascending lexicographic order and argmin keeps
            # the first of equal costs, so a strict comparison keeps the
            # lexicographically smallest of equal-cost optima.
            best = int(cost.argmin())
            if cost[best] < self.best_cost:
                self.best_cost = float(cost[best])
                rows = []
                for level in range(len(self.grids) - 1, -1, -1):
                    grid = self.grids[level][0]
                    best, r = divmod(best, len(grid))
                    rows.insert(0, grid[r])
                    if level:
                        best = int(picks[level - 1][best])
                self.best_rows = [*self.path, *rows]
        if tripped:
            self.nodes = self.budget + 1
            raise _BudgetHit
        self.nodes = nodes

    def cut(self, picks: list[np.ndarray]) -> int:
        """How many leaf cells, in order, come before node ``budget + 1``.

        ``picks`` holds every batched level's nodes, the leaves last. A
        node's rank in the row-by-row (preorder) search is its parent's
        plus one plus the subtree sizes of its elder siblings.
        """
        parents = [p // len(rows) for p, (rows, _) in zip(picks, self.grids)]
        sizes = [np.ones(len(picks[-1]))]
        for par, count in zip(parents[:0:-1], map(len, picks[-2::-1])):
            sizes.insert(0, 1 + np.bincount(par, weights=sizes[0], minlength=count))
        rank = self.nodes + 1 + np.cumsum(sizes[0]) - sizes[0]
        for par, size, above in zip(parents[1:], sizes[1:], sizes):
            # A parent's descendants before it in its level place its first child.
            first = np.cumsum(above - 1) - (above - 1)
            rank = rank[par] + 1 + np.cumsum(size) - size - first[par]
        allowed = int(np.searchsorted(rank, self.budget, side="right"))
        return int(picks[-1][allowed - 1]) + 1 if allowed else 0


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
    found = search.best_rows is not None
    return OracleResult(
        optimal=AllocationMatrix(np.array(search.best_rows, dtype=np.int64)) if found else None,
        optimal_reduced_cost=search.best_cost if found else None,
        nodes_explored=search.nodes,
        exhausted=exhausted,
    )
