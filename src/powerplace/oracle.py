"""Exhaustive exact minimizer of the reduced objective for tiny instances.

Enumerates allocations as per-application count rows over machines
(instances of one application are interchangeable, so labeled-instance
enumeration would only multiply the space by factorials). Each level is
one application, and each node is one whole row that fits: rows are
listed in ascending lexicographic order. A machine's state (remaining
capacity, cpu used, payoff) depends only on its column of counts so far,
so states are built once and memoized per machine. They are built as
arrays by ``model.ledger_steps``, the capacity ledger's admit-then-add
for many states in one call, with the bits of its scalar steps: each
level entry builds what the next level reads for all its new states at
once. The deepest levels whose rows make at most about 64k leaves at
full room (the last level always; on 4 machines x 4 applications x 2
instances, the whole search) are expanded as one array frontier: each
machine's states below the batch's entry state get a table per level,
the next state's id for every row (-1 past the machine's room) and, at
the last level, the cost terms (``inf`` past it). A level's nodes are
the frontier's rows that fit on every machine; a leaf's cost is its
terms added in machine order. Levels above the batch recurse row by row.
The nodes, their order and the optimum are those of a row-by-row search,
a budget trip inside the batch included. Intended for desk-scale ground
truth, roughly up to 8 instances on 4 machines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import getitem
from typing import Iterable, Optional

import numpy as np

from .affinity import AffinityMatrix, require_final
from .model import AllocationMatrix, ModelError, Scenario, _integer, ledger_steps

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

    ``values`` is (remaining cpu, io, nw, mem, cpu used, payoff), the
    payoff being the affinity its instances earn. ``below`` is what level
    i reads from the state, built by ``_Search.stock``: above the batch,
    its ladder, the states after 0, 1, ... more instances of application
    i; at the batch's first level, its tables (see ``_Search.batch``).
    """

    __slots__ = ("values", "below")

    def __init__(self, values: list):
        self.values = values
        self.below: Optional[list] = None


def _rows(k: int, lengths: tuple) -> list[tuple]:
    """Every row of counts summing to k with ``row[j] < lengths[j]``, ascending lexicographically."""
    if len(lengths) == 1:
        return [(k,)] if k < lengths[0] else []
    return [(c, *rest) for c in range(min(k + 1, lengths[0])) for rest in _rows(k - c, lengths[1:])]


class _Search:
    """One exhaustive search; lives for one ``optimal_place`` call.

    ``stock``, through ``grow``, is its one state builder. ``run`` stocks
    the empty machines; each level entry of ``descend`` stocks, in one
    call, every state of its ladders that has nothing built below it yet,
    which are the next level's entry states: with their ladders above the
    batch, and with their tables, one ``grow`` per batched level, at its
    first level.
    """

    __slots__ = ("scenario", "spans", "f", "alpha", "instances", "last", "depth", "budget",
                 "nodes", "row_cache", "grids", "path", "best_cost", "best_rows")

    def __init__(self, scenario: Scenario, affinity: AffinityMatrix, budget: int):
        self.scenario = scenario
        self.spans = scenario.spans
        self.f = affinity.values
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
        """Search from every machine empty: no cpu used, no payoff."""
        states = [_MachineState([*cap, 0.0, 0.0]) for cap in self.scenario.capacity_rows]
        self.stock(0, states, range(len(states)))
        self.descend(0, states)

    def grow(self, states: np.ndarray, machines: np.ndarray, i: int):
        """``states`` (S, 6 values) after 0 .. k more instances of application i on ``machines``.

        Returns the (S, k + 1, 6) values and ``ledger_steps``' ``pi`` and
        ``reached``; the payoff, like the ledger's columns, is one
        sequential ``np.add.accumulate``, so it has the bits of adding one
        affinity per instance.
        """
        steps, pi, reached = ledger_steps(self.scenario, states[:, :5], machines, i)
        grown = np.empty((*pi.shape, 6))
        grown[:, :, :5] = steps
        grown[:, 0, 5] = states[:, 5]
        grown[:, 1:, 5] = self.f[i].take(machines)[:, None]
        np.add.accumulate(grown[:, :, 5], axis=1, out=grown[:, :, 5])
        return grown, pi, reached

    def stock(self, i: int, states: list[_MachineState], machines: Iterable[int]) -> None:
        """Build ``below`` for level i's entry states ``states``, on ``machines``, in one go.

        Above the batch, one ``grow`` gives every state its ladder; the
        first of a ladder is a fresh state, never the one it grew from, so
        the trie holds no cycle. At the batch's first level, one ``grow``
        per batched level gives every state its tables: the states below
        each entry state are numbered, level by level, in the order they
        are built. A level above the last maps each state and count
        0 .. k to the next level's state, -1 past the room; the last
        level's holds the cost terms, ``inf`` past the room. Each table
        is spread over its level's grid: column r is row r.
        """
        values = np.array([s.values for s in states])
        machines = np.array(machines, dtype=np.intp)
        if i < self.depth:
            grown, _, reached = self.grow(values, machines, i)
            for s, column, room in zip(states, grown.tolist(), reached.sum(axis=1).tolist()):
                s.below = list(map(_MachineState, column[:room]))
            return
        # Every entry's states lie together, in the order they are built:
        # ``starts`` holds each entry's first state, ``owner`` each state's entry.
        owner = starts = np.arange(len(states))
        for s in states:
            s.below = []
        for i, (_, grid) in enumerate(self.grids, i):
            grown, pi, reached = self.grow(values, machines, i)
            if i == self.last:
                spans = self.spans.take(machines)[:, None]
                table = np.where(reached, spans * pi * pi * pi - self.alpha * grown[:, :, 5], _INF)
            else:
                room = reached.sum(axis=1)
                first = np.cumsum(room) - room  # counted over all entries
                heads = first[starts]  # each entry's first state at the next level
                first -= heads[owner]
                table = np.where(reached, first[:, None] + np.arange(reached.shape[1]), -1)
            spread = table.take(grid[machines] + np.arange(0, table.size, table.shape[1])[:, None])
            bounds = [*starts.tolist(), len(spread)]
            for s, lo, hi in zip(states, bounds, bounds[1:]):
                s.below.append(spread[lo:hi])
            if i < self.last:
                values = grown[reached]
                machines, owner, starts = machines.repeat(room), owner.repeat(room), heads

    def descend(self, i: int, states: list[_MachineState]) -> None:
        """Enumerate application i's rows from the machine states ``states``."""
        if i == self.depth:
            self.batch(states)
            return
        ladders = [s.below for s in states]
        # The next level's entries are the ladders' states: stock the new ones at once.
        bare = [(s, j) for j, ladder in enumerate(ladders) for s in ladder if s.below is None]
        if bare:
            self.stock(i + 1, *zip(*bare))
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
        tables = [s.below for s in states]
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
    budget = _integer("node budget", budget)
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
