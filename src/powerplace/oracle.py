"""Exhaustive exact minimizer of the reduced objective for tiny instances.

Enumerates allocations as per-application count rows over machines
(instances of one application are interchangeable, so labeled-instance
enumeration would only multiply the space by factorials). Each level is
one application, and each node is one whole row that fits; a level's
grid lists every row of its instance count in ascending lexicographic
order. A machine's state depends only on its column of counts so far, so
each level builds a state once, through ``model.ledger_steps`` (the
capacity ledger's admit-then-add for many states in one call), the
first time a chunk of nodes above needs it.

Every level is expanded in chunks of at most ``_BLOCK_CELLS`` (node,
grid row) cells, depth first in row order: the cells that fit every
machine are the next level's nodes, and a leaf's cost is its terms added
in machine order. A node's rank, the sum of its own and its ancestors'
1-based positions within their levels, is its preorder number on a leaf
and a lower bound on any other node, so only a chunk that takes the node
count past the budget needs ranks. The nodes, the optimum and a budget
trip are those of a row-by-row search. Intended for desk-scale ground
truth: 6 machines x 6 applications x 2 instances take a fraction of a
second. A trip of the default budget of 10M nodes costs more as the
machine count and the grid width grow: 0.65 s at 25 machines x 20
applications of 1-4 instances, 1.3 s and 0.44 GB of peak memory at 40 x
20, and about 10 s and several GB at 60 x 20, or at 1,000 x 20 with one
instance each.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Optional

import numpy as np

from .affinity import AffinityMatrix, require_final
from .model import AllocationMatrix, ModelError, Scenario, _integer, ledger_steps

DEFAULT_NODE_BUDGET = 10_000_000

# (node, grid row) cells of one chunk, so its working set stays bounded.
_BLOCK_CELLS = 1 << 14

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


# Cached: every search of one shape reads the same grids.
@lru_cache(maxsize=32)
def _grid(k: int, m: int) -> np.ndarray:
    """Every row of k instances over m machines, in ascending order, as read-only (machine, row) counts.

    A row is a multiset of k machines; ``combinations_with_replacement``
    lists the multisets in the reverse of their rows' order.
    """
    picks = np.array(list(combinations_with_replacement(range(m), k)), dtype=np.intp)
    grid = (picks[::-1, :, None] == np.arange(m)).sum(axis=1).T.copy()
    grid.setflags(write=False)
    return grid


def _put(buf: np.ndarray, at: int, end: int, new) -> np.ndarray:
    """``buf`` with rows at .. end - 1 set to ``new``; when full, moved to room for ``at + end`` rows."""
    if end > len(buf):
        grown = np.empty((at + end, *buf.shape[1:]), buf.dtype)
        grown[:at] = buf[:at]
        buf = grown
    buf[at:end] = new
    return buf


class _Level:
    """One application's level: one row per machine state its nodes start from.

    A state's row holds its machine in ``machines`` and, in ``table``, for
    each grid row, the application's count on that machine, -1 past the
    machine's room, or at the last level the cost term, ``inf`` past it.
    Above the last level, ``grown`` holds the state's values (remaining
    cpu, io, nw, mem, cpu used, payoff) after each count that fits,
    ``reach`` how many fit, and ``below`` the next level's row for count
    0, -1 until it is built; the row for count t is t rows further.
    """

    __slots__ = ("grid", "machines", "table", "grown", "reach", "below", "built")

    def __init__(self, grid: np.ndarray, k: int, dtype: type, most: int):
        # Rows for all ``most`` states the level can hold, up to a chunk's
        # cells, save a small search from moving its arrays.
        rows = min(most, _BLOCK_CELLS // grid.shape[1])
        self.grid = grid
        self.machines = np.empty(rows, dtype=np.intp)
        self.table = np.empty((rows, grid.shape[1]), dtype=dtype)
        self.grown = np.empty((rows, k + 1, 6))
        self.reach = np.empty(rows, dtype=np.intp)
        self.below = np.empty(rows, dtype=np.intp)
        self.built = 0


class _Search:
    """One exhaustive search; lives for one ``optimal_place`` call.

    ``counts`` holds each level's nodes so far and ``nodes`` their sum.
    ``trail[i]`` is the chunk of level i that the search is in: the
    level's count before it; ``lo``, the index of its first parent in
    the chunk above; and ``picks``, its nodes as flat (parent - lo, grid
    row) cells.
    """

    __slots__ = ("scenario", "f", "last", "levels", "budget", "nodes", "counts", "trail",
                 "best_cost", "best_rows")

    def __init__(self, scenario: Scenario, affinity: AffinityMatrix, budget: int):
        self.scenario = scenario
        self.f = affinity.values
        instances = scenario.instances.tolist()
        self.last = len(instances) - 1
        self.levels = []
        most = scenario.num_machines  # the most states a level can hold
        for i, k in enumerate(instances):
            # A count takes the narrowest integer that holds -1 .. k.
            dtype = np.min_scalar_type(-k - 1) if i < self.last else float
            self.levels.append(_Level(_grid(k, scenario.num_machines), k, dtype, most))
            most *= k + 1
        self.budget = budget
        self.nodes = 0
        self.counts = [0] * len(instances)
        self.trail: list[tuple] = [()] * self.last
        self.best_cost = _INF
        self.best_rows: Optional[list[np.ndarray]] = None

    def run(self) -> None:
        """Search from every machine empty: no cpu used, no payoff."""
        m = self.scenario.num_machines
        self.build(0, np.hstack((self.scenario.capacities, np.zeros((m, 2)))), np.arange(m))
        # one generator per level, depth first: the top one's chunk is expanded before it resumes
        stack = [self.expand(0, np.arange(m)[:, None])]  # the root: one node, on rows 0 .. m - 1
        while stack:
            below = next(stack[-1], None)
            if below is None:
                stack.pop()
            else:
                stack.append(self.expand(len(stack), below))
        if self.nodes > self.budget:
            raise _BudgetHit

    def build(self, i: int, values: np.ndarray, machines: np.ndarray) -> None:
        """Append rows to level i for the states ``values`` (S, 6) on ``machines``, in one go.

        The payoff, like the ledger's columns, is one sequential
        ``np.add.accumulate``, so it has the bits of adding one affinity
        per instance.
        """
        level = self.levels[i]
        steps, pi, reached = ledger_steps(self.scenario, values[:, :5], machines, i)
        payoff = np.empty(pi.shape)
        payoff[:, 0] = values[:, 5]
        payoff[:, 1:] = self.f[i].take(machines)[:, None]
        np.add.accumulate(payoff, axis=1, out=payoff)
        at, level.built = level.built, level.built + len(machines)
        counts = level.grid.take(machines, axis=0)  # each grid row's count on the state's machine
        if i == self.last:
            spans = self.scenario.spans.take(machines)[:, None]
            terms = np.where(reached, spans * pi * pi * pi - self.scenario.alpha * payoff, _INF)
            table = terms.take(counts + np.arange(0, terms.size, terms.shape[1])[:, None])
        else:
            reach = reached.sum(axis=1)
            table = np.where(counts < reach[:, None], counts, -1)
            grown = np.concatenate((steps, payoff[:, :, None]), axis=2)
            level.grown = _put(level.grown, at, level.built, grown)
            level.reach = _put(level.reach, at, level.built, reach)
            level.below = _put(level.below, at, level.built, -1)
        level.machines = _put(level.machines, at, level.built, machines)
        level.table = _put(level.table, at, level.built, table)

    def expand(self, i: int, rows: np.ndarray):
        """Enumerate application i's rows below a chunk of nodes, their states' ``rows`` (machine, node).

        Yields each block's nodes, level i + 1's ``rows``, to be expanded before it
        resumes. Raises ``_BudgetHit`` once the nodes before node ``budget + 1`` are done.
        """
        level = self.levels[i]
        table = level.table
        width = table.shape[1]
        step = max(1, _BLOCK_CELLS // width)
        for lo in range(0, rows.shape[1], step):
            block = rows[:, lo:lo + step]
            if i == self.last:
                # Added in machine order, ((t0 + t1) + t2) + ..., so a
                # leaf's cost has the bits of the sum optimal_place documents.
                cost = table.take(block[0], axis=0).ravel()
                for machine in block[1:]:
                    cost += table.take(machine, axis=0).ravel()
                end = self.admit(i, cost < _INF, lo)
                self.score(cost[:end], lo)
            else:
                cells = table.take(block, axis=0).reshape(len(block), -1)
                # -1 is the only negative count, so OR-ing the counts finds any.
                fits = np.bitwise_or.reduce(cells, axis=0) >= 0
                base = self.counts[i]
                end = self.admit(i, fits, lo)
                picks = fits[:end].nonzero()[0]
                if picks.size:
                    self.trail[i] = (base, lo, picks)
                    # Build the states below the block's that have none yet,
                    # each once and all in one go.
                    bases = level.below.take(block)
                    missing = bases < 0
                    if missing.any():
                        once = np.zeros(level.built, dtype=bool)
                        once[block[missing]] = True
                        bare = once.nonzero()[0]
                        reach = level.reach.take(bare)
                        level.below[bare] = self.levels[i + 1].built + np.cumsum(reach) - reach
                        fits_below = np.arange(level.grown.shape[1]) < reach[:, None]
                        self.build(i + 1, level.grown.take(bare, axis=0)[fits_below],
                                   level.machines.take(bare).repeat(reach))
                        bases = level.below.take(block)
                    below = bases.take(picks // width, axis=1) + cells.take(picks, axis=1)
                    del cells  # the levels below hold only their own rows
                    yield below
            if end < block.shape[1] * width:
                raise _BudgetHit

    def admit(self, i: int, fits: np.ndarray, lo: int) -> int:
        """Count level i's new nodes, the cells ``fits``; how many cells come before node ``budget + 1``.

        The ranks are worked out only when the count passes the budget:
        cells from the first ranked past it on are never reached.
        """
        new = int(np.count_nonzero(fits))
        base = self.counts[i]
        self.counts[i] += new
        self.nodes += new
        if self.nodes <= self.budget:
            return fits.size
        cells = fits.nonzero()[0]
        rank = np.arange(base + 1, base + 1 + new)
        for level, _, parent in self.lineage(i, cells, lo):
            if level:
                rank += self.trail[level - 1][0] + 1 + parent
        kept = int(np.searchsorted(rank, self.budget, side="right"))
        return int(cells[kept]) if kept < new else fits.size

    def lineage(self, i: int, cells, lo: int):
        """(level, cells, parents' index in the chunk above) for level i's ``cells``, then up the trail."""
        for level in range(i, -1, -1):
            parent = lo + cells // self.levels[level].grid.shape[1]
            yield level, cells, parent
            if level:
                _, lo, picks = self.trail[level - 1]
                cells = picks[parent]

    def score(self, cost: np.ndarray, lo: int) -> None:
        """Keep the best of the leaf cells ``cost``, of parents lo, lo + 1, ..., if it beats the best yet."""
        if not cost.size:
            return
        # Leaves are in ascending lexicographic order and argmin keeps
        # the first of equal costs, so a strict comparison keeps the
        # lexicographically smallest of equal-cost optima.
        best = int(cost.argmin())
        if cost[best] < self.best_cost:
            self.best_cost = float(cost[best])
            rows = []
            for level, cell, _ in self.lineage(self.last, best, lo):
                grid = self.levels[level].grid
                rows.append(grid[:, cell % grid.shape[1]])
            self.best_rows = rows[::-1]


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
        nodes_explored=search.nodes if exhausted else budget + 1,
        exhausted=exhausted,
    )
