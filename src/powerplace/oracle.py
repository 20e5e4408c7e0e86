"""Exhaustive exact minimizer of the reduced objective for tiny instances.

Enumerates allocations as per-application count vectors over machines
(instances of one application are interchangeable, so labeled-instance
enumeration would only multiply the space by factorials). Depth-first
with capacity and anti-affinity pruning; intended for desk-scale ground
truth, roughly up to 8 instances on 4 machines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .affinity import AffinityMatrix, require_final
from .model import AllocationMatrix, CapacityLedger, ModelError, Scenario

DEFAULT_NODE_BUDGET = 10_000_000


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


def optimal_place(
    scenario: Scenario,
    affinity: AffinityMatrix,
    budget: int = DEFAULT_NODE_BUDGET,
) -> OracleResult:
    """Minimum-reduced-cost complete allocation, by exhaustive enumeration.

    Equal-cost ties resolve to the lexicographically smallest allocation
    matrix in row-major order, so results are stable across runs. The
    search stops at node ``budget + 1``.
    """
    if budget <= 0:
        raise ModelError("node budget must be positive")
    require_final(scenario, affinity)
    n, m = scenario.num_applications, scenario.num_machines
    ledger = CapacityLedger(scenario)
    spans = [mach.p_max - mach.p_idle for mach in scenario.machines]
    instances = [app.instances for app in scenario.applications]
    f = affinity.values.tolist()
    alpha = scenario.alpha
    counts = [[0] * m for _ in range(n)]
    payoff = 0.0
    nodes = 0
    best_cost = float("inf")
    best_counts: Optional[list[list[int]]] = None

    def assign(i: int, j: int, left: int) -> None:
        """Spread the ``left`` instances of application i still unplaced over machines j..m-1."""
        nonlocal payoff, nodes, best_cost, best_counts
        if j == m:
            if left:
                return
            nodes += 1
            if nodes > budget:
                raise _BudgetHit
            if i + 1 < n:
                assign(i + 1, 0, instances[i + 1])
                return
            dynamic = 0.0
            for span, pi in zip(spans, ledger.pi):
                dynamic += span * pi * pi * pi
            cost = dynamic - alpha * payoff
            # Rows are enumerated in ascending lexicographic order, so a
            # strict comparison keeps the lexicographically smallest of
            # equal-cost optima.
            if cost < best_cost:
                best_cost = cost
                best_counts = [row[:] for row in counts]
            return
        assign(i, j + 1, left)
        placed = 0
        while placed < left and ledger.admissible(i, j):
            ledger.add(i, j)
            counts[i][j] += 1
            payoff += f[i][j]
            placed += 1
            assign(i, j + 1, left - placed)
        if placed:
            ledger.remove(i, j, placed)
            counts[i][j] -= placed
            payoff -= placed * f[i][j]

    try:
        assign(0, 0, instances[0])
        exhausted = True
    except _BudgetHit:
        exhausted = False
    if best_counts is None:
        optimal = None
        cost = None
    else:
        optimal = AllocationMatrix(np.array(best_counts, dtype=np.int64))
        cost = best_cost
    return OracleResult(
        optimal=optimal,
        optimal_reduced_cost=cost,
        nodes_explored=nodes,
        exhausted=exhausted,
    )
