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

from .affinity import FINAL, AffinityMatrix
from .model import AllocationMatrix, CapacityLedger, ModelError, Scenario

DEFAULT_NODE_BUDGET = 10_000_000


@dataclass(frozen=True)
class OracleResult:
    """Outcome of the exhaustive search.

    ``optimal`` is None iff no complete feasible allocation was found.
    ``exhausted`` is True iff the whole space was enumerated; if the node
    budget tripped first, any reported optimum is only the best of the
    explored region and optimality is not claimed.
    """

    optimal: Optional[AllocationMatrix]
    optimal_reduced_cost: Optional[float]
    nodes_explored: int
    exhausted: bool


class _Search:
    def __init__(self, scenario: Scenario, affinity: Optional[AffinityMatrix], budget: int):
        if budget <= 0:
            raise ModelError("node budget must be positive")
        if affinity is not None:
            if affinity.kind != FINAL:
                raise ModelError("oracle expects the final affinity matrix")
            if affinity.shape != (scenario.num_applications, scenario.num_machines):
                raise ModelError("affinity shape does not match scenario")
        self.n = scenario.num_applications
        self.m = scenario.num_machines
        self.budget = budget
        self.ledger = CapacityLedger(scenario)
        self.spans = [mach.p_max - mach.p_idle for mach in scenario.machines]
        self.instances = [app.instances for app in scenario.applications]
        self.f = affinity.values.tolist() if affinity is not None else None
        self.alpha = scenario.alpha
        self.counts = [[0] * self.m for _ in range(self.n)]
        self.payoff = 0.0
        self.nodes = 0
        self.budget_hit = False
        self.best_cost = float("inf")
        self.best_counts: Optional[list[list[int]]] = None
        self.found_feasible = False
        self.stop_at_first = False

    def _reduced_cost(self) -> float:
        dynamic = 0.0
        for span, pi in zip(self.spans, self.ledger.pi):
            dynamic += span * pi * pi * pi
        return dynamic - self.alpha * self.payoff

    def _assign_app(self, i: int) -> None:
        if self.budget_hit or (self.stop_at_first and self.found_feasible):
            return
        if i == self.n:
            self.found_feasible = True
            if not self.stop_at_first:
                cost = self._reduced_cost()
                # Rows are enumerated in ascending lexicographic order, so a
                # strict comparison keeps the lexicographically smallest of
                # equal-cost optima.
                if cost < self.best_cost:
                    self.best_cost = cost
                    self.best_counts = [row[:] for row in self.counts]
            return
        self._assign_cell(i, 0, self.instances[i])

    def _assign_cell(self, i: int, j: int, left: int) -> None:
        if self.budget_hit or (self.stop_at_first and self.found_feasible):
            return
        if j == self.m:
            if left == 0:
                self.nodes += 1
                if self.nodes > self.budget:
                    self.budget_hit = True
                    return
                self._assign_app(i + 1)
            return
        self._assign_cell(i, j + 1, left)
        ledger = self.ledger
        placed = 0
        while placed < left and ledger.admissible(i, j):
            ledger.add(i, j)
            self.counts[i][j] += 1
            if self.f is not None:
                self.payoff += self.f[i][j]
            placed += 1
            self._assign_cell(i, j + 1, left - placed)
            if self.budget_hit or (self.stop_at_first and self.found_feasible):
                break
        if placed:
            ledger.remove(i, j, placed)
            self.counts[i][j] -= placed
            if self.f is not None:
                self.payoff -= placed * self.f[i][j]


def optimal_place(
    scenario: Scenario,
    affinity: AffinityMatrix,
    budget: int = DEFAULT_NODE_BUDGET,
) -> OracleResult:
    """Minimum-reduced-cost complete allocation, by exhaustive enumeration.

    Equal-cost ties resolve to the lexicographically smallest allocation
    matrix in row-major order, so results are stable across runs.
    """
    search = _Search(scenario, affinity, budget)
    search._assign_app(0)
    if search.best_counts is None:
        optimal = None
        cost = None
    else:
        optimal = AllocationMatrix(np.array(search.best_counts, dtype=np.int64))
        cost = search.best_cost
    return OracleResult(
        optimal=optimal,
        optimal_reduced_cost=cost,
        nodes_explored=search.nodes,
        exhausted=not search.budget_hit,
    )


def feasibility_check(scenario: Scenario, budget: int = DEFAULT_NODE_BUDGET) -> Optional[bool]:
    """Whether any complete allocation satisfies all constraints.

    Returns None when the node budget trips before the question is
    resolved (indeterminate).
    """
    search = _Search(scenario, None, budget)
    search.stop_at_first = True
    search._assign_app(0)
    if search.found_feasible:
        return True
    if search.budget_hit:
        return None
    return False
