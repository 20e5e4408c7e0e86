"""Utilization, cubic power, affinity payoff, and the combined objective.

A machine's power draw grows with the cube of its CPU utilization between
its idle and maximum draw. The system objective adds the total power to
the alpha-weighted negated affinity payoff; dropping the constant idle
term gives the reduced objective that placement actually optimizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .affinity import AffinityMatrix, require_final
from .model import AllocationMatrix, Machine, Scenario, _checked_shape, validate_allocation


class CostBreakdown(NamedTuple):
    total: float
    reduced: float
    power: float
    payoff: float


@dataclass(frozen=True)
class MetricsReport:
    """Evaluation of one allocation: objective values and summary ratios.

    ``payoff_ratio`` is payoff / total cost; it is NaN when the total cost
    is exactly zero and ``psi_well_defined`` is False whenever the total
    cost is not strictly positive (a large alpha can drive it negative, in
    which case the signed ratio is reported rather than clamped).
    """

    total_cost: float
    reduced_cost: float
    power_cost: float
    affinity_payoff: float
    satisfaction_ratio: float
    avg_utilization: float
    payoff_ratio: float
    psi_well_defined: bool
    feasible: bool
    runtime_s: float = 0.0


def delta_cost(machine: Machine, pi_old: float, pi_new: float, affinity: float, alpha: float) -> float:
    """Increase in the system objective from one placement on ``machine``.

    The idle draw cancels out: the change is the power span times the cube
    difference of utilization, minus the alpha-weighted affinity payoff of
    the placed instance.
    """
    return _span_delta(machine.p_max - machine.p_idle, pi_old, pi_new, affinity, alpha)


def _span_delta(span: float, pi_old: float, pi_new: float, affinity: float, alpha: float) -> float:
    """``delta_cost`` for a machine of power span ``span`` (p_max - p_idle)."""
    if not (0.0 <= pi_old <= pi_new <= 1.0):
        raise ValueError(f"need 0 <= pi_old <= pi_new <= 1, got {pi_old!r}, {pi_new!r}")
    return span * (pi_new * pi_new * pi_new - pi_old * pi_old * pi_old) - alpha * affinity


def _ordered_sum(terms: np.ndarray) -> float:
    """``terms[0] + terms[1] + ...`` added left to right, where ``sum`` pairs them; 0.0 when empty."""
    return float(np.add.accumulate(terms)[-1]) if terms.size else 0.0


def utilizations(scenario: Scenario, allocation: AllocationMatrix) -> np.ndarray:
    """Fraction of each machine's CPU capacity consumed, capped at 1.

    Each machine adds its placed cells' cpu in cell order. The cap absorbs
    float overshoot from saturating a machine exactly; a real overshoot only
    comes from a capacity-violating allocation.
    """
    cpu = scenario.demands[allocation.cells // scenario.num_machines, 0] * allocation.cell_counts
    return np.minimum(allocation.machine_sums(cpu) / scenario.capacities[:, 0], 1.0)


def total_cost(
    scenario: Scenario,
    allocation: AllocationMatrix,
    affinity: AffinityMatrix,
) -> CostBreakdown:
    """Objective values for an allocation.

    power  = sum over machines of idle + span * pi^3
    payoff = sum over cells of affinity * count
    total  = power - alpha * payoff
    reduced drops the constant idle sum from the total.

    Only the placed cells are read. Every sum runs in one fixed order, so
    repeated runs are bit-identical: payoff adds the cells in cell order,
    and the power terms add the machines in machine-id order.
    """
    return _cost_and_utilizations(scenario, allocation, affinity)[0]


def _cost_and_utilizations(
    scenario: Scenario,
    allocation: AllocationMatrix,
    affinity: AffinityMatrix,
) -> tuple[CostBreakdown, np.ndarray]:
    """``total_cost`` and the utilizations it was computed from, for ``metrics``."""
    require_final(scenario, affinity)
    _checked_shape(scenario, allocation)
    pis = utilizations(scenario, allocation)
    idle_sum = _ordered_sum(scenario.idles)
    dynamic = _ordered_sum(scenario.spans * pis * pis * pis)
    payoff = _ordered_sum(affinity.values.ravel()[allocation.cells] * allocation.cell_counts)
    power = idle_sum + dynamic
    total = power - scenario.alpha * payoff
    reduced = dynamic - scenario.alpha * payoff
    return CostBreakdown(total=total, reduced=reduced, power=power, payoff=payoff), pis


def metrics(
    scenario: Scenario,
    allocation: AllocationMatrix,
    affinity: AffinityMatrix,
    runtime_s: float = 0.0,
) -> MetricsReport:
    """Full evaluation of an allocation.

    Satisfaction ratio: placed instances landing on user-affine machines
    over the total instances requested (not placed), so partial allocations
    score low rather than failing. Utilization is capped at 1 per machine
    (see ``utilizations``), which only matters for capacity-violating input;
    its average adds the machines in machine-id order.
    """
    breakdown, pis = _cost_and_utilizations(scenario, allocation, affinity)
    report = validate_allocation(scenario, allocation)
    requested = scenario.total_instances
    counts = allocation.cell_counts
    on_affine = float(counts[scenario.user_affinity.ravel()[allocation.cells]].sum())
    rho = on_affine / requested
    avg_util = _ordered_sum(pis) / scenario.num_machines
    if breakdown.total == 0.0:
        psi = float("nan")
    else:
        psi = breakdown.payoff / breakdown.total
    return MetricsReport(
        total_cost=breakdown.total,
        reduced_cost=breakdown.reduced,
        power_cost=breakdown.power,
        affinity_payoff=breakdown.payoff,
        satisfaction_ratio=rho,
        avg_utilization=avg_util,
        payoff_ratio=psi,
        psi_well_defined=breakdown.total > 0.0,
        feasible=report.feasible_complete,
        runtime_s=runtime_s,
    )
