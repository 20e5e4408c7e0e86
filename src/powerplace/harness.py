"""Experiment harness: single runs, parameter sweeps, and result emission.

A sweep varies one scenario parameter (machine count, application count,
anti-affinity fraction, or alpha) over a list of points, runs each chosen
algorithm on ``repetitions`` seeded scenarios per point, and collects one
result row per run. Row seeds repeat across points so comparisons along
the sweep axis are paired. Points that differ only in alpha share each
seed's scenario, affinity and ranking, generated once.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .affinity import AffinityMatrix, build_final_affinity
from .costs import MetricsReport, metrics
from .model import AllocationMatrix, Scenario, _integer, _real
from .oracle import DEFAULT_NODE_BUDGET, optimal_place
from .placement import (
    PlacementOutcome,
    aap_place,
    cpaap_place,
    first_fit_place,
    pap_place,
)
from .workload import GeneratorConfig, WorkloadError, generate_synthetic

# Sweep kind -> (the GeneratorConfig field each point sets, its type).
SWEEP_FIELDS = {
    "machines": ("machine_count", int),
    "applications": ("application_count", int),
    "anti_affinity": ("anti_affinity_fraction", float),
    "alpha": ("alpha", float),
}
SWEEP_KINDS = tuple(SWEEP_FIELDS)
ALGORITHM_NAMES = ("pap", "aap", "cpaap", "first_fit", "oracle")

CSV_HEADER = (
    "sweep_point,algorithm,seed,feasible,total_cost,reduced_cost,"
    "power_cost,payoff,rho,avg_util,psi,runtime_ms"
)


class HarnessError(ValueError):
    """Invalid sweep specification or run request."""


@dataclass(frozen=True)
class RunResult:
    report: MetricsReport
    outcome: PlacementOutcome


def _oracle_as_outcome(scenario: Scenario, affinity: AffinityMatrix, budget: int) -> PlacementOutcome:
    """Adapt the exhaustive solver to the placement outcome contract.

    The trace is synthesized from the optimum's cells (application-major,
    machine ascending); pairs_examined carries the search node count. A
    search cut short by its node budget has no claim to the optimum and
    raises HarnessError.
    """
    result = optimal_place(scenario, affinity, budget=budget)
    if not result.exhausted:
        raise HarnessError(f"oracle search hit its node budget ({budget}) before finishing")
    feasible = result.optimal is not None
    n, m = scenario.num_applications, scenario.num_machines
    allocation = result.optimal if feasible else AllocationMatrix.zeros(n, m)
    apps, machines = np.divmod(np.repeat(allocation.cells, allocation.cell_counts), m)
    # an instance's index counts the instances of its application before it
    ks = np.arange(apps.size) - np.searchsorted(apps, apps)
    trace = tuple(zip(apps.tolist(), ks.tolist(), machines.tolist()))
    return PlacementOutcome(
        allocation=allocation,
        feasible=feasible,
        failed_at=None,
        trace=trace,
        pairs_examined=result.nodes_explored,
    )


def run_scenario(
    scenario: Scenario,
    algorithm: str,
    affinity: Optional[AffinityMatrix] = None,
    oracle_budget: int = DEFAULT_NODE_BUDGET,
) -> RunResult:
    """Run one algorithm on one scenario and evaluate the result.

    The affinity matrix is built once here when not supplied. Runtime is
    measured around the placement call only.
    """
    if algorithm not in ALGORITHM_NAMES:
        raise HarnessError(f"unknown algorithm {algorithm!r}; pick from {ALGORITHM_NAMES}")
    if affinity is None:
        affinity = build_final_affinity(scenario)
    start = time.perf_counter()
    if algorithm == "pap":
        outcome = pap_place(scenario, affinity)
    elif algorithm == "aap":
        outcome = aap_place(scenario, affinity)
    elif algorithm == "cpaap":
        outcome = cpaap_place(scenario, affinity)
    elif algorithm == "first_fit":
        outcome = first_fit_place(scenario)
    else:
        outcome = _oracle_as_outcome(scenario, affinity, oracle_budget)
    elapsed = time.perf_counter() - start
    report = metrics(scenario, outcome.allocation, affinity, runtime_s=elapsed)
    return RunResult(report=report, outcome=outcome)


def _count(x: int) -> str:
    """``x`` with thousands separators, or as a power of ten past 15 digits."""
    return f"{x:,}" if x < 10**15 else f"about 10^{math.log10(x):.1f}"


def _oracle_excess(point: GeneratorConfig) -> Optional[str]:
    """Why the oracle's whole search at ``point`` could pass DEFAULT_NODE_BUDGET; None when it fits.

    With k the point's most instances per application, each level's grid
    holds G = C(m + k - 1, k) rows of m machines, so a search of N
    applications explores at most S = G + G^2 + ... + G^N nodes (exactly S
    when every row fits), and ``_grid(k, m)`` compares G * k * m cells.
    With both within the budget no run at the point can trip it. Each is
    worked out only once the one before fits: where k * m alone is past
    the budget, C(m + k - 1, k) can take seconds.
    """
    m, n, k = point.machine_count, point.application_count, point.instance_range[1]
    budget = DEFAULT_NODE_BUDGET
    if k * m > budget:  # G >= 1
        return f"the grid of {k} instances on {m} machines compares more than {budget:,} cells"
    g = math.comb(m + k - 1, k)
    if g * k * m > budget:
        return f"the grid of {k} instances on {m} machines compares {_count(g * k * m)} cells"
    nodes = n if g == 1 else (g ** (n + 1) - g) // (g - 1)
    if nodes > budget:
        return f"{n} applications of up to {k} instances on {m} machines make {_count(nodes)} nodes"
    return None


@dataclass(frozen=True)
class SweepSpec:
    """One experiment: vary ``kind`` over ``values`` for each algorithm.

    ``values`` are held as Python floats, each checked by the model's
    real-number rule (a bool is no number); a count sweep's must be whole.
    ``points`` holds one GeneratorConfig per value: ``base`` with the
    swept field set, checked here so a bad point fails before any run.
    ``repetitions`` scenarios are generated per point, seeded
    point.seed + 0 .. point.seed + repetitions - 1. With ``"oracle"``
    among the algorithms, every point's whole search must fit the node
    budget the sweep runs it with (see ``_oracle_excess``), so no oracle
    row can trip it.
    """

    kind: str
    values: tuple
    base: GeneratorConfig
    algorithms: tuple[str, ...]
    repetitions: int = 1
    points: tuple[GeneratorConfig, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in SWEEP_KINDS:
            raise HarnessError(f"sweep kind must be one of {SWEEP_KINDS}")
        values = tuple(_real(f"{self.kind} sweep value", v, HarnessError) for v in self.values)
        if not values:
            raise HarnessError("sweep values must be nonempty")
        if not all(map(math.isfinite, values)):
            raise HarnessError("sweep values must be finite")
        name, cast = SWEEP_FIELDS[self.kind]
        if cast is int and not all(v.is_integer() for v in values):
            raise HarnessError(f"{self.kind} sweep values must be whole numbers")
        diffs = [b - a for a, b in zip(values, values[1:])]
        if diffs and not (all(d > 0 for d in diffs) or all(d < 0 for d in diffs)):
            raise HarnessError("sweep values must be strictly monotone")
        algorithms = tuple(self.algorithms)
        if not algorithms:
            raise HarnessError("at least one algorithm is required")
        unknown = set(algorithms) - set(ALGORITHM_NAMES)
        if unknown:
            raise HarnessError(f"unknown algorithms: {sorted(unknown)}")
        repetitions = _integer("'repetitions'", self.repetitions, HarnessError)
        if repetitions < 1:
            raise HarnessError("repetitions must be >= 1")
        points = []
        for value in values:
            try:
                points.append(replace(self.base, **{name: cast(value)}))
            except WorkloadError as exc:
                raise HarnessError(f"sweep point {self.kind}={value:g}: {exc}") from exc
        if "oracle" in algorithms:
            for value, point in zip(values, points):
                excess = _oracle_excess(point)
                if excess:
                    raise HarnessError(
                        f"sweep point {self.kind}={value:g}: an oracle search there could pass "
                        f"its {DEFAULT_NODE_BUDGET:,}-node budget: {excess}"
                    )
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "algorithms", algorithms)
        object.__setattr__(self, "repetitions", repetitions)
        object.__setattr__(self, "points", tuple(points))


@dataclass(frozen=True)
class ResultRow:
    """One run's result. A failed run has only ``error`` set: it keeps
    ``feasible`` False and NaN metrics."""

    sweep_point: float
    algorithm: str
    seed: int
    feasible: bool = False
    total_cost: float = math.nan
    reduced_cost: float = math.nan
    power_cost: float = math.nan
    payoff: float = math.nan
    rho: float = math.nan
    avg_util: float = math.nan
    psi: float = math.nan
    runtime_ms: float = math.nan
    error: Optional[str] = None

    @classmethod
    def from_report(
        cls, point: float, algorithm: str, seed: int, report: MetricsReport
    ) -> "ResultRow":
        return cls(
            sweep_point=float(point),
            algorithm=algorithm,
            seed=seed,
            feasible=report.feasible,
            total_cost=report.total_cost,
            reduced_cost=report.reduced_cost,
            power_cost=report.power_cost,
            payoff=report.affinity_payoff,
            rho=report.satisfaction_ratio,
            avg_util=report.avg_utilization,
            psi=report.payoff_ratio,
            runtime_ms=report.runtime_s * 1000.0,
        )


@dataclass(frozen=True)
class ResultsTable:
    rows: tuple[ResultRow, ...]
    config: dict

    def mean_by_point(self) -> dict[tuple[float, str], dict[str, float]]:
        """Per (sweep point, algorithm): mean of each metric over seeds."""
        groups: dict[tuple[float, str], list[ResultRow]] = {}
        for row in self.rows:
            if row.error is None:
                groups.setdefault((row.sweep_point, row.algorithm), []).append(row)
        fields = ("total_cost", "reduced_cost", "power_cost", "payoff", "rho", "avg_util", "psi")
        out = {}
        for key, rows in sorted(groups.items()):
            out[key] = {f: sum(getattr(r, f) for r in rows) / len(rows) for f in fields}
            out[key]["feasible_rate"] = sum(r.feasible for r in rows) / len(rows)
        return out


def _seed_rows(
    group: list[tuple[float, GeneratorConfig]], seed: int, algorithms: tuple[str, ...]
) -> list[ResultRow]:
    """One seed's rows for points that differ only in alpha, on one shared scenario.

    The scenario and its affinity are dropped on return, so a sweep holds
    one seed's at a time.
    """
    try:
        shared = generate_synthetic(replace(group[0][1], seed=seed))
        affinity = build_final_affinity(shared)
    except Exception as exc:  # noqa: BLE001 - raised again on each row below
        shared, failure = None, exc
    rows = []
    for value, point in group:
        scenario = shared
        if shared is not None and point.alpha != shared.alpha:
            scenario = replace(shared, alpha=point.alpha)
        for algorithm in algorithms:
            try:
                if scenario is None:
                    raise failure
                report = run_scenario(scenario, algorithm, affinity).report
                rows.append(ResultRow.from_report(value, algorithm, seed, report))
            except Exception as exc:  # noqa: BLE001 - sweep must survive one bad run
                error = f"{type(exc).__name__}: {exc}"
                rows.append(ResultRow(float(value), algorithm, seed, error=error))
    return rows


def run_sweep(spec: SweepSpec) -> ResultsTable:
    """Execute the full points x algorithms x repetitions grid.

    Neither a drawn scenario nor its final affinity depends on alpha, so
    points whose configs differ only in alpha share each seed's scenario,
    affinity and ranking: each point runs on a copy of the scenario with
    its own alpha. Runtime is still measured around the placement call,
    so the ranking build is charged to the first aap or cpaap row run on
    the shared matrix.

    A failure in one run is recorded on its row (NaN metrics plus the
    error text) and the sweep continues; a failure to generate a seed's
    scenario or affinity is recorded on every row of that seed.
    """
    groups: dict[GeneratorConfig, list[tuple[float, GeneratorConfig]]] = {}
    for value, point in zip(spec.values, spec.points):
        groups.setdefault(replace(point, alpha=0.0), []).append((value, point))
    rows: list[ResultRow] = []
    for group in groups.values():
        for rep in range(spec.repetitions):
            rows.extend(_seed_rows(group, group[0][1].seed + rep, spec.algorithms))
    rows.sort(key=lambda r: (r.sweep_point, r.algorithm, r.seed))
    config = {
        "kind": spec.kind,
        "values": list(spec.values),
        "algorithms": list(spec.algorithms),
        "repetitions": spec.repetitions,
        "base": _config_dict(spec.base),
    }
    return ResultsTable(rows=tuple(rows), config=config)


def _config_dict(config: GeneratorConfig) -> dict:
    d = asdict(config)
    d["weights"] = list(config.weights.as_tuple())
    return d


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):  # float() prints numpy scalars as Python floats
        return "nan" if math.isnan(value) else repr(float(value))
    return str(value)


def _json_fields(fields: dict) -> dict:
    """``fields`` with NaN (an undefined metric) as None, which JSON writes as null."""
    return {k: None if isinstance(v, float) and math.isnan(v) else v for k, v in fields.items()}


def emit_results(table: ResultsTable, path: str | Path, fmt: str = "csv") -> Path:
    """Write the result table to ``path`` as CSV or JSON.

    The CSV column set is fixed (see CSV_HEADER); the JSON document also
    carries the fully resolved configuration and per-point aggregates, so
    every results file is self-describing. An undefined metric is ``nan``
    in CSV and ``null`` in JSON, so the JSON parses under strict parsers.
    """
    if not table.rows:
        raise HarnessError("refusing to emit an empty results table")
    if fmt not in ("csv", "json"):
        raise HarnessError(f"format must be csv or json, got {fmt!r}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        columns = CSV_HEADER.split(",")
        lines = [CSV_HEADER]
        for r in table.rows:
            lines.append(",".join(_cell(getattr(r, column)) for column in columns))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        doc = {
            "config": table.config,
            "rows": [_json_fields(asdict(r)) for r in table.rows],
            "aggregates": [
                _json_fields({"sweep_point": point, "algorithm": algorithm, **means})
                for (point, algorithm), means in table.mean_by_point().items()
            ],
        }
        path.write_text(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n", encoding="utf-8")
    return path
