"""Scenario sources: seeded synthetic generation and normalized CSV traces.

Synthetic scenarios draw every machine and application parameter uniformly
from configured ranges, deterministically from the config seed. Trace
ingestion reads the normalized CSV schema below and backfills any absent
optional parameters from truncated normal distributions.

CSV schema (UTF-8, comma-separated, decimal point):
    machines.csv      machine_id,cpu_cap,io_cap,nw_cap,mem_cap,p_idle,p_max
                      (p_idle and p_max columns optional)
    applications.csv  app_id,cpu_req,io_req,nw_req,mem_req,instances
    affinity.csv      app_id,machine_id,user_affinity,anti_affinity
                      (optional file; omitted pairs default to 0,0)
"""

from __future__ import annotations

import csv
import math
import numbers
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .model import (
    AffinityWeights,
    Application,
    Machine,
    ModelError,
    ResourceVector,
    Scenario,
)

MACHINE_FIELDS = ("machine_id", "cpu_cap", "io_cap", "nw_cap", "mem_cap")
MACHINE_POWER_FIELDS = ("p_idle", "p_max")
APPLICATION_FIELDS = ("app_id", "cpu_req", "io_req", "nw_req", "mem_req", "instances")
AFFINITY_FIELDS = ("app_id", "machine_id", "user_affinity", "anti_affinity")

DEFAULT_WEIGHTS = AffinityWeights(0.4, 0.2, 0.2, 0.2)
DEFAULT_ALPHA = 4.0
DEFAULT_PI_THRESHOLD = 0.5
DEFAULT_SEED = 0
DEFAULT_USER_AFFINITY_DENSITY = 0.2
DEFAULT_ANTI_AFFINITY_FRACTION = 0.1

# (mean, std) of the truncated normal draws for power columns a trace leaves out.
P_IDLE_DRAW = (115.0, 15.0)
P_MAX_DRAW = (300.0, 40.0)


class WorkloadError(ValueError):
    """Invalid generator configuration or malformed trace file."""


def _check_affinity_draw(user_density: float, anti_fraction: float) -> None:
    if not (0.0 <= user_density <= 1.0):
        raise WorkloadError("user_affinity_density must be in [0, 1]")
    if not (0.0 <= anti_fraction < 1.0):
        raise WorkloadError("anti_affinity_fraction must be in [0, 1)")


@dataclass(frozen=True)
class ResourceRanges:
    """Per-resource (low, high) draw intervals."""

    cpu: tuple[float, float]
    io: tuple[float, float]
    nw: tuple[float, float]
    mem: tuple[float, float]

    def as_dict(self) -> dict[str, tuple[float, float]]:
        return {"cpu": self.cpu, "io": self.io, "nw": self.nw, "mem": self.mem}


DEFAULT_CAPACITY_RANGES = ResourceRanges(cpu=(8, 64), io=(100, 1000), nw=(100, 1000), mem=(16, 256))
DEFAULT_DEMAND_RANGES = ResourceRanges(cpu=(1, 8), io=(10, 100), nw=(10, 100), mem=(1, 16))


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for synthetic scenario generation.

    Defaults keep demands roughly an order of magnitude under capacities
    so hundreds of instances fit on tens of machines. The power ranges
    must not overlap (max low >= idle high) so every drawn machine has
    p_max above p_idle.
    """

    machine_count: int
    application_count: int
    seed: int = DEFAULT_SEED
    instance_range: tuple[int, int] = (1, 4)
    capacity_ranges: ResourceRanges = DEFAULT_CAPACITY_RANGES
    demand_ranges: ResourceRanges = DEFAULT_DEMAND_RANGES
    power_idle_range: tuple[float, float] = (80.0, 150.0)
    power_max_range: tuple[float, float] = (200.0, 400.0)
    user_affinity_density: float = DEFAULT_USER_AFFINITY_DENSITY
    anti_affinity_fraction: float = DEFAULT_ANTI_AFFINITY_FRACTION
    weights: AffinityWeights = DEFAULT_WEIGHTS
    alpha: float = DEFAULT_ALPHA
    pi_threshold: float = DEFAULT_PI_THRESHOLD

    def __post_init__(self) -> None:
        try:
            lo, hi = self.instance_range
        except (TypeError, ValueError):
            raise WorkloadError(
                f"'instance_range' must be a (low, high) pair, got {self.instance_range!r}"
            ) from None
        for name, value in (
            ("machine_count", self.machine_count),
            ("application_count", self.application_count),
            ("seed", self.seed),
            ("instance_range low", lo),
            ("instance_range high", hi),
        ):
            # bool is an Integral, but True is no count
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise WorkloadError(f"'{name}' must be an integer, got {value!r}")
        for name in ("user_affinity_density", "anti_affinity_fraction", "alpha", "pi_threshold"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise WorkloadError(f"'{name}' must be a real number, got {value!r}")
        if self.machine_count < 1 or self.application_count < 1:
            raise WorkloadError("machine_count and application_count must be >= 1")
        if self.seed < 0:
            raise WorkloadError(f"'seed' must be >= 0, got {self.seed}")
        if not (1 <= lo <= hi):
            raise WorkloadError("instance_range must satisfy 1 <= low <= high")
        # Written so that NaN fails every check.
        for name, (rlo, rhi) in self.capacity_ranges.as_dict().items():
            if not (0 <= rlo <= rhi < math.inf):
                raise WorkloadError(f"capacity range for {name} must be 0 <= low <= high < inf")
        for name, (rlo, rhi) in self.demand_ranges.as_dict().items():
            if not (0 <= rlo <= rhi < math.inf):
                raise WorkloadError(f"demand range for {name} must be 0 <= low <= high < inf")
            if rlo > self.capacity_ranges.as_dict()[name][1]:
                raise WorkloadError(
                    f"minimum {name} demand exceeds maximum capacity: no drawn "
                    "application could ever be placed"
                )
        if self.capacity_ranges.cpu[0] <= 0:
            raise WorkloadError("cpu capacity range low must be > 0")
        if self.demand_ranges.cpu[0] <= 0:
            raise WorkloadError("cpu demand range low must be > 0")
        ilo, ihi = self.power_idle_range
        mlo, mhi = self.power_max_range
        if not (0 <= ilo <= ihi < math.inf) or not (0 <= mlo <= mhi < math.inf):
            raise WorkloadError("power ranges must satisfy 0 <= low <= high < inf")
        if mlo < ihi:
            raise WorkloadError("power_max_range low must be >= power_idle_range high")
        _check_affinity_draw(self.user_affinity_density, self.anti_affinity_fraction)
        if not (0 <= self.alpha < math.inf):
            raise WorkloadError("alpha must be finite and >= 0")
        if not (0.0 < self.pi_threshold <= 1.0):
            raise WorkloadError("pi_threshold must be in (0, 1]")


def anti_affinity_count(fraction: float, num_machines: int) -> int:
    """Forbidden machines per application: round(fraction * M), half up.

    Capped at M - 1 so every application keeps at least one allowed column.
    """
    return min(num_machines - 1, int(math.floor(fraction * num_machines + 0.5)))


def _draw_affinity(
    rng: np.random.Generator, n: int, m: int, anti_fraction: float, user_density: float
) -> tuple[np.ndarray, np.ndarray]:
    """Random N x M (user, anti) affinity matrices.

    Anti-affinity is drawn first: every application gets
    ``anti_affinity_count(anti_fraction, m)`` forbidden machines. User
    affinity is then drawn at ``user_density`` and cleared on forbidden
    pairs, so the two never clash.
    """
    k = anti_affinity_count(anti_fraction, m)
    anti = np.zeros((n, m), dtype=np.int64)
    for i in range(n):
        if k:
            anti[i, rng.choice(m, size=k, replace=False)] = 1
    user = (rng.random((n, m)) < user_density).astype(np.int64)
    user[anti == 1] = 0
    return user, anti


def generate_synthetic(config: GeneratorConfig) -> Scenario:
    """Deterministic scenario from a config; same config, same bytes."""
    rng = np.random.default_rng(config.seed)
    m, n = config.machine_count, config.application_count

    caps = {name: rng.uniform(lo, hi, m) for name, (lo, hi) in config.capacity_ranges.as_dict().items()}
    p_idle = rng.uniform(*config.power_idle_range, m)
    p_max = rng.uniform(*config.power_max_range, m)
    reqs = {name: rng.uniform(lo, hi, n) for name, (lo, hi) in config.demand_ranges.as_dict().items()}
    lo, hi = config.instance_range
    instances = rng.integers(lo, hi + 1, n)
    user, anti = _draw_affinity(
        rng, n, m, config.anti_affinity_fraction, config.user_affinity_density
    )

    machines = tuple(
        Machine(
            id=j,
            capacity=ResourceVector(
                float(caps["cpu"][j]), float(caps["io"][j]),
                float(caps["nw"][j]), float(caps["mem"][j]),
            ),
            p_idle=float(p_idle[j]),
            p_max=float(p_max[j]),
        )
        for j in range(m)
    )
    applications = tuple(
        Application(
            id=i,
            demand=ResourceVector(
                float(reqs["cpu"][i]), float(reqs["io"][i]),
                float(reqs["nw"][i]), float(reqs["mem"][i]),
            ),
            instances=int(instances[i]),
        )
        for i in range(n)
    )
    return Scenario(
        machines=machines,
        applications=applications,
        user_affinity=user,
        anti_affinity=anti,
        weights=config.weights,
        alpha=config.alpha,
        pi_threshold=config.pi_threshold,
    )


def _truncated_normal(rng: np.random.Generator, mean: float, std: float, lower: float) -> float:
    floor = max(lower, 1e-3 * mean)
    for _ in range(1000):
        value = float(rng.normal(mean, std))
        if value >= floor:
            return value
    raise WorkloadError(
        f"could not draw a value >= {floor!r} from normal({mean}, {std}) in 1000 tries"
    )


def _parse_float(row: dict, name: str, line: int, path: Path) -> float:
    raw = row.get(name)
    if raw is None or raw.strip() == "":
        raise WorkloadError(f"{path.name} line {line}: missing value for {name!r}")
    try:
        value = float(raw)
    except ValueError:
        raise WorkloadError(f"{path.name} line {line}: bad number {raw!r} for {name!r}") from None
    if not math.isfinite(value):
        raise WorkloadError(f"{path.name} line {line}: {name!r} must be finite, got {raw!r}")
    return value


def _parse_int(row: dict, name: str, line: int, path: Path) -> int:
    value = _parse_float(row, name, line, path)
    if value != int(value):
        raise WorkloadError(f"{path.name} line {line}: {name!r} must be an integer, got {value!r}")
    return int(value)


def _read_rows(path: Path, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> tuple[list[dict], set[str]]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames
            if header is None:
                raise WorkloadError(f"{path.name}: empty file")
            header_set = set(header)
            missing = set(required) - header_set
            if missing:
                raise WorkloadError(f"{path.name}: missing columns {sorted(missing)}")
            unknown = header_set - set(required) - set(optional)
            if unknown:
                raise WorkloadError(f"{path.name}: unknown columns {sorted(unknown)}")
            rows = list(reader)
    except OSError as exc:
        raise WorkloadError(f"cannot read {path}: {exc}") from exc
    return rows, header_set


@contextmanager
def _row_rules(path: Path, line: int):
    """Report a model rule broken by one trace row with its file and line."""
    try:
        yield
    except ModelError as exc:
        raise WorkloadError(f"{path.name} line {line}: {exc}") from exc


def _check_ids(kind: str, ids: list[int], path: Path) -> None:
    if sorted(ids) != list(range(len(ids))):
        raise WorkloadError(f"{path.name}: {kind} ids must be exactly 0..{len(ids) - 1}")


def load_trace(
    machines_path: str | Path,
    applications_path: str | Path,
    affinity_path: Optional[str | Path] = None,
    *,
    weights: AffinityWeights = DEFAULT_WEIGHTS,
    alpha: float = DEFAULT_ALPHA,
    pi_threshold: float = DEFAULT_PI_THRESHOLD,
    user_affinity_density: float = DEFAULT_USER_AFFINITY_DENSITY,
    anti_affinity_fraction: float = DEFAULT_ANTI_AFFINITY_FRACTION,
    seed: int = DEFAULT_SEED,
) -> Scenario:
    """Scenario from normalized trace CSVs.

    Random draws are consumed only for values the files do not supply, so
    a fully specified trace loads identically for any seed. Absent power
    columns are drawn from P_IDLE_DRAW/P_MAX_DRAW, and a missing affinity
    file's matrices as in generate_synthetic, at the given density and fraction.
    """
    _check_affinity_draw(user_affinity_density, anti_affinity_fraction)
    if seed < 0:
        raise WorkloadError(f"'seed' must be >= 0, got {seed}")
    machines_path = Path(machines_path)
    applications_path = Path(applications_path)
    rng: Optional[np.random.Generator] = None

    def get_rng() -> np.random.Generator:
        nonlocal rng
        if rng is None:
            rng = np.random.default_rng(seed)
        return rng

    rows, header = _read_rows(machines_path, MACHINE_FIELDS, MACHINE_POWER_FIELDS)
    has_idle = "p_idle" in header
    has_max = "p_max" in header
    machine_rows = []
    for line, row in enumerate(rows, start=2):
        mid = _parse_int(row, "machine_id", line, machines_path)
        with _row_rules(machines_path, line):
            cap = ResourceVector(
                _parse_float(row, "cpu_cap", line, machines_path),
                _parse_float(row, "io_cap", line, machines_path),
                _parse_float(row, "nw_cap", line, machines_path),
                _parse_float(row, "mem_cap", line, machines_path),
            )
        if cap.cpu <= 0:
            raise WorkloadError(f"{machines_path.name} line {line}: cpu_cap must be > 0")
        p_idle = _parse_float(row, "p_idle", line, machines_path) if has_idle else None
        p_max = _parse_float(row, "p_max", line, machines_path) if has_max else None
        machine_rows.append((mid, cap, p_idle, p_max, line))
    _check_ids("machine", [r[0] for r in machine_rows], machines_path)
    machine_rows.sort(key=lambda r: r[0])

    machines = []
    for mid, cap, p_idle, p_max, line in machine_rows:
        if p_idle is None:
            p_idle = _truncated_normal(get_rng(), *P_IDLE_DRAW, 0.0)
            if p_max is not None:
                for _ in range(1000):
                    if p_idle <= p_max:
                        break
                    p_idle = _truncated_normal(get_rng(), *P_IDLE_DRAW, 0.0)
        if p_max is None:
            p_max = _truncated_normal(get_rng(), *P_MAX_DRAW, p_idle)
        if p_max < p_idle:
            raise WorkloadError(f"{machines_path.name} line {line}: p_max < p_idle")
        with _row_rules(machines_path, line):
            machines.append(Machine(id=mid, capacity=cap, p_idle=p_idle, p_max=p_max))

    rows, _ = _read_rows(applications_path, APPLICATION_FIELDS)
    applications = []
    for line, row in enumerate(rows, start=2):
        aid = _parse_int(row, "app_id", line, applications_path)
        with _row_rules(applications_path, line):
            demand = ResourceVector(
                _parse_float(row, "cpu_req", line, applications_path),
                _parse_float(row, "io_req", line, applications_path),
                _parse_float(row, "nw_req", line, applications_path),
                _parse_float(row, "mem_req", line, applications_path),
            )
        count = _parse_int(row, "instances", line, applications_path)
        if demand.cpu <= 0:
            raise WorkloadError(f"{applications_path.name} line {line}: cpu_req must be > 0")
        if count < 1:
            raise WorkloadError(f"{applications_path.name} line {line}: instances must be >= 1")
        applications.append(Application(id=aid, demand=demand, instances=count))
    _check_ids("application", [a.id for a in applications], applications_path)
    applications.sort(key=lambda a: a.id)

    n, m = len(applications), len(machines)
    if affinity_path is not None:
        affinity_path = Path(affinity_path)
        user = np.zeros((n, m), dtype=np.int64)
        anti = np.zeros((n, m), dtype=np.int64)
        rows, _ = _read_rows(affinity_path, AFFINITY_FIELDS)
        for line, row in enumerate(rows, start=2):
            i = _parse_int(row, "app_id", line, affinity_path)
            j = _parse_int(row, "machine_id", line, affinity_path)
            if not (0 <= i < n and 0 <= j < m):
                raise WorkloadError(f"{affinity_path.name} line {line}: pair ({i}, {j}) out of range")
            u = _parse_int(row, "user_affinity", line, affinity_path)
            a = _parse_int(row, "anti_affinity", line, affinity_path)
            if u not in (0, 1) or a not in (0, 1):
                raise WorkloadError(f"{affinity_path.name} line {line}: affinity fields must be 0 or 1")
            if u and a:
                raise WorkloadError(
                    f"{affinity_path.name} line {line}: user_affinity and anti_affinity both set"
                )
            user[i, j] = u
            anti[i, j] = a
    else:
        user, anti = _draw_affinity(
            get_rng(), n, m, anti_affinity_fraction, user_affinity_density
        )

    return Scenario(
        machines=tuple(machines),
        applications=tuple(applications),
        user_affinity=user,
        anti_affinity=anti,
        weights=weights,
        alpha=alpha,
        pi_threshold=pi_threshold,
    )


def save_trace(scenario: Scenario, directory: str | Path) -> dict[str, Path]:
    """Write a scenario as the three normalized CSVs; returns the paths.

    Floats are written with repr so a round trip through load_trace is
    exact. Only nonzero affinity pairs are written.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "machines": directory / "machines.csv",
        "applications": directory / "applications.csv",
        "affinity": directory / "affinity.csv",
    }
    with open(paths["machines"], "w", encoding="utf-8") as fh:
        fh.write(",".join(MACHINE_FIELDS + MACHINE_POWER_FIELDS) + "\n")
        for mach in scenario.machines:
            cap = mach.capacity
            fields = (cap.cpu, cap.io, cap.nw, cap.mem, mach.p_idle, mach.p_max)
            fh.write(f"{mach.id}," + ",".join(repr(float(v)) for v in fields) + "\n")
    with open(paths["applications"], "w", encoding="utf-8") as fh:
        fh.write(",".join(APPLICATION_FIELDS) + "\n")
        for app in scenario.applications:
            d = app.demand
            fields = (d.cpu, d.io, d.nw, d.mem)
            fh.write(
                f"{app.id}," + ",".join(repr(float(v)) for v in fields) + f",{app.instances}\n"
            )
    with open(paths["affinity"], "w", encoding="utf-8") as fh:
        fh.write(",".join(AFFINITY_FIELDS) + "\n")
        user, anti = scenario.user_affinity, scenario.anti_affinity
        for i in range(scenario.num_applications):
            for j in range(scenario.num_machines):
                if user[i, j] or anti[i, j]:
                    fh.write(f"{i},{j},{int(user[i, j])},{int(anti[i, j])}\n")
    return paths
