"""Scenario sources: seeded synthetic generation and normalized CSV traces.

Synthetic scenarios draw every machine and application parameter uniformly
from configured ranges, deterministically from the config seed. Trace
ingestion reads the normalized CSV schema below and backfills any absent
optional parameters from truncated normal distributions.

CSV schema (UTF-8, a leading byte order mark allowed, comma-separated,
decimal point):
    machines.csv      machine_id,cpu_cap,io_cap,nw_cap,mem_cap,p_idle,p_max
                      (p_idle and p_max columns optional)
    applications.csv  app_id,cpu_req,io_req,nw_req,mem_req,instances
    affinity.csv      app_id,machine_id,user_affinity,anti_affinity
                      (optional file; omitted pairs default to 0,0)
machines.csv and applications.csv need at least one data row.
"""

from __future__ import annotations

import csv
import math
import numbers
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
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


def _check_integer(name: str, value) -> None:
    # bool is an Integral, but True is no count
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise WorkloadError(f"'{name}' must be an integer, got {value!r}")


def _check_real(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise WorkloadError(f"'{name}' must be a real number, got {value!r}")


def _pair(name: str, value) -> tuple:
    try:
        lo, hi = value
    except (TypeError, ValueError):
        raise WorkloadError(f"'{name}' must be a (low, high) pair, got {value!r}") from None
    return lo, hi


def _check_settings(
    seed, weights, alpha, pi_threshold, user_affinity_density, anti_affinity_fraction
) -> None:
    """The settings GeneratorConfig and load_trace share, checked alike.

    Written so that NaN fails every range check.
    """
    _check_integer("seed", seed)
    for name, value in (
        ("user_affinity_density", user_affinity_density),
        ("anti_affinity_fraction", anti_affinity_fraction),
        ("alpha", alpha),
        ("pi_threshold", pi_threshold),
    ):
        _check_real(name, value)
    if not isinstance(weights, AffinityWeights):
        raise WorkloadError(f"'weights' must be an AffinityWeights, got {weights!r}")
    if seed < 0:
        raise WorkloadError(f"'seed' must be >= 0, got {seed}")
    if not (0.0 <= user_affinity_density <= 1.0):
        raise WorkloadError("user_affinity_density must be in [0, 1]")
    if not (0.0 <= anti_affinity_fraction < 1.0):
        raise WorkloadError("anti_affinity_fraction must be in [0, 1)")
    if not (0 <= alpha < math.inf):
        raise WorkloadError("alpha must be finite and >= 0")
    if not (0.0 < pi_threshold <= 1.0):
        raise WorkloadError("pi_threshold must be in (0, 1]")


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
        lo, hi = _pair("instance_range", self.instance_range)
        for name, value in (
            ("machine_count", self.machine_count),
            ("application_count", self.application_count),
            ("instance_range low", lo),
            ("instance_range high", hi),
        ):
            _check_integer(name, value)
        pairs = {"power_idle_range": self.power_idle_range, "power_max_range": self.power_max_range}
        for kind in ("capacity_ranges", "demand_ranges"):
            ranges = getattr(self, kind)
            if not isinstance(ranges, ResourceRanges):
                raise WorkloadError(f"'{kind}' must be a ResourceRanges, got {ranges!r}")
            pairs.update({f"{kind}.{name}": pair for name, pair in ranges.as_dict().items()})
        for name, pair in pairs.items():
            rlo, rhi = _pair(name, pair)
            _check_real(f"{name} low", rlo)
            _check_real(f"{name} high", rhi)
        _check_settings(self.seed, self.weights, self.alpha, self.pi_threshold,
                        self.user_affinity_density, self.anti_affinity_fraction)
        if self.machine_count < 1 or self.application_count < 1:
            raise WorkloadError("machine_count and application_count must be >= 1")
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
    """``row[name]``, a raw string or an already converted (finite) float, as a float."""
    raw = row.get(name)
    if raw is None or (isinstance(raw, str) and raw.strip() == ""):
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


def _cell(raw: Optional[str]) -> float:
    """One cell as a float; NaN when it is missing or no number."""
    try:
        return float(raw)
    except (TypeError, ValueError):
        return math.nan


# Records (rows and blank lines) _read_table reads and converts at a time: one
# block's raw rows are all the per-row Python objects a table holds while read.
# A block's strings stay in cache until numpy converts them; 4096-record blocks
# read a 500 x 400 trace's affinity.csv about 8% slower than 1024.
_BLOCK_ROWS = 1024


def _convert(rows: list[tuple], width: int) -> np.ndarray:
    """One block of rows, each cut or padded to ``width`` fields, as float64."""
    try:
        values = np.array(rows, dtype=np.float64)
    except ValueError:
        values = np.array([[_cell(raw) for raw in row] for row in rows], dtype=np.float64)
    return values.reshape(len(rows), width)


class _Table:
    """One trace CSV, read once with ``csv.reader``, _BLOCK_ROWS records at a time.

    ``values`` holds the data rows' cells as float64, converted by numpy,
    which applies Python's ``float()`` to each string, so it accepts what
    ``_parse_float`` accepts. A missing or unparsable cell is NaN there.
    Blank lines are skipped; ``lines`` holds each row's physical line as
    int64. ``raw`` keeps the cells, as read, of the rows whose messages need
    them: a row with more fields than the header, unmodified, so its field
    count is ``len(cells)``; a row with fewer, padded with None; and a row
    with a non-finite value, the only rows whose messages quote raw text.
    No other row outlives its block as Python objects. ``row`` re-checks a
    row with the scalar checks, which name the problem: from its raw cells
    when kept, else from its converted cells, which ``_parse_float`` returns
    unchanged.
    """

    def __init__(
        self, path: Path, header: list[str], values: np.ndarray, lines: np.ndarray,
        raw: dict[int, tuple],
    ) -> None:
        self.path = path
        self.header = header
        self.values = values
        self.lines = lines
        self.raw = raw
        # A repeated column name reads its last column, as csv.DictReader does.
        self.index = {name: k for k, name in enumerate(header)}
        self.fits = np.ones(len(lines), dtype=bool)
        self.fits[[k for k, cells in raw.items() if len(cells) > len(header)]] = False

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.index[name]]

    def integral(self, names: tuple[str, ...]) -> np.ndarray:
        """Rows that fit and whose named cells pass _parse_int."""
        ok = self.fits.copy()
        for name in names:
            column = self.column(name)
            ok &= np.isfinite(column) & (np.floor(column) == column)
        return ok

    def row(self, k: int):
        """Getter ``get(name, integer=False)`` over row k, checked as
        _parse_float / _parse_int check a cell; it raises on a bad cell."""
        line = int(self.lines[k])
        cells = self.raw[k] if k in self.raw else self.values[k].tolist()
        if len(cells) > len(self.header):
            raise WorkloadError(
                f"{self.path.name} line {line}: {len(cells)} fields, "
                f"but the header has {len(self.header)}"
            )
        # a short row is padded, so a repeated column's last copy reads None
        row = dict(zip(self.header, cells))

        def get(name: str, integer: bool = False):
            return (_parse_int if integer else _parse_float)(row, name, line, self.path)

        return get

    def checked_rows(self):
        """(line, get) per row in file order, ``get`` as from ``row``."""
        for k, line in enumerate(self.lines.tolist()):
            yield line, self.row(k)


def _read_table(path: Path, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> _Table:
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise WorkloadError(f"{path.name}: empty file")
            header_set = set(header)
            missing = set(required) - header_set
            if missing:
                raise WorkloadError(f"{path.name}: missing columns {sorted(missing)}")
            unknown = header_set - set(required) - set(optional)
            if unknown:
                raise WorkloadError(f"{path.name}: unknown columns {sorted(unknown)}")
            width = len(header)
            blocks = [np.empty((0, width))]
            line_blocks = [np.empty(0, dtype=np.int64)]
            raw: dict[int, tuple] = {}
            done = 0  # rows in earlier blocks
            end = reader.line_num
            while True:
                rows: list[tuple] = []
                lines: list[int] = []
                start = end
                for row in islice(reader, _BLOCK_ROWS):
                    if row:
                        if len(row) > width:
                            # kept uncut: its message counts its fields
                            raw[done + len(rows)] = tuple(row)
                            del row[width:]
                        elif len(row) < width:
                            row.extend([None] * (width - len(row)))
                        # The cyclic GC stops tracking a tuple of strings, never a
                        # list: a block kept as lists costs about 9% more time in GC.
                        rows.append(tuple(row))
                        lines.append(end + 1)
                    end = reader.line_num
                if end == start:  # the reader is exhausted
                    break
                values = _convert(rows, width)
                for k in np.flatnonzero(~np.isfinite(values).all(axis=1)).tolist():
                    raw.setdefault(done + k, rows[k])
                blocks.append(values)
                line_blocks.append(np.array(lines, dtype=np.int64))
                done += len(rows)
    except OSError as exc:
        raise WorkloadError(f"cannot read {path}: {exc}") from exc
    except csv.Error as exc:
        raise WorkloadError(f"{path.name} line {reader.line_num}: {exc}") from None
    return _Table(path, header, np.concatenate(blocks), np.concatenate(line_blocks), raw)


def _require_rows(table: _Table) -> None:
    """A machine or application table needs a data row; affinity.csv may list no pair."""
    if not len(table.lines):
        raise WorkloadError(f"{table.path.name}: no data rows")


@contextmanager
def _row_rules(path: Path, line: int):
    """Report a model rule broken by one trace row with its file and line."""
    try:
        yield
    except ModelError as exc:
        raise WorkloadError(f"{path.name} line {line}: {exc}") from exc


def _check_ids(kind: str, ids: list[int], lines: list[int], path: Path) -> None:
    """Row ids must be exactly 0..n-1; name the first repeat, else the first gap."""
    n = len(ids)
    first_line: dict[int, int] = {}
    for i, line in zip(ids, lines):
        if i in first_line:
            raise WorkloadError(
                f"{path.name} line {line}: duplicate {kind} id {i}, "
                f"first given on line {first_line[i]}"
            )
        first_line[i] = line
    missing = next((i for i in range(n) if i not in first_line), None)
    if missing is not None:
        # n distinct ids with one of 0..n-1 missing: some row's id is outside it
        line, i = next((line, i) for i, line in first_line.items() if not 0 <= i < n)
        raise WorkloadError(
            f"{path.name} line {line}: {kind} id {i} is out of range: {kind} ids must be "
            f"exactly 0..{n - 1}, and {missing} is missing"
        )


def _check_pair(get, line: int, path: Path, n: int, m: int) -> None:
    """The checks of one affinity.csv row, in order; raises on the first that fails."""
    i = get("app_id", True)
    j = get("machine_id", True)
    if not (0 <= i < n and 0 <= j < m):
        raise WorkloadError(f"{path.name} line {line}: pair ({i}, {j}) out of range")
    u = get("user_affinity", True)
    a = get("anti_affinity", True)
    if u not in (0, 1) or a not in (0, 1):
        raise WorkloadError(f"{path.name} line {line}: affinity fields must be 0 or 1")
    if u and a:
        raise WorkloadError(f"{path.name} line {line}: user_affinity and anti_affinity both set")


def _read_affinity(path: Path, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(user, anti) N x M matrices from affinity.csv; omitted pairs are (0, 0).

    _check_pair's checks run as masks over whole columns. The first rejected
    row in file order is re-checked by _check_pair for its message, unless
    an earlier row repeats a pair given before it.
    """
    table = _read_table(path, AFFINITY_FIELDS)
    i, j, u, a = (table.column(name) for name in AFFINITY_FIELDS)
    ok = table.integral(AFFINITY_FIELDS)
    ok &= (0 <= i) & (i < n) & (0 <= j) & (j < m)
    ok &= ((u == 0) | (u == 1)) & ((a == 0) | (a == 1)) & ~((u == 1) & (a == 1))
    stop = len(ok) if ok.all() else int(np.argmin(ok))
    pairs = i[:stop].astype(np.intp), j[:stop].astype(np.intp)
    key = pairs[0] * m + pairs[1]
    seen = np.zeros(n * m, dtype=bool)
    seen[key] = True
    if np.count_nonzero(seen) < stop:
        order = np.argsort(key, kind="stable")
        repeat = key[order[1:]] == key[order[:-1]]
        later, earlier = order[1:][repeat], order[:-1][repeat]
        first = int(np.argmin(later))
        k = int(later[first])
        raise WorkloadError(
            f"{path.name} line {table.lines[k]}: duplicate pair ({int(i[k])}, {int(j[k])}), "
            f"first given on line {table.lines[int(earlier[first])]}"
        )
    if stop < len(ok):
        _check_pair(table.row(stop), table.lines[stop], path, n, m)
        raise AssertionError(
            f"{path.name} line {table.lines[stop]}: a column check rejects the row, its row checks do not"
        )
    user = np.zeros((n, m), dtype=np.int64)
    anti = np.zeros((n, m), dtype=np.int64)
    user[pairs] = u
    anti[pairs] = a
    return user, anti


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
    _check_settings(seed, weights, alpha, pi_threshold, user_affinity_density,
                    anti_affinity_fraction)
    machines_path = Path(machines_path)
    applications_path = Path(applications_path)
    rng: Optional[np.random.Generator] = None

    def get_rng() -> np.random.Generator:
        nonlocal rng
        if rng is None:
            rng = np.random.default_rng(seed)
        return rng

    table = _read_table(machines_path, MACHINE_FIELDS, MACHINE_POWER_FIELDS)
    _require_rows(table)
    power = tuple(name for name in MACHINE_POWER_FIELDS if name in table.index)
    machine_rows = []
    for line, get in table.checked_rows():
        mid = get("machine_id", True)
        with _row_rules(machines_path, line):
            cap = ResourceVector(get("cpu_cap"), get("io_cap"), get("nw_cap"), get("mem_cap"))
        if cap.cpu <= 0:
            raise WorkloadError(f"{machines_path.name} line {line}: cpu_cap must be > 0")
        p_idle = get("p_idle") if "p_idle" in power else None
        p_max = get("p_max") if "p_max" in power else None
        machine_rows.append((mid, cap, p_idle, p_max, line))
    _check_ids("machine", [r[0] for r in machine_rows], [r[4] for r in machine_rows],
               machines_path)
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

    table = _read_table(applications_path, APPLICATION_FIELDS)
    _require_rows(table)
    applications = []
    app_lines = []
    for line, get in table.checked_rows():
        aid = get("app_id", True)
        with _row_rules(applications_path, line):
            demand = ResourceVector(get("cpu_req"), get("io_req"), get("nw_req"), get("mem_req"))
        count = get("instances", True)
        if demand.cpu <= 0:
            raise WorkloadError(f"{applications_path.name} line {line}: cpu_req must be > 0")
        if count < 1:
            raise WorkloadError(f"{applications_path.name} line {line}: instances must be >= 1")
        applications.append(Application(id=aid, demand=demand, instances=count))
        app_lines.append(line)
    _check_ids("application", [a.id for a in applications], app_lines, applications_path)
    applications.sort(key=lambda a: a.id)

    n, m = len(applications), len(machines)
    if affinity_path is not None:
        user, anti = _read_affinity(Path(affinity_path), n, m)
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


# Affinity cells save_trace scans at a time: one block's nonzero pairs are all
# the per-pair Python objects it holds while it writes.
_WRITE_BLOCK_CELLS = 1 << 16


def save_trace(scenario: Scenario, directory: str | Path) -> dict[str, Path]:
    """Write a scenario as the three normalized CSVs; returns the paths.

    Floats are written with repr so a round trip through load_trace is
    exact. Only nonzero affinity pairs are written, in row-major order, a
    block of about _WRITE_BLOCK_CELLS cells at a time.
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
        step = max(1, _WRITE_BLOCK_CELLS // scenario.num_machines)
        for r0 in range(0, scenario.num_applications, step):
            user = scenario.user_affinity[r0:r0 + step]
            anti = scenario.anti_affinity[r0:r0 + step]
            nonzero = (user | anti) != 0
            rows, cols = np.nonzero(nonzero)  # row-major: app, then machine
            pairs = (rows + r0, cols, user[nonzero], anti[nonzero])
            fh.write("".join(
                f"{i},{j},{u},{a}\n" for i, j, u, a in zip(*(v.tolist() for v in pairs))
            ))
    return paths
