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

A file is read by the row checks, one record at a time in file order, so
its first problem is the one reported, with its physical line; a byte that
is not UTF-8 is such a problem. An affinity.csv that passes every check as
numpy's C parser reads it (plain numbers, no quoted cell, no
whitespace-only line) is read whole by that parser instead, about ten times
faster; any other falls back to the row checks.
"""

from __future__ import annotations

import codecs
import csv
import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import zip_longest
from pathlib import Path
from typing import Optional

import numpy as np

from .model import (
    RESOURCE_NAMES,
    AffinityWeights,
    Scenario,
    _broken_row,
    _integer,
    _real,
    _settings,
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


def _pair(name: str, value) -> tuple:
    try:
        lo, hi = value
    except (TypeError, ValueError):
        raise WorkloadError(f"'{name}' must be a (low, high) pair, got {value!r}") from None
    return lo, hi


def _check_settings(
    seed, weights, alpha, pi_threshold, user_affinity_density, anti_affinity_fraction
) -> tuple[int, float, float, float, float]:
    """The settings GeneratorConfig and load_trace share, checked alike.

    Returns (seed, alpha, pi_threshold, user_affinity_density,
    anti_affinity_fraction) as Python numbers. Written so that NaN fails
    every range check.
    """
    seed = _integer("'seed'", seed, WorkloadError)
    density = _real("'user_affinity_density'", user_affinity_density, WorkloadError)
    fraction = _real("'anti_affinity_fraction'", anti_affinity_fraction, WorkloadError)
    alpha, pi_threshold = _settings(weights, alpha, pi_threshold, WorkloadError)
    if seed < 0:
        raise WorkloadError(f"'seed' must be >= 0, got {seed}")
    if not (0.0 <= density <= 1.0):
        raise WorkloadError("user_affinity_density must be in [0, 1]")
    if not (0.0 <= fraction < 1.0):
        raise WorkloadError("anti_affinity_fraction must be in [0, 1)")
    return seed, alpha, pi_threshold, density, fraction


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
        # Every number is held as the int or float its check returns, and
        # every pair as a tuple: a config given lists must still hash, and one
        # given numpy scalars must still write a JSON results file.
        lo, hi = _pair("instance_range", self.instance_range)
        held = {name: _integer(f"'{name}'", getattr(self, name), WorkloadError)
                for name in ("machine_count", "application_count")}
        lo, hi = held["instance_range"] = (_integer("'instance_range low'", lo, WorkloadError),
                                           _integer("'instance_range high'", hi, WorkloadError))
        pairs = {"power_idle_range": self.power_idle_range, "power_max_range": self.power_max_range}
        for kind in ("capacity_ranges", "demand_ranges"):
            ranges = getattr(self, kind)
            if not isinstance(ranges, ResourceRanges):
                raise WorkloadError(f"'{kind}' must be a ResourceRanges, got {ranges!r}")
            pairs.update({f"{kind}.{name}": pair for name, pair in ranges.as_dict().items()})
        for name, pair in list(pairs.items()):
            rlo, rhi = _pair(name, pair)
            pairs[name] = (_real(f"'{name} low'", rlo, WorkloadError),
                           _real(f"'{name} high'", rhi, WorkloadError))
        for name in ("power_idle_range", "power_max_range"):
            held[name] = pairs[name]
        for kind in ("capacity_ranges", "demand_ranges"):
            held[kind] = ResourceRanges(*(pairs[f"{kind}.{name}"] for name in RESOURCE_NAMES))
        settings = _check_settings(self.seed, self.weights, self.alpha, self.pi_threshold,
                                   self.user_affinity_density, self.anti_affinity_fraction)
        names = ("seed", "alpha", "pi_threshold", "user_affinity_density", "anti_affinity_fraction")
        held.update(zip(names, settings))
        for name, value in held.items():
            object.__setattr__(self, name, value)
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


# Cells of one block of user-affinity draws, _draw_affinity's only float64 temporary.
_DRAW_BLOCK_CELLS = 1 << 16


def _draw_affinity(
    rng: np.random.Generator, n: int, m: int, anti_fraction: float, user_density: float
) -> tuple[np.ndarray, np.ndarray]:
    """Random N x M (user, anti) affinity matrices, read-only bool.

    Anti-affinity is drawn first: every application gets
    ``anti_affinity_count(anti_fraction, m)`` forbidden machines. User
    affinity is then drawn at ``user_density`` and cleared on forbidden
    pairs, so the two never clash.
    """
    k = anti_affinity_count(anti_fraction, m)
    anti = np.zeros((n, m), dtype=bool)
    for i in range(n):
        if k:
            anti[i, rng.choice(m, size=k, replace=False)] = True
    # drawn a block of rows at a time: the values and stream position of one (n, m) draw
    user = np.empty((n, m), dtype=bool)
    step = max(1, _DRAW_BLOCK_CELLS // m)
    for r0 in range(0, n, step):
        np.less(rng.random((min(step, n - r0), m)), user_density, out=user[r0:r0 + step])
    user[anti] = False
    user.setflags(write=False)  # read-only: Scenario keeps both without a copy
    anti.setflags(write=False)
    return user, anti


def generate_synthetic(config: GeneratorConfig) -> Scenario:
    """Deterministic scenario from a config; same config, same bytes."""
    rng = np.random.default_rng(config.seed)
    m, n = config.machine_count, config.application_count

    *caps, idles, peaks = (rng.uniform(lo, hi, m) for lo, hi in (
        *config.capacity_ranges.as_dict().values(), config.power_idle_range, config.power_max_range))
    demands = [rng.uniform(lo, hi, n) for lo, hi in config.demand_ranges.as_dict().values()]
    lo, hi = config.instance_range
    instances = rng.integers(lo, hi + 1, n)
    user, anti = _draw_affinity(
        rng, n, m, config.anti_affinity_fraction, config.user_affinity_density
    )
    capacities, demands = np.column_stack(caps), np.column_stack(demands)
    for col in (capacities, idles, peaks, demands, instances):
        col.setflags(write=False)  # read-only: Scenario keeps each without a copy
    return Scenario(
        capacities=capacities,
        idles=idles,
        peaks=peaks,
        demands=demands,
        instances=instances,
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
    """``row[name]``, a raw string (None when the record is too short), as a float."""
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


def _utf8_lines(fh, path: Path):
    """The lines of ``fh``, a file decoded with errors="surrogateescape".

    Such a decode turns each byte that is not UTF-8 into a lone surrogate,
    which no UTF-8 text holds, so the first line with one names the byte.
    """
    for number, line in enumerate(fh, 1):
        if not line.isascii():
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                byte = ord(line[exc.start]) - 0xDC00
                raise WorkloadError(
                    f"{path.name} line {number}: byte {byte:#04x} is not UTF-8"
                ) from None
        yield line


def _records(path: Path, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    """One trace CSV, streamed: its checked header, then (first physical line,
    getter from _getter) for every nonblank record, in file order.

    A problem of the file itself (a byte that is not UTF-8, a field over the
    csv field limit) is raised when the reader reaches it, so it is reported
    only if no earlier record has one.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
            reader = csv.reader(_utf8_lines(fh, path))
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
            yield header
            end = reader.line_num
            for cells in reader:
                if cells:
                    yield end + 1, _getter(path, header, end + 1, cells)
                end = reader.line_num
    except OSError as exc:
        raise WorkloadError(f"cannot read {path}: {exc}") from exc
    except csv.Error as exc:
        raise WorkloadError(f"{path.name} line {reader.line_num}: {exc}") from None


def _getter(path: Path, header: list[str], line: int, cells: list[str]):
    """Getter ``get(name, integer=False)`` over one record's cells, checked
    by _parse_float / _parse_int; a record longer than the header raises here."""
    if len(cells) > len(header):
        raise WorkloadError(
            f"{path.name} line {line}: {len(cells)} fields, but the header has {len(header)}"
        )
    # A repeated column name reads its last column, as csv.DictReader does; a
    # short record is padded with None, so that last copy may be missing.
    row = dict(zip_longest(header, cells))

    def get(name: str, integer: bool = False):
        return (_parse_int if integer else _parse_float)(row, name, line, path)

    return get


@contextmanager
def _row_rules(path: Path, lines: list[int], columns, ids=None):
    """Check the row rules (``_broken_row``) over ``columns()``, the rows read
    so far, when the block ends and when it raises a WorkloadError, which is
    let through only if no row breaks one: the file's first problem is raised.
    """
    def check() -> None:
        found = _broken_row(**columns(), ids=ids)
        if found is not None:
            raise WorkloadError(f"{path.name} line {lines[found[0]]}: {found[1]}") from None

    try:
        yield
    except WorkloadError:
        check()
        raise
    check()


def _read_rows(path: Path, kind: str, records, extra: tuple[str, ...]):
    """A machines.csv or applications.csv as (lines, resources, rest), rows in id order.

    Each record is parsed as read, under _row_rules: its id, its four
    resource fields, then the fields ``extra`` (an instance count as an
    integer); a repeated id is rejected after its row. Ids must be exactly
    0..n-1: after the last row, a gap is reported with the first missing id.
    """
    id_name, *names = (MACHINE_FIELDS if kind == "machine" else APPLICATION_FIELDS)[:5]
    integer = kind == "application"
    lines, ids, numbers, rest = [], [], [], []
    first: dict[int, int] = {}  # id -> line, in file order

    def columns() -> dict:
        read = {"resources": np.array(numbers, dtype=float).reshape(-1, 4)}
        if integer:  # the counts as Python ints: exact against 2**63
            read["instances"] = np.array(rest).reshape(-1)
        elif extra == MACHINE_POWER_FIELDS:
            read["power"] = np.array(rest, dtype=float).reshape(-1, 2).T
        return read

    with _row_rules(path, lines, columns, ids):
        for line, get in records:
            lines.append(line)
            ids.append(i := get(id_name, True))
            numbers.append([get(name) for name in names])
            rest.append([get(name, integer) for name in extra])
            if i in first:
                raise WorkloadError(
                    f"{path.name} line {line}: duplicate {kind} id {i}, first given on line {first[i]}"
                )
            first[i] = line
    n = len(ids)
    if not n:
        raise WorkloadError(f"{path.name}: no data rows")
    missing = next((i for i in range(n) if i not in first), None)
    if missing is not None:
        # n distinct ids with one of 0..n-1 missing: some row's id is outside it
        i, line = next((i, line) for i, line in first.items() if not 0 <= i < n)
        raise WorkloadError(
            f"{path.name} line {line}: {kind} id {i} is out of range: {kind} ids must be "
            f"exactly 0..{n - 1}, and {missing} is missing"
        )
    at = np.argsort(ids)  # ids are 0..n-1, so at[i] is id i's row
    return ([lines[k] for k in at.tolist()], np.array(numbers, dtype=float)[at],
            np.array(rest, dtype=None if integer else float)[at])


def _check_pair(get, line: int, path: Path, n: int, m: int) -> tuple[int, int, int, int]:
    """The checks of one affinity.csv row, in order; raises on the first that fails.

    Returns the row's (app_id, machine_id, user_affinity, anti_affinity).
    """
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
    return i, j, u, a


def _accept_affinity(path: Path, n: int, m: int) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """(user, anti) from a clean affinity.csv, read whole by numpy's C parser; else None.

    A file is clean when its header is a permutation of AFFINITY_FIELDS, no
    line is longer than the csv field limit, loadtxt reads every cell as an
    int32 without a warning (a file with no data rows warns), and every row
    passes _check_pair's checks and gives a pair no other row gives. The
    int32 parse reads only text that _parse_int reads, to the same value,
    and no quoted cell or whitespace-only line; ``1.0``, ``1e0``, ``1_0``
    or ``2147483648`` it rejects. So a clean file reads as the row checks
    read it. Every other file returns None, and the row checks read it and
    name its first problem.
    """
    try:
        with open(path, "rb") as fh:
            header = fh.readline().removeprefix(codecs.BOM_UTF8).rstrip(b"\r\n").split(b",")
            longest = max(map(len, fh), default=0)
    except OSError:
        return None
    fields = [name.encode() for name in AFFINITY_FIELDS]
    if sorted(header) != sorted(fields) or longest > csv.field_size_limit():
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # Given the path, loadtxt reads the file in chunks; given an open
            # file, line by line: 0.25 s against 0.36 s on a 2000 x 1600
            # trace's 896,734 rows (numpy 2.4.6).
            values = np.loadtxt(path, dtype=np.int32, delimiter=",", comments=None,
                                skiprows=1, ndmin=2, encoding="utf-8")
    except (ValueError, Warning):
        return None
    if values.shape[1] != len(fields):
        return None
    i, j, u, a = (values[:, header.index(name)] for name in fields)
    ok = (0 <= i) & (i < n) & (0 <= j) & (j < m)
    ok &= ((u == 0) | (u == 1)) & ((a == 0) | (a == 1)) & ((u == 0) | (a == 0))
    if not ok.all():
        return None
    given = np.zeros((n, m), dtype=bool)
    given[i, j] = True
    if np.count_nonzero(given) < len(values):
        return None
    cells = np.zeros((2, n, m), dtype=bool)  # user, then anti-affinity
    cells[:, i, j] = u, a
    cells.setflags(write=False)
    return tuple(cells)


def _read_affinity(path: Path, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(user, anti) N x M read-only bool matrices from affinity.csv; omitted pairs are (0, 0).

    A clean file is read whole by _accept_affinity. Any other is streamed
    through _check_pair's checks, which report its first problem in file
    order; a pair given twice is reported with the line that first gave it.
    """
    matrices = _accept_affinity(path, n, m)
    if matrices is not None:
        return matrices
    cells = np.zeros((2, n, m), dtype=bool)  # user, then anti-affinity
    given = np.zeros((n, m), dtype=bool)
    records = _records(path, AFFINITY_FIELDS)
    next(records)  # the header
    for line, get in records:
        i, j, u, a = _check_pair(get, line, path, n, m)
        if given[i, j]:
            # Read the rows again, all checked by now, for the first one.
            again = _records(path, AFFINITY_FIELDS)
            next(again)
            first = next(at for at, row in again if _check_pair(row, at, path, n, m)[:2] == (i, j))
            raise WorkloadError(
                f"{path.name} line {line}: duplicate pair ({i}, {j}), first given on line {first}"
            )
        given[i, j] = True
        cells[:, i, j] = u, a
    cells.setflags(write=False)
    return tuple(cells)


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
    A bad file raises WorkloadError naming its first problem in file order,
    with the file and its physical line: rows are parsed into columns as
    read, and the model's row rules (``model._broken_row``) are checked over
    the rows read so far when the file ends or a row raises. A machines.csv
    without a power column draws the missing values machine by machine in id
    order after its last row, and only then checks their power rules. The
    settings are checked before any file is read, weights, alpha and
    pi_threshold by the rule Scenario applies, and used as Python numbers.
    """
    seed, alpha, pi_threshold, user_affinity_density, anti_affinity_fraction = _check_settings(
        seed, weights, alpha, pi_threshold, user_affinity_density, anti_affinity_fraction)
    machines_path = Path(machines_path)
    applications_path = Path(applications_path)
    rng = np.random.default_rng(seed)

    records = _records(machines_path, MACHINE_FIELDS, MACHINE_POWER_FIELDS)
    header = next(records)
    given = tuple(name for name in MACHINE_POWER_FIELDS if name in header)
    lines, capacities, power = _read_rows(machines_path, "machine", records, given)
    if given == MACHINE_POWER_FIELDS:
        idles, peaks = power.T
    else:
        columns = dict(zip(given, power.T.tolist()))
        idles, peaks = [], []
        with _row_rules(machines_path, lines, lambda: {"power": (np.array(idles), np.array(peaks))}):
            for p_idle, p_max in zip(*(columns.get(name, [None] * len(lines))
                                       for name in MACHINE_POWER_FIELDS)):
                for _ in range(1001 if p_idle is None else 0):  # redrawn while above a given p_max
                    p_idle = _truncated_normal(rng, *P_IDLE_DRAW, 0.0)
                    if p_max is None or p_idle <= p_max:
                        break
                if p_max is None:
                    p_max = _truncated_normal(rng, *P_MAX_DRAW, p_idle)
                idles.append(p_idle)
                peaks.append(p_max)

    records = _records(applications_path, APPLICATION_FIELDS)
    next(records)  # the header
    _, demands, counts = _read_rows(applications_path, "application", records, ("instances",))

    n, m = len(demands), len(capacities)
    if affinity_path is not None:
        user, anti = _read_affinity(Path(affinity_path), n, m)
    else:
        user, anti = _draw_affinity(rng, n, m, anti_affinity_fraction, user_affinity_density)

    return Scenario(
        capacities=capacities,
        idles=idles,
        peaks=peaks,
        demands=demands,
        instances=counts[:, 0],
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
        power = zip(scenario.idles.tolist(), scenario.peaks.tolist())
        for j, (cap, pair) in enumerate(zip(scenario.capacity_rows, power)):
            fh.write(f"{j}," + ",".join(map(repr, cap + pair)) + "\n")
    with open(paths["applications"], "w", encoding="utf-8") as fh:
        fh.write(",".join(APPLICATION_FIELDS) + "\n")
        for i, (demand, count) in enumerate(zip(scenario.demand_rows, scenario.instances.tolist())):
            fh.write(f"{i}," + ",".join(map(repr, demand)) + f",{count}\n")
    with open(paths["affinity"], "w", encoding="utf-8") as fh:
        fh.write(",".join(AFFINITY_FIELDS) + "\n")
        step = max(1, _WRITE_BLOCK_CELLS // scenario.num_machines)
        for r0 in range(0, scenario.num_applications, step):
            user = scenario.user_affinity[r0:r0 + step]
            anti = scenario.anti_affinity[r0:r0 + step]
            nonzero = user | anti
            rows, cols = np.nonzero(nonzero)  # row-major: app, then machine
            pairs = (rows + r0, cols, user[nonzero], anti[nonzero])
            fh.write("".join(  # :d writes each bool cell as 0 or 1
                f"{i},{j},{u:d},{a:d}\n" for i, j, u, a in zip(*(v.tolist() for v in pairs))
            ))
    return paths
