"""Domain model: machines, applications, scenarios, allocations, and the
constraint checks every placement must satisfy.

All quantities are nonnegative reals, held by a scenario as float64
columns and by the records as Python floats; counts are exact integers,
and an id is a row of the columns. A machine hosts instances of
applications subject to three constraints: forbidden (app, machine) pairs
stay empty, every requested instance is placed, and per-machine resource
capacities are never exceeded.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional

import numpy as np

# Relative slack for capacity arithmetic. Sums of float demands computed as
# products (count * demand) and as chains of subtractions can disagree by a
# few ulps; anything within this band counts as "fits exactly".
CAPACITY_SLACK = 1e-9

RESOURCE_NAMES = ("cpu", "io", "nw", "mem")

_INT64_MAX = 2**63 - 1


class ModelError(ValueError):
    """Malformed model input: bad dimensions, negative or non-finite quantities."""


def _integer(name: str, value, error: type[ValueError] = ModelError) -> int:
    """``value`` as a Python int, or ``error`` naming ``name``.

    True is an Integral but no id or count; 0.0 passes the id check but
    fails as an index. A numpy integer is returned as int, so traces,
    failure points and results files hold Python ints.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real(name: str, value, error: type[ValueError] = ModelError) -> float:
    """``value`` as a Python float, or ``error`` naming ``name``; True is no number.

    A numpy scalar is returned as float, so a float32 setting cannot make
    the scoring arithmetic run in float32.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} must be a real number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class ResourceVector:
    """Quantities of the four modeled resources.

    Serves both as a machine capacity and as a per-instance application
    demand. Components: cpu (cores), io (I/O bandwidth), nw (network
    bandwidth), mem (memory), each held as a Python float and checked by
    ``_broken_row``'s resource rules.
    """

    cpu: float
    io: float
    nw: float
    mem: float

    def __post_init__(self) -> None:
        for name in RESOURCE_NAMES:
            value = getattr(self, name)
            if type(value) is not float:
                object.__setattr__(self, name, _real(f"resource component {name!r}", value))
        _raise_broken(resources=np.array([self.as_tuple()]))

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.cpu, self.io, self.nw, self.mem)


@dataclass(frozen=True)
class AffinityWeights:
    """Convex weights for cpu, io, nw and mem headroom in resource affinity.

    The four weights must sum to 1 (checked to 1e-9; user-supplied decimal
    weights rarely sum exactly in binary floating point).
    """

    beta1: float
    beta2: float
    beta3: float
    beta4: float

    def __post_init__(self) -> None:
        for name in ("beta1", "beta2", "beta3", "beta4"):
            b = _real(f"'{name}'", getattr(self, name))
            if not (math.isfinite(b) and b >= 0):
                raise ModelError("affinity weights must be finite and >= 0")
            object.__setattr__(self, name, b)
        total = self.beta1 + self.beta2 + self.beta3 + self.beta4
        if abs(total - 1.0) > 1e-9:
            raise ModelError(f"affinity weights must sum to 1, got {total!r}")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.beta1, self.beta2, self.beta3, self.beta4)


@dataclass(frozen=True)
class Machine:
    """A machine node: resource capacity plus idle and maximum power draw, held as floats."""

    id: int
    capacity: ResourceVector
    p_idle: float
    p_max: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "id", _integer("machine id", self.id))
        for name in ("p_idle", "p_max"):
            value = getattr(self, name)
            if type(value) is not float:
                object.__setattr__(self, name, _real(f"machine {self.id}: {name}", value))
        _raise_broken(power=np.array([[self.p_idle], [self.p_max]]), ids=(self.id,))


@dataclass(frozen=True)
class Application:
    """An application request: per-instance demand and an instance count."""

    id: int
    demand: ResourceVector
    instances: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "id", _integer("application id", self.id))
        instances = _integer(f"application {self.id}: instances", self.instances)
        object.__setattr__(self, "instances", instances)
        _raise_broken(instances=np.array([instances]), ids=(self.id,))


_RESOURCE_RULES = (*(f"resource component {name!r} must be finite and >= 0" for name in RESOURCE_NAMES),
                   "resource component 'cpu' must be > 0")
_POWER_RULES = ("machine {}: p_idle and p_max must be finite", "machine {}: need 0 <= p_idle <= p_max")
_INSTANCE_RULES = ("application {}: instances must be >= 1", "application {}: instances must be < 2**63")


def _broken_row(resources=None, power=None, instances=None, ids=None) -> Optional[tuple[int, str]]:
    """The first row that breaks a row rule, with the text of its first broken rule; else None.

    The one home of the rules, tried in this order: ``resources`` (K, 4)
    each finite and >= 0, and cpu > 0; ``power``, (p_idle, p_max), both
    finite and 0 <= p_idle <= p_max; ``instances`` 1 <= count < 2**63, held
    as integers so no rounding meets the bound. ``ids`` name the rows
    (default: their positions). A later column may hold fewer rows, as a
    trace row read in part does.
    """
    groups = []  # (K, R) bool, True where row k keeps rule r, and the R rules' texts
    if resources is not None:
        finite = (resources >= 0) & (resources < math.inf)
        groups.append((np.concatenate((finite, resources[:, :1] > 0), axis=1), _RESOURCE_RULES))
    if power is not None:
        idle, peak = power
        kept = np.array([np.isfinite(idle) & np.isfinite(peak), (idle >= 0) & (peak >= idle)]).T
        groups.append((kept, _POWER_RULES))
    if instances is not None:
        groups.append((np.array([instances >= 1, instances <= _INT64_MAX]).T, _INSTANCE_RULES))
    found = None
    for kept, texts in groups:
        broken = (~kept.all(axis=1)).nonzero()[0]
        if broken.size and (found is None or broken[0] < found[0]):
            row = int(broken[0])
            found = row, texts[int(kept[row].argmin())]
    if found is None:
        return None
    row, text = found
    return row, text.format(row if ids is None else ids[row])


def _raise_broken(**columns) -> None:
    """ModelError with the text of the first rule that ``_broken_row(**columns)`` finds broken."""
    found = _broken_row(**columns)
    if found is not None:
        raise ModelError(found[1])


def _settings(
    weights, alpha, pi_threshold, error: type[ValueError] = ModelError
) -> tuple[float, float]:
    """A scenario's ``alpha`` and ``pi_threshold`` as Python floats, once
    ``weights`` is an AffinityWeights and both are in range; else ``error``.

    Written so that NaN fails every range check.
    """
    if not isinstance(weights, AffinityWeights):
        raise error(f"'weights' must be an AffinityWeights, got {weights!r}")
    alpha = _real("'alpha'", alpha, error)
    pi_threshold = _real("'pi_threshold'", pi_threshold, error)
    if not (0 <= alpha < math.inf):
        raise error("alpha must be finite and >= 0")
    if not (0.0 < pi_threshold <= 1.0):
        raise error("pi_threshold must be in (0, 1]")
    return alpha, pi_threshold


def _binary_matrix(name: str, mat: np.ndarray) -> np.ndarray:
    """``mat`` as a read-only bool matrix; ModelError unless every cell is 0 or 1.

    A read-only bool matrix, such as another scenario's, is kept as it is,
    a writable one copied. An int, uint or float matrix is cast if every
    cell equals 0 or 1, which a NaN does not; an object matrix is read as
    floats first. Complex, string and bytes cells are no numbers.
    """
    if mat.dtype.kind == "O":
        try:
            mat = np.asarray(mat, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ModelError(f"{name} must be binary") from exc
    if mat.dtype.kind == "b" and not mat.flags.writeable:
        return mat
    # a copy as bool, equal to mat only if every cell is 0 or 1
    if mat.dtype.kind not in "biuf" or not np.array_equal(bits := mat != 0, mat):
        raise ModelError(f"{name} must be binary")
    bits.setflags(write=False)
    return bits


# Scenario's columns of the fleet, and the dtype each is held as.
_COLUMNS = (("capacities", float), ("idles", float), ("peaks", float),
            ("demands", float), ("instances", np.int64))


@dataclass(frozen=True, eq=False)
class Scenario:
    """A complete placement problem instance.

    The fleet is held as read-only columns, float64 unless said: machine
    ``capacities`` (M, 4) in RESOURCE_NAMES order, ``idles`` and ``peaks``
    (M,), each machine's p_idle and p_max, application ``demands`` (N, 4) and
    int64 ``instances`` (N,); an id is a row. A column that already is
    read-only and of its dtype, such as another scenario's, is kept as it
    is, any other copied; every row must keep the row rules
    (``_broken_row``). ``machines`` and ``applications`` are records of the
    same numbers, built on first read. Beside them: the user affinity and
    anti-affinity matrices (N x M, read-only bool, never both set on a
    cell), the resource-affinity weights, and alpha and pi_threshold, held
    as Python floats. It also builds, once, what the greedy strategies read
    on every run: ``placement_order``, the applications by decreasing
    demand (cpu, then io, nw and mem; ties in id order), and
    ``demand_floor``, below which in any one resource a machine admits no
    instance of any application. Compared and hashed by identity: the
    matrices are arrays, which have no single truth value.
    """

    capacities: np.ndarray
    idles: np.ndarray
    peaks: np.ndarray
    demands: np.ndarray
    instances: np.ndarray
    user_affinity: np.ndarray
    anti_affinity: np.ndarray
    weights: AffinityWeights
    alpha: float
    pi_threshold: float = 0.5
    # Shared by every CapacityLedger, not copied: anti_affinity's rows as
    # bytes (anti_rows[i][j] is 0 or 1), and each machine's capacity and
    # each application's demand as a tuple of Python floats. spans is the
    # read-only peaks - idles.
    anti_rows: tuple[bytes, ...] = field(init=False, repr=False, compare=False)
    spans: np.ndarray = field(init=False, repr=False, compare=False)
    capacity_rows: tuple[tuple[float, ...], ...] = field(init=False, repr=False, compare=False)
    demand_rows: tuple[tuple[float, ...], ...] = field(init=False, repr=False, compare=False)
    # For the greedy strategies (see above), read on every run: demand_floor,
    # a (cpu, io, nw, mem) tuple like each of demand_rows, and
    # placement_order, (application id, instances) pairs
    demand_floor: tuple[float, ...] = field(init=False, repr=False, compare=False)
    placement_order: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        cols = {}
        for name, dtype in _COLUMNS:
            col = cols[name] = np.asarray(getattr(self, name))
            if col.dtype.kind not in ("iu" if dtype is np.int64 else "iuf"):
                raise ModelError(f"{name} must hold {'integers' if dtype is np.int64 else 'real numbers'}")
        caps, demands = cols["capacities"], cols["demands"]
        m, n = (len(col) if col.ndim else 0 for col in (caps, demands))
        if not m or not n:
            raise ModelError("need at least one machine and one application")
        for name, shape in (("capacities", (m, 4)), ("idles", (m,)), ("peaks", (m,)),
                            ("demands", (n, 4)), ("instances", (n,))):
            if cols[name].shape != shape:
                raise ModelError(f"{name} must have shape {shape}, got {cols[name].shape}")
        _raise_broken(resources=caps, power=(cols["idles"], cols["peaks"]))
        _raise_broken(resources=demands, instances=cols["instances"])
        for name, dtype in _COLUMNS:  # cast once checked: a uint64 count may pass int64's range
            col = cols[name]
            if col.dtype != dtype or col.flags.writeable:
                col = col.astype(dtype)
                col.setflags(write=False)
            object.__setattr__(self, name, col)
        user = np.asarray(self.user_affinity)
        anti = np.asarray(self.anti_affinity)
        if user.shape != (n, m) or anti.shape != (n, m):
            raise ModelError(f"affinity matrices must have shape {(n, m)}")
        user = _binary_matrix("user_affinity", user)
        anti = _binary_matrix("anti_affinity", anti)
        clash = np.logical_and(user, anti)
        if clash.any():
            i, j = (int(v) for v in np.argwhere(clash)[0])
            raise ModelError(
                f"user affinity and anti-affinity both set for app {i}, machine {j}"
            )
        alpha, pi_threshold = _settings(self.weights, self.alpha, self.pi_threshold)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "pi_threshold", pi_threshold)
        object.__setattr__(self, "user_affinity", user)
        object.__setattr__(self, "anti_affinity", anti)
        object.__setattr__(self, "anti_rows", tuple(map(bytes, anti)))
        spans = self.peaks - self.idles
        spans.setflags(write=False)
        object.__setattr__(self, "spans", spans)
        object.__setattr__(self, "capacity_rows", tuple(map(tuple, self.capacities.tolist())))
        object.__setattr__(self, "demand_rows", tuple(map(tuple, self.demands.tolist())))
        object.__setattr__(self, "demand_floor", tuple(self.demands.min(axis=0).tolist()))
        # lexsort's last key leads and its sort is stable, so ties keep id order
        order = np.lexsort(-self.demands.T[::-1])
        pairs = tuple(zip(order.tolist(), self.instances[order].tolist()))
        object.__setattr__(self, "placement_order", pairs)

    @cached_property
    def machines(self) -> tuple[Machine, ...]:
        """The machines as records, machine j on row j, built from the columns on first read."""
        power = zip(self.idles.tolist(), self.peaks.tolist())
        return tuple(Machine(j, ResourceVector(*cap), p_idle, p_max)
                     for j, (cap, (p_idle, p_max)) in enumerate(zip(self.capacity_rows, power)))

    @cached_property
    def applications(self) -> tuple[Application, ...]:
        """The applications as records, application i on row i, built from the columns on first read."""
        return tuple(Application(i, ResourceVector(*demand), count)
                     for i, (demand, count) in enumerate(zip(self.demand_rows, self.instances.tolist())))

    @property
    def num_machines(self) -> int:
        return len(self.capacities)

    @property
    def num_applications(self) -> int:
        return len(self.demands)

    @property
    def total_instances(self) -> int:
        return sum(self.instances.tolist())  # exact: an int64 sum can wrap


class AllocationMatrix:
    """Instance counts per (application, machine) cell, held as the placed cells.

    ``cells`` are the flat ids ``i * M + j`` of the cells holding an
    instance, ascending (row-major order), and ``cell_counts`` their counts,
    both read-only int64; ``shape`` is (N, M). The dense matrix ``counts`` is
    built on first read and is read-only too. The constructor takes a dense
    matrix and checks it; ``from_cells`` takes one flat id per placed
    instance. Compared and hashed by identity, like ``Scenario``.
    """

    __slots__ = ("shape", "cells", "cell_counts", "_counts")

    def __init__(self, counts) -> None:
        counts = np.asarray(counts)
        if counts.ndim != 2:
            raise ModelError("allocation counts must be a 2-D matrix")
        if not np.issubdtype(counts.dtype, np.integer):
            raise ModelError("allocation counts must be integers")
        # checked after the cast: a uint64 count of 2**63 or more wraps to
        # a negative int64
        counts = counts.astype(np.int64, copy=False)
        if (counts < 0).any():
            raise ModelError("allocation counts must be >= 0")
        cells = np.flatnonzero(counts)
        self._hold(counts.shape, cells, counts.ravel()[cells])

    def _hold(self, shape: tuple[int, int], cells: np.ndarray, cell_counts: np.ndarray) -> None:
        cells.setflags(write=False)
        cell_counts.setflags(write=False)
        self.shape, self.cells, self.cell_counts, self._counts = shape, cells, cell_counts, None

    @classmethod
    def from_cells(cls, shape: tuple[int, int], ids) -> "AllocationMatrix":
        """The allocation holding one instance per flat id ``i * M + j`` of ``ids``, in any order.

        The ids are sorted with one id past every cell appended, which ends
        the last run of equal ids: np.unique's work at half its fixed cost,
        which shows on a 4 x 4 scenario.
        """
        ids = np.array([*ids, shape[0] * shape[1]], dtype=np.int64)
        ids.sort()
        ends = (ids[1:] != ids[:-1]).nonzero()[0] + 1  # one past each run of equal ids
        counts = ends.copy()
        counts[1:] -= ends[:-1]
        allocation = cls.__new__(cls)
        allocation._hold(shape, ids[ends - 1], counts)
        return allocation

    @classmethod
    def zeros(cls, num_applications: int, num_machines: int) -> "AllocationMatrix":
        return cls.from_cells((num_applications, num_machines), ())

    def __repr__(self) -> str:
        return f"AllocationMatrix(counts={self.counts!r})"

    @property
    def counts(self) -> np.ndarray:
        if self._counts is None:
            counts = np.zeros(self.shape, dtype=np.int64)
            counts.put(self.cells, self.cell_counts)
            counts.setflags(write=False)
            self._counts = counts
        return self._counts

    def machine_sums(self, weights: np.ndarray) -> np.ndarray:
        """Per-machine sums of per-cell ``weights``, each machine adding its cells in cell order.

        ``weights`` (K,) gives (M,) sums and (K, R) gives (M, R).
        ``np.bincount`` adds one weight at a time in input order, so no
        BLAS kernel or SIMD width decides the result.
        """
        m = self.shape[1]
        if weights.ndim == 1:
            return np.bincount(self.cells % m, weights, minlength=m)
        r = weights.shape[1]
        slots = ((self.cells % m)[:, None] * r + np.arange(r)).ravel()
        return np.bincount(slots, weights.ravel(), minlength=m * r).reshape(m, r)


@dataclass(frozen=True)
class ConstraintResult:
    """Outcome of a single constraint check with a diagnosable witness.

    Witness conventions: anti-affinity and user/anti consistency use
    (application, machine); completeness uses (application, -1); capacity
    uses (-1, machine). ``detail`` carries a human-readable account.
    """

    ok: bool
    witness: Optional[tuple[int, int]] = None
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    """Pass/fail per placement constraint, with first-violation witnesses."""

    anti_affinity: ConstraintResult
    completeness: ConstraintResult
    capacity: ConstraintResult

    @property
    def feasible_complete(self) -> bool:
        return self.anti_affinity.ok and self.completeness.ok and self.capacity.ok


class CapacityLedger:
    """Remaining capacity, cpu used and utilization of every machine.

    The bookkeeping path of the greedy strategies, which place one
    instance at a time and never take one back. The exact solver uses
    ``ledger_steps``, its array form, instead. ``remaining[j]`` is machine
    j's leftover (cpu, io, nw, mem). ``add`` subtracts with no clamp: it is
    meant only for an add ``first_admissible`` admitted, which never lands
    below zero (``d <= r`` implies ``fl(r - d) >= 0``), so it does the
    arithmetic of ``ledger_steps`` on every add. ``pi[j]`` is the cpu
    utilization, snapped to 1.0 when it overshoots by no more than
    CAPACITY_SLACK. ``anti`` and ``demands`` are the scenario's
    ``anti_rows`` and ``demand_rows``, shared, not copied.
    ``first_admissible`` holds the one admissibility test and counts
    nothing. ``pairs`` is the greedy strategies' work count: they add to it
    themselves, and the ledger never changes it. Since ``remaining`` only
    shrinks, a machine whose ``remaining`` falls below the scenario's
    ``demand_floor`` in some resource fails that test for good; the greedy
    skeleton reads ``remaining`` after each placement to find such
    machines.
    """

    __slots__ = ("remaining", "cpu_cap", "used_cpu", "pi", "anti", "demands", "pairs")

    def __init__(self, scenario: Scenario):
        caps = scenario.capacity_rows
        self.remaining = list(map(list, caps))
        self.cpu_cap = [cap[0] for cap in caps]
        self.used_cpu = [0.0] * len(caps)
        self.pi = [0.0] * len(caps)
        self.anti = scenario.anti_rows
        self.demands = scenario.demand_rows
        self.pairs = 0

    def first_admissible(self, i: int, machines: Iterable[int]) -> int:
        """First of ``machines`` that admits one more instance of application i, or -1.

        Admits: the pair is not anti-affine and cpu, io, nw and mem all fit.
        The scan stops at the machine it returns: an iterator resumes after it.
        """
        anti = self.anti[i]
        d0, d1, d2, d3 = self.demands[i]
        remaining = self.remaining
        for j in machines:
            r = remaining[j]
            if not anti[j] and d0 <= r[0] and d1 <= r[1] and d2 <= r[2] and d3 <= r[3]:
                return j
        return -1

    def pi_after(self, i: int, j: int) -> float:
        """Utilization of machine j once one more instance of application i is added."""
        pi = (self.used_cpu[j] + self.demands[i][0]) / self.cpu_cap[j]
        return 1.0 if 1.0 < pi <= 1.0 + CAPACITY_SLACK else pi

    # The snap is written out here and in pi_after, not shared through a
    # helper, which would add a call to every placement step.
    def add(self, i: int, j: int) -> None:
        """Place one instance of application i on machine j."""
        d = self.demands[i]
        r = self.remaining[j]
        for c in range(4):
            r[c] -= d[c]
        used = self.used_cpu[j] + d[0]
        self.used_cpu[j] = used
        pi = used / self.cpu_cap[j]
        self.pi[j] = 1.0 if 1.0 < pi <= 1.0 + CAPACITY_SLACK else pi


def ledger_steps(
    scenario: Scenario, states: np.ndarray, machines: np.ndarray, i: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CapacityLedger's ``first_admissible((j,))`` then ``add(i, j)``, k times, for many states at once.

    ``states`` (S, 5) holds one machine state per row: remaining cpu, io,
    nw and mem, then cpu used; ``machines`` (S,) is each row's machine.
    Returns ``steps`` (S, k + 1, 5), each state after 0 .. k more instances
    of application i (k its instance count); ``pi`` (S, k + 1), the
    utilization with the ledger's snap; and ``reached`` (S, k + 1), True
    where the state after t instances exists: t = 0, or instance t fits
    (not anti-affine, all four resources) and so did every one before it.
    Past ``reached`` the entries are meaningless. The steps are one
    sequential ``np.add.accumulate`` along the instance axis, ``r + (-d)``
    and ``used + d``, so each entry has the bits of t scalar adds. No clamp
    is needed: ``d <= r`` implies ``fl(r - d) >= 0``.
    """
    d = scenario.demands[i]
    steps = np.empty((len(states), int(scenario.instances[i]) + 1, 5))
    steps[:, 0] = states
    steps[:, 1:, :4] = -d
    steps[:, 1:, 4] = d[0]
    np.add.accumulate(steps, axis=1, out=steps)
    fits = (steps[:, :-1, :4] >= d).all(axis=2)
    fits &= ~scenario.anti_affinity[i].take(machines)[:, None]
    reached = np.ones(steps.shape[:2], dtype=bool)
    np.logical_and.accumulate(fits, axis=1, out=reached[:, 1:])
    pi = steps[:, :, 4] / scenario.capacities[:, 0].take(machines)[:, None]
    pi[(pi > 1.0) & (pi <= 1.0 + CAPACITY_SLACK)] = 1.0
    return steps, pi, reached


def _checked_shape(scenario: Scenario, allocation: AllocationMatrix) -> tuple[int, int]:
    """The scenario's (N, M); ModelError unless the allocation has that shape."""
    shape = (scenario.num_applications, scenario.num_machines)
    if allocation.shape != shape:
        raise ModelError(f"allocation shape {allocation.shape} does not match scenario {shape}")
    return shape


def validate_allocation(scenario: Scenario, allocation: AllocationMatrix) -> ValidationReport:
    """Check an allocation against the three placement constraints.

    Violations are reported, not raised; only a dimension mismatch is a
    structural error. Capacity sums tolerate CAPACITY_SLACK relative float
    jitter so that repeated-subtraction and product-form accounting agree.
    Only the placed cells are read: the witnesses are the first violating
    cell and the first over-capacity (machine, resource) in row-major
    order, and the first short or over-placed application.
    """
    n, m = _checked_shape(scenario, allocation)
    cells, counts = allocation.cells, allocation.cell_counts

    hits = scenario.anti_affinity.ravel()[cells].nonzero()[0]
    if hits.size:
        k = int(hits[0])
        i, j = divmod(int(cells[k]), m)
        anti = ConstraintResult(False, (i, j), f"app {i} has {int(counts[k])} instance(s) on forbidden machine {j}")
    else:
        anti = ConstraintResult(True)

    # running int64 totals, read where each application's cells end: a
    # difference of them is exact
    running = np.zeros(cells.size + 1, dtype=np.int64)
    np.cumsum(counts, out=running[1:])
    totals = running[np.searchsorted(cells, np.arange(0, (n + 1) * m, m))]
    placed = totals[1:] - totals[:-1]
    wanted = scenario.instances
    short = (placed != wanted).nonzero()[0]
    if short.size:
        i = int(short[0])
        completeness = ConstraintResult(
            False, (i, -1), f"app {i} placed {int(placed[i])} of {int(wanted[i])} instances"
        )
    else:
        completeness = ConstraintResult(True)

    caps = scenario.capacities
    usage = allocation.machine_sums(scenario.demands[cells // m] * counts[:, None])  # (M, 4)
    limit = caps * (1.0 + CAPACITY_SLACK) + 1e-12
    machines, resources = (usage > limit).nonzero()
    if machines.size:
        j, c = int(machines[0]), int(resources[0])
        capacity = ConstraintResult(
            False,
            (-1, j),
            f"machine {j} over {RESOURCE_NAMES[c]}: "
            f"used {float(usage[j, c])!r} > cap {float(caps[j, c])!r}",
        )
    else:
        capacity = ConstraintResult(True)

    return ValidationReport(anti_affinity=anti, completeness=completeness, capacity=capacity)
