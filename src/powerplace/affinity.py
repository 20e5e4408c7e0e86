"""Resource-affinity scoring between applications and machines.

A machine's resource affinity for an application is the weighted share of
capacity headroom it would keep: machines with more spare room score
higher, and a machine that cannot hold even one instance scores zero. The
final affinity blends this score with the binary user preference matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelError, Scenario

SYSTEM = "system"
FINAL = "final"

# Cells per block of the affinity build. A block's (rows, M, 4) float
# temporaries take about 32 bytes a cell; a fleet wider than this is built
# one row at a time.
_BLOCK_CELLS = 8192


@dataclass(frozen=True)
class AffinityMatrix:
    """N x M affinity scores in [0, 1].

    ``kind`` distinguishes the resource-derived matrix ("system") from the
    blended matrix ("final") that placement algorithms consume.
    """

    values: np.ndarray
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in (SYSTEM, FINAL):
            raise ModelError(f"affinity kind must be {SYSTEM!r} or {FINAL!r}")
        values = self.values
        # a read-only float64 array is kept as it is; anything else is copied
        if not (isinstance(values, np.ndarray) and values.dtype == np.float64
                and not values.flags.writeable):
            values = np.array(values, dtype=float)
            values.setflags(write=False)
        if values.ndim != 2:
            raise ModelError("affinity values must be a 2-D matrix")
        # a NaN makes min() or max() NaN, and both comparisons False
        if values.size and not (values.min() >= 0 and values.max() <= 1):
            raise ModelError("affinity values must lie in [0, 1]")
        object.__setattr__(self, "values", values)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


def require_final(scenario: Scenario, affinity: AffinityMatrix) -> None:
    """Raise ModelError unless ``affinity`` is the final matrix, shaped (N, M) for ``scenario``."""
    if affinity.kind != FINAL:
        raise ModelError(f"expected the final affinity matrix, got kind {affinity.kind!r}")
    shape = (scenario.num_applications, scenario.num_machines)
    if affinity.shape != shape:
        raise ModelError(f"affinity shape {affinity.shape} does not match scenario {shape}")


def _build(scenario: Scenario, user: np.ndarray | None) -> np.ndarray:
    """System scores, or their blend (user + s) / 2.0 when ``user`` is given.

    Rows are scored in blocks of about _BLOCK_CELLS cells, so the
    (rows, M, 4) temporaries stay small at any fleet size. Each block runs
    the one-shot formula on its rows, and every cell is bit-identical to it.
    """
    caps = np.array([m.capacity.as_tuple() for m in scenario.machines])  # (M, 4)
    reqs = np.array([a.demand.as_tuple() for a in scenario.applications])  # (N, 4)
    betas = np.array(scenario.weights.as_tuple())
    # a zero capacity divides by 1: a zero demand then has zero headroom,
    # and a positive demand exceeds the capacity, which zeroes the cell
    denom = np.where(caps > 0, caps, 1.0)
    n, m = len(reqs), len(caps)
    out = np.empty((n, m))
    step = max(1, _BLOCK_CELLS // m)
    for r0 in range(0, n, step):
        req = reqs[r0:r0 + step, None, :]
        head = (caps - req) / denom
        # weights may sum to 1 + O(1e-9) within their tolerance; keep every
        # score inside [0, 1]
        score = np.minimum(head @ betas, 1.0)
        score[(req > caps).any(axis=2)] = 0.0
        if user is None:
            out[r0:r0 + step] = score
        else:
            block = out[r0:r0 + step]
            np.add(user[r0:r0 + step], score, out=block)
            block /= 2.0
    out.setflags(write=False)
    return out


def system_affinity_matrix(scenario: Scenario) -> AffinityMatrix:
    """Resource affinity for every (application, machine) pair.

    A cell is zero when any demand component strictly exceeds the machine's
    capacity; otherwise it is the weighted sum of per-resource headroom
    fractions (cap - req) / cap. Exact equality of demand and capacity
    contributes zero headroom but does not trigger the zero branch. A
    zero-capacity component (possible for io/nw/mem) contributes zero
    headroom.
    """
    return AffinityMatrix(values=_build(scenario, None), kind=SYSTEM)


def final_affinity(user: np.ndarray, system: AffinityMatrix) -> AffinityMatrix:
    """Blend binary user preferences with resource affinity: (U + S) / 2."""
    if system.kind != SYSTEM:
        raise ModelError("final_affinity expects the system-kind matrix")
    user = np.asarray(user)
    if user.shape != system.shape:
        raise ModelError(f"user matrix shape {user.shape} != system shape {system.shape}")
    values = np.add(user, system.values)
    values /= 2.0
    values.setflags(write=False)
    return AffinityMatrix(values=values, kind=FINAL)


def build_final_affinity(scenario: Scenario) -> AffinityMatrix:
    """The final affinity matrix for a scenario, blended block by block."""
    return AffinityMatrix(values=_build(scenario, scenario.user_affinity), kind=FINAL)
