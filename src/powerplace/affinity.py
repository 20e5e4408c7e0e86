"""Resource-affinity scoring between applications and machines.

A machine's resource affinity for an application is the weighted share of
capacity headroom it would keep: machines with more spare room score
higher, and a machine that cannot hold even one instance scores zero.
Placement uses one matrix, the final affinity, which blends this score
with the binary user preference matrix: F = (U + S) / 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import ModelError, Scenario

# Cells per block of the affinity build. A block's (rows, M, 4) float
# temporaries take about 32 bytes a cell; a fleet wider than this is built
# one row at a time.
_BLOCK_CELLS = 8192


@dataclass(frozen=True, eq=False)
class AffinityMatrix:
    """N x M final affinity scores in [0, 1], held read-only as float64.

    Compared and hashed by identity: the matrix is an array, which has no
    single truth value. ``ranked`` is built on first use and kept as long
    as the matrix, so every strategy run on one matrix shares it.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        values = self.values
        # a read-only float64 array is kept as it is; anything else is copied
        if not (isinstance(values, np.ndarray) and values.dtype == np.float64
                and not values.flags.writeable):
            try:
                values = np.array(values, dtype=float)
            except (TypeError, ValueError) as exc:
                raise ModelError("affinity values must be a 2-D matrix of numbers") from exc
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

    @cached_property
    def ranked(self) -> np.ndarray:
        """Each row's machine ids by decreasing affinity, read-only and C-contiguous.

        The ids take the narrowest unsigned type that holds M - 1 (uint8 up
        to 256 machines), so the ranking keeps N x M bytes or twice that,
        where argsort's own int64 result is eight times that.
        """
        ranked = np.ascontiguousarray(self.values.argsort(axis=1)[:, ::-1],
                                      dtype=np.min_scalar_type(self.values.shape[1] - 1))
        ranked.setflags(write=False)
        return ranked


def require_final(scenario: Scenario, affinity: AffinityMatrix) -> None:
    """Raise ModelError unless ``affinity`` is shaped (N, M) for ``scenario``."""
    shape = (scenario.num_applications, scenario.num_machines)
    if affinity.shape != shape:
        raise ModelError(f"affinity shape {affinity.shape} does not match scenario {shape}")


def build_final_affinity(scenario: Scenario) -> AffinityMatrix:
    """The final affinity matrix (U + S) / 2.0 for a scenario.

    S is the resource affinity of every (application, machine) pair. A
    cell is zero when any demand component strictly exceeds the machine's
    capacity; otherwise it is the weighted sum of per-resource headroom
    fractions (cap - req) / cap. Exact equality of demand and capacity
    contributes zero headroom but does not trigger the zero branch. A
    zero-capacity component (possible for io/nw/mem) contributes zero
    headroom.

    Rows are scored in blocks of about _BLOCK_CELLS cells, so the
    (rows, M, 4) temporaries stay small at any fleet size. Each block runs
    the one-shot formula on its rows, and every cell is bit-identical to it.
    """
    user = scenario.user_affinity
    caps = scenario.capacities  # (M, 4)
    reqs = scenario.demands  # (N, 4)
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
        block = out[r0:r0 + step]
        np.add(user[r0:r0 + step], score, out=block)
        block /= 2.0
    out.setflags(write=False)
    return AffinityMatrix(values=out)
