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
        values = np.array(self.values, dtype=float)
        if values.ndim != 2:
            raise ModelError("affinity values must be a 2-D matrix")
        if not ((values >= 0) & (values <= 1)).all():
            raise ModelError("affinity values must lie in [0, 1]")
        values.setflags(write=False)
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


def system_affinity_matrix(scenario: Scenario) -> AffinityMatrix:
    """Resource affinity for every (application, machine) pair.

    A cell is zero when any demand component strictly exceeds the machine's
    capacity; otherwise it is the weighted sum of per-resource headroom
    fractions (cap - req) / cap. Exact equality of demand and capacity
    contributes zero headroom but does not trigger the zero branch. A
    zero-capacity component (possible for io/nw/mem) contributes zero
    headroom.
    """
    caps = np.array([m.capacity.as_tuple() for m in scenario.machines])  # (M, 4)
    reqs = np.array([a.demand.as_tuple() for a in scenario.applications])  # (N, 4)
    betas = np.array(scenario.weights.as_tuple())
    with np.errstate(divide="ignore", invalid="ignore"):
        head = np.where(caps > 0, (caps[None, :, :] - reqs[:, None, :]) / caps[None, :, :], 0.0)
    blocked = (reqs[:, None, :] > caps[None, :, :]).any(axis=2)
    # weights may sum to 1 + O(1e-9) within their tolerance; keep every
    # score inside [0, 1]
    values = np.where(blocked, 0.0, np.minimum(head @ betas, 1.0))
    return AffinityMatrix(values=values, kind=SYSTEM)


def final_affinity(user: np.ndarray, system: AffinityMatrix) -> AffinityMatrix:
    """Blend binary user preferences with resource affinity: (U + S) / 2."""
    if system.kind != SYSTEM:
        raise ModelError("final_affinity expects the system-kind matrix")
    user = np.asarray(user)
    if user.shape != system.shape:
        raise ModelError(f"user matrix shape {user.shape} != system shape {system.shape}")
    return AffinityMatrix(values=(user + system.values) / 2.0, kind=FINAL)


def build_final_affinity(scenario: Scenario) -> AffinityMatrix:
    """The final affinity matrix for a scenario, built in one step."""
    return final_affinity(scenario.user_affinity, system_affinity_matrix(scenario))

