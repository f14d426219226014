"""Planar wrenches, reference-point changes, and center of pressure."""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..errors import DegenerateForce
from .pose import _frozen_vec2, cross2

# Below this normal-force magnitude (N) a contact patch has no well-defined
# center of pressure.
COP_FORCE_EPS = 1e-9


@dataclass(frozen=True, eq=False)
class Wrench2:
    """Planar wrench: force (N), torque (N*m), and the world point the torque is about."""

    force: np.ndarray
    torque: float
    reference: np.ndarray

    def __init__(self, force, torque: float, reference=(0.0, 0.0)):
        object.__setattr__(self, "force", _frozen_vec2(force))
        object.__setattr__(self, "torque", float(torque))
        object.__setattr__(self, "reference", _frozen_vec2(reference))

    def __add__(self, other: "Wrench2") -> "Wrench2":
        """Sum of two wrenches, expressed about self.reference."""
        o = transform_torque(other, self.reference)
        return Wrench2(self.force + o.force, self.torque + o.torque, self.reference)

    def __neg__(self) -> "Wrench2":
        return Wrench2(-self.force, -self.torque, self.reference)

    def to_json(self) -> dict:
        return {
            "force_n": [float(self.force[0]), float(self.force[1])],
            "torque_nm": float(self.torque),
            "reference_m": [float(self.reference[0]), float(self.reference[1])],
        }

    @staticmethod
    def from_json(d: dict) -> "Wrench2":
        return Wrench2(np.asarray(d["force_n"], dtype=float), d["torque_nm"],
                       np.asarray(d["reference_m"], dtype=float))

    def __eq__(self, other):
        if not isinstance(other, Wrench2):
            return NotImplemented
        return (tuple(self.force) == tuple(other.force)
                and self.torque == other.torque
                and tuple(self.reference) == tuple(other.reference))


def transform_torque(w: Wrench2, new_reference) -> Wrench2:
    """Re-express a wrench about a new reference point.

    The force is carried over unchanged; the torque picks up the moment of the
    force over the reference offset: tau_P = tau_C + (r_C - r_P) x F.
    """
    new_ref = np.asarray(new_reference, dtype=float)
    tau = w.torque + cross2(w.reference - new_ref, w.force)
    return Wrench2(w.force, tau, new_ref)


class CopResult(NamedTuple):
    point: np.ndarray
    gamma: float


def center_of_pressure(G, H, w: Wrench2) -> CopResult:
    """Center of pressure of a line contact patch with endpoints G and H.

    Returns the point Q = gamma*G + (1-gamma)*H on the patch line about which
    the wrench has zero torque. gamma is deliberately left unclamped: a value
    outside [0, 1] means the zero-torque point falls beyond the physical patch,
    which callers use to detect infeasible contact geometries.

    Raises DegenerateForce when the force component normal to the patch is too
    small for the zero-torque point to be well defined (or when G == H).
    """
    G = np.asarray(G, dtype=float)
    H = np.asarray(H, dtype=float)
    chord = G - H
    span = float(np.hypot(chord[0], chord[1]))
    if span <= COP_FORCE_EPS:
        raise DegenerateForce("contact patch endpoints coincide")
    # Normal force component across the patch equals |t x F|.
    f_normal = cross2(chord, w.force) / span
    if abs(f_normal) <= COP_FORCE_EPS:
        raise DegenerateForce(
            f"normal force {f_normal:.3e} N too small for a center of pressure")
    tau_H = transform_torque(w, H).torque
    gamma = tau_H / cross2(chord, w.force)
    # H + gamma*(G - H), not gamma*G + (1 - gamma)*H: for |gamma| >> 1 the
    # two large terms of the latter cancel and lose the point's low bits
    point = H + gamma * chord
    return CopResult(point, float(gamma))
