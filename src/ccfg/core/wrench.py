"""Planar wrenches, reference-point changes, and center of pressure."""

import math
from dataclasses import dataclass

import numpy as np

from ..errors import DegenerateForce
from .pose import _frozen_vec2, cross2

# Below this normal-force magnitude (N) a contact patch has no well-defined
# center of pressure.
COP_FORCE_EPS = 1e-9


@dataclass(frozen=True, eq=False)
class Wrench2:
    """Planar wrench: force (N), torque (N*m), and the world point the torque
    is about; every field finite."""

    force: np.ndarray
    torque: float
    reference: np.ndarray

    def __init__(self, force, torque: float, reference=(0.0, 0.0)):
        force, reference = _frozen_vec2(force), _frozen_vec2(reference)
        torque = float(torque)
        # plain comparisons, false for NaN
        if not all(-math.inf < v < math.inf
                   for v in (*force.tolist(), torque, *reference.tolist())):
            raise ValueError("wrench force, torque and reference must be "
                             "finite")
        object.__setattr__(self, "force", force)
        object.__setattr__(self, "torque", torque)
        object.__setattr__(self, "reference", reference)

    def to_json(self) -> dict:
        return {
            "force_n": [float(self.force[0]), float(self.force[1])],
            "torque_nm": float(self.torque),
            "reference_m": [float(self.reference[0]), float(self.reference[1])],
        }

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


def center_of_pressure(G, H, w: Wrench2):
    """Center of pressure of a line contact patch with endpoints G and H.

    G and H are (x, y) pairs. Returns ((x, y), gamma): the point
    Q = gamma*G + (1-gamma)*H on the patch line about which the wrench has
    zero torque, and gamma, as floats. gamma is deliberately left
    unclamped: a value outside [0, 1] means the zero-torque point falls
    beyond the physical patch, which callers use to detect infeasible
    contact geometries.

    Raises DegenerateForce when the force component normal to the patch is too
    small for the zero-torque point to be well defined (or when G == H).
    """
    (gx, gy), (hx, hy) = G, H
    fx, fy = w.force.tolist()
    cx, cy = gx - hx, gy - hy
    span = math.hypot(cx, cy)
    if span <= COP_FORCE_EPS:
        raise DegenerateForce("contact patch endpoints coincide")
    # Normal force component across the patch equals |t x F|.
    chord_x_f = cx * fy - cy * fx
    f_normal = chord_x_f / span
    if abs(f_normal) <= COP_FORCE_EPS:
        raise DegenerateForce(
            f"normal force {f_normal:.3e} N too small for a center of pressure")
    # torque about H: transform_torque(w, H).torque
    rx, ry = w.reference.tolist()
    tau_H = w.torque + ((rx - hx) * fy - (ry - hy) * fx)
    gamma = tau_H / chord_x_f
    # H + gamma*(G - H), not gamma*G + (1 - gamma)*H: for |gamma| >> 1 the
    # two large terms of the latter cancel and lose the point's low bits
    return (hx + gamma * cx, hy + gamma * cy), gamma
