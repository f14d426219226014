"""Planar rigid poses and rotation helpers.

Conventions used throughout the toolkit:
  world frame x right, y up; gravity acts along -y
  angles in radians, positive counter-clockwise
  2D cross product a x b = a_x*b_y - a_y*b_x (torques positive CCW)
"""

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def wrap_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    t = math.fmod(theta, TWO_PI)
    if t <= -math.pi:
        t += TWO_PI
    elif t > math.pi:
        t -= TWO_PI
    return t


def rotation(theta: float) -> np.ndarray:
    """2x2 rotation matrix for angle theta."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def rotate(theta: float, v) -> np.ndarray:
    """Rotate a 2-vector by theta (cheaper than building the matrix)."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([c * v[0] - s * v[1], s * v[0] + c * v[1]])


def cross2(a, b) -> float:
    """Planar cross product a x b = a_x b_y - a_y b_x."""
    return float(a[0]) * float(b[1]) - float(a[1]) * float(b[0])


# Relative zero shared by the hull and the polygon model: turns with a cross
# product at most CROSS_REL_TOL * extent**2 count as collinear, and edges at
# most CROSS_REL_TOL * extent long count as coincident vertices.
CROSS_REL_TOL = 1e-12


def extent(points) -> float:
    """Bounding-box diagonal of a planar point set; the scale CROSS_REL_TOL
    is relative to."""
    pts = np.asarray(points, dtype=float)
    return float(np.hypot(*np.ptp(pts, axis=0)))


def _frozen_vec2(v) -> np.ndarray:
    out = np.array([float(v[0]), float(v[1])])
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class PlanarPose:
    """Rigid planar pose: position in meters, angle in radians wrapped to (-pi, pi]."""

    position: np.ndarray
    angle: float

    def __init__(self, position, angle: float):
        position, angle = _frozen_vec2(position), float(angle)
        # plain comparisons, false for NaN
        if not all(-math.inf < v < math.inf
                   for v in (*position.tolist(), angle)):
            raise ValueError("pose position and angle must be finite")
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "angle", wrap_angle(angle))

    @property
    def rotation(self) -> np.ndarray:
        return rotation(self.angle)

    def transform(self, local_point) -> np.ndarray:
        """Map an object-frame point into the world frame."""
        return rotate(self.angle, local_point) + self.position

    def as_vector(self) -> np.ndarray:
        """(x, y, angle) as a 3-vector."""
        return np.array([self.position[0], self.position[1], self.angle])

    @staticmethod
    def from_vector(q) -> "PlanarPose":
        return PlanarPose(np.asarray(q[:2], dtype=float), float(q[2]))

    def to_json(self) -> dict:
        return {"x_m": float(self.position[0]), "y_m": float(self.position[1]),
                "theta_rad": float(self.angle)}

    def __eq__(self, other):
        if not isinstance(other, PlanarPose):
            return NotImplemented
        return (tuple(self.position) == tuple(other.position)
                and self.angle == other.angle)


def hand_tangent(theta_h: float) -> np.ndarray:
    """Hand tangent t_h = R(theta_h) (1, 0)."""
    return np.array([math.cos(theta_h), math.sin(theta_h)])


def hand_normal(theta_h: float) -> np.ndarray:
    """Hand palm normal n_h = R(theta_h) (0, -1): points from the hand into the object."""
    return np.array([math.sin(theta_h), -math.cos(theta_h)])
