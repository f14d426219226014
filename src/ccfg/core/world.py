"""Environment, hand, and gravity parameterization."""

import math
from dataclasses import dataclass, field

import numpy as np

GRAVITY_ACCEL = 9.81  # m/s^2, acting along -y


@dataclass(frozen=True)
class Wall:
    """Vertical wall at world x; facing +1 pushes objects toward +x, -1 toward -x."""

    x: float
    facing: int

    def __post_init__(self):
        if self.facing not in (-1, 1):
            raise ValueError("wall facing must be +1 or -1")

    def to_json(self) -> dict:
        return {"x_m": float(self.x), "facing": int(self.facing)}

    @staticmethod
    def from_json(d: dict) -> "Wall":
        return Wall(float(d["x_m"]), int(d["facing"]))


@dataclass(frozen=True)
class WorldModel:
    """Horizontal ground line plus up to two vertical walls."""

    ground_height: float = 0.0
    walls: tuple = field(default_factory=tuple)
    gravity: float = GRAVITY_ACCEL

    def __post_init__(self):
        walls = tuple(self.walls)
        if len(walls) > 2:
            raise ValueError("at most two walls supported")
        object.__setattr__(self, "walls", walls)

    @property
    def ground_normal(self) -> np.ndarray:
        return np.array([0.0, 1.0])

    @property
    def ground_tangent(self) -> np.ndarray:
        return np.array([1.0, 0.0])

    def to_json(self) -> dict:
        return {
            "ground_height_m": float(self.ground_height),
            "walls": [w.to_json() for w in self.walls],
            "gravity_mps2": float(self.gravity),
        }

    @staticmethod
    def from_json(d: dict) -> "WorldModel":
        return WorldModel(
            ground_height=float(d.get("ground_height_m", 0.0)),
            walls=tuple(Wall.from_json(w) for w in d.get("walls", [])),
            gravity=float(d.get("gravity_mps2", GRAVITY_ACCEL)),
        )


@dataclass(frozen=True)
class HandModel:
    """Line hand of total length 2*half_length, endpoints at r_h +/- half_length * t_h."""

    half_length: float

    def __post_init__(self):
        if not (self.half_length > 0):
            raise ValueError("hand half_length must be positive")

    def to_json(self) -> dict:
        return {"half_length_m": float(self.half_length)}

    @staticmethod
    def from_json(d: dict) -> "HandModel":
        return HandModel(float(d["half_length_m"]))


@dataclass(frozen=True)
class GravityParams:
    """Gravitational torque about a pivot vertex, in the lumped (alpha, beta) form.

    The torque of the object's weight about a pivot is m*g*l*sin(theta + psi),
    where l and psi are the polar coordinates of the center of mass relative to
    the pivot in the object frame. That expression is identically
    alpha*cos(theta) + beta*sin(theta) with alpha = m*g*l*sin(psi) and
    beta = m*g*l*cos(psi), so mass and center of mass never need to be
    estimated separately: sqrt(alpha^2 + beta^2) recovers m*g*l.
    """

    alpha: float
    beta: float

    @property
    def mgl(self) -> float:
        return math.hypot(self.alpha, self.beta)

    @staticmethod
    def from_mass_properties(mass: float, com_offset, gravity: float = GRAVITY_ACCEL
                             ) -> "GravityParams":
        """Build from mass and object-frame center-of-mass offset from the pivot."""
        dx, dy = float(com_offset[0]), float(com_offset[1])
        return GravityParams(alpha=-mass * gravity * dx, beta=mass * gravity * dy)

    def to_json(self) -> dict:
        return {"alpha_nm": float(self.alpha), "beta_nm": float(self.beta)}

    @staticmethod
    def from_json(d: dict) -> "GravityParams":
        return GravityParams(float(d["alpha_nm"]), float(d["beta_nm"]))


def gravity_torque(gp: GravityParams, theta_o: float) -> float:
    """Torque of the object's weight about the pivot at object angle theta_o."""
    return gp.alpha * math.cos(theta_o) + gp.beta * math.sin(theta_o)
