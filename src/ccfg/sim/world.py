"""Ground-truth plant state."""

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ..core import (HandModel, PlanarPose, PolygonModel, WorldModel, Wrench2,
                    hand_normal, hand_tangent)


@dataclass(frozen=True)
class SimWorld:
    """Complete simulator state: geometry, poses, materials, spring stiffness.

    The wrench and label fields describe the most recent resolved step; they
    start empty and are refreshed by each step.
    """

    polygon: PolygonModel
    object_pose: PlanarPose
    hand_pose: PlanarPose
    hand: HandModel
    world: WorldModel
    mass: float
    com: np.ndarray                      # object frame, m
    mu_hand: float
    mu_ground: float
    mu_wall: float
    stiffness: np.ndarray                # diagonal of K: (N/m, N/m, N*m/rad)
    t_index: int = 0
    hand_wrench: Optional[Wrench2] = None       # on object, about hand center
    env_wrench: Optional[Wrench2] = None        # ground+wall on object, about hand center
    contact_label: Optional[dict] = None        # resolved mode of the last step

    def __post_init__(self):
        # plain comparisons, false for NaN: with_poses runs this per trial
        com = np.asarray(self.com, dtype=float).copy()
        if not all(-math.inf < v < math.inf for v in com.tolist()):
            raise ValueError("com must be finite")
        com.flags.writeable = False
        object.__setattr__(self, "com", com)
        k = np.asarray(self.stiffness, dtype=float).copy()
        if k.shape != (3,) or not all(0 < v < math.inf for v in k.tolist()):
            raise ValueError("stiffness must be 3 positive finite diagonal "
                             "entries")
        k.flags.writeable = False
        object.__setattr__(self, "stiffness", k)
        if not 0 < self.mass < math.inf:
            raise ValueError("mass must be positive and finite")
        if not all(0 <= mu < math.inf
                   for mu in (self.mu_hand, self.mu_ground, self.mu_wall)):
            raise ValueError("friction coefficients must be non-negative "
                             "and finite")

    # -- derived geometry ---------------------------------------------------

    def vertices_world(self) -> np.ndarray:
        R = self.object_pose.rotation
        return self.polygon.vertices @ R.T + self.object_pose.position

    def hand_tangent(self) -> np.ndarray:
        return hand_tangent(self.hand_pose.angle)

    def hand_normal(self) -> np.ndarray:
        return hand_normal(self.hand_pose.angle)

    def hand_tips(self) -> tuple:
        t = self.hand_tangent()
        c = self.hand_pose.position
        return c - self.hand.half_length * t, c + self.hand.half_length * t

    def ground_gaps(self) -> np.ndarray:
        return self.vertices_world()[:, 1] - self.world.ground_height

    def wall_gaps(self, wall_index: int) -> np.ndarray:
        wall = self.world.walls[wall_index]
        return wall.facing * (self.vertices_world()[:, 0] - wall.x)

    def hand_gaps(self) -> np.ndarray:
        """Signed distance of each vertex from the hand line, palm side positive."""
        rel = self.vertices_world() - self.hand_pose.position
        return rel @ self.hand_normal()

    def hand_tangential(self) -> np.ndarray:
        rel = self.vertices_world() - self.hand_pose.position
        return rel @ self.hand_tangent()

    def with_poses(self, object_pose: PlanarPose, hand_pose: PlanarPose,
                   **extra) -> "SimWorld":
        return replace(self, object_pose=object_pose, hand_pose=hand_pose, **extra)

    # -- invariant checks ---------------------------------------------------

    def penetration_depth(self) -> float:
        """Worst constraint violation in meters (negative means penetration)."""
        worst = float(self.ground_gaps().min())
        for k in range(len(self.world.walls)):
            worst = min(worst, float(self.wall_gaps(k).min()))
        # Hand line counts only where vertices are within the segment extent.
        tang = self.hand_tangential()
        gaps = self.hand_gaps()
        inside = np.abs(tang) <= self.hand.half_length + 1e-9
        if np.any(inside):
            worst = min(worst, float(gaps[inside].min()))
        return worst
