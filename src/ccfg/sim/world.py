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

    hand_wrench and contact_mode (a ContactModeHypothesis) describe the last
    resolved step and are None before it; contact_label is its to_json().
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
    contact_mode: Optional[object] = None       # ContactModeHypothesis of the last step

    def __post_init__(self):
        # plain comparisons, false for NaN: with_poses runs this per step
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

    @property
    def contact_label(self) -> Optional[dict]:
        return self.contact_mode and self.contact_mode.to_json()

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

    def with_poses(self, object_pose: PlanarPose, hand_pose: PlanarPose,
                   **extra) -> "SimWorld":
        return replace(self, object_pose=object_pose, hand_pose=hand_pose, **extra)

    # -- invariant checks ---------------------------------------------------

    def penetration_depth(self) -> float:
        """Worst constraint violation in meters (negative means penetration)."""
        return penetration_depth(self, self.object_pose, self.hand_pose)


def penetration_depth(sw: SimWorld, object_pose: PlanarPose,
                      hand_pose: PlanarPose) -> float:
    """SimWorld.penetration_depth of sw's bodies at the given poses."""
    verts = sw.polygon.vertices @ object_pose.rotation.T + object_pose.position
    worst = float((verts[:, 1] - sw.world.ground_height).min())
    for wall in sw.world.walls:
        worst = min(worst, float((wall.facing * (verts[:, 0] - wall.x)).min()))
    # Hand line counts only where vertices are within the segment extent.
    rel = verts - hand_pose.position
    tang, gaps = rel @ hand_tangent(hand_pose.angle), rel @ hand_normal(
        hand_pose.angle)
    inside = np.abs(tang) <= sw.hand.half_length + 1e-9
    if np.any(inside):
        worst = min(worst, float(gaps[inside].min()))
    return worst
