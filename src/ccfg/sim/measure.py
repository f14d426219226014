"""Sensor synthesis: noisy wrench, hand odometry and periodic vision."""

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ..config import ZERO_NOISE, NoiseConfig
from ..core import PlanarPose, Wrench2
from .world import SimWorld


@dataclass(frozen=True)
class MeasurementFrame:
    """Everything one timestep hands to the logs: observables plus truth."""

    t: float
    t_index: int
    hand_pose_meas: PlanarPose
    wrench_meas: Wrench2
    vision_vertices: Optional[np.ndarray]
    truth_world: SimWorld

    @property
    def truth_label(self) -> Optional[dict]:
        return self.truth_world.contact_label

    def to_json(self) -> dict:
        truth = self.truth_world
        return {
            "t": self.t,
            "t_index": self.t_index,
            "hand_pose_meas": self.hand_pose_meas.to_json(),
            "wrench_meas": self.wrench_meas.to_json(),
            "vision_vertices": None if self.vision_vertices is None
            else np.asarray(self.vision_vertices).tolist(),
            "truth": {
                "object_pose": truth.object_pose.to_json(),
                "hand_pose": truth.hand_pose.to_json(),
                "label": self.truth_label,
            },
        }


@dataclass(frozen=True)
class Observation:
    """The estimator-facing view of a frame: observables only, no truth."""

    t: float
    t_index: int
    hand_pose: PlanarPose
    wrench: Wrench2
    vision_vertices: Optional[np.ndarray]

    @classmethod
    def from_frame(cls, frame: MeasurementFrame) -> "Observation":
        return cls(t=frame.t, t_index=frame.t_index,
                   hand_pose=frame.hand_pose_meas, wrench=frame.wrench_meas,
                   vision_vertices=frame.vision_vertices)


def synthesize_measurements(sw: SimWorld,
                            rng: Union[int, np.random.Generator, None],
                            noise: Optional[NoiseConfig] = None,
                            vision_period: int = 10,
                            dt: float = 0.01) -> MeasurementFrame:
    """Noisy sensors for the current state.

    ``rng`` may be a seed or a live generator; passing the same seed for the
    same state always yields the identical frame.  Draw order is fixed:
    force (2), torque (1), hand position (2), hand angle (1), then vision
    vertex coordinates on vision frames only.
    """
    if noise is None:
        noise = ZERO_NOISE
    gen = rng if isinstance(rng, np.random.Generator) \
        else np.random.default_rng(rng)

    truth_wrench = sw.hand_wrench
    if truth_wrench is None:
        truth_wrench = Wrench2(np.zeros(2), 0.0, sw.hand_pose.position)

    force = truth_wrench.force + gen.normal(0.0, 1.0, 2) * noise.sigma_force
    torque = truth_wrench.torque + gen.normal(0.0, 1.0) * noise.sigma_torque
    pos = sw.hand_pose.position + gen.normal(0.0, 1.0, 2) * noise.sigma_hand_pos
    angle = sw.hand_pose.angle + gen.normal(0.0, 1.0) * noise.sigma_hand_angle
    hand_meas = PlanarPose(pos, angle)
    wrench_meas = Wrench2(force, float(torque), truth_wrench.reference)

    vision = None
    if vision_period > 0 and sw.t_index % vision_period == 0:
        verts = sw.vertices_world()
        vision = verts + gen.normal(0.0, 1.0, verts.shape) * noise.sigma_vision

    return MeasurementFrame(
        t=sw.t_index * dt,
        t_index=sw.t_index,
        hand_pose_meas=hand_meas,
        wrench_meas=wrench_meas,
        vision_vertices=vision,
        truth_world=sw,
    )
