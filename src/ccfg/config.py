"""The settings that more than one caller sets or reads.

NoiseConfig is set per run: the benchmark runs two noise levels.
EstimatorConfig.horizon and FrictionEstConfig.violation_sigma_factor are
read both by the program and by the benchmark, which shares their values
from here. Every other tunable is a constant in the one module that reads
it, next to that module's other constants.
"""

import math
from dataclasses import dataclass, replace


_SIGMAS = ("sigma_force", "sigma_torque", "sigma_hand_pos",
           "sigma_hand_angle", "sigma_vision")


@dataclass(frozen=True)
class NoiseConfig:
    """Measurement noise, all standard deviations of zero-mean Gaussians."""

    sigma_force: float = 0.1        # N, per force component
    sigma_torque: float = 0.01      # N*m
    sigma_hand_pos: float = 1e-4    # m, hand proprioception
    sigma_hand_angle: float = 1e-4  # rad
    sigma_vision: float = 5e-3      # m, per vertex coordinate
    vision_period: int = 10         # steps between vision frames

    def __post_init__(self):
        # plain comparisons, false for NaN, as in Wall and HandModel
        if not all(0 <= getattr(self, f) < math.inf for f in _SIGMAS):
            raise ValueError("noise sigmas must be non-negative and finite")
        if not isinstance(self.vision_period, int) or self.vision_period < 0:
            raise ValueError("vision_period must be a non-negative int")

    def scaled(self, factor: float) -> "NoiseConfig":
        return replace(self, **{f: getattr(self, f) * factor for f in _SIGMAS})


ZERO_NOISE = NoiseConfig(0.0, 0.0, 0.0, 0.0, 0.0, 10)


@dataclass(frozen=True)
class EstimatorConfig:
    horizon: int = 50              # active time-indexed frames in the window


@dataclass(frozen=True)
class FrictionEstConfig:
    # Wall test fires above b_j + factor * sigma_F, where sigma_F is the
    # estimate's noise_sigma: the robust successive-difference noise scale of
    # the buffered ground-phase wrenches (friction.violation_threshold).
    violation_sigma_factor: float = 3.0
