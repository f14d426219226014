"""The settings that more than one caller sets or reads.

NoiseConfig is set per run: the benchmark runs two noise levels.
EstimatorConfig.horizon and FrictionEstConfig.violation_sigma_factor are
read both by the program and by the benchmark, which shares their values
from here. Every other tunable is a constant in the one module that reads
it, next to that module's other constants.
"""

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class NoiseConfig:
    """Measurement noise, all standard deviations of zero-mean Gaussians."""

    sigma_force: float = 0.1        # N, per force component
    sigma_torque: float = 0.01      # N*m
    sigma_hand_pos: float = 1e-4    # m, hand proprioception
    sigma_hand_angle: float = 1e-4  # rad
    sigma_vision: float = 5e-3      # m, per vertex coordinate
    vision_period: int = 10         # steps between vision frames

    def scaled(self, factor: float) -> "NoiseConfig":
        return replace(self,
                       sigma_force=self.sigma_force * factor,
                       sigma_torque=self.sigma_torque * factor,
                       sigma_hand_pos=self.sigma_hand_pos * factor,
                       sigma_hand_angle=self.sigma_hand_angle * factor,
                       sigma_vision=self.sigma_vision * factor)


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
