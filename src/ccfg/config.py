"""Tunable defaults for the simulator, the factor-graph solver, the wrench-cone
estimator and the contact classifier.

Every constant that shapes runtime behavior lives here, one home per setting,
so tests can pin them explicitly.
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
class SimConfig:
    dt: float = 0.01                 # s per step
    activation_band: float = 1e-3    # m; contacts closer than this are candidates
    force_bound: float = 1e5         # N; beyond this a mode counts as jammed
    balance_tol: float = 1e-6        # N / N*m residual allowed in statics
    comp_tol: float = 1e-8           # complementarity tolerance


@dataclass(frozen=True)
class SolverOptions:
    max_iter: int = 25
    lambda0: float = 1e-4
    lambda_up: float = 10.0
    lambda_down: float = 10.0
    cost_tol: float = 1e-10    # relative cost decrease
    step_tol: float = 1e-12    # step infinity-norm


@dataclass(frozen=True)
class EstimatorConfig:
    horizon: int = 50              # active time-indexed frames in the window


@dataclass(frozen=True)
class ClassifierConfig:
    force_threshold: float = 2.5     # N; below this the hand is not in contact
    delta_edge: float = 5e-3         # m; COP-to-hand-endpoint band
    delta_vert: float = 8e-3         # m; COP-to-projected-vertex band
    delta_lowest: float = 5e-3       # m; strictly-lowest-vertex margin
    cop_interior_frac: float = 0.10  # fraction of edge length for flush COP margin
    hysteresis_frames: int = 3       # consecutive frames before a label switches
    history_frames: int = 20         # buffer for flush-vs-point likelihood
    feasibility_frames: int = 10     # frames in the kinematic feasibility fit
    slip_speed_tol: float = 1e-4     # m/s below which contacts count as sticking
    cop_sigma: float = 2e-3          # m; expected COP measurement scatter
    slip_boundary_band: float = 0.3  # N; cone-boundary proximity for slip labels


@dataclass(frozen=True)
class FrictionEstConfig:
    buffer_size: int = 2000
    min_samples: int = 20
    # Wall test fires above b_j + factor * sigma_F, where sigma_F is the
    # estimate's noise_sigma: the robust successive-difference noise scale of
    # the buffered ground-phase wrenches (friction.violation_threshold).
    violation_sigma_factor: float = 3.0
