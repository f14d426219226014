"""One quasi-static timestep: resolve the mode, advance, synthesize sensors."""

from typing import Optional, Union

import numpy as np

from ..config import ZERO_NOISE, NoiseConfig
from ..core import PlanarPose
from ..core.mechanics import friction_complementarity_residual
from ..errors import InvariantViolation
from .measure import synthesize_measurements
from .resolve import PENETRATION_TOL, ModeSolution, resolve_mode
from .world import SimWorld

DT = 0.01             # s per step
BALANCE_TOL = 1e-6    # N / N*m residual allowed in statics
COMP_TOL = 1e-8       # complementarity tolerance


def step(sw: SimWorld, impedance_target: PlanarPose,
         rng: Union[int, np.random.Generator, None] = None,
         noise: Optional[NoiseConfig] = None):
    """Advance the plant by one impedance command of DT seconds.

    Returns the new state and its measurement frame, which carries vision
    every noise.vision_period steps (ZERO_NOISE when noise is None).  The
    returned state satisfies static balance to 1e-6, friction
    complementarity to 1e-8 and penetrates nothing deeper than 1e-9; a
    resolved step that does not raises InvariantViolation.
    """
    if noise is None:
        noise = ZERO_NOISE
    depth = sw.penetration_depth()
    if depth < -PENETRATION_TOL:
        raise ValueError(f"current state penetrates by {-depth:g} m; "
                         "step requires a non-penetrating state")
    sol = resolve_mode(sw, impedance_target)
    new_world = sw.with_poses(
        sol.object_pose, sol.hand_pose,
        t_index=sw.t_index + 1,
        hand_wrench=sol.hand_wrench,
        contact_mode=sol.hypothesis,
    )
    _check_invariants(sw, sol, new_world)

    frame = synthesize_measurements(new_world, rng, noise,
                                    noise.vision_period, DT)
    return new_world, frame


def _check_invariants(sw: SimWorld, sol: ModeSolution,
                      new_world: SimWorld) -> None:
    """Raise InvariantViolation unless the resolved step balances, keeps
    every contact force in its friction cone, saturates friction where it
    slides and penetrates nothing."""
    failed = []
    if sol.residual_norm > BALANCE_TOL:
        failed.append(("balance", f"balance residual {sol.residual_norm:g} "
                                  f"above {BALANCE_TOL:g}"))
    cone = comp = 0.0
    for c in sol.contacts:
        r = friction_complementarity_residual(
            c.f_normal, c.f_tangent, -c.slip / DT, mu=_mu_for(sw, c.iface))
        cone = max(cone, r.cone_violation)
        if r.cone_violation > 1e-6 + 1e-6 * abs(c.f_normal):
            failed.append(("cone", f"cone violated at {c.iface}: "
                                   f"{r.cone_violation:g} N"))
        if c.label.startswith("slide"):
            comp = max(comp, r.comp_violation)
            if r.comp_violation > COMP_TOL:
                failed.append(("complementarity",
                               f"complementarity violated at {c.iface}: "
                               f"{r.comp_violation:g}"))
    depth = new_world.penetration_depth()
    if depth < -PENETRATION_TOL:
        failed.append(("penetration", f"penetrates by {-depth:g} m"))
    if failed:
        invariant, message = failed[0]
        raise InvariantViolation(message, invariant, {
            "balance": sol.residual_norm, "cone": cone,
            "complementarity": comp, "penetration": depth})


def _mu_for(sw: SimWorld, iface: str) -> float:
    if iface == "hand":
        return sw.mu_hand
    if iface == "ground":
        return sw.mu_ground
    return sw.mu_wall
