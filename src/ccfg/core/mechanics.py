"""Friction complementarity residual of one contact."""

import math
from typing import NamedTuple

from ..errors import NegativeNormalForce

NORMAL_FORCE_TOL = 1e-9


class FrictionResidual(NamedTuple):
    cone_violation: float       # N; how far |f_t| exceeds the friction cone
    comp_violation: float       # N*m/s; sliding while friction is off the cone edge


def friction_complementarity_residual(f_n: float, f_t: float, v_slide: float,
                                      mu: float) -> FrictionResidual:
    """Residuals of the Coulomb friction complementarity conditions.

    Both residuals are zero exactly when the contact obeys Coulomb friction:
    the tangential force lies inside the cone, and any nonzero sliding happens
    with the friction force saturated on the cone edge that matches the slip
    direction. f_n < 0 (a separating contact) is a caller error.
    """
    if f_n < -NORMAL_FORCE_TOL:
        raise NegativeNormalForce(f"normal force {f_n} N is separating")
    f_n = max(f_n, 0.0)
    cone = max(0.0, abs(f_t) - mu * f_n)
    # While sliding, friction must sit on the cone edge opposing relative slip,
    # i.e. f_t = mu * f_n * sign(v_slide) in this sign convention. Clipping at
    # zero avoids double-counting configurations already outside the cone.
    if v_slide == 0.0:
        comp = 0.0
    else:
        comp = abs(v_slide) * max(0.0, mu * f_n - f_t * math.copysign(1.0, v_slide))
    return FrictionResidual(cone, comp)
