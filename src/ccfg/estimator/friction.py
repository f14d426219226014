"""Online wrench-cone estimation for the hand and ground interfaces.

Contact wrenches measured while nothing but the ground touches the object
trace out the friction cone of their interface. This module fits that cone as
a small set of homogeneous half-space constraints n . w <= b in a scaled
wrench space (f_x, f_y, tau / l) and checks later measurements against it; a
significant violation is how wall contact gets noticed, so once walls become
possible the estimate is frozen and never moves again.

A violation is significant, and signals new external contact such as a wall,
when it exceeds violation_threshold: FrictionEstConfig.violation_sigma_factor
times the estimate's noise_sigma. noise_sigma is fit from the same buffer as
the constraints, as the robust successive-difference scale
1.4826 * median|dw| / sqrt(2) of each scaled wrench component, taking the
largest component. Facet normals are unit vectors, so it bounds the noise of
every facet reading. It is floored at NOISE_FLOOR_REL of the median buffered
force, so a noise-free run still tests against a nonzero threshold. Freezing
the estimate freezes noise_sigma with the constraints, so the wall test keeps
the scale of the ground phase it was fit in.

The fit works on normalized force rays. Each buffered wrench contributes its
unit force direction, measured as an angle from the mean direction; the two
angular extremes are the edges of the cone wedge and become its force-plane
facets. Torque is bounded by the extreme observed ratios of scaled torque to
force magnitude, tilted along the mean force direction so the bound grows
with load like a proper cone facet.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ..config import FrictionEstConfig
# noisy_convex_hull is unused here; perfbench/tracing.py rebinds it by name
from ..core import Wrench2, noisy_convex_hull  # noqa: F401
from ..errors import NotReady

# Ring buffer of scaled wrenches the cone is fit from, and the lifetime
# sample count before the first fit.
BUFFER_SIZE = 2000
MIN_SAMPLES = 20
# Forces below this carry no usable direction and are skipped by the fit.
RAY_FORCE_EPS = 1e-9
# Floor on noise_sigma as a fraction of the median buffered force magnitude;
# keeps the wall test above the simulator's own numerical error.
NOISE_FLOOR_REL = 1e-5
# Consistency factor of the median absolute deviation for Gaussian noise.
MAD_TO_SIGMA = 1.4826


@dataclass(frozen=True)
class ConeConstraint:
    """One facet n . w <= offset of a wrench cone, with unit normal n."""

    normal: np.ndarray  # (3,) in (f_x, f_y, tau / scale_length) coordinates
    offset: float = 0.0

    def to_json(self) -> dict:
        return {"normal": [float(v) for v in self.normal],
                "offset": float(self.offset)}


@dataclass(frozen=True)
class ViolationReport:
    max_violation: float   # N-equivalent; positive means outside the cone
    violating_index: int


def _empty_buffer() -> np.ndarray:
    return np.zeros((0, 3))


@dataclass(frozen=True)
class WrenchConeEstimate:
    """Fitted wrench cone of one contact interface (hand or ground).

    samples is the ring buffer of scaled wrenches the current constraints were
    fit from; sample_count is the lifetime number ingested while unfrozen.
    noise_sigma is the measurement noise scale fit from the same buffer, in
    N-equivalent. An estimate with no constraints is not ready yet.
    """

    context: str
    scale_length: float
    constraints: tuple = ()
    frozen: bool = False
    sample_count: int = 0
    samples: np.ndarray = field(default_factory=_empty_buffer)
    noise_sigma: float = 0.0

    @property
    def ready(self) -> bool:
        return len(self.constraints) > 0


def new_cone_estimate(context: str, scale_length: float) -> WrenchConeEstimate:
    if not 0 < scale_length < math.inf:
        raise ValueError("scale_length must be positive and finite")
    return WrenchConeEstimate(context=context, scale_length=scale_length)


def _scaled(est: WrenchConeEstimate, w: Wrench2) -> np.ndarray:
    return np.array([w.force[0], w.force[1], w.torque / est.scale_length])


def ingest(est: WrenchConeEstimate, w_meas: Wrench2, context: str,
           external_contact_allowed: bool) -> WrenchConeEstimate:
    """Buffer one measured wrench and refit, or freeze the estimate.

    Learning only makes sense while the measured wrench is pure interface
    friction, so the first call with external_contact_allowed=True freezes
    the estimate; every later call returns it untouched.
    """
    if est.frozen:
        return est
    if external_contact_allowed:
        return replace(est, frozen=True)

    w = _scaled(est, w_meas)
    if not np.all(np.isfinite(w)):
        raise ValueError("measured wrench must be finite")
    buf = np.vstack([est.samples, w[None, :]])[-BUFFER_SIZE:]
    count = est.sample_count + 1
    if count < MIN_SAMPLES:
        cons, sigma = (), 0.0
    else:
        cons, sigma = _fit_cone(buf), _noise_sigma(buf)
    return replace(est, context=context, samples=buf, sample_count=count,
                   constraints=cons, noise_sigma=sigma)


def check_violation(est: WrenchConeEstimate, w_meas: Wrench2) -> ViolationReport:
    """Worst constraint violation of a measured wrench, in Newtons."""
    if not est.ready:
        raise NotReady(f"{est.context or 'wrench'} cone has "
                       f"{est.sample_count} samples and no constraints yet")
    w = _scaled(est, w_meas)
    vals = np.array([c.normal @ w - c.offset for c in est.constraints])
    j = int(np.argmax(vals))
    return ViolationReport(max_violation=float(vals[j]), violating_index=j)


def violation_threshold(est: WrenchConeEstimate) -> float:
    """Violation, in Newtons, above which a measured wrench has significantly
    left the cone: violation_sigma_factor * noise_sigma."""
    return FrictionEstConfig().violation_sigma_factor * est.noise_sigma


def _noise_sigma(buf: np.ndarray) -> float:
    """Robust noise scale of a buffer of consecutive scaled wrenches.

    Successive differences cancel the slowly varying true wrench, leaving
    sqrt(2) times the noise; the median absolute difference makes the
    estimate blind to the few jumps where the load itself changes.
    """
    force_scale = float(np.median(np.hypot(buf[:, 0], buf[:, 1])))
    floor = NOISE_FLOOR_REL * force_scale
    if len(buf) < 2:
        return floor
    diffs = np.abs(np.diff(buf, axis=0))
    sigma = MAD_TO_SIGMA * float(np.median(diffs, axis=0).max()) / np.sqrt(2.0)
    return max(sigma, floor)


def _fit_cone(buf: np.ndarray) -> tuple:
    F = buf[:, :2]
    mags = np.hypot(F[:, 0], F[:, 1])
    keep = mags > RAY_FORCE_EPS
    if np.count_nonzero(keep) < 2:
        return ()
    rays = F[keep] / mags[keep, None]
    ratios = buf[keep, 2] / mags[keep]
    mean_dir = rays.mean(axis=0)
    nm = float(np.hypot(*mean_dir))
    if nm < 1e-12:
        # rays cancel out; no single wedge describes them
        return ()
    mean_dir = mean_dir / nm
    angles = np.arctan2(mean_dir[0] * rays[:, 1] - mean_dir[1] * rays[:, 0],
                        rays @ mean_dir)

    lo = rays[int(np.argmin(angles))]
    hi = rays[int(np.argmax(angles))]
    # F / hypot is a unit vector only up to rounding
    lo, hi = lo / np.linalg.norm(lo), hi / np.linalg.norm(hi)
    cons = [
        # force direction must stay counterclockwise of the lower edge...
        ConeConstraint(np.array([lo[1], -lo[0], 0.0])),
        # ...and clockwise of the upper edge
        ConeConstraint(np.array([-hi[1], hi[0], 0.0])),
    ]

    t_hi = float(ratios.max())
    t_lo = float(ratios.min())
    for n in (np.array([-t_hi * mean_dir[0], -t_hi * mean_dir[1], 1.0]),
              np.array([t_lo * mean_dir[0], t_lo * mean_dir[1], -1.0])):
        cons.append(ConeConstraint(n / np.linalg.norm(n)))
    return tuple(cons)
