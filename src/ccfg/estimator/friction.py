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
force, so a noise-free run still tests against a nonzero threshold. The value
is frozen and serialized with the constraints: a reloaded cone has no samples
left to estimate it from.

The fit works on normalized force rays. Each buffered wrench contributes its
unit force direction; the convex hull of those rays together with the origin
is peeled by noisy_convex_hull, and the two hull edges meeting at the origin
become the force-plane facets of the cone wedge. Torque is bounded by the
extreme observed ratios of scaled torque to force magnitude, tilted along the
mean force direction so the bound grows with load like a proper cone facet.
"""

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from ..config import FrictionEstConfig
from ..core import Wrench2, noisy_convex_hull
from ..errors import NotReady, TooFewPoints

# Forces below this carry no usable direction and are skipped by the fit.
RAY_FORCE_EPS = 1e-9
# Rays handed to the hull are thinned to this many angular bins so a refit
# stays cheap no matter how full the sample buffer is.
MAX_HULL_RAYS = 64
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

    @staticmethod
    def from_json(d: dict) -> "ConeConstraint":
        return ConeConstraint(np.asarray(d["normal"], dtype=float),
                              float(d["offset"]))


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

    def to_json(self) -> dict:
        return {"context": self.context,
                "scale_length": float(self.scale_length),
                "frozen": self.frozen,
                "sample_count": self.sample_count,
                "noise_sigma": float(self.noise_sigma),
                "constraints": [c.to_json() for c in self.constraints]}

    @staticmethod
    def from_json(d: dict) -> "WrenchConeEstimate":
        return WrenchConeEstimate(
            context=d["context"],
            scale_length=float(d["scale_length"]),
            constraints=tuple(ConeConstraint.from_json(c)
                              for c in d["constraints"]),
            frozen=bool(d["frozen"]),
            sample_count=int(d["sample_count"]),
            noise_sigma=float(d["noise_sigma"]))


def new_cone_estimate(context: str, scale_length: float) -> WrenchConeEstimate:
    if scale_length <= 0:
        raise ValueError("scale_length must be positive")
    return WrenchConeEstimate(context=context, scale_length=scale_length)


def _scaled(est: WrenchConeEstimate, w: Wrench2) -> np.ndarray:
    return np.array([w.force[0], w.force[1], w.torque / est.scale_length])


def ingest(est: WrenchConeEstimate, w_meas: Wrench2, context: str,
           external_contact_allowed: bool,
           config: Optional[FrictionEstConfig] = None) -> WrenchConeEstimate:
    """Buffer one measured wrench and refit, or freeze the estimate.

    Learning only makes sense while the measured wrench is pure interface
    friction, so the first call with external_contact_allowed=True freezes
    the estimate; every later call returns it untouched.
    """
    cfg = config or FrictionEstConfig()
    if est.frozen:
        return est
    if external_contact_allowed:
        return replace(est, frozen=True)

    w = _scaled(est, w_meas)
    if not np.all(np.isfinite(w)):
        raise ValueError("measured wrench must be finite")
    buf = np.vstack([est.samples, w[None, :]])[-cfg.buffer_size:]
    count = est.sample_count + 1
    if count < cfg.min_samples:
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


def violation_threshold(est: WrenchConeEstimate,
                        config: Optional[FrictionEstConfig] = None) -> float:
    """Violation, in Newtons, above which a measured wrench has significantly
    left the cone: violation_sigma_factor * noise_sigma."""
    cfg = config or FrictionEstConfig()
    return cfg.violation_sigma_factor * est.noise_sigma


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


def _thin_rays(rays: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """At most two rays per angular bin, keeping each bin's extremes.

    The global angular extremes survive thinning exactly, so the fitted wedge
    is the same as from the full ray set; the hull peel just runs on a
    buffer-size-independent point count.
    """
    if len(rays) <= MAX_HULL_RAYS:
        return rays
    lo, hi = float(angles.min()), float(angles.max())
    if hi - lo < 1e-12:
        return rays[:1]
    bins = np.minimum((MAX_HULL_RAYS * (angles - lo) / (hi - lo)).astype(int),
                      MAX_HULL_RAYS - 1)
    # Stable sorts by bin, then angle up (down): each bin's first entry is
    # its least (greatest) angle, at the lowest index among ties.
    up = np.lexsort((angles, bins))
    down = np.lexsort((-angles, bins))
    sorted_bins = bins[up]
    first = np.flatnonzero(np.r_[True, sorted_bins[1:] != sorted_bins[:-1]])
    return rays[np.union1d(up[first], down[first])]


def _extreme_rays(rays: np.ndarray, angles: np.ndarray):
    """The two edge directions of the wedge spanned by unit force rays.

    Primary path: peeled hull of the (thinned) rays plus the origin; the hull
    vertices adjacent to the origin are the wedge edges, robust to stray
    outlier rays. Falls back to plain angular extremes when the hull
    degenerates (too few distinct rays, or origin swallowed).
    """
    pts = np.vstack([_thin_rays(rays, angles), [[0.0, 0.0]]])
    try:
        ring = noisy_convex_hull(pts)
    except TooFewPoints:
        ring = None
    if ring is not None and len(ring) >= 3:
        i0 = int(np.argmin(np.hypot(ring[:, 0], ring[:, 1])))
        if np.hypot(*ring[i0]) < 0.5:
            lo = ring[(i0 + 1) % len(ring)]
            hi = ring[(i0 - 1) % len(ring)]
            return lo / np.linalg.norm(lo), hi / np.linalg.norm(hi)

    return rays[int(np.argmin(angles))], rays[int(np.argmax(angles))]


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

    lo, hi = _extreme_rays(rays, angles)
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
