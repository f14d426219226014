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

Both fits are functions of the whole ring buffer, yet ingest does not
recompute them from it. Each estimate carries a fit state (_FitState) that
describes its buffer:
- the unit force ray and torque ratio of every buffered sample whose force
  exceeds RAY_FORCE_EPS, in buffer order, and the running sum of those rays;
- the buffered force magnitudes, sorted;
- the three components of |dw| between consecutive samples, each sorted.
The sorted values sit in array.array("d"), which bisect searches and whose
copy moves 8 bytes per value and touches no Python object.
Ingesting a sample derives the next state from the current one: it computes
the new sample's quantities, inserts them, and removes those of the sample
the ring buffer evicts. Every kept quantity is the one a refit of the buffer
would compute, bit for bit, so the fitted constraints and noise_sigma are too:
- a ray, a ratio, a magnitude and a |dw| depend on one or two samples only,
  and come from the same IEEE operations as they would in a refit: Python
  float +, -, / and abs round as numpy's do, and magnitudes stay np.hypot's
  (math.hypot rounds differently);
- numpy's axis-0 mean of an (m, 2) array adds the rows in order to a zero
  start and divides by m, so the running sum plus the new ray is that sum.
  When the evicted sample held a ray, the rays are summed again instead,
  since subtracting a ray is not exact;
- np.median partitions and returns the middle element, or the mean (a + b) / 2
  of the two middle ones, which a sorted array gives directly. All sorted
  values are non-negative, so equal values have equal bits.
Every ingest still recomputes what depends on the mean direction (the angle
of every ray, hence the wedge edges, and the facet normals) and the extreme
torque ratios. tests/test_friction.py replays random streams against a full
refit of the buffer and requires equal bits after every ingest.

The state is copy-on-write: ingest copies what it changes, so the estimate
it was given stays valid and can be ingested into again. An estimate built
directly, or given new samples through dataclasses.replace, carries no state
for its buffer; ingest then builds the state from samples first.
"""

import math
from array import array
from bisect import bisect_left, insort
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional

import numpy as np

from ..config import FrictionEstConfig
from ..core import Wrench2
from ..errors import NotReady

# Nothing here calls it; the traced pass of perfbench/tracing.py still wraps
# and rebinds this name.
noisy_convex_hull = None

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


class _FitState(NamedTuple):
    """What the fits read from one ring buffer, kept between ingests.

    Never mutated: ingest copies the arrays before it changes them.
    """

    samples: np.ndarray   # (n, 3) the buffer described
    rays: np.ndarray      # (m, 2) unit force rays of samples above the eps
    ratios: np.ndarray    # (m,) their scaled torque over force magnitude
    ray_sum: tuple        # the two components of the rays' sum
    mags: array           # n force magnitudes, sorted
    diffs: tuple          # 3 arrays of n - 1 |dw| components, each sorted


def _fit_state(buf: np.ndarray) -> _FitState:
    """The state of buffer buf, computed from all of it."""
    mags = np.hypot(buf[:, 0], buf[:, 1])
    keep = mags > RAY_FORCE_EPS
    rays = buf[keep, :2] / mags[keep, None]
    diffs = np.sort(np.abs(np.diff(buf, axis=0)), axis=0)
    return _FitState(buf, rays, buf[keep, 2] / mags[keep],
                     tuple(rays.sum(axis=0).tolist()),
                     array("d", np.sort(mags).tolist()),
                     tuple(array("d", d) for d in diffs.T.tolist()))


def _push(fit: _FitState, w: np.ndarray) -> _FitState:
    """The state of fit's buffer with w appended, evicting the oldest sample
    once the buffer holds BUFFER_SIZE."""
    buf, rays, ratios, ray_sum, mags, diffs = fit
    mags = mags[:]
    diffs = tuple(d[:] for d in diffs)
    if len(buf) >= BUFFER_SIZE:
        (x0, y0, t0), (x1, y1, t1) = buf[:2].tolist()
        old_mag = float(np.hypot(x0, y0))
        del mags[bisect_left(mags, old_mag)]
        for d, v in zip(diffs, (abs(x1 - x0), abs(y1 - y0), abs(t1 - t0))):
            del d[bisect_left(d, v)]
        if old_mag > RAY_FORCE_EPS:
            # fresh arrays, laid out as a refit's would be
            rays, ratios, ray_sum = rays[1:].copy(), ratios[1:].copy(), None
        buf = buf[1:]
    x, y, t = w.tolist()
    mag = float(np.hypot(x, y))
    insort(mags, mag)
    if len(buf):
        xp, yp, tp = buf[-1].tolist()
        for d, v in zip(diffs, (abs(x - xp), abs(y - yp), abs(t - tp))):
            insort(d, v)
    if mag > RAY_FORCE_EPS:
        rx, ry = x / mag, y / mag
        rays = np.concatenate((rays, [[rx, ry]]))
        ratios = np.concatenate((ratios, [t / mag]))
        if ray_sum is not None:
            ray_sum = (ray_sum[0] + rx, ray_sum[1] + ry)
    if ray_sum is None:
        ray_sum = tuple(rays.sum(axis=0).tolist())
    return _FitState(np.concatenate((buf, w[None, :])), rays, ratios, ray_sum,
                     mags, diffs)


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
    # ingest's fit state; it describes samples only if its own samples is
    # that same array
    _fit: Optional[_FitState] = field(default=None, repr=False,
                                      compare=False)

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
    the estimate; every later call returns it untouched. context must be the
    estimate's own.
    """
    if context != est.context:
        raise ValueError(f"ingest context {context!r} differs from the "
                         f"estimate's {est.context!r}")
    if est.frozen:
        return est
    if external_contact_allowed:
        return replace(est, frozen=True)

    w = _scaled(est, w_meas)
    if not np.isfinite(w).all():
        raise ValueError("measured wrench must be finite")
    fit = est._fit
    if fit is None or fit.samples is not est.samples:
        fit = _fit_state(est.samples[-BUFFER_SIZE:])
    fit = _push(fit, w)
    count = est.sample_count + 1
    if count < MIN_SAMPLES:
        cons, sigma = (), 0.0
    else:
        cons, sigma = _fit_cone(fit), _noise_sigma(fit)
    return replace(est, samples=fit.samples, sample_count=count,
                   constraints=cons, noise_sigma=sigma, _fit=fit)


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


def _median(s: array) -> float:
    """np.median of the values in the sorted array s."""
    k = len(s) // 2
    return s[k] if len(s) % 2 else (s[k - 1] + s[k]) / 2.0


def _noise_sigma(fit: _FitState) -> float:
    """Robust noise scale of a buffer of consecutive scaled wrenches.

    Successive differences cancel the slowly varying true wrench, leaving
    sqrt(2) times the noise; the median absolute difference makes the
    estimate blind to the few jumps where the load itself changes.
    """
    floor = NOISE_FLOOR_REL * _median(fit.mags)
    if len(fit.mags) < 2:
        return floor
    sigma = MAD_TO_SIGMA * max(_median(d) for d in fit.diffs) / np.sqrt(2.0)
    return max(sigma, floor)


def _unit(v: np.ndarray) -> np.ndarray:
    """v / np.linalg.norm(v) for a contiguous float vector, without norm's
    argument handling; norm computes sqrt(v.dot(v))."""
    return v / math.sqrt(v.dot(v))


def _fit_cone(fit: _FitState) -> tuple:
    rays = fit.rays
    if len(rays) < 2:
        return ()
    # numpy's rays.mean(axis=0) is the in-order sum over the row count
    mx, my = (v / len(rays) for v in fit.ray_sum)
    nm = float(np.hypot(mx, my))
    if nm < 1e-12:
        # rays cancel out; no single wedge describes them
        return ()
    mx, my = mx / nm, my / nm
    angles = np.arctan2(mx * rays[:, 1] - my * rays[:, 0],
                        rays @ np.array([mx, my]))

    # F / hypot is a unit vector only up to rounding
    lo = _unit(rays[angles.argmin()]).tolist()
    hi = _unit(rays[angles.argmax()]).tolist()
    t_hi = float(fit.ratios.max())
    t_lo = float(fit.ratios.min())
    return (
        # force direction must stay counterclockwise of the lower edge...
        ConeConstraint(np.array([lo[1], -lo[0], 0.0])),
        # ...and clockwise of the upper edge
        ConeConstraint(np.array([-hi[1], hi[0], 0.0])),
        ConeConstraint(_unit(np.array([-t_hi * mx, -t_hi * my, 1.0]))),
        ConeConstraint(_unit(np.array([t_lo * mx, t_lo * my, -1.0]))),
    )
