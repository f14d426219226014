"""Wrench-cone estimation: fitting, freezing, violation checks."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccfg.core import Wrench2
from ccfg.errors import NotReady
from ccfg.estimator import (ConeConstraint, WrenchConeEstimate,
                            check_violation, ingest, new_cone_estimate,
                            violation_threshold)
from ccfg.estimator.friction import (BUFFER_SIZE, MAD_TO_SIGMA, MIN_SAMPLES,
                                    NOISE_FLOOR_REL, RAY_FORCE_EPS)

SCALE = 0.05  # m, hand half-length used as the torque normalizer


def cone_wrenches(rng, n, mu, sigma_force=0.0, sigma_torque=0.0):
    """Wrenches from a ground-style friction cone about +y with COP on the
    patch, optionally corrupted by sensor noise."""
    fn = rng.uniform(2.0, 8.0, size=n)
    ft = rng.uniform(-mu, mu, size=n) * fn
    cop = rng.uniform(-SCALE, SCALE, size=n)
    force = np.stack([ft, fn], axis=1) + rng.normal(0.0, sigma_force, (n, 2))
    tau = cop * fn + rng.normal(0.0, sigma_torque, n)
    return [Wrench2(force[i], tau[i]) for i in range(n)]


def fit_from(wrenches):
    est = new_cone_estimate("ground", SCALE)
    for w in wrenches:
        est = ingest(est, w, "ground", external_contact_allowed=False)
    return est


def force_facet_rays(est):
    """Edge directions of the fitted force-plane wedge.

    A facet normal determines its edge ray only up to sign; these tests all
    use cones supported on +y, so orient each ray upward.
    """
    rays = []
    for c in est.constraints:
        if abs(c.normal[2]) < 1e-12:
            r = np.array([-c.normal[1], c.normal[0]])
            rays.append(r if r[1] > 0 else -r)
    return rays


def test_frozen_ingest_is_identity():
    est = fit_from(cone_wrenches(np.random.default_rng(0), 30, 0.5))
    frozen = ingest(est, Wrench2([0.0, 5.0], 0.0), "ground", True)
    assert frozen.frozen
    # freezing keeps a positive threshold for the wall test
    assert violation_threshold(frozen) > 0
    again = ingest(frozen, Wrench2([50.0, -3.0], 2.0), "ground", True)
    assert again is frozen
    # the same object through any number of frozen ingests, learning or not
    third = ingest(again, Wrench2([1.0, 1.0], 0.0), "ground", False)
    assert third is frozen


def test_warmup_guard_below_twenty_samples():
    rng = np.random.default_rng(1)
    ws = cone_wrenches(rng, 19, 0.5)
    est = fit_from(ws)
    assert not est.ready
    assert est.constraints == ()
    with pytest.raises(NotReady):
        check_violation(est, Wrench2([0.0, 5.0], 0.0))
    est = ingest(est, Wrench2([0.1, 5.0], 0.0), "ground", False)
    assert est.ready
    assert est.sample_count == 20


def test_fitted_half_angle_matches_generating_cone():
    rng = np.random.default_rng(7)
    est = fit_from(cone_wrenches(rng, 500, 0.5, sigma_force=0.05))
    lo, hi = force_facet_rays(est)
    span = math.acos(float(np.clip(lo @ hi, -1.0, 1.0)))
    assert span / 2 == pytest.approx(math.atan(0.5), abs=math.radians(3.0))
    # both edges straddle the support direction symmetrically
    assert lo[1] > 0 and hi[1] > 0
    assert lo[0] * hi[0] < 0


def test_violation_sign_inside_boundary_outside():
    # handmade single-facet estimate: forces must stay left of the +y axis
    est = WrenchConeEstimate(
        context="ground", scale_length=SCALE,
        constraints=(ConeConstraint(np.array([1.0, 0.0, 0.0])),),
        sample_count=100)
    inside = check_violation(est, Wrench2([-2.0, 5.0], 0.0))
    assert inside.max_violation < 0
    boundary = check_violation(est, Wrench2([0.0, 5.0], 0.0))
    assert boundary.max_violation == pytest.approx(0.0, abs=1e-9)
    outside = check_violation(est, Wrench2([2.0, 5.0], 0.0))
    assert outside.max_violation == pytest.approx(2.0)
    assert outside.violating_index == 0


def test_lateral_push_outside_learned_cone_flags():
    rng = np.random.default_rng(3)
    est = fit_from(cone_wrenches(rng, 400, 0.5))
    # tangential ratio 0.8 exceeds the mu=0.5 wedge the samples span
    bad = check_violation(est, Wrench2([0.8 * 5.0, 5.0], 0.0))
    assert bad.max_violation > 0
    ok = check_violation(est, Wrench2([0.2 * 5.0, 5.0], 0.0))
    assert ok.max_violation < 0


def test_out_of_patch_torque_flags():
    rng = np.random.default_rng(4)
    est = fit_from(cone_wrenches(rng, 400, 0.5))
    # center of pressure 5 patch-lengths off the physical contact
    bad = check_violation(est, Wrench2([0.0, 5.0], 5.0 * SCALE * 5.0))
    assert bad.max_violation > 0


def test_in_cone_samples_within_noise_bound():
    sigma_f = 0.1
    rng = np.random.default_rng(11)
    ws = cone_wrenches(rng, 800, 0.5, sigma_force=sigma_f, sigma_torque=0.01)
    est = fit_from(ws)
    violations = np.array([check_violation(est, w).max_violation for w in ws])
    assert np.mean(violations <= 3.0 * sigma_f) >= 0.99
    # every constraint holds for >= 95% of the samples that built it
    for j, c in enumerate(est.constraints):
        vals = est.samples @ c.normal - c.offset
        assert np.mean(vals <= 3.0 * sigma_f) >= 0.95, f"constraint {j}"


def test_ring_buffer_caps_and_counts():
    rng = np.random.default_rng(5)
    ws = cone_wrenches(rng, BUFFER_SIZE + 100, 0.3)
    est = fit_from(ws)
    assert est.samples.shape == (BUFFER_SIZE, 3)
    assert est.sample_count == BUFFER_SIZE + 100
    # the buffer keeps the newest samples
    assert est.samples[0, 0] == ws[100].force[0]


def test_freeze_before_ready_stays_not_ready():
    est = new_cone_estimate("hand", SCALE)
    est = ingest(est, Wrench2([0.0, 3.0], 0.0), "hand", False)
    est = ingest(est, Wrench2([0.0, 3.0], 0.0), "hand", True)
    assert est.frozen and not est.ready
    with pytest.raises(NotReady):
        check_violation(est, Wrench2([0.0, 3.0], 0.0))


@pytest.mark.parametrize("scale", [0.0, -SCALE, math.nan, math.inf,
                                   -math.inf])
def test_cone_rejects_scale_not_positive_and_finite(scale):
    with pytest.raises(ValueError):
        new_cone_estimate("ground", scale)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 60),
       mu=st.floats(0.05, 1.2))
def test_fit_properties_random_streams(seed, n, mu):
    rng = np.random.default_rng(seed)
    ws = cone_wrenches(rng, n, mu)
    est = fit_from(ws)
    assert len(est.constraints) in (0, 4)
    for c in est.constraints:
        assert np.linalg.norm(c.normal) == pytest.approx(1.0)
    assert est.ready == (n >= MIN_SAMPLES)
    if not est.ready:
        return
    # every ingested wrench lies inside both force facets, and each facet is
    # spanned by one ingested force ray. The torque facets are left out: they
    # are tilted along the mean force and can cut off a wrench leaning away
    # from it.
    scaled = np.array([[*w.force, w.torque / SCALE] for w in ws])
    slack = 1e-12 * np.maximum(1.0, np.linalg.norm(scaled, axis=1))
    rays = scaled[:, :2] / np.linalg.norm(scaled[:, :2], axis=1)[:, None]
    force_facets = [c for c in est.constraints if c.normal[2] == 0.0]
    assert len(force_facets) == 2
    for c in force_facets:
        assert np.all(scaled @ c.normal - c.offset <= slack)
        assert np.min(np.abs(rays @ c.normal[:2])) <= 1e-12


def reference_refit(buf):
    """The full refit of a ring buffer: (facet normals, noise_sigma).

    This is how the cone was fit before ingest kept a fit state, and the
    state must reproduce it bit for bit.
    """
    force_scale = float(np.median(np.hypot(buf[:, 0], buf[:, 1])))
    floor = NOISE_FLOOR_REL * force_scale
    if len(buf) < 2:
        sigma = floor
    else:
        diffs = np.abs(np.diff(buf, axis=0))
        sigma = MAD_TO_SIGMA * float(np.median(diffs, axis=0).max()) \
            / np.sqrt(2.0)
        sigma = max(sigma, floor)

    F = buf[:, :2]
    mags = np.hypot(F[:, 0], F[:, 1])
    keep = mags > RAY_FORCE_EPS
    if np.count_nonzero(keep) < 2:
        return [], sigma
    rays = F[keep] / mags[keep, None]
    ratios = buf[keep, 2] / mags[keep]
    mean_dir = rays.mean(axis=0)
    nm = float(np.hypot(*mean_dir))
    if nm < 1e-12:
        return [], sigma
    mean_dir = mean_dir / nm
    angles = np.arctan2(mean_dir[0] * rays[:, 1] - mean_dir[1] * rays[:, 0],
                        rays @ mean_dir)
    lo = rays[int(np.argmin(angles))]
    hi = rays[int(np.argmax(angles))]
    lo, hi = lo / np.linalg.norm(lo), hi / np.linalg.norm(hi)
    normals = [np.array([lo[1], -lo[0], 0.0]), np.array([-hi[1], hi[0], 0.0])]
    t_hi = float(ratios.max())
    t_lo = float(ratios.min())
    for n in (np.array([-t_hi * mean_dir[0], -t_hi * mean_dir[1], 1.0]),
              np.array([t_lo * mean_dir[0], t_lo * mean_dir[1], -1.0])):
        normals.append(n / np.linalg.norm(n))
    return normals, sigma


class ReferenceCone:
    """The buffer and sample count that ingest keeps, refit in full."""

    def __init__(self, samples=None, count=0):
        self.buf = np.zeros((0, 3)) if samples is None else samples
        self.count = count

    def ingest(self, w):
        row = np.array([w.force[0], w.force[1], w.torque / SCALE])
        self.buf = np.vstack([self.buf, row[None, :]])[-BUFFER_SIZE:]
        self.count += 1

    def assert_matches(self, est):
        """Equal bits: samples, each facet normal and offset, noise_sigma."""
        assert est.sample_count == self.count
        assert est.samples.shape == self.buf.shape
        assert est.samples.tobytes() == self.buf.tobytes()
        if self.count < MIN_SAMPLES:
            normals, sigma = [], 0.0
        else:
            normals, sigma = reference_refit(self.buf)
        assert len(est.constraints) == len(normals)
        for c, n in zip(est.constraints, normals):
            assert c.normal.tobytes() == n.tobytes()
            assert c.offset == 0.0
        assert type(est.noise_sigma) is type(sigma)
        assert np.float64(est.noise_sigma).tobytes() == \
            np.float64(sigma).tobytes()


def oracle_stream(rng, n, repeat=0.04):
    """Cone wrenches interleaved with the inputs that stress an incremental
    fit: forces at or below RAY_FORCE_EPS, signed zeros, and runs of one
    repeated wrench, which tie the medians of |F| and of |dw|.

    repeat is the chance that a wrench starts a run of 1-5 repeats. At 0.6
    most |dw| are zero, so noise_sigma is its floor, set by the median |F|.
    """
    base = cone_wrenches(rng, n, float(rng.uniform(0.1, 1.0)),
                         sigma_force=float(rng.choice([0.0, 0.05])),
                         sigma_torque=0.005)
    out = []
    for w in base:
        u = rng.uniform()
        if u < 0.05:
            w = Wrench2([0.0, 0.0], float(rng.choice([0.0, -0.0, 0.01])))
        elif u < 0.08:
            w = Wrench2([RAY_FORCE_EPS * rng.uniform(-0.7, 0.7),
                         RAY_FORCE_EPS * rng.uniform(-0.7, 0.7)], 0.0)
        elif u < 0.10:
            w = Wrench2([-0.0, w.force[1]], -0.0)
        out.append(w)
        if rng.uniform() < repeat:
            out.extend([w] * int(rng.integers(1, 6)))
    return out[:n]


def _replay(stream, est=None, ref=None):
    est = new_cone_estimate("ground", SCALE) if est is None else est
    ref = ReferenceCone() if ref is None else ref
    for w in stream:
        est = ingest(est, w, "ground", external_contact_allowed=False)
        ref.ingest(w)
        ref.assert_matches(est)
    return est, ref


@pytest.mark.parametrize("seed,n,repeat", [
    (0, 80, 0.04), (1, 80, 0.6), (2, 300, 0.04),
    (3, BUFFER_SIZE + 300, 0.04), (4, BUFFER_SIZE + 100, 0.6)])
def test_ingest_matches_full_refit_bit_for_bit(seed, n, repeat):
    # the long streams run evictions past a full buffer
    _replay(oracle_stream(np.random.default_rng(seed), n, repeat))


def test_ingest_matches_full_refit_on_cancelling_rays():
    # opposite rays sum to exactly zero: no wedge describes them
    push = Wrench2([1.0, 0.0], 0.01)
    pull = Wrench2([-1.0, 0.0], -0.01)
    est, _ = _replay([push, pull] * MIN_SAMPLES)
    assert est.sample_count == 2 * MIN_SAMPLES
    assert not est.ready
    est, _ = _replay([push], est, ReferenceCone(est.samples, est.sample_count))
    assert est.ready


@pytest.mark.parametrize("repeat", [0.04, 0.6])
def test_ingest_children_are_independent_of_parent_and_siblings(repeat):
    rng = np.random.default_rng(21)
    parent, ref = _replay(oracle_stream(rng, 40, repeat))
    snapshot = (parent.samples.copy(), parent.constraints, parent.noise_sigma)
    first = oracle_stream(rng, 25, repeat)
    second = oracle_stream(rng, 25, repeat)
    a, b = parent, parent
    ref_a, ref_b = (ReferenceCone(ref.buf, ref.count) for _ in range(2))
    for wa, wb in zip(first, second):
        a = ingest(a, wa, "ground", False)
        b = ingest(b, wb, "ground", False)
        ref_a.ingest(wa)
        ref_b.ingest(wb)
        ref_a.assert_matches(a)
        ref_b.assert_matches(b)
    assert parent.samples.tobytes() == snapshot[0].tobytes()
    assert parent.constraints is snapshot[1]
    assert parent.noise_sigma == snapshot[2]
    # the parent still ingests as it would have before its children
    _replay(first, parent, ReferenceCone(ref.buf, ref.count))


def test_estimate_built_with_samples_ingests_like_an_ingested_one():
    rng = np.random.default_rng(22)
    stream = oracle_stream(rng, BUFFER_SIZE + 10)
    grown, ref = _replay(stream[:60])
    tail = stream[60:90]
    built = WrenchConeEstimate(context="ground", scale_length=SCALE,
                               samples=grown.samples.copy(),
                               sample_count=grown.sample_count)
    _replay(tail, built, ReferenceCone(ref.buf, ref.count))
    # new samples through replace are refit from, not the old fit state
    swapped = replace(grown, samples=grown.samples[::-1].copy())
    _replay(tail, swapped, ReferenceCone(swapped.samples, ref.count))
    # a directly built buffer longer than the ring keeps its newest samples
    rows = np.array([[*w.force, w.torque / SCALE] for w in stream])
    long = WrenchConeEstimate(context="ground", scale_length=SCALE,
                              samples=rows, sample_count=len(rows))
    _replay(tail, long, ReferenceCone(rows, len(rows)))


def test_ingest_rejects_a_context_other_than_the_estimates():
    est = new_cone_estimate("ground", SCALE)
    with pytest.raises(ValueError):
        ingest(est, Wrench2([0.0, 5.0], 0.0), "hand", False)
    # the freeze call too: it would relabel the frozen estimate
    with pytest.raises(ValueError):
        ingest(est, Wrench2([0.0, 5.0], 0.0), "hand", True)
    est = ingest(est, Wrench2([0.0, 5.0], 0.0), "ground", False)
    assert est.context == "ground" and est.sample_count == 1
