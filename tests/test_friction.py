"""Wrench-cone estimation: fitting, freezing, violation checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccfg.core import Wrench2
from ccfg.errors import NotReady
from ccfg.estimator import (ConeConstraint, WrenchConeEstimate,
                            check_violation, ingest, new_cone_estimate,
                            violation_threshold)
from ccfg.estimator.friction import BUFFER_SIZE, MIN_SAMPLES

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
    again = ingest(frozen, Wrench2([50.0, -3.0], 2.0), "ground", True)
    assert again is frozen
    # byte identical through any number of frozen ingests, learning or not
    third = ingest(again, Wrench2([1.0, 1.0], 0.0), "ground", False)
    assert third is frozen
    assert third.to_json() == frozen.to_json()


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


def test_json_round_trip():
    rng = np.random.default_rng(6)
    est = fit_from(cone_wrenches(rng, 60, 0.4))
    back = WrenchConeEstimate.from_json(est.to_json())
    assert back.context == est.context
    assert back.sample_count == est.sample_count
    # a reloaded cone has no samples, so it must carry its noise estimate to
    # run the same wall test as the original
    assert est.noise_sigma > 0
    assert back.noise_sigma == est.noise_sigma
    assert violation_threshold(back) == violation_threshold(est)
    assert len(back.constraints) == len(est.constraints)
    for a, b in zip(back.constraints, est.constraints):
        np.testing.assert_allclose(a.normal, b.normal)
        assert a.offset == b.offset


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
