"""Feature-only observer: innovations, the correction law and its rates,
and the clean run.  The step contract that it shares with the other
observers is in test_observers.py."""

from __future__ import annotations

import json

import numpy as np
import pytest

from _support import (
    assert_rates,
    basic_correction,
    basic_gains,
    basic_rates,
    bundle,
    consistent_y,
    innovation_errors,
    measurement_state,
    random_filter_state,
)
from lieslam.harness import bundled_config_path, parse_run_config, run_filter
from lieslam.liegroup import Pose, Twist, adjoint_aug
from lieslam.observers import FilterDivergence, FilterState, basic_step
from lieslam.worldsim import simulate_world


# -------------------------------------------------------------- innovations


def test_innovation_zero_when_consistent():
    rng = np.random.default_rng(50)
    fs = random_filter_state(rng)
    e = innovation_errors(fs, consistent_y(fs))
    assert np.abs(e).max() < 1e-12


def test_innovation_hand_case():
    fs = FilterState(
        pose=Pose.identity(),
        landmarks=np.array([[1.0, 1.0, 1.0]]),
        bias=Twist.zero(),
    )
    e = innovation_errors(fs, np.array([[1.0, 0.0, 0.0]]))
    assert np.allclose(e, [[0.0, 1.0, 1.0]], atol=1e-15)


def test_innovation_matches_true_geometry(clean_trace):
    """Against the midpoint truth the innovations vanish at every scale."""
    lm = clean_trace.landmarks
    # later checkpoints sit ~160 m from the origin, so cancellation in
    # lm - R y - P costs a few extra digits
    for k, tol in ((0, 1e-12), (500, 1e-12), (20000, 1e-10), (39999, 1e-10)):
        ms = measurement_state(clean_trace, k)
        fs = FilterState(pose=ms.pose, landmarks=lm, bias=Twist.zero())
        e = innovation_errors(fs, clean_trace.y[k])
        assert np.abs(e).max() < tol


def test_innovation_shape_mismatch_raises():
    rng = np.random.default_rng(51)
    fs = random_filter_state(rng, n=4)
    with pytest.raises(ValueError):
        innovation_errors(fs, np.zeros((2, 3)))


# ------------------------------------------------- feature-only correction


def test_correction_zero_on_zero_innovation():
    rng = np.random.default_rng(52)
    fs = random_filter_state(rng)
    w = basic_correction(fs, np.zeros((4, 3)), basic_gains(4))
    assert np.array_equal(w.omega, np.zeros(3))
    assert np.array_equal(w.v, np.zeros(3))


def test_correction_hand_case():
    # identity pose, one landmark at (1,1,0), innovation (0,1,0):
    # the measured landmark location is g = p-hat - e = (1,0,0), so the
    # wrench is [g x e; e] = [(0,0,1); (0,1,0)] and the correction its
    # negative (k_w = 1, identity adjoint)
    fs = FilterState(
        pose=Pose.identity(),
        landmarks=np.array([[1.0, 1.0, 0.0]]),
        bias=Twist.zero(),
    )
    e = np.array([[0.0, 1.0, 0.0]])
    w = basic_correction(fs, e, basic_gains(1, k_w=1.0))
    assert np.allclose(w.omega, [0.0, 0.0, -1.0], atol=1e-15)
    assert np.allclose(w.v, [0.0, -1.0, 0.0], atol=1e-15)


def test_correction_scales_with_gain():
    rng = np.random.default_rng(53)
    fs = random_filter_state(rng)
    e = rng.standard_normal((4, 3))
    w1 = basic_correction(fs, e, basic_gains(4, k_w=1.0))
    w7 = basic_correction(fs, e, basic_gains(4, k_w=7.0))
    assert np.allclose(w7.vector(), 7.0 * w1.vector(), atol=1e-12)


def test_correction_adjoint_transport():
    """The wrench is formed in the inertial frame, then carried to the body."""
    rng = np.random.default_rng(54)
    fs = random_filter_state(rng)
    e = rng.standard_normal((4, 3)) * 0.3
    g = fs.landmarks - e
    z = np.concatenate([np.cross(g, e).sum(axis=0), e.sum(axis=0)])
    expected = -5.0 * adjoint_aug(fs.pose.inverse()) @ z
    got = basic_correction(fs, e, basic_gains(4))
    assert np.allclose(got.vector(), expected, atol=1e-12)


# -------------------------------------------------------------------- rates


def test_step_rates_by_finite_difference():
    """One tiny step recovers the continuous correction laws."""
    rng = np.random.default_rng(57)
    fs = random_filter_state(rng)
    gains = basic_gains(4)
    y = consistent_y(fs) + rng.standard_normal((4, 3)) * 0.2
    m = bundle(y, u=Twist(rng.standard_normal(3), rng.standard_normal(3)))
    dt = 1e-9
    assert_rates(fs, basic_step(fs, m, gains, dt), dt, basic_rates(fs, m, gains))


# ------------------------------------------------------- full-run behaviour


def test_clean_run_converges(clean_basic):
    report = clean_basic.report
    # convergence slows once the well-excited modes are gone; 40 s gets the
    # innovations to ~1.6e-3 on 10 m-scale landmarks
    assert report.e_norms[-1].max() < 5e-3
    # attitude settles to a constant (not necessarily the identity)
    tail = report.att_dist[report.t >= 38.0]
    assert tail.var() < 1e-6


def test_bias_stays_inside_energy_bound(clean_basic, climb_rc):
    """|b - b-hat| can never exceed sqrt(2 gamma_max L(0))."""
    bound = np.sqrt(2.0 * climb_rc.gains_basic.gamma.max() * clean_basic.report.lyap[0])
    worst = clean_basic.report.bias_err.max()
    assert worst < bound


@pytest.mark.xfail(strict=True, raises=FilterDivergence,
                   reason="basic's two fixed RK4 substeps are too few for this map's lever arms")
def test_stays_finite_on_a_ring_of_8(warmed_up):
    """Bundled square_level with 8 landmarks on a 12 m ring at z = 0 and
    zero initial landmarks, for 1 s.  The pose correction's fast mode,
    at about k_w * sum |g_i|^2, leaves classical RK4's stability interval
    at two substeps per 1 ms interval: the run diverges at step 718."""
    raw = json.loads(bundled_config_path("square_level").read_text())
    phi = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
    raw["world"]["landmarks"] = np.c_[12 * np.cos(phi), 12 * np.sin(phi), np.zeros(8)].tolist()
    raw["world"]["duration"] = 1.0
    raw["init"]["landmarks"] = [[0.0, 0.0, 0.0]] * 8
    rc = parse_run_config(dict(raw, filter="basic"))
    result = run_filter(simulate_world(rc.world), rc, "basic")
    assert np.isfinite(result.report.lyap).all()
