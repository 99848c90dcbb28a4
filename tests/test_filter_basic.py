"""Feature-only observer: innovations, correction law, discrete updates."""

from __future__ import annotations

import numpy as np
import pytest

from _support import (
    basic_correction,
    innovation_errors,
    innovation_wrench,
    measurement_state,
    random_rotation,
)
from lieslam import _kernels
from lieslam.filter_basic import (
    BasicGains,
    FilterDivergence,
    FilterState,
    basic_params,
    basic_step,
    pack_state,
)
from lieslam.harness import lyapunov_steps
from lieslam.liegroup import Pose, Twist, adjoint_aug, se3_exp
from lieslam.worldsim import MeasurementBundle


def _gains(n: int, **overrides) -> BasicGains:
    kw = {"k_w": 5.0, "k_1": 5.0, "gamma": [3.0, 3, 3, 100, 100, 100], "alpha": np.full(n, 0.1)}
    kw.update(overrides)
    return BasicGains(**kw)


def _random_state(rng, n=4) -> FilterState:
    return FilterState(
        pose=Pose(random_rotation(rng), rng.standard_normal(3) * 2.0),
        landmarks=rng.standard_normal((n, 3)) * 5.0,
        bias=Twist(rng.standard_normal(3) * 0.1, rng.standard_normal(3) * 0.1),
    )


def _bundle(y, u=None, t=0.0) -> MeasurementBundle:
    return MeasurementBundle(
        u_m=u if u is not None else Twist.zero(),
        y=np.asarray(y, dtype=float),
        imu_ref=np.eye(3),
        imu_body=np.eye(3),
        t=t,
    )


def _self_consistent_y(fs: FilterState) -> np.ndarray:
    """Measurements that make every innovation exactly zero."""
    return (fs.landmarks - fs.pose.position) @ fs.pose.rotation


# -------------------------------------------------------------- innovations


def test_innovation_zero_when_consistent():
    rng = np.random.default_rng(50)
    fs = _random_state(rng)
    e = innovation_errors(fs, _self_consistent_y(fs))
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
    fs = _random_state(rng, n=4)
    with pytest.raises(ValueError):
        innovation_errors(fs, np.zeros((2, 3)))


# ---------------------------------------------------------------- correction


def test_correction_zero_on_zero_innovation():
    rng = np.random.default_rng(52)
    fs = _random_state(rng)
    w = basic_correction(fs, np.zeros((4, 3)), _gains(4))
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
    w = basic_correction(fs, e, _gains(1, k_w=1.0))
    assert np.allclose(w.omega, [0.0, 0.0, -1.0], atol=1e-15)
    assert np.allclose(w.v, [0.0, -1.0, 0.0], atol=1e-15)


def test_correction_scales_with_gain():
    rng = np.random.default_rng(53)
    fs = _random_state(rng)
    e = rng.standard_normal((4, 3))
    w1 = basic_correction(fs, e, _gains(4, k_w=1.0))
    w7 = basic_correction(fs, e, _gains(4, k_w=7.0))
    assert np.allclose(w7.vector(), 7.0 * w1.vector(), atol=1e-12)


def test_correction_adjoint_transport():
    """The wrench is formed in the inertial frame, then carried to the body."""
    rng = np.random.default_rng(54)
    fs = _random_state(rng)
    e = rng.standard_normal((4, 3)) * 0.3
    g = fs.landmarks - e
    z = np.concatenate([np.cross(g, e).sum(axis=0), e.sum(axis=0)])
    expected = -5.0 * adjoint_aug(fs.pose.inverse()) @ z
    got = basic_correction(fs, e, _gains(4))
    assert np.allclose(got.vector(), expected, atol=1e-12)


def test_gain_validation():
    with pytest.raises(ValueError):
        _gains(4, k_w=0.0)
    with pytest.raises(ValueError):
        _gains(4, k_1=-1.0)
    with pytest.raises(ValueError):
        _gains(4, gamma=[1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        _gains(4, gamma=[1, 1, 1, 1, 1, 0])
    with pytest.raises(ValueError):
        _gains(4, alpha=np.array([0.1, 0.1, -0.1, 0.1]))


# -------------------------------------------------------------------- steps


def test_step_fixed_point_is_exact():
    """Zero twist, zero bias, self-consistent measurements: nothing moves.

    The attitude is a signed permutation so that mapping points to the body
    frame and back is exact in floating point; with a generic rotation the
    round trip leaves ~1e-15 of innovation and the state creeps.
    """
    rng = np.random.default_rng(55)
    quarter_turn = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    fs = FilterState(
        pose=Pose(quarter_turn, np.array([-2.5, 0.75, 3.0])),
        landmarks=rng.uniform(-8.0, 8.0, size=(4, 3)),
        bias=Twist.zero(),
    )
    m = _bundle(_self_consistent_y(fs))
    out = fs
    for _ in range(5):
        out = basic_step(out, m, _gains(4), 0.001)
    assert np.array_equal(out.pose.rotation, fs.pose.rotation)
    assert np.array_equal(out.pose.position, fs.pose.position)
    assert np.array_equal(out.landmarks, fs.landmarks)
    assert np.array_equal(out.bias.vector(), np.zeros(6))


def test_step_tracks_truth_from_exact_state(clean_trace, climb_rc):
    """Started on the truth with the true bias, one interval stays on it.

    The measurements are interval snapshots, so the correction sees a
    transient O(dt) innovation inside the step; the bounds below are
    calibrated several times above the resulting drift.
    """
    cfg = clean_trace.cfg
    truth0 = clean_trace.true_state(0)
    fs = FilterState(
        pose=truth0.pose,
        landmarks=clean_trace.landmarks.copy(),
        bias=Twist(cfg.bias_omega.copy(), cfg.bias_v.copy()),
    )
    out = basic_step(fs, clean_trace.bundle(0), climb_rc.gains_basic, cfg.dt)
    truth1 = clean_trace.true_state(1)
    assert np.abs(out.pose.rotation - truth1.pose.rotation).max() < 5e-4
    assert np.abs(out.pose.position - truth1.pose.position).max() < 1e-4
    assert np.abs(out.landmarks - clean_trace.landmarks).max() < 1e-5
    assert np.abs(out.bias.vector() - np.concatenate([cfg.bias_omega, cfg.bias_v])).max() < 3e-3


def test_step_pose_follows_corrected_twist():
    """With zero innovation the pose advances by exp of (u_m - bias)."""
    rng = np.random.default_rng(56)
    fs = _random_state(rng)
    u_m = Twist(rng.standard_normal(3), rng.standard_normal(3))
    m = _bundle(_self_consistent_y(fs), u=u_m)
    # innovations grow ~ |u| dt inside the step and feed back through the
    # gains at O(dt^2), so dt must be tiny for the pure-transport comparison
    dt = 1e-7
    out = basic_step(fs, m, _gains(4), dt)
    expected = fs.pose.compose(se3_exp(Twist.from_vector(u_m.vector() - fs.bias.vector()), dt))
    assert np.abs(out.pose.rotation - expected.rotation).max() < 1e-9
    assert np.abs(out.pose.position - expected.position).max() < 1e-9


def test_step_rates_by_finite_difference():
    """One tiny step recovers the continuous correction laws."""
    rng = np.random.default_rng(57)
    fs = _random_state(rng)
    gains = _gains(4)
    y = _self_consistent_y(fs) + rng.standard_normal((4, 3)) * 0.2
    u_m = Twist(rng.standard_normal(3), rng.standard_normal(3))
    m = _bundle(y, u=u_m)
    dt = 1e-9
    out = basic_step(fs, m, gains, dt)

    e = innovation_errors(fs, y)
    w = basic_correction(fs, e, gains)
    u_eff = u_m.vector() - fs.bias.vector() - w.vector()
    rot_rate = fs.pose.rotation @ np.array([
        [0.0, -u_eff[2], u_eff[1]],
        [u_eff[2], 0.0, -u_eff[0]],
        [-u_eff[1], u_eff[0], 0.0],
    ])
    pos_rate = fs.pose.rotation @ u_eff[3:]
    lm_rate = -gains.k_1 * e
    zw = innovation_wrench(fs, e, 1.0 / gains.alpha)
    bias_rate = -gains.gamma * (adjoint_aug(fs.pose).T @ zw)

    np.testing.assert_allclose((out.pose.rotation - fs.pose.rotation) / dt, rot_rate, rtol=1e-4, atol=1e-4)
    np.testing.assert_allclose((out.pose.position - fs.pose.position) / dt, pos_rate, rtol=1e-4, atol=1e-4)
    np.testing.assert_allclose((out.landmarks - fs.landmarks) / dt, lm_rate, rtol=1e-4, atol=1e-4)
    np.testing.assert_allclose((out.bias.vector() - fs.bias.vector()) / dt, bias_rate, rtol=1e-4, atol=1e-4)


def test_step_rotation_stays_orthonormal():
    rng = np.random.default_rng(58)
    fs = _random_state(rng)
    y = _self_consistent_y(fs) + rng.standard_normal((4, 3)) * 0.5
    m = _bundle(y, u=Twist(rng.standard_normal(3), rng.standard_normal(3)))
    for _ in range(200):
        fs = basic_step(fs, m, _gains(4), 0.001)
    r = fs.pose.rotation
    assert np.abs(r.T @ r - np.eye(3)).max() < 1e-9


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_step_divergence_raises():
    rng = np.random.default_rng(59)
    fs = _random_state(rng)
    with pytest.raises(FilterDivergence):
        basic_step(fs, _bundle(np.full((4, 3), np.nan)), _gains(4), 0.001)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale,error", ((1e160, OverflowError), (0.0, ZeroDivisionError)))
def test_step_float_exceptions_raise_divergence(scale, error):
    """A 1e160 attitude keeps every product finite but overflows its
    square in the Gram-Schmidt repair; a zero attitude divides by a zero
    row norm there.  The kernel raises, the step reports divergence."""
    fs = FilterState(Pose(scale * np.eye(3), np.zeros(3)), np.zeros((4, 3)), Twist.zero())
    m = _bundle(np.zeros((4, 3)), u=Twist(np.array([0.1, 0.2, 0.3]), np.zeros(3)))
    x = pack_state(fs.pose.rotation, fs.pose.position, fs.bias, fs.landmarks)
    with pytest.raises(error):
        _kernels.basic_sample(x, basic_params(m, _gains(4)), 0.001, 2)
    with pytest.raises(FilterDivergence, match="non-finite"):
        basic_step(fs, m, _gains(4), 0.001)


# ----------------------------------------------------- full-run behaviour


def test_energy_never_increases_on_clean_run(clean_trace, clean_rc, clean_basic):
    rises = np.diff(lyapunov_steps(clean_trace, clean_rc, clean_basic))
    assert rises.max() <= 1e-6


def test_clean_run_converges(clean_basic):
    final = clean_basic.reports[-1]
    # convergence slows once the well-excited modes are gone; 40 s gets the
    # innovations to ~1.6e-3 on 10 m-scale landmarks
    assert final.e_norms.max() < 5e-3
    # attitude settles to a constant (not necessarily the identity)
    tail = np.array([r.att_dist for r in clean_basic.reports if r.t >= 38.0])
    assert tail.var() < 1e-6


def test_bias_stays_inside_energy_bound(clean_basic, climb_rc):
    """|b - b-hat| can never exceed sqrt(2 gamma_max L(0))."""
    bound = np.sqrt(2.0 * climb_rc.gains_basic.gamma.max() * clean_basic.reports[0].lyap)
    worst = max(r.bias_err for r in clean_basic.reports)
    assert worst < bound
