"""IMU-aided observer: attitude kernel, direction-driven corrections, updates."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from _support import (
    attitude_gain_divisor,
    imu_correction,
    innovation_errors,
    pi_from_products,
    pi_meas,
    random_ref_triad,
    random_rotation,
    upsilon_meas,
)
from lieslam import _kernels
from lieslam._kernels import TAU_FLOOR
from lieslam.filter_basic import FilterDivergence, FilterState, pack_state
from lieslam.filter_imu import ImuGains, build_kernel, imu_params, imu_step
from lieslam.harness import lyapunov_steps
from lieslam.liegroup import Pose, Twist, antisym_project, se3_exp, skew, so3_distance, so3_exp, upsilon, vex
from lieslam.worldsim import MeasurementBundle, augmented_refs


def _gains(n: int, **overrides) -> ImuGains:
    kw = {
        "k_w": 5.0, "k_1": 5.0, "k_2": 20.0,
        "gamma_1": np.full(3, 3.0), "gamma_2": np.full(3, 100.0),
        "alpha": np.full(n, 0.1),
    }
    kw.update(overrides)
    return ImuGains(**kw)


def _random_weights(rng, m: int) -> np.ndarray:
    w = rng.uniform(0.2, 2.0, m)
    return w * (3.0 / w.sum())


def _bundle(y, refs, bodies, u=None) -> MeasurementBundle:
    return MeasurementBundle(
        u_m=u if u is not None else Twist.zero(),
        y=np.asarray(y, dtype=float),
        imu_ref=np.asarray(refs, dtype=float),
        imu_body=np.asarray(bodies, dtype=float),
        t=0.0,
    )


def _random_state(rng, n=4) -> FilterState:
    return FilterState(
        pose=Pose(random_rotation(rng, max_angle=np.pi / 2), rng.standard_normal(3) * 2.0),
        landmarks=rng.standard_normal((n, 3)) * 5.0,
        bias=Twist(rng.standard_normal(3) * 0.1, rng.standard_normal(3) * 0.1),
    )


def _self_consistent_y(fs: FilterState) -> np.ndarray:
    return (fs.landmarks - fs.pose.position) @ fs.pose.rotation


BENCH_REFS = augmented_refs(np.array([[1.0, -1.0, 1.0], [0.0, 0.0, 1.0]]))


# ------------------------------------------------------------------- kernel


def test_kernel_orthonormal_triad():
    k = build_kernel(np.eye(3), np.ones(3))
    assert np.allclose(k.matrix, np.eye(3), atol=1e-15)
    assert np.allclose(k.breve, 2.0 * np.eye(3), atol=1e-15)
    assert np.isclose(k.lambda_min, 2.0, atol=1e-12)


def test_kernel_benchmark_triad_by_hand():
    # triad (1,-1,1)/sqrt(3), (0,0,1), (-1,-1,0)/sqrt(2), unit weights:
    # summing the three outer products entry by entry gives
    expected = np.array([
        [5.0 / 6.0, 1.0 / 6.0, 1.0 / 3.0],
        [1.0 / 6.0, 5.0 / 6.0, -1.0 / 3.0],
        [1.0 / 3.0, -1.0 / 3.0, 4.0 / 3.0],
    ])
    k = build_kernel(BENCH_REFS, np.ones(3))
    assert np.abs(k.matrix - expected).max() < 1e-12
    assert np.isclose(np.trace(k.matrix), 3.0, atol=1e-12)
    assert k.lambda_min > 0.0


def test_kernel_eigenvalue_pairing():
    """Eigenvalues of breve are the pairwise sums of eigenvalues of M."""
    rng = np.random.default_rng(60)
    for _ in range(100):
        refs = random_ref_triad(rng)
        k = build_kernel(refs, _random_weights(rng, 3))
        lam = np.linalg.eigvalsh(k.matrix)
        pair_sums = np.sort([lam[0] + lam[1], lam[0] + lam[2], lam[1] + lam[2]])
        assert np.abs(np.sort(np.linalg.eigvalsh(k.breve)) - pair_sums).max() < 1e-9
        assert np.isclose(k.lambda_min, pair_sums[0], atol=1e-9)


def test_kernel_validation():
    with pytest.raises(ValueError, match="unit"):
        build_kernel(np.eye(3) * 2.0, np.ones(3))
    with pytest.raises(ValueError, match="sum to 3"):
        build_kernel(np.eye(3), np.array([1.0, 1.0, 2.0]))
    with pytest.raises(ValueError, match="rank"):
        build_kernel(np.tile([1.0, 0.0, 0.0], (3, 1)), np.ones(3))
    with pytest.raises(ValueError, match="weight per"):
        build_kernel(np.eye(3), np.ones(2))


# -------------------------------------------------- direction measurements


def test_upsilon_meas_zero_at_consistent_attitude():
    rng = np.random.default_rng(61)
    for _ in range(20):
        r = random_rotation(rng)
        bodies = BENCH_REFS @ r
        assert np.abs(upsilon_meas(r, BENCH_REFS, bodies, np.ones(3))).max() < 1e-12


def test_upsilon_meas_equals_algebraic_form():
    """Measurement sum equals vex(Pa(R-tilde M)) built from the true error."""
    rng = np.random.default_rng(62)
    kernel = build_kernel(BENCH_REFS, np.ones(3))
    for _ in range(100):
        r_hat, r_true = random_rotation(rng), random_rotation(rng)
        bodies = BENCH_REFS @ r_true
        meas = upsilon_meas(r_hat, BENCH_REFS, bodies, np.ones(3))
        r_tilde = r_hat @ r_true.T
        assert np.abs(meas - upsilon(r_tilde @ kernel.matrix)).max() < 1e-10


def test_pi_meas_equals_error_trace():
    rng = np.random.default_rng(63)
    for _ in range(100):
        refs = random_ref_triad(rng)
        w = _random_weights(rng, 3)
        r_hat, r_true = random_rotation(rng), random_rotation(rng)
        bodies = refs @ r_true
        pi = pi_meas(r_hat, refs, bodies, w)
        assert np.isclose(pi, np.trace(r_hat @ r_true.T), atol=1e-9)
    assert np.isclose(pi_meas(np.eye(3), BENCH_REFS, BENCH_REFS, np.ones(3)), 3.0, atol=1e-12)


def test_pi_from_products_guards():
    assert np.isnan(pi_from_products(np.eye(3), np.zeros((3, 3))))
    near_singular = np.diag([1.0, 1.0, 1e-12])
    assert np.isnan(pi_from_products(np.eye(3), near_singular))


def test_attitude_gain_divisor():
    kernel = build_kernel(np.eye(3), np.ones(3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isclose(attitude_gain_divisor(kernel, 3.0), 8.0, atol=1e-12)
    with pytest.warns(RuntimeWarning):
        assert attitude_gain_divisor(kernel, -1.0) == TAU_FLOOR
    with pytest.warns(RuntimeWarning):
        assert attitude_gain_divisor(kernel, float("nan")) == TAU_FLOOR


def test_measurement_form_of_attitude_energy():
    """(1/4) sum w_j (1 - vhat_j . v_j) equals (1/4) tr((I - R-tilde) M)."""
    rng = np.random.default_rng(64)
    for _ in range(100):
        refs = random_ref_triad(rng)
        w = _random_weights(rng, 3)
        kernel = build_kernel(refs, w)
        r_hat, r_true = random_rotation(rng), random_rotation(rng)
        v_hat = refs @ r_hat
        v_body = refs @ r_true
        meas = 0.25 * (w * (1.0 - (v_hat * v_body).sum(axis=1))).sum()
        alg = 0.25 * np.trace((np.eye(3) - r_hat @ r_true.T) @ kernel.matrix)
        assert np.isclose(meas, alg, atol=1e-10)


def test_attitude_error_bound_away_from_antipode():
    """The innovation norm controls the attitude energy off the far set."""
    rng = np.random.default_rng(65)
    kernel = build_kernel(BENCH_REFS, np.ones(3))
    for _ in range(200):
        r_tilde = random_rotation(rng)
        if np.trace(r_tilde) <= -1.0 + 1e-3:
            continue
        energy = 0.25 * np.trace((np.eye(3) - r_tilde) @ kernel.matrix)
        innov = vex(antisym_project(r_tilde @ kernel.matrix))
        bound = (2.0 / kernel.lambda_min) * (innov @ innov) / (1.0 + np.trace(r_tilde))
        assert energy <= bound + 1e-9


# ---------------------------------------------------------------- correction


def test_correction_zero_at_consistent_state():
    rng = np.random.default_rng(66)
    fs = _random_state(rng)
    bodies = BENCH_REFS @ fs.pose.rotation
    m = _bundle(_self_consistent_y(fs), BENCH_REFS, bodies)
    kernel = build_kernel(BENCH_REFS, np.ones(3))
    w = imu_correction(fs, m, np.zeros((4, 3)), kernel, _gains(4))
    assert np.abs(w.omega).max() < 1e-12
    assert np.array_equal(w.v, np.zeros(3))


def test_correction_attitude_hand_case():
    # identity estimate, truth rotated about z so that sin(theta) = -0.1,
    # orthonormal references: the weighted cross sum is (0, 0, 0.1),
    # pi = 1 + 2 cos(theta), tau = 2 (2 + 2 cos(theta))
    theta = -np.arcsin(0.1)
    r_true = so3_exp(np.array([0.0, 0.0, theta]))
    fs = FilterState(Pose.identity(), np.array([[1.0, 2.0, 3.0]]), Twist.zero())
    m = _bundle(np.zeros((1, 3)), np.eye(3), np.eye(3) @ r_true)
    kernel = build_kernel(np.eye(3), np.ones(3))
    w = imu_correction(fs, m, np.zeros((1, 3)), kernel, _gains(1))
    expected_z = 5.0 * 0.1 / (2.0 * (2.0 + 2.0 * np.sqrt(0.99)))
    assert np.allclose(w.omega, [0.0, 0.0, expected_z], atol=1e-12)
    assert np.array_equal(w.v, np.zeros(3))


def test_correction_matches_componentwise_build():
    rng = np.random.default_rng(67)
    fs = _random_state(rng)
    gains = _gains(4)
    kernel = build_kernel(BENCH_REFS, np.ones(3))
    r_true = random_rotation(rng, max_angle=np.pi / 2)
    bodies = BENCH_REFS @ r_true
    y = _self_consistent_y(fs) + rng.standard_normal((4, 3)) * 0.3
    e = innovation_errors(fs, y)
    m = _bundle(y, BENCH_REFS, bodies)

    r = fs.pose.rotation
    half = r.T @ upsilon_meas(r, BENCH_REFS, bodies, np.ones(3))
    tau = attitude_gain_divisor(kernel, pi_meas(r, BENCH_REFS, bodies, np.ones(3)))
    w_om = 4.0 * (gains.k_w / tau) * half
    w_v = -gains.k_2 * ((1.0 / gains.alpha)[:, None] * (e @ r)).sum(axis=0)

    got = imu_correction(fs, m, e, kernel, gains)
    assert np.allclose(got.omega, w_om, atol=1e-12)
    assert np.allclose(got.v, w_v, atol=1e-12)


def test_correction_block_vs_simplified_scaling():
    """The two conventions differ exactly by the landmark count, and only
    in the attitude part."""
    rng = np.random.default_rng(68)
    fs = _random_state(rng, n=5)
    kernel = build_kernel(BENCH_REFS, np.ones(3))
    bodies = BENCH_REFS @ random_rotation(rng, max_angle=np.pi / 2)
    y = _self_consistent_y(fs) + rng.standard_normal((5, 3)) * 0.2
    e = innovation_errors(fs, y)
    m = _bundle(y, BENCH_REFS, bodies)
    block = imu_correction(fs, m, e, kernel, _gains(5))
    simple = imu_correction(fs, m, e, kernel, _gains(5), simplified_form=True)
    assert np.allclose(block.omega, 5.0 * simple.omega, atol=1e-12)
    assert np.allclose(block.v, simple.v, atol=1e-15)


def test_imu_gain_validation():
    with pytest.raises(ValueError):
        _gains(4, k_2=0.0)
    with pytest.raises(ValueError):
        _gains(4, gamma_1=np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        _gains(4, gamma_2=np.array([1.0, -1.0, 1.0]))


# -------------------------------------------------------------------- steps


def test_step_fixed_point_is_exact():
    """A signed-permutation attitude keeps the frame round trip exact in
    floats, so a self-consistent state is a bit-exact stationary point."""
    rng = np.random.default_rng(69)
    quarter_turn = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    fs = FilterState(
        pose=Pose(quarter_turn, np.array([1.5, -0.25, 4.0])),
        landmarks=rng.uniform(-8.0, 8.0, size=(4, 3)),
        bias=Twist.zero(),
    )
    kernel = build_kernel(BENCH_REFS, np.ones(3))
    m = _bundle(_self_consistent_y(fs), BENCH_REFS, BENCH_REFS @ fs.pose.rotation)
    out = fs
    for _ in range(5):
        out = imu_step(out, m, kernel, _gains(4), 0.001)
    assert np.array_equal(out.pose.rotation, fs.pose.rotation)
    assert np.array_equal(out.pose.position, fs.pose.position)
    assert np.array_equal(out.landmarks, fs.landmarks)
    assert np.array_equal(out.bias.vector(), np.zeros(6))


def test_step_tracks_truth_from_exact_state(clean_trace, climb_rc):
    cfg = clean_trace.cfg
    truth0 = clean_trace.true_state(0)
    fs = FilterState(
        pose=truth0.pose,
        landmarks=clean_trace.landmarks.copy(),
        bias=Twist(cfg.bias_omega.copy(), cfg.bias_v.copy()),
    )
    kernel = build_kernel(clean_trace.imu_ref, cfg.sensor_weights)
    out = imu_step(fs, clean_trace.bundle(0), kernel, climb_rc.gains_imu, cfg.dt)
    truth1 = clean_trace.true_state(1)
    assert np.abs(out.pose.rotation - truth1.pose.rotation).max() < 1e-5
    assert np.abs(out.pose.position - truth1.pose.position).max() < 5e-4
    assert np.abs(out.landmarks - clean_trace.landmarks).max() < 1e-5
    assert np.abs(out.bias.vector() - np.concatenate([cfg.bias_omega, cfg.bias_v])).max() < 3e-3


def test_step_rates_by_finite_difference():
    rng = np.random.default_rng(70)
    n = 4
    fs = _random_state(rng, n)
    gains = _gains(n)
    refs = random_ref_triad(rng)
    weights = _random_weights(rng, 3)
    kernel = build_kernel(refs, weights)
    r_true = random_rotation(rng, max_angle=np.pi / 2)
    bodies = refs @ r_true
    y = _self_consistent_y(fs) + rng.standard_normal((n, 3)) * 0.2
    u_m = Twist(rng.standard_normal(3), rng.standard_normal(3))
    m = _bundle(y, refs, bodies, u=u_m)
    dt = 1e-9
    out = imu_step(fs, m, kernel, gains, dt)

    r = fs.pose.rotation
    inv_a = (1.0 / gains.alpha)[:, None]
    half = r.T @ upsilon_meas(r, refs, bodies, weights)
    tau = attitude_gain_divisor(kernel, pi_meas(r, refs, bodies, weights))
    w_om = n * (gains.k_w / tau) * half
    e = innovation_errors(fs, y)
    e_body = e @ r
    w_v = -gains.k_2 * (inv_a * e_body).sum(axis=0)

    rot_rate = r @ skew(u_m.omega - fs.bias.omega - w_om)
    pos_rate = r @ (u_m.v - fs.bias.v - w_v)
    lm_rate = -gains.k_1 * e + np.cross(y, w_om) @ r.T
    b1_rate = gains.gamma_1 * (n * 0.5 * half - (inv_a * np.cross(y, e_body)).sum(axis=0))
    b2_rate = -gains.gamma_2 * (inv_a * e_body).sum(axis=0)

    np.testing.assert_allclose((out.pose.rotation - r) / dt, rot_rate, rtol=1e-4, atol=1e-4)
    np.testing.assert_allclose((out.pose.position - fs.pose.position) / dt, pos_rate, rtol=1e-4, atol=1e-4)
    np.testing.assert_allclose((out.landmarks - fs.landmarks) / dt, lm_rate, rtol=1e-4, atol=1e-4)
    np.testing.assert_allclose((out.bias.vector() - fs.bias.vector()) / dt,
                               np.concatenate([b1_rate, b2_rate]), rtol=1e-4, atol=1e-4)


def test_step_pose_follows_corrected_twist():
    rng = np.random.default_rng(71)
    fs = _random_state(rng)
    kernel = build_kernel(BENCH_REFS, np.ones(3))
    u_m = Twist(rng.standard_normal(3), rng.standard_normal(3))
    m = _bundle(_self_consistent_y(fs), BENCH_REFS, BENCH_REFS @ fs.pose.rotation, u=u_m)
    dt = 1e-7  # keeps the O(dt^2) feedback of the corrections below 1e-9
    out = imu_step(fs, m, kernel, _gains(4), dt)
    expected = fs.pose.compose(se3_exp(Twist.from_vector(u_m.vector() - fs.bias.vector()), dt))
    assert np.abs(out.pose.rotation - expected.rotation).max() < 1e-9
    assert np.abs(out.pose.position - expected.position).max() < 1e-9


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_step_divergence_raises():
    rng = np.random.default_rng(72)
    fs = _random_state(rng)
    kernel = build_kernel(BENCH_REFS, np.ones(3))
    m = _bundle(np.full((4, 3), np.inf), BENCH_REFS, BENCH_REFS @ fs.pose.rotation)
    with pytest.raises(FilterDivergence):
        imu_step(fs, m, kernel, _gains(4), 0.001)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale,error", ((1e160, OverflowError), (0.0, ZeroDivisionError)))
def test_step_float_exceptions_raise_divergence(scale, error):
    """A 1e160 attitude at rest keeps every product finite (its axis
    directions stay exactly parallel to the sensed ones) but overflows its square in the
    Gram-Schmidt repair; a zero attitude divides by a zero row norm.
    The kernel raises, the step reports divergence."""
    fs = FilterState(Pose(scale * np.eye(3), np.zeros(3)), np.zeros((4, 3)), Twist.zero())
    kernel = build_kernel(np.eye(3), np.ones(3))
    m = _bundle(np.zeros((4, 3)), np.eye(3), np.eye(3))
    x = pack_state(fs.pose.rotation, fs.pose.position, fs.bias, fs.landmarks)
    with pytest.raises(error):
        _kernels.imu_sample(x, imu_params(m, kernel, _gains(4), 4.0), 0.001, 1)
    with pytest.raises(FilterDivergence, match="non-finite"):
        imu_step(fs, m, kernel, _gains(4), 0.001)


# --------------------------------------------------- antipodal attitude set


_FLIP = np.diag([1.0, -1.0, -1.0])
_SQUARE = np.array([
    [10.0, 10.0, 0.0], [10.0, -10.0, 0.0], [-10.0, 10.0, 0.0], [-10.0, -10.0, 0.0],
])


def _static_bundle() -> MeasurementBundle:
    # static truth at the origin with identity attitude: features measure
    # the landmarks themselves, directions transport to themselves
    return _bundle(_SQUARE.copy(), np.eye(3), np.eye(3))


def test_antipodal_attitude_is_stationary():
    """A half-turn attitude error with self-consistent landmarks is an
    equilibrium: every correction vanishes and the state never moves."""
    fs = FilterState(
        pose=Pose(_FLIP.copy(), np.zeros(3)),
        landmarks=_SQUARE @ _FLIP.T,   # gauge-consistent: p-hat = flip p
        bias=Twist.zero(),
    )
    kernel = build_kernel(np.eye(3), np.ones(3))
    out = fs
    for _ in range(10):
        out = imu_step(out, _static_bundle(), kernel, _gains(4), 0.001)
    assert np.array_equal(out.pose.rotation, _FLIP)
    assert np.array_equal(out.pose.position, np.zeros(3))
    assert np.array_equal(out.landmarks, fs.landmarks)
    assert so3_distance(out.pose.rotation @ np.eye(3).T) == 1.0


def test_antipodal_attitude_is_unstable():
    """A 1e-6 attitude nudge off the half-turn set escapes and converges."""
    fs = FilterState(
        pose=Pose(_FLIP @ so3_exp(np.array([1e-6, 0.0, 0.0])), np.zeros(3)),
        landmarks=_SQUARE.copy(),
        bias=Twist.zero(),
    )
    kernel = build_kernel(np.eye(3), np.ones(3))
    m = _static_bundle()
    gains = _gains(4)
    att = None
    for k in range(8000):
        fs = imu_step(fs, m, kernel, gains, 0.001)
        if k == 2999:
            att = so3_distance(fs.pose.rotation)
    assert att < 0.01                        # left the set within 3 s
    assert so3_distance(fs.pose.rotation) < 1e-3   # and keeps converging


# ----------------------------------------------------- full-run behaviour


def test_energy_never_increases_on_clean_run(clean_trace, clean_rc, clean_imu):
    assert np.diff(lyapunov_steps(clean_trace, clean_rc, clean_imu)).max() <= 1e-6


def test_energy_never_increases_simplified_form(clean_trace, clean_rc_simplified,
                                                clean_imu_simplified):
    lyap = lyapunov_steps(clean_trace, clean_rc_simplified, clean_imu_simplified)
    assert np.diff(lyap).max() <= 1e-6


def test_clean_run_converges_fully(clean_imu):
    final = clean_imu.reports[-1]
    assert final.att_dist < 1e-4
    assert final.e_norms.max() < 1e-3
    assert final.feat_err.max() < 0.5
    assert final.bias_err < 0.02
