"""IMU-aided observer: attitude kernel, direction-driven corrections, the
antipode and the clean run.  The step contract that it shares with the
other observers is in test_observers.py."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from _support import (
    BENCH_KERNEL,
    BENCH_REFS,
    UNIT_KERNEL,
    assert_rates,
    attitude_gain_divisor,
    bundle,
    consistent_y,
    imu_correction,
    imu_gains,
    imu_rates,
    innovation_errors,
    pi_from_products,
    pi_meas,
    random_filter_state,
    random_ref_triad,
    random_rotation,
    random_weights,
    upsilon_meas,
)
from lieslam._laws import TAU_FLOOR
from lieslam.liegroup import Pose, Twist, antisym_project, so3_distance, so3_exp, upsilon, vex
from lieslam.observers import FilterState, build_kernel, imu_step


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
        k = build_kernel(refs, random_weights(rng, 3))
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
    for _ in range(100):
        r_hat, r_true = random_rotation(rng), random_rotation(rng)
        bodies = BENCH_REFS @ r_true
        meas = upsilon_meas(r_hat, BENCH_REFS, bodies, np.ones(3))
        r_tilde = r_hat @ r_true.T
        assert np.abs(meas - upsilon(r_tilde @ BENCH_KERNEL.matrix)).max() < 1e-10


def test_pi_meas_equals_error_trace():
    rng = np.random.default_rng(63)
    for _ in range(100):
        refs = random_ref_triad(rng)
        w = random_weights(rng, 3)
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
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isclose(attitude_gain_divisor(UNIT_KERNEL, 3.0), 8.0, atol=1e-12)
    with pytest.warns(RuntimeWarning):
        assert attitude_gain_divisor(UNIT_KERNEL, -1.0) == TAU_FLOOR
    with pytest.warns(RuntimeWarning):
        assert attitude_gain_divisor(UNIT_KERNEL, float("nan")) == TAU_FLOOR


def test_measurement_form_of_attitude_energy():
    """(1/4) sum w_j (1 - vhat_j . v_j) equals (1/4) tr((I - R-tilde) M)."""
    rng = np.random.default_rng(64)
    for _ in range(100):
        refs = random_ref_triad(rng)
        w = random_weights(rng, 3)
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
    kernel = BENCH_KERNEL
    for _ in range(200):
        r_tilde = random_rotation(rng)
        if np.trace(r_tilde) <= -1.0 + 1e-3:
            continue
        energy = 0.25 * np.trace((np.eye(3) - r_tilde) @ kernel.matrix)
        innov = vex(antisym_project(r_tilde @ kernel.matrix))
        bound = (2.0 / kernel.lambda_min) * (innov @ innov) / (1.0 + np.trace(r_tilde))
        assert energy <= bound + 1e-9


# ------------------------------------------------------ IMU-aided correction


def test_correction_zero_at_consistent_state():
    rng = np.random.default_rng(66)
    fs = random_filter_state(rng, max_angle=np.pi / 2)
    m = bundle(consistent_y(fs), BENCH_REFS, BENCH_REFS @ fs.pose.rotation)
    w = imu_correction(fs, m, np.zeros((4, 3)), BENCH_KERNEL, imu_gains(4))
    assert np.abs(w.omega).max() < 1e-12
    assert np.array_equal(w.v, np.zeros(3))


def test_correction_attitude_hand_case():
    # identity estimate, truth rotated about z so that sin(theta) = -0.1,
    # orthonormal references: the weighted cross sum is (0, 0, 0.1),
    # pi = 1 + 2 cos(theta), tau = 2 (2 + 2 cos(theta))
    theta = -np.arcsin(0.1)
    r_true = so3_exp(np.array([0.0, 0.0, theta]))
    fs = FilterState(Pose.identity(), np.array([[1.0, 2.0, 3.0]]), Twist.zero())
    m = bundle(np.zeros((1, 3)), np.eye(3), np.eye(3) @ r_true)
    w = imu_correction(fs, m, np.zeros((1, 3)), UNIT_KERNEL, imu_gains(1))
    expected_z = 5.0 * 0.1 / (2.0 * (2.0 + 2.0 * np.sqrt(0.99)))
    assert np.allclose(w.omega, [0.0, 0.0, expected_z], atol=1e-12)
    assert np.array_equal(w.v, np.zeros(3))


def test_correction_matches_componentwise_build():
    rng = np.random.default_rng(67)
    fs = random_filter_state(rng, max_angle=np.pi / 2)
    gains = imu_gains(4)
    kernel = BENCH_KERNEL
    r_true = random_rotation(rng, max_angle=np.pi / 2)
    bodies = BENCH_REFS @ r_true
    y = consistent_y(fs) + rng.standard_normal((4, 3)) * 0.3
    e = innovation_errors(fs, y)
    m = bundle(y, BENCH_REFS, bodies)

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
    fs = random_filter_state(rng, n=5, max_angle=np.pi / 2)
    bodies = BENCH_REFS @ random_rotation(rng, max_angle=np.pi / 2)
    y = consistent_y(fs) + rng.standard_normal((5, 3)) * 0.2
    e = innovation_errors(fs, y)
    m = bundle(y, BENCH_REFS, bodies)
    block = imu_correction(fs, m, e, BENCH_KERNEL, imu_gains(5))
    simple = imu_correction(fs, m, e, BENCH_KERNEL, imu_gains(5), simplified_form=True)
    assert np.allclose(block.omega, 5.0 * simple.omega, atol=1e-12)
    assert np.allclose(block.v, simple.v, atol=1e-15)


# --------------------------------------------------- rates and the antipode


def test_step_rates_by_finite_difference():
    rng = np.random.default_rng(70)
    n = 4
    fs = random_filter_state(rng, n, max_angle=np.pi / 2)
    gains = imu_gains(n)
    refs = random_ref_triad(rng)
    kernel = build_kernel(refs, random_weights(rng, 3))
    bodies = refs @ random_rotation(rng, max_angle=np.pi / 2)
    y = consistent_y(fs) + rng.standard_normal((n, 3)) * 0.2
    m = bundle(y, refs, bodies, u=Twist(rng.standard_normal(3), rng.standard_normal(3)))
    dt = 1e-9
    assert_rates(fs, imu_step(fs, m, kernel, gains, dt), dt, imu_rates(fs, m, kernel, gains))


_FLIP = np.diag([1.0, -1.0, -1.0])
_SQUARE = np.array([
    [10.0, 10.0, 0.0], [10.0, -10.0, 0.0], [-10.0, 10.0, 0.0], [-10.0, -10.0, 0.0],
])
# static truth at the origin with identity attitude: features measure
# the landmarks themselves, directions transport to themselves
_STATIC = bundle(_SQUARE, np.eye(3), np.eye(3))


def test_antipodal_attitude_is_stationary():
    """A half-turn attitude error with self-consistent landmarks is an
    equilibrium: every correction vanishes and the state never moves."""
    fs = FilterState(
        pose=Pose(_FLIP.copy(), np.zeros(3)),
        landmarks=_SQUARE @ _FLIP.T,   # gauge-consistent: p-hat = flip p
        bias=Twist.zero(),
    )
    out = fs
    for _ in range(10):
        out = imu_step(out, _STATIC, UNIT_KERNEL, imu_gains(4), 0.001)
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
    gains = imu_gains(4)
    att = None
    for k in range(8000):
        fs = imu_step(fs, _STATIC, UNIT_KERNEL, gains, 0.001)
        if k == 2999:
            att = so3_distance(fs.pose.rotation)
    assert att < 0.01                        # left the set within 3 s
    assert so3_distance(fs.pose.rotation) < 1e-3   # and keeps converging


# ------------------------------------------------------- full-run behaviour


def test_clean_run_converges_fully(clean_imu):
    report = clean_imu.report
    assert report.att_dist[-1] < 1e-4
    assert report.e_norms[-1].max() < 1e-3
    assert report.feat_err[-1].max() < 0.5
    assert report.bias_err[-1] < 0.02
