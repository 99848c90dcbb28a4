"""Unit-quaternion algebra and its agreement with the rotation-matrix maps."""

from __future__ import annotations

import numpy as np
import pytest

from _support import (
    imu_correction,
    innovation_errors,
    quat_conjugate,
    quat_correction,
    quat_kinematics_step,
    quat_omega,
    quat_product,
    random_ref_triad,
    random_rotation,
    rotate_by_quat,
)
from lieslam import _kernels
from lieslam.liegroup import Pose, Twist, skew, so3_exp
from lieslam.observers import (
    FilterDivergence,
    FilterState,
    ImuGains,
    QuatFilterState,
    build_kernel,
    imu_params,
    imu_step,
    pack_state,
    quat_imu_step,
    quat_normalize,
    quat_to_rot,
    rot_to_quat,
)
from lieslam.worldsim import MeasurementBundle


def _random_quat(rng):
    return quat_normalize(rng.standard_normal(4))


def test_product_identity_element():
    rng = np.random.default_rng(30)
    ident = np.array([1.0, 0.0, 0.0, 0.0])
    for _ in range(20):
        q = _random_quat(rng)
        assert np.allclose(quat_product(ident, q), q, atol=1e-15)
        assert np.allclose(quat_product(q, ident), q, atol=1e-15)


def test_product_with_conjugate_gives_identity():
    rng = np.random.default_rng(31)
    for _ in range(50):
        q = _random_quat(rng)
        prod = quat_product(q, quat_conjugate(q))
        assert np.allclose(prod, [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_product_is_rotation_homomorphism():
    """R(q1 * q2) == R(q1) @ R(q2)."""
    rng = np.random.default_rng(32)
    for _ in range(100):
        q1, q2 = _random_quat(rng), _random_quat(rng)
        lhs = quat_to_rot(quat_product(q1, q2))
        rhs = quat_to_rot(q1) @ quat_to_rot(q2)
        assert np.abs(lhs - rhs).max() < 1e-10


def test_quat_to_rot_reference_values():
    assert np.allclose(quat_to_rot(np.array([1.0, 0, 0, 0])), np.eye(3), atol=1e-15)
    half = np.pi / 4
    q = np.array([np.cos(half), 0.0, 0.0, np.sin(half)])
    quarter = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.allclose(quat_to_rot(q), quarter, atol=1e-12)


def test_quat_to_rot_is_orthonormal():
    rng = np.random.default_rng(33)
    for _ in range(100):
        r = quat_to_rot(_random_quat(rng))
        assert np.abs(r.T @ r - np.eye(3)).max() < 1e-12
        assert np.isclose(np.linalg.det(r), 1.0, atol=1e-12)


def test_double_cover():
    rng = np.random.default_rng(34)
    q = _random_quat(rng)
    assert np.array_equal(quat_to_rot(q), quat_to_rot(-q))


def test_rotate_by_quat_matches_matrix():
    rng = np.random.default_rng(35)
    for _ in range(100):
        q = _random_quat(rng)
        x = rng.standard_normal(3)
        assert np.allclose(rotate_by_quat(q, x), quat_to_rot(q) @ x, atol=1e-12)


def test_rotate_by_quat_stacked_rows():
    rng = np.random.default_rng(36)
    q = _random_quat(rng)
    xs = rng.standard_normal((5, 3))
    out = rotate_by_quat(q, xs)
    assert out.shape == (5, 3)
    for k in range(5):
        assert np.allclose(out[k], quat_to_rot(q) @ xs[k], atol=1e-12)


def test_rotate_round_trip_via_conjugate():
    rng = np.random.default_rng(37)
    q = _random_quat(rng)
    x = rng.standard_normal(3)
    back = rotate_by_quat(quat_conjugate(q), rotate_by_quat(q, x))
    assert np.allclose(back, x, atol=1e-12)


def test_rot_to_quat_round_trip_all_branches():
    # near-pi rotations about each axis force the three off-trace extraction
    # branches; the identity exercises the trace branch
    cases = [
        np.eye(3),
        so3_exp(np.array([np.pi - 1e-3, 0.0, 0.0])),
        so3_exp(np.array([0.0, np.pi - 1e-3, 0.0])),
        so3_exp(np.array([0.0, 0.0, np.pi - 1e-3])),
    ]
    rng = np.random.default_rng(38)
    cases += [random_rotation(rng) for _ in range(100)]
    for r in cases:
        q = rot_to_quat(r)
        assert q[0] >= 0.0
        assert np.isclose(np.linalg.norm(q), 1.0, atol=1e-12)
        assert np.abs(quat_to_rot(q) - r).max() < 1e-12


def test_quat_omega_reproduces_right_product():
    rng = np.random.default_rng(39)
    for _ in range(50):
        q = _random_quat(rng)
        chi = rng.standard_normal(3)
        lhs = quat_omega(chi) @ q
        rhs = quat_product(q, np.concatenate(([0.0], chi)))
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_quat_omega_square():
    rng = np.random.default_rng(40)
    chi = rng.standard_normal(3)
    om = quat_omega(chi)
    assert np.allclose(om @ om, -np.dot(chi, chi) * np.eye(4), atol=1e-12)
    # right-multiplication convention: the vector block carries -[chi]_x
    assert np.array_equal(om[1:, 1:], -skew(chi))


def test_kinematics_zero_rate_is_fixed_point():
    rng = np.random.default_rng(41)
    q = _random_quat(rng)
    assert np.allclose(quat_kinematics_step(q, np.zeros(3), 0.01), q, atol=1e-15)


def test_kinematics_integrates_constant_rate():
    q = np.array([1.0, 0.0, 0.0, 0.0])
    chi = np.array([0.0, 0.0, np.pi])
    for _ in range(1000):
        q = quat_kinematics_step(q, chi, 1e-3)
    assert np.abs(quat_to_rot(q) - so3_exp(chi)).max() < 1e-5


def test_kinematics_preserves_norm_over_long_runs():
    rng = np.random.default_rng(42)
    q = _random_quat(rng)
    for _ in range(100_000):
        q = quat_kinematics_step(q, rng.standard_normal(3) * 2.0, 0.01)
    assert abs(np.linalg.norm(q) - 1.0) < 1e-9


# ----------------------------------------------- quaternion-attitude observer


def _imu_gains(n: int) -> ImuGains:
    return ImuGains(
        k_w=5.0, k_1=5.0, k_2=20.0,
        gamma_1=np.full(3, 3.0), gamma_2=np.full(3, 100.0), alpha=np.full(n, 0.1),
    )


def _quat_setup(rng, n=4):
    pose = Pose(random_rotation(rng), rng.standard_normal(3) * 2.0)
    fs = FilterState(
        pose=pose,
        landmarks=rng.standard_normal((n, 3)) * 5.0,
        bias=Twist(rng.standard_normal(3) * 0.1, rng.standard_normal(3) * 0.1),
    )
    refs = random_ref_triad(rng)
    w = np.ones(3)
    kernel = build_kernel(refs, w)
    bodies = refs @ random_rotation(rng, max_angle=np.pi / 2)
    y = (fs.landmarks - pose.position) @ pose.rotation + rng.standard_normal((n, 3)) * 0.2
    m = MeasurementBundle(
        u_m=Twist(rng.standard_normal(3), rng.standard_normal(3)),
        y=y, imu_ref=refs, imu_body=bodies, t=0.0,
    )
    return fs, kernel, m


def test_filter_state_round_trip():
    rng = np.random.default_rng(43)
    fs, _, _ = _quat_setup(rng)
    qs = QuatFilterState.from_rotation(
        fs.pose.rotation, fs.pose.position, fs.landmarks, fs.bias
    )
    assert np.abs(quat_to_rot(qs.q) - fs.pose.rotation).max() < 1e-12
    assert np.array_equal(qs.position, fs.pose.position)


def test_correction_matches_matrix_filter():
    rng = np.random.default_rng(44)
    gains = _imu_gains(4)
    for _ in range(25):
        fs, kernel, m = _quat_setup(rng)
        qs = QuatFilterState.from_rotation(
            fs.pose.rotation, fs.pose.position, fs.landmarks, fs.bias
        )
        ref = imu_correction(fs, m, innovation_errors(fs, m.y), kernel, gains)
        got = quat_correction(qs, m, kernel, gains)
        # corrections on far-off random states reach ~1e3, so scale the bound
        scale = max(1.0, np.abs(ref.vector()).max())
        assert np.abs(got.vector() - ref.vector()).max() < 1e-10 * scale


def test_step_matches_matrix_filter_over_many_intervals():
    """500 intervals on a held measurement: the two attitude charts stay
    within integrator precision of each other."""
    rng = np.random.default_rng(45)
    gains = _imu_gains(4)
    fs, kernel, m = _quat_setup(rng)
    qs = QuatFilterState.from_rotation(
        fs.pose.rotation, fs.pose.position, fs.landmarks, fs.bias
    )
    for _ in range(500):
        fs = imu_step(fs, m, kernel, gains, 0.001)
        qs = quat_imu_step(qs, m, kernel, gains, 0.001)
    # the transient from a random far-off state is violent, so the two
    # charts accumulate a few 1e-7 of representational difference
    assert np.abs(quat_to_rot(qs.q) - fs.pose.rotation).max() < 1e-6
    assert np.abs(qs.position - fs.pose.position).max() < 1e-6
    assert np.abs(qs.landmarks - fs.landmarks).max() < 1e-6
    assert np.abs(qs.bias.vector() - fs.bias.vector()).max() < 1e-6
    assert abs(np.linalg.norm(qs.q) - 1.0) < 1e-12


def test_quat_step_divergence_raises():
    rng = np.random.default_rng(46)
    fs, kernel, m = _quat_setup(rng)
    qs = QuatFilterState.from_rotation(
        fs.pose.rotation, fs.pose.position, fs.landmarks, fs.bias
    )
    bad = MeasurementBundle(
        u_m=Twist.zero(), y=np.full((4, 3), np.nan),
        imu_ref=m.imu_ref, imu_body=m.imu_body, t=0.0,
    )
    with pytest.raises(FilterDivergence):
        quat_imu_step(qs, bad, kernel, _imu_gains(4), 0.001)


@pytest.mark.parametrize("scale,error", ((1e160, OverflowError), (0.0, ZeroDivisionError)))
def test_quat_step_float_exceptions_raise_divergence(scale, error):
    """A 1e160 quaternion with zero vector part and zero angular rate
    stays put and keeps every product finite, but its squared norm
    overflows in the renormalization; a zero quaternion divides by a zero norm there.
    The kernel raises, the step reports divergence."""
    rng = np.random.default_rng(47)
    fs, kernel, m = _quat_setup(rng)
    qs = QuatFilterState(np.array([scale, 0.0, 0.0, 0.0]), np.zeros(3),
                         np.zeros((4, 3)), Twist.zero())
    bad = MeasurementBundle(
        u_m=Twist.zero(), y=np.zeros((4, 3)),
        imu_ref=m.imu_ref, imu_body=m.imu_ref, t=0.0,
    )
    x = pack_state(qs.q, qs.position, qs.bias, qs.landmarks)
    with pytest.raises(error):
        _kernels.quat_sample(x, imu_params(bad, kernel, _imu_gains(4), 4.0), 0.001, 1)
    with pytest.raises(FilterDivergence, match="non-finite"):
        quat_imu_step(qs, bad, kernel, _imu_gains(4), 0.001)
