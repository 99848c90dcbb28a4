"""Rotation/pose algebra: construction maps, exponentials, adjoint, metrics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from _support import random_rotation, series_exp
from lieslam.liegroup import (
    Pose,
    Twist,
    adjoint_aug,
    antisym_project,
    orthonormalize,
    rotation_defect,
    se3_exp,
    skew,
    so3_distance,
    so3_exp,
    so3_left_jacobian,
    upsilon,
    vex,
    wedge,
)


def test_skew_zero_and_explicit_layout():
    assert np.array_equal(skew(np.zeros(3)), np.zeros((3, 3)))
    expected = np.array([[0.0, -3.0, 2.0], [3.0, 0.0, -1.0], [-2.0, 1.0, 0.0]])
    assert np.array_equal(skew(np.array([1.0, 2.0, 3.0])), expected)


def test_skew_matches_cross_product():
    rng = np.random.default_rng(11)
    for _ in range(100):
        v, w = rng.standard_normal((2, 3))
        assert np.allclose(skew(v) @ w, np.cross(v, w), atol=1e-12)


def test_vex_inverts_skew():
    assert np.array_equal(vex(skew(np.array([1.0, 2.0, 3.0]))), [1.0, 2.0, 3.0])
    assert np.array_equal(vex(np.zeros((3, 3))), np.zeros(3))
    rng = np.random.default_rng(12)
    for _ in range(100):
        v = rng.standard_normal(3)
        assert np.allclose(vex(skew(v)), v, atol=1e-12)


def test_vex_rejects_symmetric_part():
    with pytest.raises(ValueError):
        vex(np.eye(3))


def test_antisym_project():
    assert np.array_equal(antisym_project(np.eye(3)), np.zeros((3, 3)))
    y = np.array([0.3, -0.7, 1.1])
    assert np.allclose(antisym_project(skew(y)), skew(y), atol=1e-15)
    a = np.arange(1.0, 10.0).reshape(3, 3)
    # (A - A.T)/2 by hand: off-diagonals (-1, -2, -1) below, so vex = (1, -2, 1).
    assert np.allclose(antisym_project(a), skew(np.array([1.0, -2.0, 1.0])), atol=1e-15)


def test_upsilon_is_vex_of_antisym_part():
    assert np.array_equal(upsilon(np.eye(3)), np.zeros(3))
    y = np.array([0.5, 0.25, -2.0])
    assert np.allclose(upsilon(skew(y)), y, atol=1e-15)
    rng = np.random.default_rng(13)
    for _ in range(50):
        a = rng.standard_normal((3, 3))
        assert np.allclose(upsilon(a), vex(antisym_project(a)), atol=1e-15)


def test_so3_distance_reference_points():
    assert so3_distance(np.eye(3)) == 0.0
    assert np.isclose(so3_distance(so3_exp(np.array([0.0, 0.0, np.pi]))), 1.0, atol=1e-12)
    assert np.isclose(so3_distance(so3_exp(np.array([0.0, 0.0, np.pi / 2]))), 0.5, atol=1e-12)


def test_so3_distance_range_and_trace_form():
    rng = np.random.default_rng(14)
    for _ in range(200):
        r = random_rotation(rng)
        d = so3_distance(r)
        assert 0.0 <= d <= 1.0
        assert np.isclose(d, 0.25 * np.trace(np.eye(3) - r), atol=1e-12)
        # equivalent form used throughout the attitude analysis
        assert np.isclose(1.0 - d, 0.25 * (1.0 + np.trace(r)), atol=1e-12)


def test_so3_exp_special_cases():
    assert np.array_equal(so3_exp(np.zeros(3)), np.eye(3))
    quarter = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.allclose(so3_exp(np.array([0.0, 0.0, np.pi / 2])), quarter, atol=1e-12)


def test_so3_exp_matches_series_oracle():
    rng = np.random.default_rng(15)
    worst = 0.0
    for _ in range(200):
        w = rng.standard_normal(3)
        norm = np.linalg.norm(w)
        if norm > 2.0:  # keep the 20-term truncation comfortably converged
            w *= 2.0 / norm
        dev = np.abs(so3_exp(w) - series_exp(skew(w), 20)).max()
        worst = max(worst, dev)
    assert worst < 1e-10


def test_so3_exp_small_angle_branch():
    w = np.array([1e-8, -2e-8, 3e-9])
    assert np.allclose(so3_exp(w), series_exp(skew(w), 20), atol=1e-15)


def test_so3_exp_group_invariants():
    rng = np.random.default_rng(16)
    for _ in range(100):
        r = so3_exp(rng.standard_normal(3) * 3.0)
        assert np.allclose(r.T @ r, np.eye(3), atol=1e-12)
        assert np.isclose(np.linalg.det(r), 1.0, atol=1e-12)


def test_so3_exp_scales_with_dt():
    w = np.array([0.4, -0.1, 0.7])
    assert np.allclose(so3_exp(w, 0.25), so3_exp(w * 0.25), atol=1e-14)


def test_se3_exp_special_cases():
    p = se3_exp(Twist.zero(), 0.5)
    assert np.array_equal(p.rotation, np.eye(3))
    assert np.array_equal(p.position, np.zeros(3))
    p = se3_exp(Twist(omega=np.zeros(3), v=np.array([1.0, 0.0, 0.0])), 2.0)
    assert np.allclose(p.rotation, np.eye(3), atol=1e-15)
    assert np.allclose(p.position, [2.0, 0.0, 0.0], atol=1e-15)


def test_se3_exp_matches_series_oracle():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(200):
        u = Twist(omega=rng.standard_normal(3), v=rng.standard_normal(3) * 2.0)
        dt = rng.uniform(0.05, 0.4)
        oracle = series_exp(wedge(u) * dt, 30)
        worst = max(worst, np.abs(se3_exp(u, dt).matrix() - oracle).max())
    assert worst < 1e-10


def test_so3_left_jacobian_limits():
    assert np.allclose(so3_left_jacobian(np.zeros(3)), np.eye(3), atol=1e-15)
    # finite-angle value checked through the se3_exp series oracle above;
    # here just the small-angle series J = I + skew(w)/2 + ...
    w = np.array([1e-7, 2e-7, -1e-7])
    assert np.allclose(so3_left_jacobian(w), np.eye(3) + skew(w) / 2, atol=1e-13)


def test_wedge_layout():
    u = Twist(omega=np.array([1.0, 2.0, 3.0]), v=np.array([4.0, 5.0, 6.0]))
    m = wedge(u)
    assert m.shape == (4, 4)
    assert np.array_equal(m[:3, :3], skew(u.omega))
    assert np.array_equal(m[:3, 3], u.v)
    assert np.array_equal(m[3], np.zeros(4))


def test_twist_vector_round_trip():
    u = Twist.from_vector(np.arange(6.0))
    assert np.array_equal(u.omega, [0.0, 1.0, 2.0])
    assert np.array_equal(u.v, [3.0, 4.0, 5.0])
    assert np.array_equal(u.vector(), np.arange(6.0))


def test_adjoint_aug_reference_values():
    assert np.array_equal(adjoint_aug(Pose.identity()), np.eye(6))
    t = Pose(rotation=np.eye(3), position=np.array([1.0, 0.0, 0.0]))
    ad = adjoint_aug(t)
    assert np.array_equal(ad[:3, :3], np.eye(3))
    assert np.array_equal(ad[:3, 3:], np.zeros((3, 3)))
    assert np.array_equal(ad[3:, :3], skew(np.array([1.0, 0.0, 0.0])))
    assert np.array_equal(ad[3:, 3:], np.eye(3))


def test_adjoint_aug_conjugation_identity():
    """wedge(Ad(T) u) must equal T wedge(u) T^-1."""
    rng = np.random.default_rng(18)
    for _ in range(100):
        t = Pose(rotation=random_rotation(rng), position=rng.standard_normal(3) * 2.0)
        u = Twist(omega=rng.standard_normal(3), v=rng.standard_normal(3))
        lhs = wedge(Twist.from_vector(adjoint_aug(t) @ u.vector()))
        rhs = t.matrix() @ wedge(u) @ t.inverse().matrix()
        assert np.abs(lhs - rhs).max() < 1e-10


def test_pose_inverse_round_trip():
    rng = np.random.default_rng(19)
    for _ in range(100):
        t = Pose(rotation=random_rotation(rng), position=rng.standard_normal(3) * 3.0)
        ident = t.compose(t.inverse())
        assert np.abs(ident.rotation - np.eye(3)).max() < 1e-10
        assert np.abs(ident.position).max() < 1e-10


def test_pose_inverse_translation_only():
    t = Pose(rotation=np.eye(3), position=np.array([1.0, 2.0, 3.0]))
    inv = t.inverse()
    assert np.array_equal(inv.rotation, np.eye(3))
    assert np.array_equal(inv.position, [-1.0, -2.0, -3.0])


def test_pose_apply_matches_matrix_action():
    rng = np.random.default_rng(20)
    t = Pose(rotation=random_rotation(rng), position=rng.standard_normal(3))
    x = rng.standard_normal(3)
    hom = t.matrix() @ np.append(x, 1.0)
    assert np.allclose(t.apply(x), hom[:3], atol=1e-12)


def test_rotation_conjugates_skew():
    rng = np.random.default_rng(21)
    for _ in range(200):
        r = random_rotation(rng)
        y = rng.standard_normal(3)
        assert np.abs(skew(r @ y) - r @ skew(y) @ r.T).max() < 1e-10


def test_cross_skew_outer_identity():
    rng = np.random.default_rng(22)
    for _ in range(200):
        y, x = rng.standard_normal((2, 3))
        assert np.abs(skew(np.cross(y, x)) - (np.outer(x, y) - np.outer(y, x))).max() < 1e-12


def test_trace_pairing_identity():
    rng = np.random.default_rng(23)
    for _ in range(200):
        m = rng.standard_normal((3, 3))
        y = rng.standard_normal(3)
        lhs = np.trace(m @ skew(y))
        rhs = -2.0 * vex(antisym_project(m)) @ y
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_orthonormalize_restores_rotation():
    rng = np.random.default_rng(24)
    for _ in range(50):
        r = random_rotation(rng)
        drifted = r + rng.standard_normal((3, 3)) * 1e-6
        fixed = orthonormalize(drifted)
        assert rotation_defect(fixed) < 1e-12
        assert np.abs(fixed - r).max() < 1e-5


def test_rotation_defect_zero_on_exact_rotation():
    assert rotation_defect(np.eye(3)) == 0.0
    assert rotation_defect(np.eye(3) * 1.001) > 1e-3


def _vec3(scale):
    return hnp.arrays(np.float64, 3, elements=st.floats(-scale, scale))


@settings(max_examples=300, deadline=None)
@given(rot=_vec3(4.0), pose_rot=_vec3(4.0), position=_vec3(5.0), omega=_vec3(5.0),
       v=_vec3(5.0), y=_vec3(5.0), x=_vec3(5.0))
def test_criterion_1_identities_on_random_group_elements(rot, pose_rot, position, omega, v,
                                                         y, x):
    """Criterion 1's group identities, at its 1e-9 bound, on random
    rotations, poses and twists: skew realizes the cross product, a
    rotation conjugates skew, the adjoint agrees with the homogeneous
    form, and so3_distance has the trace form."""
    r = so3_exp(rot)
    t = Pose(so3_exp(pose_rot), position)
    u = Twist(omega, v)
    assert np.abs(skew(y) @ x - np.cross(y, x)).max() < 1e-9
    assert np.abs(skew(r @ y) - r @ skew(y) @ r.T).max() < 1e-9
    lhs = wedge(Twist.from_vector(adjoint_aug(t) @ u.vector()))
    rhs = t.matrix() @ wedge(u) @ t.inverse().matrix()
    assert np.abs(lhs - rhs).max() < 1e-9
    assert abs((1.0 - so3_distance(r)) - 0.25 * (1.0 + np.trace(r))) < 1e-9
