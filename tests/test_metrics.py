"""Error reports against ground truth, and the energy candidates."""

from __future__ import annotations

import numpy as np
import pytest

from _support import innovation_errors, random_rotation
from lieslam.filter_basic import BasicGains, FilterState
from lieslam.filter_imu import ImuGains, build_kernel
from lieslam.liegroup import Pose, Twist, so3_exp
from lieslam.metrics import (
    evaluate,
    lyapunov_basic,
    lyapunov_imu,
    report_header,
    report_row,
)
from lieslam.worldsim import TrueState


def _truth(rng, n=4) -> TrueState:
    return TrueState(
        pose=Pose(random_rotation(rng), rng.standard_normal(3) * 2.0),
        landmarks=rng.standard_normal((n, 3)) * 5.0,
        t=1.5,
    )


def _basic_gains(n=4) -> BasicGains:
    return BasicGains(k_w=5.0, k_1=5.0, gamma=np.array([3.0, 3, 3, 100, 100, 100]),
                      alpha=np.full(n, 0.1))


def _imu_gains(n=4) -> ImuGains:
    return ImuGains(k_w=5.0, k_1=5.0, k_2=20.0, gamma_1=np.full(3, 3.0),
                    gamma_2=np.full(3, 100.0), alpha=np.full(n, 0.1))


def test_evaluate_exact_state_reports_zero():
    rng = np.random.default_rng(80)
    truth = _truth(rng)
    bias = Twist(np.array([0.1, -0.2, 0.3]), np.array([0.0, 0.1, 0.0]))
    fs = FilterState(pose=truth.pose, landmarks=truth.landmarks.copy(), bias=bias)
    rep = evaluate(truth, fs, bias, lyap_kind="basic", gains=_basic_gains())
    assert rep.t == 1.5
    # attitude distance and innovations go through R R^T / frame round
    # trips, so they only vanish to machine precision
    assert rep.att_dist < 1e-15
    assert rep.pos_err == 0.0
    assert np.array_equal(rep.feat_err, np.zeros(4))
    assert rep.e_norms.max() < 1e-13
    assert rep.bias_err == 0.0
    assert rep.lyap < 1e-26


def test_evaluate_half_turn_attitude():
    rng = np.random.default_rng(81)
    truth = _truth(rng)
    flipped = so3_exp(np.array([0.0, 0.0, np.pi])) @ truth.pose.rotation
    fs = FilterState(
        pose=Pose(flipped, truth.pose.position.copy()),
        landmarks=truth.landmarks.copy(),
        bias=Twist.zero(),
    )
    rep = evaluate(truth, fs, Twist.zero(), lyap_kind="none")
    assert np.isclose(rep.att_dist, 1.0, atol=1e-12)
    assert np.isnan(rep.lyap)


def test_evaluate_innovation_matches_measurement_form():
    """The truth-reconstructed e_i equals the innovation computed from a
    noise-free measurement."""
    rng = np.random.default_rng(82)
    for _ in range(50):
        truth = _truth(rng)
        fs = FilterState(
            pose=Pose(random_rotation(rng), rng.standard_normal(3)),
            landmarks=rng.standard_normal((4, 3)) * 5.0,
            bias=Twist.zero(),
        )
        y = (truth.landmarks - truth.pose.position) @ truth.pose.rotation
        rep = evaluate(truth, fs, Twist.zero(), lyap_kind="none")
        direct = np.linalg.norm(innovation_errors(fs, y), axis=1)
        assert np.abs(rep.e_norms - direct).max() < 1e-10


def test_evaluate_validation():
    rng = np.random.default_rng(83)
    truth = _truth(rng, n=4)
    fs = FilterState(Pose.identity(), np.zeros((3, 3)), Twist.zero())
    with pytest.raises(ValueError, match="landmark counts"):
        evaluate(truth, fs, Twist.zero(), lyap_kind="none")
    fs = FilterState(Pose.identity(), np.zeros((4, 3)), Twist.zero())
    with pytest.raises(ValueError, match="BasicGains"):
        evaluate(truth, fs, Twist.zero(), lyap_kind="basic", gains=_imu_gains())
    with pytest.raises(ValueError, match="ImuGains"):
        evaluate(truth, fs, Twist.zero(), lyap_kind="imu", gains=_basic_gains())
    with pytest.raises(ValueError, match="unknown"):
        evaluate(truth, fs, Twist.zero(), lyap_kind="energy")


def test_lyapunov_basic_hand_value():
    e = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    gains = BasicGains(k_w=1.0, k_1=1.0, gamma=np.array([1.0, 1, 1, 1, 1, 100.0]),
                       alpha=np.array([0.5, 1.0]))
    bias_diff = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 3.0])
    # |e_1|^2/(2*0.5) + |e_2|^2/(2*1) + 0.5*9/100
    assert np.isclose(lyapunov_basic(e, bias_diff, gains), 1.0 + 2.0 + 0.045, atol=1e-12)


def test_lyapunov_imu_hand_value():
    kernel = build_kernel(np.eye(3), np.ones(3))
    e = np.array([[1.0, 0.0, 0.0]])
    gains = ImuGains(k_w=1.0, k_1=1.0, k_2=1.0, gamma_1=np.ones(3),
                     gamma_2=np.full(3, 100.0), alpha=np.array([0.1]))
    r_tilde = so3_exp(np.array([0.0, 0.0, np.pi]))  # trace -1, energy term 1
    bias_diff = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 2.0])
    got = lyapunov_imu(e, r_tilde, bias_diff, gains, kernel)
    assert np.isclose(got, 5.0 + 1.0 + 0.02, atol=1e-12)
    # the block-summed filter counts the attitude energy once per landmark
    got4 = lyapunov_imu(e, r_tilde, bias_diff, gains, kernel, att_multiplicity=4.0)
    assert np.isclose(got4, 5.0 + 4.0 + 0.02, atol=1e-12)


def test_report_header_layout():
    assert report_header(2) == "t,att_dist,pos_err,feat_err_1,feat_err_2,e_norm_1,e_norm_2,bias_err,lyap"


def test_report_row_round_trips_exactly():
    rng = np.random.default_rng(84)
    truth = _truth(rng)
    fs = FilterState(
        pose=Pose(random_rotation(rng), rng.standard_normal(3)),
        landmarks=rng.standard_normal((4, 3)),
        bias=Twist(rng.standard_normal(3), rng.standard_normal(3)),
    )
    rep = evaluate(truth, fs, Twist.zero(), lyap_kind="basic", gains=_basic_gains())
    values = [float(v) for v in report_row(rep).split(",")]
    expected = [rep.t, rep.att_dist, rep.pos_err, *rep.feat_err, *rep.e_norms,
                rep.bias_err, rep.lyap]
    assert values == [float(v) for v in expected]
    assert len(values) == len(report_header(4).split(","))
