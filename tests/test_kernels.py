"""The compiled-or-interpreted kernels against the numpy forms of the laws.

The rates kernels are called exactly as the step functions call them
(flat state from ``pack_state``, parameters from the step's own
packing) and compared with the numpy corrections plus the kinematics at
a relative tolerance of 1e-12.  A byte-identity guard pins the CSV
digests of two short bundled runs on the interpreted backend.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from _support import random_ref_triad, random_rotation

from lieslam import _kernels
from lieslam.cli import main
from lieslam.filter_basic import (
    BasicGains,
    FilterState,
    basic_correction,
    basic_params,
    innovation_errors,
    pack_state,
)
from lieslam.filter_imu import (
    ImuGains,
    _attitude_terms,
    attitude_gain_divisor,
    build_kernel,
    imu_correction,
    imu_params,
    pi_from_products,
)
from lieslam.harness import bundled_config_path
from lieslam.liegroup import Pose, Twist, adjoint_aug, skew
from lieslam.quaternion import (
    QuatFilterState,
    quat_conjugate,
    quat_correction,
    quat_omega,
    rotate_by_quat,
)
from lieslam.worldsim import MeasurementBundle

SIZES = (3, 4, 32)
RTOL = 1e-12


def _close(actual, expected):
    """rtol 1e-12 against the block's largest entry, so that entries
    which cancel to near zero are held to the same absolute accuracy."""
    expected = np.asarray(expected, dtype=float)
    atol = RTOL * np.abs(expected).max()
    np.testing.assert_allclose(np.asarray(actual, dtype=float), expected, rtol=RTOL, atol=atol)


def _case(seed: int, n: int):
    """Random state, measurements, direction kernel and gains with n landmarks."""
    rng = np.random.default_rng(seed)
    fs = FilterState(
        pose=Pose(random_rotation(rng), rng.standard_normal(3) * 2.0),
        landmarks=rng.standard_normal((n, 3)) * 5.0,
        bias=Twist(rng.standard_normal(3) * 0.1, rng.standard_normal(3) * 0.1),
    )
    refs = random_ref_triad(rng)
    weights = rng.uniform(0.2, 2.0, 3)
    weights *= 3.0 / weights.sum()
    bodies = refs @ random_rotation(rng)
    y = (fs.landmarks - fs.pose.position) @ fs.pose.rotation + rng.standard_normal((n, 3))
    m = MeasurementBundle(
        u_m=Twist(rng.standard_normal(3), rng.standard_normal(3)),
        y=y, imu_ref=refs, imu_body=bodies, t=0.0,
    )
    basic = BasicGains(k_w=rng.uniform(1, 5), k_1=rng.uniform(1, 5),
                       gamma=rng.uniform(1, 100, 6), alpha=rng.uniform(0.1, 1, n))
    imu = ImuGains(k_w=rng.uniform(1, 5), k_1=rng.uniform(1, 5), k_2=rng.uniform(1, 20),
                   gamma_1=rng.uniform(1, 10, 3), gamma_2=rng.uniform(1, 100, 3),
                   alpha=rng.uniform(0.1, 1, n))
    return fs, m, build_kernel(refs, weights), basic, imu


def _rates(rates, x, params) -> np.ndarray:
    return np.array(rates(x, params))


@pytest.mark.parametrize("n", SIZES)
def test_basic_rates_match_numpy_laws(n):
    fs, m, _, gains, _ = _case(100 + n, n)
    x = pack_state(fs.pose.rotation, fs.pose.position, fs.bias, fs.landmarks)
    out = _rates(_kernels._basic_rates, x, basic_params(m, gains))

    r = fs.pose.rotation
    e = innovation_errors(fs, m.y)
    w = basic_correction(fs, e, gains)
    u = m.u_m.vector() - fs.bias.vector() - w.vector()
    inv_a = (1.0 / gains.alpha)[:, None]
    zw = np.concatenate([(inv_a * np.cross(fs.landmarks - e, e)).sum(axis=0),
                         (inv_a * e).sum(axis=0)])
    _close(out[:9], (r @ skew(u[:3])).ravel())
    _close(out[9:12], r @ u[3:])
    _close(out[12:18], -gains.gamma * (adjoint_aug(fs.pose).T @ zw))
    _close(out[18:], (-gains.k_1 * e).ravel())


def _imu_bias_rates(gains, scale, half, e_body, y):
    inv_a = (1.0 / gains.alpha)[:, None]
    return np.concatenate([
        gains.gamma_1 * (scale * 0.5 * half - (inv_a * np.cross(y, e_body)).sum(axis=0)),
        -gains.gamma_2 * (inv_a * e_body).sum(axis=0),
    ])


@pytest.mark.parametrize("simplified", (False, True))
@pytest.mark.parametrize("n", SIZES)
def test_imu_rates_match_numpy_laws(n, simplified):
    fs, m, kernel, _, gains = _case(200 + n, n)
    scale = 1.0 if simplified else float(n)
    x = pack_state(fs.pose.rotation, fs.pose.position, fs.bias, fs.landmarks)
    out = _rates(_kernels._imu_rates, x, imu_params(m, kernel, gains, scale))

    r = fs.pose.rotation
    e = innovation_errors(fs, m.y)
    w = imu_correction(fs, m, e, kernel, gains, simplified_form=simplified)
    half, _ = _attitude_terms(r, m, kernel)
    u = m.u_m.vector() - fs.bias.vector() - w.vector()
    _close(out[:9], (r @ skew(u[:3])).ravel())
    _close(out[9:12], r @ u[3:])
    _close(out[12:18], _imu_bias_rates(gains, scale, half, e @ r, m.y))
    _close(out[18:], (-gains.k_1 * e + np.cross(m.y, w.omega) @ r.T).ravel())


@pytest.mark.parametrize("simplified", (False, True))
@pytest.mark.parametrize("n", SIZES)
def test_quat_rates_match_numpy_laws(n, simplified):
    fs, m, kernel, _, gains = _case(300 + n, n)
    qs = QuatFilterState.from_rotation(fs.pose.rotation, fs.pose.position,
                                       fs.landmarks, fs.bias)
    scale = 1.0 if simplified else float(n)
    x = pack_state(qs.q, qs.position, qs.bias, qs.landmarks)
    out = _rates(_kernels._quat_rates, x, imu_params(m, kernel, gains, scale))

    q, q_inv = qs.q, quat_conjugate(qs.q)
    w = quat_correction(qs, m, kernel, gains, simplified_form=simplified)
    v_hat = rotate_by_quat(q_inv, m.imu_ref)
    half = 0.5 * (kernel.weights[:, None] * np.cross(v_hat, m.imu_body)).sum(axis=0)
    innov = rotate_by_quat(q_inv, rotate_by_quat(q, half))
    e = qs.landmarks - rotate_by_quat(q, m.y) - qs.position
    u = m.u_m.vector() - qs.bias.vector() - w.vector()
    _close(out[:4], 0.5 * (quat_omega(u[:3]) @ q))
    _close(out[4:7], rotate_by_quat(q, u[3:]))
    _close(out[7:13], _imu_bias_rates(gains, scale, innov, rotate_by_quat(q_inv, e), m.y))
    _close(out[13:], (-gains.k_1 * e + rotate_by_quat(q, np.cross(m.y, w.omega))).ravel())


def test_gain_divisor_matches_numpy_guards():
    fs, m, kernel, _, _ = _case(400, 4)
    w = kernel.weights[:, None, None]
    v_hat = m.imu_ref @ fs.pose.rotation
    a_mat = (w * (m.imu_body[:, :, None] * m.imu_ref[:, None, :])).sum(axis=0)
    b_mat = (w * (v_hat[:, :, None] * m.imu_ref[:, None, :])).sum(axis=0)
    tau = attitude_gain_divisor(kernel, pi_from_products(a_mat, b_mat))
    got = _kernels._gain_divisor(tuple(a_mat.ravel().tolist()), tuple(b_mat.ravel().tolist()),
                                 kernel.lambda_min)
    assert got == pytest.approx(tau, rel=RTOL)
    singular = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0)
    assert _kernels._gain_divisor(singular, singular, 1.0) == _kernels.TAU_FLOOR
    ill = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1e-9)
    assert _kernels._gain_divisor(singular, ill, 1.0) == _kernels.TAU_FLOOR


@pytest.mark.skipif(not _kernels.JIT, reason="numba is not installed")
@pytest.mark.parametrize("n", SIZES)
def test_njit_matches_python_source(n):
    fs, m, kernel, basic, gains = _case(500 + n, n)
    x = pack_state(fs.pose.rotation, fs.pose.position, fs.bias, fs.landmarks)
    xq = pack_state(QuatFilterState.from_rotation(fs.pose.rotation, fs.pose.position,
                                                  fs.landmarks, fs.bias).q,
                    fs.pose.position, fs.bias, fs.landmarks)
    params = imu_params(m, kernel, gains, float(n))
    for fn, state, args in ((_kernels._basic_rates, x, basic_params(m, basic)),
                            (_kernels._imu_rates, x, params),
                            (_kernels._quat_rates, xq, params)):
        _close(fn(state, args), fn.py_func(state, args))
    for fn, state, args in ((_kernels.basic_sample, x, basic_params(m, basic)),
                            (_kernels.imu_sample, x, params),
                            (_kernels.quat_sample, xq, params)):
        _close(fn(state, args, 0.001, 2), fn.py_func(state, args, 0.001, 2))


# sha256 of every CSV of two 0.3 s bundled runs, recorded on the
# interpreted backend before the kernels moved to Python floats
DIGESTS = {
    ("square_climb", "both"): {
        "estimate_basic.csv": "e19ad8c17e25dd67554031f751b8979c65deec3a1e660932bbf0c5719d60ac9c",
        "estimate_imu.csv": "793ea4b9e5b8684d86d287dfcd61e35ce946697a931afb09200c374d83162023",
        "filter_basic.csv": "321044929917d6aeaa119ca7d6bc8c5d99aa7efa6769d952a2bb5958fab026b1",
        "filter_imu.csv": "a913fdecc4122a559ec38f0f259f9e1da48149100d240f7400381ddbec561e8f",
        "truth.csv": "d6526d15cfa2967d8b37f74ac07d0e3c7e2defdb61c184bc1660b98b86e74596",
    },
    ("square_level", "imu_quat"): {
        "estimate_imu_quat.csv": "7c2358a162c1507cc62cd127744677058087a4c3f54ba478bd14246b85a65da4",
        "filter_imu_quat.csv": "3a18c0373119d643048d8d4e9720a73d462721e3d44560b8b2d437fb2552324d",
        "truth.csv": "df9789bf8470d96dfe72ae3e27f045631bd5dc914c6e853069a2a7528c4cf0f2",
    },
}


@pytest.mark.skipif(_kernels.JIT, reason="the digests are those of the interpreted backend")
@pytest.mark.parametrize("config,filter_kind", sorted(DIGESTS))
def test_short_runs_are_byte_identical(tmp_path, config, filter_kind):
    doc = json.loads(bundled_config_path(config).read_text())
    doc["world"]["duration"] = 0.3
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--filter", filter_kind, "--out", str(out)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert got == DIGESTS[(config, filter_kind)]
