"""Unit-quaternion algebra and a quaternion build of the IMU-aided filter.

The filter here integrates the same correction laws as
:mod:`lieslam.filter_imu`, but carries attitude as a unit quaternion and
transports every vector by quaternion conjugation instead of rotation
matrices.  Run side by side with the matrix filter it acts as an
independent cross-check of the whole estimation pipeline.

Convention: scalar-first [q0, qx, qy, qz]; quat_to_rot(q) maps body
coordinates to inertial ones, matching R in the matrix filter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .filter_basic import pack_state, run_sample, split_state
from .filter_imu import (
    DEFAULT_SUBSTEPS,
    AttitudeKernel,
    ImuGains,
    attitude_gain_divisor,
    imu_params,
    pi_from_products,
)
from .liegroup import Twist, skew
from .worldsim import MeasurementBundle


def quat_normalize(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    return q / np.linalg.norm(q)


def quat_conjugate(q: np.ndarray) -> np.ndarray:
    """Inverse of a unit quaternion (negated vector part)."""
    q = np.asarray(q, dtype=float)
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a (x) b.

    Scalar part a0*b0 - av.bv, vector part a0*bv + b0*av + av x bv.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    av, bv = a[1:], b[1:]
    out = np.empty(4)
    out[0] = a[0] * b[0] - av @ bv
    out[1:] = a[0] * bv + b[0] * av + np.cross(av, bv)
    return out


def quat_to_rot(q: np.ndarray) -> np.ndarray:
    """Rotation matrix (q0^2 - |qv|^2) I + 2 qv qv^T + 2 q0 [qv]_x."""
    q = np.asarray(q, dtype=float)
    q0, qv = q[0], q[1:]
    return (
        (q0 * q0 - qv @ qv) * np.eye(3)
        + 2.0 * np.outer(qv, qv)
        + 2.0 * q0 * skew(qv)
    )


def rotate_by_quat(q: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Conjugation q (x) (0, x) (x) q^-1, in expanded form.

    Accepts a single vector or an (n, 3) stack.  Use the conjugate
    quaternion to rotate the other way.
    """
    q = np.asarray(q, dtype=float)
    x = np.asarray(x, dtype=float)
    q0, qv = q[0], q[1:]
    t = np.cross(qv, x)
    return x + 2.0 * q0 * t + 2.0 * np.cross(qv, t)


def rot_to_quat(r: np.ndarray) -> np.ndarray:
    """Quaternion of a rotation matrix, scalar part kept nonnegative.

    Shepperd's branch selection: pick the largest of the four squared
    components from the trace/diagonal before dividing, so the division
    is always well conditioned.
    """
    r = np.asarray(r, dtype=float)
    tr = np.trace(r)
    branch = int(np.argmax([tr, r[0, 0], r[1, 1], r[2, 2]]))
    if branch == 0:
        s = 2.0 * np.sqrt(1.0 + tr)
        q = np.array([
            0.25 * s,
            (r[2, 1] - r[1, 2]) / s,
            (r[0, 2] - r[2, 0]) / s,
            (r[1, 0] - r[0, 1]) / s,
        ])
    elif branch == 1:
        s = 2.0 * np.sqrt(1.0 + r[0, 0] - r[1, 1] - r[2, 2])
        q = np.array([
            (r[2, 1] - r[1, 2]) / s,
            0.25 * s,
            (r[0, 1] + r[1, 0]) / s,
            (r[0, 2] + r[2, 0]) / s,
        ])
    elif branch == 2:
        s = 2.0 * np.sqrt(1.0 - r[0, 0] + r[1, 1] - r[2, 2])
        q = np.array([
            (r[0, 2] - r[2, 0]) / s,
            (r[0, 1] + r[1, 0]) / s,
            0.25 * s,
            (r[1, 2] + r[2, 1]) / s,
        ])
    else:
        s = 2.0 * np.sqrt(1.0 - r[0, 0] - r[1, 1] + r[2, 2])
        q = np.array([
            (r[1, 0] - r[0, 1]) / s,
            (r[0, 2] + r[2, 0]) / s,
            (r[1, 2] + r[2, 1]) / s,
            0.25 * s,
        ])
    if q[0] < 0.0:
        q = -q
    return quat_normalize(q)


def quat_omega(chi: np.ndarray) -> np.ndarray:
    """4x4 kinematics matrix: dq/dt = 0.5 * quat_omega(chi) @ q.

    Satisfies quat_omega(chi)^2 == -|chi|^2 I, and
    quat_omega(chi) @ q == q (x) (0, chi).
    """
    chi = np.asarray(chi, dtype=float)
    m = np.zeros((4, 4))
    m[0, 1:] = -chi
    m[1:, 0] = chi
    m[1:, 1:] = -skew(chi)
    return m


def quat_kinematics_step(q: np.ndarray, chi: np.ndarray, dt: float) -> np.ndarray:
    """One first-order step of the attitude kinematics, renormalized."""
    q = np.asarray(q, dtype=float)
    return quat_normalize(q + 0.5 * dt * (quat_omega(chi) @ q))


@dataclass(frozen=True)
class QuatFilterState:
    """Mirror of FilterState with the attitude held as a quaternion."""

    q: np.ndarray              # (4,) unit, scalar first
    position: np.ndarray       # (3,)
    landmarks: np.ndarray      # (n, 3)
    bias: Twist

    @classmethod
    def from_rotation(
        cls,
        rotation: np.ndarray,
        position: np.ndarray,
        landmarks: np.ndarray,
        bias: Twist,
    ) -> "QuatFilterState":
        return cls(
            rot_to_quat(rotation),
            np.asarray(position, dtype=float).copy(),
            np.asarray(landmarks, dtype=float).copy(),
            bias,
        )

    def rotation(self) -> np.ndarray:
        return quat_to_rot(self.q)


def quat_correction(
    fs: QuatFilterState,
    m: MeasurementBundle,
    kernel: AttitudeKernel,
    gains: ImuGains,
    simplified_form: bool = False,
) -> Twist:
    """Pose correction of the quaternion filter at one state.

    Every frame change goes through quaternion conjugation; the
    attitude innovation is carried to the inertial frame and back
    purely by conjugation, mirroring the matrix filter's body-frame
    term without ever forming a rotation matrix.
    """
    q = fs.q
    q_inv = quat_conjugate(q)
    n = fs.landmarks.shape[0]
    scale = float(n) if not simplified_form else 1.0

    e = fs.landmarks - rotate_by_quat(q, m.y) - fs.position  # (n, 3)
    e_body = rotate_by_quat(q_inv, e)

    v_hat = rotate_by_quat(q_inv, m.imu_ref)                 # (m, 3)
    half_sum = 0.5 * (kernel.weights[:, None] * np.cross(v_hat, m.imu_body)).sum(axis=0)
    innov_body = rotate_by_quat(q_inv, rotate_by_quat(q, half_sum))

    a_mat = (kernel.weights[:, None, None] * (m.imu_body[:, :, None] * m.imu_ref[:, None, :])).sum(axis=0)
    b_mat = (kernel.weights[:, None, None] * (v_hat[:, :, None] * m.imu_ref[:, None, :])).sum(axis=0)
    tau = attitude_gain_divisor(kernel, pi_from_products(a_mat, b_mat))

    inv_alpha = 1.0 / gains.alpha                            # (n,)
    w_omega = scale * (gains.k_w / tau) * innov_body
    w_v = -gains.k_2 * (inv_alpha[:, None] * e_body).sum(axis=0)
    return Twist(w_omega, w_v)


def quat_imu_step(
    fs: QuatFilterState,
    m: MeasurementBundle,
    kernel: AttitudeKernel,
    gains: ImuGains,
    dt: float,
    simplified_form: bool = False,
    substeps: int = DEFAULT_SUBSTEPS,
) -> QuatFilterState:
    """Advance the quaternion filter across one measurement interval.

    Same correction laws, fourth-order integration and substep default
    as :func:`lieslam.filter_imu.imu_step`, with the attitude carried
    as a unit quaternion (renormalized each substep) and every frame
    change done by conjugation.  Run side by side with the matrix
    filter the trajectories agree to integrator precision, which is the
    cross-check this module exists for.
    """
    scale = float(fs.landmarks.shape[0]) if not simplified_form else 1.0
    x = pack_state(fs.q, fs.position, fs.bias, fs.landmarks)
    out = run_sample(_kernels.quat_sample, x, imu_params(m, kernel, gains, scale),
                     dt, substeps, "quaternion observer")
    q, p, b_omega, b_v, lm = split_state(out, 4)
    return QuatFilterState(q, p, lm, Twist(b_omega, b_v))
