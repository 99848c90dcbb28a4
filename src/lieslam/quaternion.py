"""Quaternion build of the IMU-aided filter, and its attitude conversions.

The filter here integrates the same correction laws as
:mod:`lieslam.filter_imu`, but carries attitude as a unit quaternion and
transports every vector by quaternion conjugation instead of rotation
matrices (``_kernels._quat_rates``).  Run side by side with the matrix
filter it acts as an independent cross-check of the whole estimation
pipeline.

Convention: scalar-first [q0, qx, qy, qz]; quat_to_rot(q) maps body
coordinates to inertial ones, matching R in the matrix filter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .filter_basic import pack_state, run_sample, split_state
from .filter_imu import DEFAULT_SUBSTEPS, AttitudeKernel, ImuGains, imu_params
from .liegroup import Twist, skew
from .worldsim import MeasurementBundle


def quat_normalize(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    return q / np.linalg.norm(q)


def quat_to_rot(q: np.ndarray) -> np.ndarray:
    """Rotation matrix (q0^2 - |qv|^2) I + 2 qv qv^T + 2 q0 [qv]_x."""
    q = np.asarray(q, dtype=float)
    q0, qv = q[0], q[1:]
    return (
        (q0 * q0 - qv @ qv) * np.eye(3)
        + 2.0 * np.outer(qv, qv)
        + 2.0 * q0 * skew(qv)
    )


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
