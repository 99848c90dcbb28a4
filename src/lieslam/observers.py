"""The SLAM observers on the pose-plus-landmarks group: records, gains, steps.

Three observers share one state and one kernel-step path:

- ``basic``, feature-only: pose estimate T-hat, landmark estimates
  p-hat_i and a 6-D velocity-bias estimate.  The innovation for
  landmark i is e_i = p-hat_i - R-hat y_i - P-hat, the estimated landmark
  minus where the measurement says it is; every correction is built from
  e_i transported through the pose adjoint.
- ``imu``, IMU-aided: the pose correction splits into an attitude part
  fed by inertial direction pairs and a translation part fed by the
  landmark innovations.  The attitude gain is normalized by
  tau = lambda_min(breve M) * (1 + pi), which grows the correction near
  the antipodal attitude set and lets the estimate escape it.  The terms
  that do not depend on the landmark index count once per landmark
  (n-fold, the block-summed form) by default and once with
  ``simplified_form=True``; both are exactly monotone under matching
  Lyapunov candidates (see metrics).
- ``imu_quat``, the same laws with the attitude held as a unit quaternion
  and every vector transported by conjugation; run beside the matrix
  filter it cross-checks the whole estimation pipeline.  Convention:
  scalar-first [q0, qx, qy, qz]; quat_to_rot(q) maps body coordinates to
  inertial ones, matching R in the matrix filter.

The laws themselves live once, in :mod:`lieslam._laws`.  A step packs
its record into a flat state, makes one ``_kernels.*_sample`` call over
the interval (classical RK4 with the interval's measurements held fixed)
and unpacks the result; each discrete update consumes only sample-k
quantities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels
from .liegroup import Pose, Twist, skew
from .worldsim import MeasurementBundle


class FilterDivergence(RuntimeError):
    """The estimator produced a non-finite state."""


class FilterState(NamedTuple):
    """Estimator state: pose, landmark set, velocity bias."""

    pose: Pose
    landmarks: np.ndarray  # (n, 3)
    bias: Twist


class QuatFilterState(NamedTuple):
    """Mirror of FilterState with the attitude held as a quaternion."""

    q: np.ndarray              # (4,) unit, scalar first
    position: np.ndarray       # (3,)
    landmarks: np.ndarray      # (n, 3)
    bias: Twist

    @classmethod
    def from_rotation(cls, rotation: np.ndarray, position: np.ndarray, landmarks: np.ndarray,
                      bias: Twist) -> QuatFilterState:
        return cls(rot_to_quat(rotation), np.asarray(position, dtype=float).copy(),
                   np.asarray(landmarks, dtype=float).copy(), bias)


def positive(values) -> bool:
    """Whether every entry is positive with a finite reciprocal: the laws
    divide by alpha, the Lyapunov candidates by gamma."""
    values = np.asarray(values, dtype=float)
    with np.errstate(over="ignore", divide="ignore"):
        return bool((values > 0).all() and np.isfinite(1.0 / values).all())


def _check_gains(gains) -> None:
    """Make the diagonal gains and alpha float arrays, then check that
    every gain is positive with a finite reciprocal and has its shape."""
    for name in (*gains.DIAGONALS, "alpha"):
        object.__setattr__(gains, name, np.asarray(getattr(gains, name), dtype=float))
    if not positive([getattr(gains, name) for name in gains.SCALARS]):
        names = gains.SCALARS
        listed = " and ".join(names) if len(names) == 2 else ", ".join(names)
        raise ValueError(f"{listed} must be positive with finite reciprocals")
    for name, size in gains.DIAGONALS.items():
        g = getattr(gains, name)
        if g.shape != (size,) or not positive(g):
            raise ValueError(f"{name} must be {size} positive diagonal entries with finite "
                             "reciprocals")
    if gains.alpha.ndim != 1 or not positive(gains.alpha):
        raise ValueError("alpha must be positive with finite reciprocals, one entry per "
                         "landmark")


@dataclass(frozen=True)
class BasicGains:
    """Gains of the feature-only observer.

    k_w scales the pose correction, k_1 the landmark correction, gamma
    is the (diagonal, length-6) bias adaptation rate and alpha the
    per-landmark innovation weights.
    """

    k_w: float
    k_1: float
    gamma: np.ndarray  # (6,) diagonal entries
    alpha: np.ndarray  # (n,)

    # the scalar gains, and the diagonal ones with their sizes
    SCALARS = ("k_w", "k_1")
    DIAGONALS = {"gamma": 6}

    def __post_init__(self):
        _check_gains(self)


@dataclass(frozen=True)
class ImuGains:
    """Gains of the IMU-aided observer.

    k_w scales the attitude correction, k_2 the translation correction,
    k_1 the landmark correction; gamma_1/gamma_2 are diagonal adaptation
    rates for the angular/linear bias, alpha the per-landmark weights.
    """

    k_w: float
    k_1: float
    k_2: float
    gamma_1: np.ndarray  # (3,) diagonal entries
    gamma_2: np.ndarray  # (3,)
    alpha: np.ndarray    # (n,)

    SCALARS = ("k_w", "k_1", "k_2")
    DIAGONALS = {"gamma_1": 3, "gamma_2": 3}

    def __post_init__(self):
        _check_gains(self)


class AttitudeKernel(NamedTuple):
    """Second moment of the weighted reference directions.

    matrix = sum_j s_j v_j v_j^T, breve = tr(matrix) I - matrix, and
    lambda_min is the smallest eigenvalue of breve.  The weights are
    kept so per-measurement sums can reuse them.
    """

    matrix: np.ndarray      # (3, 3)
    breve: np.ndarray       # (3, 3)
    lambda_min: float
    weights: np.ndarray     # (m,)


def build_kernel(refs: np.ndarray, weights: np.ndarray) -> AttitudeKernel:
    """Build the attitude kernel from unit reference directions.

    Raises
    ------
    ValueError
        If a reference is not unit-norm, the weights do not sum to 3,
        or the directions do not span 3-space (rank-deficient kernel).
    """
    refs = np.asarray(refs, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if refs.ndim != 2 or refs.shape[1] != 3 or refs.shape[0] != weights.shape[0]:
        raise ValueError("need one weight per (m, 3) reference row")
    if np.abs(np.linalg.norm(refs, axis=1) - 1.0).max() > 1e-9:
        raise ValueError("reference directions must be unit vectors")
    if abs(weights.sum() - 3.0) > 1e-9:
        raise ValueError("direction weights must sum to 3")

    m = (weights[:, None, None] * (refs[:, :, None] * refs[:, None, :])).sum(axis=0)
    eig_m = np.linalg.eigvalsh(m)
    if eig_m[0] < 1e-9:
        raise ValueError("attitude kernel is rank deficient; directions must span 3-space")
    breve = np.trace(m) * np.eye(3) - m
    return AttitudeKernel(matrix=m, breve=breve, lambda_min=float(np.linalg.eigvalsh(breve)[0]),
                          weights=weights)


def quat_normalize(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    return q / np.linalg.norm(q)


def quat_to_rot(q: np.ndarray) -> np.ndarray:
    """Rotation matrix (q0^2 - |qv|^2) I + 2 qv qv^T + 2 q0 [qv]_x; a stack
    (..., 4) gives a stack of matrices, each bit-identical to its row's."""
    q = np.asarray(q, dtype=float)
    q0, col = q[..., 0, None, None], q[..., 1:, None]
    row = np.swapaxes(col, -1, -2)
    return (q0 * q0 - row @ col) * np.eye(3) + 2.0 * (col * row) + 2.0 * q0 * skew(q[..., 1:])


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
        q = [0.25 * s, (r[2, 1] - r[1, 2]) / s, (r[0, 2] - r[2, 0]) / s, (r[1, 0] - r[0, 1]) / s]
    elif branch == 1:
        s = 2.0 * np.sqrt(1.0 + r[0, 0] - r[1, 1] - r[2, 2])
        q = [(r[2, 1] - r[1, 2]) / s, 0.25 * s, (r[0, 1] + r[1, 0]) / s, (r[0, 2] + r[2, 0]) / s]
    elif branch == 2:
        s = 2.0 * np.sqrt(1.0 - r[0, 0] + r[1, 1] - r[2, 2])
        q = [(r[0, 2] - r[2, 0]) / s, (r[0, 1] + r[1, 0]) / s, 0.25 * s, (r[1, 2] + r[2, 1]) / s]
    else:
        s = 2.0 * np.sqrt(1.0 - r[0, 0] - r[1, 1] + r[2, 2])
        q = [(r[1, 0] - r[0, 1]) / s, (r[0, 2] + r[2, 0]) / s, (r[1, 2] + r[2, 1]) / s, 0.25 * s]
    q = np.array(q)
    if q[0] < 0.0:
        q = -q
    return quat_normalize(q)


def basic_params(m: MeasurementBundle, gains: BasicGains) -> tuple:
    """Per-interval parameters of ``_kernels._basic_rates``."""
    return (
        m.y.tolist(), m.u_m.omega.tolist(), m.u_m.v.tolist(),
        float(gains.k_w), float(gains.k_1), gains.gamma.tolist(),
        (1.0 / gains.alpha).tolist(),
    )


def imu_params(m: MeasurementBundle, kernel: AttitudeKernel, gains: ImuGains,
               scale: float) -> tuple:
    """Per-interval parameters of ``_kernels._imu_rates``/``_quat_rates``."""
    return (
        m.y.tolist(), m.imu_ref.tolist(), m.imu_body.tolist(),
        kernel.weights.tolist(), float(kernel.lambda_min),
        m.u_m.omega.tolist(), m.u_m.v.tolist(),
        float(gains.k_w), float(gains.k_1), float(gains.k_2),
        gains.gamma_1.tolist(), gains.gamma_2.tolist(),
        (1.0 / gains.alpha).tolist(), scale,
    )


def pack_state(attitude: np.ndarray, position: np.ndarray, bias: Twist,
               landmarks: np.ndarray) -> list:
    """Flat kernel state: attitude, position, bias, then landmark rows."""
    return np.concatenate((
        attitude.ravel(), position, bias.omega, bias.v, landmarks.ravel())).tolist()


# observer -> (kernel in _kernels, attitude size, RK4 stages per interval,
# what a divergence message calls it).
# The feature-only pose correction's feedback through the lever arms
# g_i = R-hat y_i + P-hat contains a fast real mode (rate ~ k_w * sum
# ||g_i||^2, in the thousands per second on the benchmark geometry), so
# it needs two fourth-order stages per 1 ms interval.  For the IMU-aided
# observers one stage keeps the fastest error mode (the bias/landmark
# exchange, whose frequency grows with ||y_i||) well inside the
# integrator's stability region on the benchmark scenarios.
_OBSERVERS = {
    "basic": ("basic_sample", 9, 2, "feature-only observer"),
    "imu": ("imu_sample", 9, 1, "IMU-aided observer"),
    "imu_quat": ("quat_sample", 4, 1, "quaternion observer"),
}


def _step(observer: str, attitude: np.ndarray, position: np.ndarray, bias: Twist,
          landmarks: np.ndarray, params: tuple, dt: float) -> tuple:
    """Advance one observer's state across one interval with its kernel.

    This is the one place a step meets the kernel's float arithmetic: a
    finite overflow in ``**`` (OverflowError), a division by zero
    (ZeroDivisionError) and a non-finite result all mean the estimator
    diverged.  The kernel is looked up on ``_kernels`` at every call.
    Returns views (attitude, position, bias, landmark rows) of the new
    flat state.
    """
    kernel, a, substeps, label = _OBSERVERS[observer]
    x = pack_state(attitude, position, bias, landmarks)
    try:
        out = np.array(getattr(_kernels, kernel)(x, params, dt, substeps))
    except (OverflowError, ZeroDivisionError):
        out = None
    if out is None or not np.isfinite(out).all():
        raise FilterDivergence(f"{label} produced a non-finite state")
    return (out[:a], out[a:a + 3], Twist(out[a + 3:a + 6], out[a + 6:a + 9]),
            out[a + 9:].reshape(-1, 3))


def basic_step(fs: FilterState, m: MeasurementBundle, gains: BasicGains,
               dt: float) -> FilterState:
    """Advance the feature-only observer across one measurement interval.

    The continuous correction laws are integrated over [t, t + dt] with
    the interval's measurements held fixed (classical fourth-order
    stages, rotation re-orthonormalized at the end): the pose follows
    the corrected, bias-compensated velocity; the bias integrates the
    adjoint-transposed innovation wrench; landmarks relax along their
    innovations.
    """
    r, p, bias, lm = _step("basic", fs.pose.rotation, fs.pose.position, fs.bias,
                           fs.landmarks, basic_params(m, gains), dt)
    return FilterState(Pose(r.reshape(3, 3), p), lm, bias)


def imu_step(fs: FilterState, m: MeasurementBundle, kernel: AttitudeKernel,
             gains: ImuGains, dt: float, simplified_form: bool = False) -> FilterState:
    """Advance the IMU-aided observer across one measurement interval.

    The correction laws are continuous-time; the sampled implementation
    integrates them over [t, t + dt] with the interval's measurements
    held fixed, using one classical fourth-order stage per substep and
    re-orthonormalizing the rotation at the end.  A first-order update
    is not an option here: the landmark/bias coupling through
    [y_i]_x terms forms a lightly damped oscillation whose frequency
    grows with the feature range, and forward Euler amplifies it at
    practical sample rates (see the stability notes in the tests).

    The landmark rate carries the attitude-correction coupling term
    R-hat [y_i]_x W_omega, which cancels the correction's apparent
    motion in the innovations; the bias integrates the same innovation
    terms that the Lyapunov candidate pairs it with.
    """
    scale = 1.0 if simplified_form else float(fs.landmarks.shape[0])
    r, p, bias, lm = _step("imu", fs.pose.rotation, fs.pose.position, fs.bias, fs.landmarks,
                           imu_params(m, kernel, gains, scale), dt)
    return FilterState(Pose(r.reshape(3, 3), p), lm, bias)


def quat_imu_step(fs: QuatFilterState, m: MeasurementBundle, kernel: AttitudeKernel,
                  gains: ImuGains, dt: float, simplified_form: bool = False) -> QuatFilterState:
    """Advance the quaternion filter across one measurement interval.

    Same correction laws, fourth-order integration and substep count
    as :func:`imu_step`, with the attitude carried as a unit quaternion
    (renormalized each substep) and every frame change done by
    conjugation.  Run side by side with the matrix filter the
    trajectories agree to integrator precision.
    """
    scale = 1.0 if simplified_form else float(fs.landmarks.shape[0])
    q, p, bias, lm = _step("imu_quat", fs.q, fs.position, fs.bias, fs.landmarks,
                           imu_params(m, kernel, gains, scale), dt)
    return QuatFilterState(q, p, lm, bias)
