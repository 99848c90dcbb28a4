"""IMU-aided SLAM observer: direction sensors drive the attitude loop.

Compared with the feature-only observer, the pose correction here splits
into an attitude part fed by inertial direction pairs and a translation
part fed by the landmark innovations.  The attitude gain is normalized
by tau = lambda_min(breve M) * (1 + pi), which grows the correction near
the antipodal attitude set and lets the estimate escape it.

Two conventions are supported for the terms that do not depend on the
landmark index: the default counts them once per landmark (n-fold, the
block-summed form), ``simplified_form=True`` counts them once.  Both are
exactly monotone under matching Lyapunov candidates (see metrics).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._kernels import _PI_COND_LIMIT, TAU_FLOOR
from .filter_basic import FilterState, pack_state, run_sample, unpack_state
from .liegroup import Twist
from .worldsim import MeasurementBundle


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

    def __post_init__(self):
        object.__setattr__(self, "gamma_1", np.asarray(self.gamma_1, dtype=float))
        object.__setattr__(self, "gamma_2", np.asarray(self.gamma_2, dtype=float))
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=float))
        if self.k_w <= 0 or self.k_1 <= 0 or self.k_2 <= 0:
            raise ValueError("k_w, k_1, k_2 must be positive")
        for name in ("gamma_1", "gamma_2"):
            g = getattr(self, name)
            if g.shape != (3,) or (g <= 0).any():
                raise ValueError(f"{name} must be 3 positive diagonal entries")
        if self.alpha.ndim != 1 or (self.alpha <= 0).any():
            raise ValueError("alpha must be positive, one entry per landmark")


@dataclass(frozen=True)
class AttitudeKernel:
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
        raise ValueError(
            "attitude kernel is rank deficient; directions must span 3-space"
        )
    breve = np.trace(m) * np.eye(3) - m
    return AttitudeKernel(
        matrix=m,
        breve=breve,
        lambda_min=float(np.linalg.eigvalsh(breve)[0]),
        weights=weights,
    )


def upsilon_meas(rotation: np.ndarray, refs: np.ndarray, bodies: np.ndarray,
                 weights: np.ndarray) -> np.ndarray:
    """Attitude innovation from direction pairs, in the inertial frame.

    Equals vex of the antisymmetric part of (R-hat R^T) M when the body
    rows are noise-free transports of the references.
    """
    v_hat = np.asarray(refs, dtype=float) @ rotation  # rows R-hat^T ref_j
    half = 0.5 * (np.asarray(weights, dtype=float)[:, None]
                  * np.cross(v_hat, bodies)).sum(axis=0)
    return rotation @ half


def pi_from_products(a_mat: np.ndarray, b_mat: np.ndarray) -> float:
    """tr(a_mat @ b_mat^-1), or NaN when b_mat is too ill-conditioned."""
    try:
        b_inv = np.linalg.inv(b_mat)
    except np.linalg.LinAlgError:
        return float("nan")
    if np.linalg.norm(b_mat) * np.linalg.norm(b_inv) >= _PI_COND_LIMIT:
        return float("nan")
    return float(np.trace(a_mat @ b_inv))


def pi_meas(rotation: np.ndarray, refs: np.ndarray, bodies: np.ndarray,
            weights: np.ndarray) -> float:
    """Trace alignment estimate; equals tr(R-hat R^T) with clean pairs.

    Returns NaN when the measured outer-product matrix is near-singular
    (condition number >= 1e8); callers clamp the gain divisor instead.
    """
    refs = np.asarray(refs, dtype=float)
    bodies = np.asarray(bodies, dtype=float)
    weights = np.asarray(weights, dtype=float)
    v_hat = refs @ rotation
    a_mat = (weights[:, None, None] * (bodies[:, :, None] * refs[:, None, :])).sum(axis=0)
    b_mat = (weights[:, None, None] * (v_hat[:, :, None] * refs[:, None, :])).sum(axis=0)
    return pi_from_products(a_mat, b_mat)


def attitude_gain_divisor(kernel: AttitudeKernel, pi: float) -> float:
    """tau = lambda_min(breve) * (1 + pi), floored at 1e-6.

    The floor engages on the antipodal attitude set (pi -> -1) and when
    pi is flagged NaN by the conditioning guard.
    """
    tau = kernel.lambda_min * (1.0 + pi)
    if not np.isfinite(tau) or tau < TAU_FLOOR:
        warnings.warn(
            "attitude gain divisor clamped to its floor; estimate is near "
            "the antipodal set or the direction matrix is ill-conditioned",
            RuntimeWarning,
            stacklevel=2,
        )
        return TAU_FLOOR
    return float(tau)


def _attitude_terms(rotation: np.ndarray, m: MeasurementBundle,
                    kernel: AttitudeKernel) -> tuple[np.ndarray, float]:
    """Body-frame half innovation sum_j (s_j/2) v_hat_j x v_j, and tau."""
    v_hat = m.imu_ref @ rotation
    w = kernel.weights[:, None]
    half = 0.5 * (w * np.cross(v_hat, m.imu_body)).sum(axis=0)
    a_mat = (kernel.weights[:, None, None]
             * (m.imu_body[:, :, None] * m.imu_ref[:, None, :])).sum(axis=0)
    b_mat = (kernel.weights[:, None, None]
             * (v_hat[:, :, None] * m.imu_ref[:, None, :])).sum(axis=0)
    tau = attitude_gain_divisor(kernel, pi_from_products(a_mat, b_mat))
    return half, tau


def imu_correction(fs: FilterState, m: MeasurementBundle, e: np.ndarray,
                   kernel: AttitudeKernel, gains: ImuGains,
                   simplified_form: bool = False) -> Twist:
    """Pose correction: direction-driven attitude part, innovation-driven
    translation part."""
    r = fs.pose.rotation
    half, tau = _attitude_terms(r, m, kernel)
    scale = 1.0 if simplified_form else float(e.shape[0])
    w_omega = scale * (gains.k_w / tau) * half
    e_body = e @ r
    w_v = -gains.k_2 * ((1.0 / gains.alpha)[:, None] * e_body).sum(axis=0)
    return Twist(w_omega, w_v)


# One fourth-order stage per 1 ms interval keeps the fastest error mode
# (the bias/landmark exchange, whose frequency grows with ||y_i||) well
# inside the integrator's stability region on the benchmark scenarios.
DEFAULT_SUBSTEPS = 1


def imu_step(fs: FilterState, m: MeasurementBundle, kernel: AttitudeKernel,
             gains: ImuGains, dt: float, simplified_form: bool = False,
             substeps: int = DEFAULT_SUBSTEPS) -> FilterState:
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
    x = pack_state(fs.pose.rotation, fs.pose.position, fs.bias, fs.landmarks)
    return unpack_state(run_sample(_kernels.imu_sample, x,
                                   imu_params(m, kernel, gains, scale), dt, substeps,
                                   "IMU-aided observer"))


def imu_params(m: MeasurementBundle, kernel: AttitudeKernel, gains: ImuGains,
               scale: float) -> tuple:
    """Per-interval parameters of ``_kernels._imu_rates``/``_quat_rates``."""
    to_kernel = _kernels.to_kernel
    return (
        to_kernel(m.y), to_kernel(m.imu_ref), to_kernel(m.imu_body),
        to_kernel(kernel.weights), float(kernel.lambda_min),
        to_kernel(m.u_m.omega), to_kernel(m.u_m.v),
        float(gains.k_w), float(gains.k_1), float(gains.k_2),
        to_kernel(gains.gamma_1), to_kernel(gains.gamma_2),
        to_kernel(1.0 / gains.alpha), scale,
    )
