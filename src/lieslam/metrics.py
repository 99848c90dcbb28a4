"""Estimation-error reports and the Lyapunov candidate.

Everything here compares an estimator state against ground truth, so the
kernel-weighted attitude energy is computed directly from the true
attitude error rather than reconstructed from measurements.  The gains
choose the candidate: none gives NaN, ``BasicGains`` the feature-only
one and ``ImuGains`` (with the attitude kernel) the IMU-aided one.
:func:`evaluate` reports one sample; a run stacks its samples' reports
into one :class:`ErrorReport` of columns.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .liegroup import Twist, so3_distance
from .observers import AttitudeKernel, BasicGains, FilterState, ImuGains
from .worldsim import TrueState


class ErrorReport(NamedTuple):
    """Run diagnostics at time t: one sample, or samples stacked along a
    leading axis (then every field gains that axis)."""

    t: float
    att_dist: float          # normalized attitude distance of R-hat R^T
    pos_err: float           # |P - P-hat|
    feat_err: np.ndarray     # (n,) |p_i - p-hat_i|
    e_norms: np.ndarray      # (n,) |e_i|
    bias_err: float          # |b - b-hat| over the 6-D bias
    lyap: float


def lyapunov(
    e: np.ndarray,
    r_tilde: np.ndarray,
    bias_diff: np.ndarray,
    gains: BasicGains | ImuGains | None,
    kernel: AttitudeKernel | None = None,
    att_multiplicity: float = 1.0,
) -> float | np.ndarray:
    """Lyapunov candidate of the observer that ``gains`` belong to, one
    value per leading index of e (..., n, 3), r_tilde (..., 3, 3) and
    bias_diff (..., 6); NaN without gains.

    Feature-only observer (BasicGains):
    sum |e_i|^2 / (2 alpha_i) + 0.5 bias_diff^T gamma^-1 bias_diff.

    IMU-aided observer (ImuGains, which needs the attitude kernel): the
    same plus att_multiplicity * (1/4) tr((I - R-tilde) M), with gamma
    the stacked gamma_1, gamma_2.  ``att_multiplicity`` matches the
    convention of the running filter: the block-summed form repeats its
    attitude terms once per landmark, so its exact candidate weights the
    attitude energy by n; the simplified form uses 1.
    """
    if gains is None:
        return float("nan")
    imu = isinstance(gains, ImuGains)
    if imu and kernel is None:
        raise ValueError("the IMU candidate needs the attitude kernel")
    quad = (0.5 * (e * e).sum(axis=-1) / gains.alpha).sum(axis=-1)
    if not imu:
        return quad + 0.5 * (bias_diff * bias_diff / gains.gamma).sum(axis=-1)
    att = 0.25 * (3.0 - np.trace(r_tilde @ kernel.matrix, axis1=-2, axis2=-1))
    gamma = np.concatenate([gains.gamma_1, gains.gamma_2])
    return quad + att_multiplicity * att + 0.5 * (bias_diff * bias_diff / gamma).sum(axis=-1)


def error_state(
    true_state: TrueState,
    fs: FilterState,
    bias_true: Twist,
    gains: BasicGains | ImuGains | None = None,
    kernel: AttitudeKernel | None = None,
    att_multiplicity: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float | np.ndarray]:
    """Error state of an estimator against the truth: R-tilde, the
    innovations e (n, 3), the bias difference b - b-hat and the
    Lyapunov candidate that ``gains`` select (see :func:`lyapunov`).

    The innovation here is reconstructed from ground truth
    (e_i = p-tilde_i - P-tilde with p-tilde_i = p-hat_i - R-tilde p_i,
    P-tilde = P-hat - R-tilde P), which coincides with the
    measurement-driven innovation when feature noise is zero.

    The poses and the estimate's landmarks and bias may stack steps
    along a leading axis (the truth's landmarks stay (n, 3)); entry k of
    the result is then, bit for bit, the error state of step k alone.
    """
    if true_state.landmarks.shape != fs.landmarks.shape[-2:]:
        raise ValueError("landmark counts of truth and estimate differ")

    r_tilde = fs.pose.rotation @ np.swapaxes(true_state.pose.rotation, -1, -2)
    p_tilde = fs.pose.position - (r_tilde @ true_state.pose.position[..., None])[..., 0]
    e = (fs.landmarks - true_state.landmarks @ np.swapaxes(r_tilde, -1, -2)
         - p_tilde[..., None, :])
    bias_diff = bias_true.vector() - fs.bias.vector()
    return r_tilde, e, bias_diff, lyapunov(e, r_tilde, bias_diff, gains, kernel,
                                           att_multiplicity)


def evaluate(
    true_state: TrueState,
    fs: FilterState,
    bias_true: Twist,
    gains: BasicGains | ImuGains | None = None,
    kernel: AttitudeKernel | None = None,
    att_multiplicity: float = 1.0,
) -> ErrorReport:
    """Error report of one estimator state against the truth (see
    :func:`error_state` for the arguments)."""
    r_tilde, e, bias_diff, lyap = error_state(true_state, fs, bias_true, gains, kernel,
                                              att_multiplicity)
    return ErrorReport(
        t=true_state.t,
        att_dist=so3_distance(r_tilde),
        pos_err=float(np.linalg.norm(true_state.pose.position - fs.pose.position)),
        feat_err=np.linalg.norm(true_state.landmarks - fs.landmarks, axis=1),
        e_norms=np.linalg.norm(e, axis=1),
        bias_err=float(np.linalg.norm(bias_diff)),
        lyap=lyap,
    )


def report_header(n_landmarks: int) -> str:
    cols = ["t", "att_dist", "pos_err"]
    cols += [f"feat_err_{i + 1}" for i in range(n_landmarks)]
    cols += [f"e_norm_{i + 1}" for i in range(n_landmarks)]
    cols += ["bias_err", "lyap"]
    return ",".join(cols)
