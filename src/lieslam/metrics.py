"""Estimation-error reports and Lyapunov-candidate evaluation.

Everything here compares an estimator state against ground truth, so the
kernel-weighted attitude energy is computed directly from the true
attitude error rather than reconstructed from measurements.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .filter_basic import BasicGains, FilterState
from .filter_imu import AttitudeKernel, ImuGains
from .liegroup import Twist, so3_distance
from .worldsim import TrueState


class ErrorReport(NamedTuple):
    """One row of run diagnostics at time t."""

    t: float
    att_dist: float          # normalized attitude distance of R-hat R^T
    pos_err: float           # |P - P-hat|
    feat_err: np.ndarray     # (n,) |p_i - p-hat_i|
    e_norms: np.ndarray      # (n,) |e_i|
    bias_err: float          # |b - b-hat| over the 6-D bias
    lyap: float


def lyapunov_basic(e: np.ndarray, bias_diff: np.ndarray,
                   gains: BasicGains) -> float | np.ndarray:
    """Candidate for the feature-only observer:
    sum |e_i|^2 / (2 alpha_i) + 0.5 bias_diff^T gamma^-1 bias_diff, one
    value per leading index of e (..., n, 3) and bias_diff (..., 6)."""
    quad = ((e * e).sum(axis=-1) / (2.0 * gains.alpha)).sum(axis=-1)
    return quad + 0.5 * (bias_diff * bias_diff / gains.gamma).sum(axis=-1)


def lyapunov_imu(
    e: np.ndarray,
    r_tilde: np.ndarray,
    bias_diff: np.ndarray,
    gains: ImuGains,
    kernel: AttitudeKernel,
    att_multiplicity: float = 1.0,
) -> float | np.ndarray:
    """Candidate for the IMU-aided observer.

    sum |e_i|^2 / (2 alpha_i) + att_multiplicity * (1/4) tr((I - R-tilde) M)
    + 0.5 bias_diff^T gamma^-1 bias_diff.  ``att_multiplicity`` matches
    the convention of the running filter: the block-summed form repeats
    its attitude terms once per landmark, so its exact candidate weights
    the attitude energy by n; the simplified form uses 1.  Leading axes
    broadcast as in :func:`lyapunov_basic`."""
    quad = ((e * e).sum(axis=-1) / (2.0 * gains.alpha)).sum(axis=-1)
    att = 0.25 * (3.0 - np.trace(r_tilde @ kernel.matrix, axis1=-2, axis2=-1))
    gamma = np.concatenate([gains.gamma_1, gains.gamma_2])
    return quad + att_multiplicity * att + 0.5 * (bias_diff * bias_diff / gamma).sum(axis=-1)


def error_state(
    true_state: TrueState,
    fs: FilterState,
    bias_true: Twist,
    lyap_kind: str = "basic",
    gains: BasicGains | ImuGains | None = None,
    kernel: AttitudeKernel | None = None,
    att_multiplicity: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float | np.ndarray]:
    """Error state of an estimator against the truth: R-tilde, the
    innovations e (n, 3), the bias difference b - b-hat and the
    Lyapunov candidate.

    The innovation here is reconstructed from ground truth
    (e_i = p-tilde_i - P-tilde with p-tilde_i = p-hat_i - R-tilde p_i,
    P-tilde = P-hat - R-tilde P), which coincides with the
    measurement-driven innovation when feature noise is zero.

    The poses and the estimate's landmarks and bias may stack steps
    along a leading axis (the truth's landmarks stay (n, 3)); entry k of
    the result is then, bit for bit, the error state of step k alone.

    lyap_kind selects the candidate function ("basic", "imu", or "none"
    to skip, giving NaN); "basic"/"imu" require the matching gains, and
    "imu" the attitude kernel.
    """
    if true_state.landmarks.shape != fs.landmarks.shape[-2:]:
        raise ValueError("landmark counts of truth and estimate differ")

    r_tilde = fs.pose.rotation @ np.swapaxes(true_state.pose.rotation, -1, -2)
    p_tilde = fs.pose.position - (r_tilde @ true_state.pose.position[..., None])[..., 0]
    e = (fs.landmarks - true_state.landmarks @ np.swapaxes(r_tilde, -1, -2)
         - p_tilde[..., None, :])
    bias_diff = bias_true.vector() - fs.bias.vector()

    if lyap_kind == "basic":
        if not isinstance(gains, BasicGains):
            raise ValueError("lyap_kind='basic' needs BasicGains")
        lyap = lyapunov_basic(e, bias_diff, gains)
    elif lyap_kind == "imu":
        if not isinstance(gains, ImuGains) or kernel is None:
            raise ValueError("lyap_kind='imu' needs ImuGains and a kernel")
        lyap = lyapunov_imu(e, r_tilde, bias_diff, gains, kernel, att_multiplicity)
    elif lyap_kind == "none":
        lyap = float("nan")
    else:
        raise ValueError(f"unknown lyap_kind {lyap_kind!r}")
    return r_tilde, e, bias_diff, lyap


def evaluate(
    true_state: TrueState,
    fs: FilterState,
    bias_true: Twist,
    lyap_kind: str = "basic",
    gains: BasicGains | ImuGains | None = None,
    kernel: AttitudeKernel | None = None,
    att_multiplicity: float = 1.0,
) -> ErrorReport:
    """Error report of an estimator state against the truth (see
    :func:`error_state` for the arguments)."""
    r_tilde, e, bias_diff, lyap = error_state(true_state, fs, bias_true, lyap_kind, gains,
                                              kernel, att_multiplicity)
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


def report_row(report: ErrorReport) -> str:
    vals = [float(report.t), float(report.att_dist), float(report.pos_err)]
    vals += report.feat_err.tolist()
    vals += report.e_norms.tolist()
    vals += [float(report.bias_err), float(report.lyap)]
    return ",".join(map(repr, vals))
