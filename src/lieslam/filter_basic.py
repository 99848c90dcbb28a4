"""Feature-only SLAM observer on the pose-plus-landmarks group.

State: pose estimate T-hat, landmark estimates p-hat_i, and a 6-D
velocity-bias estimate.  The innovation for landmark i is

    e_i = p-hat_i - R-hat y_i - P-hat,

i.e. the estimated landmark minus where the measurement says it is.
All corrections are built from e_i transported through the pose adjoint;
each discrete update consumes only sample-k quantities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels
from .liegroup import Pose, Twist
from .worldsim import MeasurementBundle


class FilterDivergence(RuntimeError):
    """The estimator produced a non-finite state."""


class FilterState(NamedTuple):
    """Estimator state: pose, landmark set, velocity bias."""

    pose: Pose
    landmarks: np.ndarray  # (n, 3)
    bias: Twist


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

    def __post_init__(self):
        object.__setattr__(self, "gamma", np.asarray(self.gamma, dtype=float))
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=float))
        if not (self.k_w > 0 and self.k_1 > 0):
            raise ValueError("k_w and k_1 must be positive")
        if self.gamma.shape != (6,) or not (self.gamma > 0).all():
            raise ValueError("gamma must be 6 positive diagonal entries")
        if self.alpha.ndim != 1 or not (self.alpha > 0).all():
            raise ValueError("alpha must be positive, one entry per landmark")


# The pose correction's feedback through the lever arms g_i = R-hat y_i
# + P-hat contains a fast real mode (rate ~ k_w * sum ||g_i||^2, in the
# thousands per second on the benchmark geometry), so this observer
# needs two fourth-order stages per 1 ms interval where the IMU-aided
# one gets away with one.
DEFAULT_SUBSTEPS = 2


def pack_state(attitude: np.ndarray, position: np.ndarray, bias: Twist,
               landmarks: np.ndarray) -> list:
    """Flat kernel state: attitude, position, bias, then landmark rows."""
    return np.concatenate((
        attitude.ravel(), position, bias.omega, bias.v, landmarks.ravel())).tolist()


def run_sample(sample, x, params, dt: float, substeps: int, what: str) -> np.ndarray:
    """Advance one interval with a ``_kernels.*_sample`` kernel.

    This is the one place a step meets the kernel's float arithmetic:
    a finite overflow in ``**`` (OverflowError), a division by zero
    (ZeroDivisionError) and a non-finite result all mean the estimator
    diverged.  Returns the flat state as an array.
    """
    try:
        out = np.array(sample(x, params, dt, substeps))
    except (OverflowError, ZeroDivisionError):
        out = None
    if out is None or not np.isfinite(out).all():
        raise FilterDivergence(f"{what} produced a non-finite state")
    return out


def split_state(out: np.ndarray, attitude_size: int) -> tuple[np.ndarray, ...]:
    """Views (attitude, position, bias omega, bias v, landmark rows) of a
    flat state laid out by ``pack_state``."""
    a = attitude_size
    return (out[:a], out[a:a + 3], out[a + 3:a + 6], out[a + 6:a + 9],
            out[a + 9:].reshape(-1, 3))


def unpack_state(out: np.ndarray) -> FilterState:
    """FilterState of a flat state with a row-major rotation up front."""
    r, p, b_omega, b_v, lm = split_state(out, 9)
    return FilterState(Pose(r.reshape(3, 3), p), lm, Twist(b_omega, b_v))


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
    x = pack_state(fs.pose.rotation, fs.pose.position, fs.bias, fs.landmarks)
    return unpack_state(run_sample(_kernels.basic_sample, x, basic_params(m, gains),
                                   dt, DEFAULT_SUBSTEPS, "feature-only observer"))


def basic_params(m: MeasurementBundle, gains: BasicGains) -> tuple:
    """Per-interval parameters of ``_kernels._basic_rates``."""
    return (
        m.y.tolist(), m.u_m.omega.tolist(), m.u_m.v.tolist(),
        float(gains.k_w), float(gains.k_1), gains.gamma.tolist(),
        (1.0 / gains.alpha).tolist(),
    )
