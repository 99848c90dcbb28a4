"""Rotation / rigid-body / pose-plus-landmarks group primitives.

Everything here works on plain numpy arrays: rotations are (3, 3),
translations and angular rates are (3,).  The exponential maps use the
closed Rodrigues forms with a series fallback near zero angle, so they
are safe for the tiny per-step increments produced by a high-rate
integrator as well as for large test inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Antisymmetry slack tolerated by vex(); anything dirtier is a caller bug.
_VEX_SYMMETRY_TOL = 1e-6
# Below this rotation angle the closed Rodrigues coefficients are replaced
# by their second-order series to avoid 0/0.
_SMALL_ANGLE = 1e-6


def skew(y: np.ndarray) -> np.ndarray:
    """Return the antisymmetric matrix with skew(y) @ x == cross(y, x);
    leading axes of ``y`` (..., 3) give a stack of them."""
    y = np.asarray(y, dtype=float)
    y0, y1, y2, zero = y[..., 0], y[..., 1], y[..., 2], np.zeros(y.shape[:-1])
    return np.stack([zero, -y2, y1, y2, zero, -y0, -y1, y0, zero],
                    axis=-1).reshape(y.shape[:-1] + (3, 3))


def vex(m: np.ndarray) -> np.ndarray:
    """Invert skew(): extract y from an antisymmetric matrix.

    Raises
    ------
    ValueError
        If the symmetric part of ``m`` has Frobenius norm above 1e-6;
        vex of a non-antisymmetric matrix silently discards information,
        so it is rejected instead.
    """
    m = np.asarray(m, dtype=float)
    sym = 0.5 * (m + m.T)
    if np.linalg.norm(sym) > _VEX_SYMMETRY_TOL:
        raise ValueError(
            "vex() needs an antisymmetric matrix; symmetric part has norm "
            f"{np.linalg.norm(sym):.3e}"
        )
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


def antisym_project(a: np.ndarray) -> np.ndarray:
    """Antisymmetric part (a - a.T) / 2."""
    a = np.asarray(a, dtype=float)
    return 0.5 * (a - a.T)


def upsilon(a: np.ndarray) -> np.ndarray:
    """vex of the antisymmetric part of an arbitrary square matrix."""
    return vex(antisym_project(a))


def so3_distance(r: np.ndarray) -> float:
    """Normalized attitude distance tr(I - R) / 4, in [0, 1].

    0 exactly at the identity, 1 at a half-turn.
    """
    d = 0.25 * (3.0 - float(np.trace(r)))
    # trace roundoff can poke a hair outside [0, 1]
    return min(max(d, 0.0), 1.0)


def so3_exp(omega: np.ndarray, dt: float = 1.0) -> np.ndarray:
    """Exponential map of the rotation increment omega * dt.

    Uses the closed Rodrigues form; below an angle of 1e-6 the sin/cos
    coefficients are replaced by their second-order series.
    """
    w = np.asarray(omega, dtype=float) * dt
    theta = math.sqrt(float(w @ w))
    wx = skew(w)
    if theta < _SMALL_ANGLE:
        return np.eye(3) + wx + 0.5 * (wx @ wx)
    a = math.sin(theta) / theta
    b = (1.0 - math.cos(theta)) / (theta * theta)
    return np.eye(3) + a * wx + b * (wx @ wx)


def so3_left_jacobian(w: np.ndarray) -> np.ndarray:
    """SO(3) left Jacobian; maps algebra translations to group ones."""
    w = np.asarray(w, dtype=float)
    theta = math.sqrt(float(w @ w))
    wx = skew(w)
    if theta < _SMALL_ANGLE:
        return np.eye(3) + 0.5 * wx + (wx @ wx) / 6.0
    b = (1.0 - math.cos(theta)) / (theta * theta)
    c = (theta - math.sin(theta)) / (theta ** 3)
    return np.eye(3) + b * wx + c * (wx @ wx)


@dataclass(frozen=True)
class Twist:
    """Body-frame velocity pair (angular, linear)."""

    omega: np.ndarray
    v: np.ndarray

    @classmethod
    def zero(cls) -> "Twist":
        return cls(np.zeros(3), np.zeros(3))

    @classmethod
    def from_vector(cls, u: np.ndarray) -> "Twist":
        u = np.asarray(u, dtype=float)
        return cls(u[:3].copy(), u[3:6].copy())

    def vector(self) -> np.ndarray:
        return np.concatenate([self.omega, self.v], axis=-1)


@dataclass(frozen=True)
class Pose:
    """Rigid-body transform stored as (rotation, position).

    Equivalent to the homogeneous matrix [[R, P], [0, 1]]; the bottom
    row is implicit and therefore always exact.
    """

    rotation: np.ndarray
    position: np.ndarray

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.eye(3), np.zeros(3))

    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.position
        return m

    def inverse(self) -> "Pose":
        rt = self.rotation.T
        return Pose(rt.copy(), -(rt @ self.position))

    def compose(self, other: "Pose") -> "Pose":
        return Pose(
            self.rotation @ other.rotation,
            self.rotation @ other.position + self.position,
        )

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Map a point from the local frame to the parent frame."""
        return self.rotation @ np.asarray(x, dtype=float) + self.position


def wedge(u: Twist) -> np.ndarray:
    """4x4 algebra element [[skew(omega), v], [0, 0]] of a twist."""
    m = np.zeros((4, 4))
    m[:3, :3] = skew(u.omega)
    m[:3, 3] = u.v
    return m


def se3_exp(u: Twist, dt: float = 1.0) -> Pose:
    """Exponential of the twist u * dt as a Pose.

    Rotation by Rodrigues, translation through the left Jacobian, both
    with small-angle series fallbacks.
    """
    w = np.asarray(u.omega, dtype=float) * dt
    rho = np.asarray(u.v, dtype=float) * dt
    return Pose(so3_exp(w), so3_left_jacobian(w) @ rho)


def adjoint_aug(t: Pose) -> np.ndarray:
    """6x6 adjoint of a pose on (omega, v) twist coordinates.

    Block form [[R, 0], [skew(P) R, R]]; satisfies
    wedge(adjoint_aug(T) @ u) == T @ wedge(u) @ T^-1.
    """
    ad = np.zeros((6, 6))
    r = t.rotation
    ad[:3, :3] = r
    ad[3:, 3:] = r
    ad[3:, :3] = skew(t.position) @ r
    return ad


def orthonormalize(r: np.ndarray) -> np.ndarray:
    """One modified Gram-Schmidt pass over the rows of r."""
    r = np.array(r, dtype=float)
    r[0] /= np.linalg.norm(r[0])
    r[1] -= (r[1] @ r[0]) * r[0]
    r[1] /= np.linalg.norm(r[1])
    r[2] -= (r[2] @ r[0]) * r[0] + (r[2] @ r[1]) * r[1]
    r[2] /= np.linalg.norm(r[2])
    return r


def rotation_defect(r: np.ndarray) -> float:
    """Frobenius distance of R^T R from the identity."""
    return float(np.linalg.norm(np.asarray(r, dtype=float).T @ r - np.eye(3)))
