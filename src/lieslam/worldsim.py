"""Ground-truth simulation and measurement synthesis.

A run is a rigid body moving through a field of static landmarks with a
body-mounted velocity sensor (biased, noisy), body-frame landmark
bearings-with-range, and a pair of inertial direction sensors that is
augmented to a full triad by cross products.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from dataclasses import fields as dataclass_fields
from math import sqrt
from typing import NamedTuple

import numpy as np

from . import _kernels
from .config import ConfigError, fields, floats, integer, rotation, scalar
from .liegroup import Pose, Twist

# Configured reference directions closer than this angle (radians) cannot
# span a triad and are rejected at config time.
_COLLINEAR_TOL = 1e-3


def steps_do_not_fit(k_steps: int) -> ConfigError:
    """The error for a run whose per-step arrays cannot be allocated."""
    return ConfigError(f"world.duration: {k_steps} steps of world.dt do not fit in memory")


class LinearProfile(NamedTuple):
    """Vector-valued signal const + slope * t (slope defaults to zero)."""

    const: np.ndarray
    slope: np.ndarray

    @classmethod
    def parse(cls, raw, key: str) -> "LinearProfile":
        """Accept either a plain 3-vector or {"const": ..., "slope": ...}."""
        if isinstance(raw, dict):
            fields(raw, key, ("const", "slope"))
            return cls(floats(raw.get("const", [0.0, 0.0, 0.0]), f"{key}.const", (3,)),
                       floats(raw.get("slope", [0.0, 0.0, 0.0]), f"{key}.slope", (3,)))
        return cls(floats(raw, key, (3,)), np.zeros(3))


@dataclass(frozen=True)
class WorldConfig:
    """Scenario description: environment, true motion, sensor models."""

    landmarks: np.ndarray          # (n, 3)
    imu_refs: np.ndarray           # (m0, 3) as configured, m0 >= 2
    sensor_weights: np.ndarray     # (m0 + 1,) incl. the synthesized third
    omega_true: LinearProfile
    v_true: LinearProfile
    bias_omega: np.ndarray
    bias_v: np.ndarray
    noise_std_omega: float
    noise_std_v: float
    feature_noise_std: float
    dt: float
    duration: float
    rng_seed: int
    init_rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    init_position: np.ndarray = field(default_factory=lambda: np.zeros(3))

    @property
    def n_landmarks(self) -> int:
        return self.landmarks.shape[0]

    @property
    def n_steps(self) -> int:
        return int(round(self.duration / self.dt))

    @classmethod
    def from_dict(cls, raw: dict) -> "WorldConfig":
        fields(raw, "world", [f.name for f in dataclass_fields(cls)],
               ("landmarks", "imu_refs", "dt", "duration"))
        landmarks = floats(raw["landmarks"], "world.landmarks", (None, 3))
        if landmarks.shape[0] < 3:
            raise ConfigError(f"world.landmarks: need at least 3, got {landmarks.shape[0]}")

        imu_refs = floats(raw["imu_refs"], "world.imu_refs", (None, 3))
        if imu_refs.shape[0] < 2:
            raise ConfigError("world.imu_refs: need at least 2 directions")
        augmented_refs(imu_refs)  # raises ConfigError if collinear

        n_dirs = imu_refs.shape[0] + 1
        weights = floats(raw.get("sensor_weights", np.ones(n_dirs)), "world.sensor_weights",
                         (n_dirs,), "weights (configured refs + synthesized third)")
        with np.errstate(all="ignore"):  # a zero, overflowing or subnormal sum fails below
            scale = 3.0 / weights.sum()
        if (weights < 0).any() or not 0 < scale < np.inf:
            raise ConfigError("world.sensor_weights: must be nonnegative, not all zero, "
                              "with a finite sum")
        weights = weights * scale

        dt = scalar(raw["dt"], "world.dt")
        duration = scalar(raw["duration"], "world.duration")
        if dt <= 0 or duration <= 0:
            raise ConfigError("world.dt and world.duration must be positive")
        if not 0.5 < duration / dt < np.inf:
            raise ConfigError("world.duration: must span at least one world.dt step, "
                              "and finitely many")
        noise = {}
        for name in ("noise_std_omega", "noise_std_v", "feature_noise_std"):
            noise[name] = scalar(raw.get(name, 0.0), f"world.{name}")
            if noise[name] < 0:
                raise ConfigError(f"world.{name}: must be >= 0")
        rng_seed = integer(raw.get("rng_seed", 0), "world.rng_seed", 0)

        init_rotation = rotation(raw.get("init_rotation", np.eye(3).ravel()),
                                 "world.init_rotation")

        return cls(
            landmarks=landmarks,
            imu_refs=imu_refs,
            sensor_weights=weights,
            omega_true=LinearProfile.parse(raw.get("omega_true", [0, 0, 0]), "world.omega_true"),
            v_true=LinearProfile.parse(raw.get("v_true", [0, 0, 0]), "world.v_true"),
            bias_omega=floats(raw.get("bias_omega", [0, 0, 0]), "world.bias_omega", (3,)),
            bias_v=floats(raw.get("bias_v", [0, 0, 0]), "world.bias_v", (3,)),
            dt=dt,
            duration=duration,
            rng_seed=rng_seed,
            init_rotation=init_rotation,
            init_position=floats(raw.get("init_position", [0, 0, 0]), "world.init_position",
                                 (3,)),
            **noise,
        )


class TrueState(NamedTuple):
    """Ground-truth pose + (static) landmarks at time t."""

    pose: Pose
    landmarks: np.ndarray  # (n, 3)
    t: float = 0.0


class MeasurementBundle(NamedTuple):
    """Everything the filters see during one sample interval.

    ``imu_ref`` / ``imu_body`` hold the direction pairs row by row:
    row j is the pair (reference direction, body-frame observation).
    ``t`` labels the interval start; the measurement content itself is
    sampled at the interval midpoint (see ``simulate_world``).
    """

    u_m: Twist
    y: np.ndarray          # (n, 3) body-frame feature vectors
    imu_ref: np.ndarray    # (m, 3) unit rows
    imu_body: np.ndarray   # (m, 3) unit rows
    t: float


def augmented_refs(imu_refs: np.ndarray) -> np.ndarray:
    """Normalized reference directions plus the synthesized third one.

    The extra direction is the renormalized cross product of the first
    two, which completes a rank-3 triad from two physical sensors.

    Raises
    ------
    ConfigError
        If a direction is zero or too long to normalize, or the first two
        are within 1e-3 rad of collinear.
    """
    refs = np.asarray(imu_refs, dtype=float)
    with np.errstate(over="ignore"):  # a norm past the float range fails below
        norms = np.linalg.norm(refs, axis=1)
    if (norms == 0).any():
        raise ConfigError("imu_refs: zero vector is not a direction")
    if not np.isfinite(norms).all():
        raise ConfigError("imu_refs: a direction is too long to normalize")
    unit = refs / norms[:, None]
    cross = np.cross(unit[0], unit[1])
    sin_angle = np.linalg.norm(cross)
    if sin_angle < _COLLINEAR_TOL:
        raise ConfigError(
            "imu_refs: first two directions are collinear "
            f"(separation ~{sin_angle:.1e} rad < {_COLLINEAR_TOL:g})"
        )
    return np.vstack([unit, cross / sin_angle])


class WorldTrace(NamedTuple):
    """A full simulated run laid out as arrays.

    Truth is stored at every sample instant k = 0..K; measurement record
    k = 0..K-1 describes the interval [t_k, t_k + dt] and is sampled at
    its midpoint; ``true_state(k)`` is the truth at instant k.
    """

    cfg: WorldConfig
    times: np.ndarray         # (K + 1,)
    rotations: np.ndarray     # (K + 1, 3, 3)
    positions: np.ndarray     # (K + 1, 3)
    landmarks: np.ndarray     # (n, 3)
    u_m: np.ndarray           # (K, 6) measured twists
    y: np.ndarray             # (K, n, 3)
    imu_ref: np.ndarray       # (m, 3)
    imu_body: np.ndarray      # (K, m, 3)

    def true_state(self, k: int) -> TrueState:
        return TrueState(
            pose=Pose(self.rotations[k], self.positions[k]),
            landmarks=self.landmarks,
            t=float(self.times[k]),
        )

    def bundle(self, k: int) -> MeasurementBundle:
        return MeasurementBundle(
            u_m=Twist(self.u_m[k, :3], self.u_m[k, 3:]),
            y=self.y[k],
            imu_ref=self.imu_ref,
            imu_body=self.imu_body[k],
            t=float(self.times[k]),
        )


def _in_body(vectors, rot, out, tmp):
    """out = vectors rot per step, each entry summed over the rows of rot
    left to right as on Python floats; ``tmp`` is scratch of out[..., 0]'s
    shape."""
    for c in range(3):
        np.multiply(vectors[..., 0], rot[:, None, 0, c], out=out[..., c])
        for r in (1, 2):
            out[..., c] += np.multiply(vectors[..., r], rot[:, None, r, c], out=tmp)


def simulate_world(cfg: WorldConfig) -> WorldTrace:
    """Run the ground-truth propagation and synthesize all measurements.

    Every measurement in record k represents the interval
    [t_k, t_k + dt] through its midpoint: the true twist is sampled at
    the midpoint (which integrates the linear-in-time profiles exactly,
    so a noise-free, bias-free velocity stream reproduces the truth step
    for step), and features and directions are sampled from the
    midpoint pose.  Centering the records keeps the sampled system
    second-order consistent with the continuous one — holding a
    start-of-interval snapshot constant over the sample injects a
    one-sided O(dt) disturbance into any consumer that integrates
    across the interval, and that shows up as spurious energy growth.

    Raises ConfigError, naming world.dt and world.duration, when the
    trace does not fit in memory.
    """
    rng = np.random.default_rng(cfg.rng_seed)
    k_steps = cfg.n_steps
    n = cfg.n_landmarks
    refs = augmented_refs(cfg.imu_refs)
    m = refs.shape[0]
    feat = cfg.feature_noise_std > 0.0

    try:
        times = np.arange(k_steps + 1) * cfg.dt
        rotations = np.empty((k_steps + 1, 3, 3))
        positions = np.empty((k_steps + 1, 3))
        u_m = np.empty((k_steps, 6))
        y = np.empty((k_steps, n, 3))
        imu_body = np.empty((k_steps, m, 3))
        mid_rotations = np.empty((k_steps, 3, 3))
        mid_positions = np.empty((k_steps, 3))
        scratch = np.empty((k_steps, max(n, m - 1), 4))
        t_mid = (np.arange(k_steps) + 0.5) * cfg.dt
        # One draw per noisy scalar, in the stream order of the reference
        # samplers: (omega, v[, features]) for step k, then step k + 1.
        noise = rng.standard_normal((k_steps, 6 + 3 * n if feat else 6))
    except (MemoryError, ValueError):  # numpy raises ValueError beyond its maximum size
        raise steps_do_not_fit(k_steps) from None
    # Every entry takes the float operations of the reference samplers in
    # their order, in place; an overflow gives inf as on Python floats,
    # and a rotation angle that overflows gives NaN poses (sin(inf)).
    with np.errstate(all="ignore"):
        _kernels.world_trace(
            cfg.init_rotation.ravel().tolist(), cfg.init_position.tolist(),
            cfg.omega_true.const.tolist(), cfg.omega_true.slope.tolist(),
            cfg.v_true.const.tolist(), cfg.v_true.slope.tolist(), float(cfg.dt), k_steps,
            rotations.reshape(k_steps + 1, 9), positions, mid_rotations.reshape(k_steps, 9),
            mid_positions,
        )

        np.multiply(t_mid[:, None], np.r_[cfg.omega_true.slope, cfg.v_true.slope], out=u_m)
        u_m += np.r_[cfg.omega_true.const, cfg.v_true.const]
        u_m += np.r_[cfg.bias_omega, cfg.bias_v]
        noise *= np.repeat([cfg.noise_std_omega, cfg.noise_std_v, cfg.feature_noise_std],
                           (3, 3, noise.shape[1] - 6))
        u_m += noise[:, :6]

        diff = np.subtract(cfg.landmarks, mid_positions[:, None], out=scratch[:, :n, :3])
        _in_body(diff, mid_rotations, y, scratch[:, :n, 3])
        if feat:
            y += noise[:, 6:].reshape(k_steps, n, 3)

        # the configured directions, then the renormalized cross product
        # of the first two
        _in_body(refs[:m - 1], mid_rotations, imu_body[:, :m - 1], scratch[:, :m - 1, 3])
        a, b, cross, tmp = imu_body[:, 0], imu_body[:, 1], imu_body[:, m - 1], scratch[:, 0, 3]
        for i in range(3):
            j, h = (i + 1) % 3, (i + 2) % 3
            np.multiply(a[:, j], b[:, h], out=cross[:, i])
            cross[:, i] -= np.multiply(a[:, h], b[:, j], out=tmp)
        # a Python float's ** 2 is libm pow, which numpy's ** 2 is not
        tmp[:] = [sqrt(t0 ** 2 + t1 ** 2 + t2 ** 2) for t0, t1, t2 in cross.tolist()]
        cross /= tmp[:, None]

    return WorldTrace(
        cfg=cfg,
        times=times,
        rotations=rotations,
        positions=positions,
        landmarks=cfg.landmarks,
        u_m=u_m,
        y=y,
        imu_ref=refs,
        imu_body=imu_body,
    )
