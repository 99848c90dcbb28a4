"""Ground-truth simulation and measurement synthesis.

A run is a rigid body moving through a field of static landmarks with a
body-mounted velocity sensor (biased, noisy), body-frame landmark
bearings-with-range, and a pair of inertial direction sensors that is
augmented to a full triad by cross products.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import _kernels
from .liegroup import Pose, Twist, orthonormalize, rotation_defect

# Configured reference directions closer than this angle (radians) cannot
# span a triad and are rejected at config time.
_COLLINEAR_TOL = 1e-3
# Accepting a printed-to-few-digits rotation and repairing it is fine;
# anything further from orthonormal than this is a config mistake.
_INIT_ROTATION_SLACK = 1e-2


class ConfigError(ValueError):
    """A configuration document failed validation."""


def read_error(exc: OSError | UnicodeDecodeError) -> str:
    """Why a config or CSV file could not be read, for a ConfigError."""
    if isinstance(exc, UnicodeDecodeError):
        return f"not UTF-8 text (byte {exc.start})"
    return exc.strerror or str(exc)


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
            unknown = set(raw) - {"const", "slope"}
            if unknown:
                raise ConfigError(f"{key}: unknown keys {sorted(unknown)}")
            const = _vec3(raw.get("const", [0.0, 0.0, 0.0]), f"{key}.const")
            slope = _vec3(raw.get("slope", [0.0, 0.0, 0.0]), f"{key}.slope")
            return cls(const, slope)
        return cls(_vec3(raw, key), np.zeros(3))


def _has_text_or_bool(raw) -> bool:
    """Whether a string or a boolean sits anywhere in a JSON value;
    numpy would read "5" and true as the numbers 5 and 1."""
    stack = [raw]
    while stack:
        item = stack.pop()
        if isinstance(item, (str, bool)):
            return True
        if isinstance(item, list):
            stack.extend(item)
    return False


def floats(raw, key: str) -> np.ndarray:
    """The finite numbers of a JSON value, as a float array."""
    if _has_text_or_bool(raw):
        raise ConfigError(f"{key}: expected numbers")
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{key}: expected numbers") from None
    except OverflowError:  # an integer beyond the float range
        raise ConfigError(f"{key}: expected finite numbers") from None
    if not np.isfinite(arr).all():
        raise ConfigError(f"{key}: expected finite numbers")
    return arr


def scalar(raw, key: str) -> float:
    arr = floats(raw, key)
    if arr.ndim != 0:
        raise ConfigError(f"{key}: expected a number")
    return float(arr)


def integer(raw, key: str, minimum: int) -> int:
    """A JSON integer (not a bool, not 2.0) of at least ``minimum``."""
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ConfigError(f"{key}: expected an integer")
    if raw < minimum:
        raise ConfigError(f"{key}: must be >= {minimum}")
    return raw


def rotation(raw, key: str) -> np.ndarray:
    """A row-major 3x3 rotation within _INIT_ROTATION_SLACK of
    orthonormal, repaired by :func:`orthonormalize`.

    An entry beyond 2 in magnitude already puts R^T R off the identity
    by more than 3, so it is rejected before the product can overflow.
    """
    rot = floats(raw, key)
    if rot.size != 9:
        raise ConfigError(f"{key}: expected 9 scalars (row-major)")
    rot = rot.reshape(3, 3)
    if np.abs(rot).max() > 2.0 or rotation_defect(rot) > _INIT_ROTATION_SLACK:
        raise ConfigError(f"{key}: not close to a rotation matrix")
    return orthonormalize(rot)


def _vec3(raw, key: str) -> np.ndarray:
    arr = floats(raw, key)
    if arr.shape != (3,):
        raise ConfigError(f"{key}: expected 3 numbers, got shape {arr.shape}")
    return arr


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
        if not isinstance(raw, dict):
            raise ConfigError("world: expected an object")
        known = {
            "landmarks", "imu_refs", "sensor_weights", "omega_true", "v_true",
            "bias_omega", "bias_v", "noise_std_omega", "noise_std_v",
            "feature_noise_std", "dt", "duration", "rng_seed",
            "init_rotation", "init_position",
        }
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"world: unknown keys {sorted(unknown)}")
        for req in ("landmarks", "imu_refs", "dt", "duration"):
            if req not in raw:
                raise ConfigError(f"world.{req}: required")

        landmarks = floats(raw["landmarks"], "world.landmarks")
        if landmarks.ndim != 2 or landmarks.shape[1] != 3:
            raise ConfigError("world.landmarks: expected a list of 3-vectors")
        if landmarks.shape[0] < 3:
            raise ConfigError(
                f"world.landmarks: need at least 3, got {landmarks.shape[0]}"
            )

        imu_refs = floats(raw["imu_refs"], "world.imu_refs")
        if imu_refs.ndim != 2 or imu_refs.shape[1] != 3:
            raise ConfigError("world.imu_refs: expected a list of 3-vectors")
        if imu_refs.shape[0] < 2:
            raise ConfigError("world.imu_refs: need at least 2 directions")
        augmented_refs(imu_refs)  # raises ConfigError if collinear

        n_dirs = imu_refs.shape[0] + 1
        weights = floats(raw.get("sensor_weights", np.ones(n_dirs)), "world.sensor_weights")
        if weights.shape != (n_dirs,):
            raise ConfigError(
                f"world.sensor_weights: expected {n_dirs} weights "
                "(configured refs + synthesized third)"
            )
        if (weights < 0).any() or weights.sum() <= 0:
            raise ConfigError("world.sensor_weights: must be nonnegative, not all zero")
        weights = weights * (3.0 / weights.sum())

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
            bias_omega=_vec3(raw.get("bias_omega", [0, 0, 0]), "world.bias_omega"),
            bias_v=_vec3(raw.get("bias_v", [0, 0, 0]), "world.bias_v"),
            dt=dt,
            duration=duration,
            rng_seed=rng_seed,
            init_rotation=init_rotation,
            init_position=_vec3(raw.get("init_position", [0, 0, 0]), "world.init_position"),
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
        If the first two directions are within 1e-3 rad of collinear.
    """
    refs = np.asarray(imu_refs, dtype=float)
    norms = np.linalg.norm(refs, axis=1)
    if (norms == 0).any():
        raise ConfigError("imu_refs: zero vector is not a direction")
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

    try:
        times = np.arange(k_steps + 1) * cfg.dt
        rotations = np.empty((k_steps + 1, 3, 3))
        positions = np.empty((k_steps + 1, 3))
        u_m = np.empty((k_steps, 6))
        y = np.empty((k_steps, n, 3))
        imu_body = np.empty((k_steps, m, 3))

        # One draw per noisy scalar, in the same stream order the reference
        # samplers would consume individually: (omega, v[, features]) for
        # step k, then step k+1.  Chunked draws read the identical sequence.
        if cfg.feature_noise_std > 0.0:
            noise = rng.standard_normal((k_steps, 6 + 3 * n))
            feat_noise = noise[:, 6:].reshape(k_steps, n, 3).copy()
        else:
            noise = rng.standard_normal((k_steps, 6))
            feat_noise = np.zeros((k_steps, 1, 3))
    except MemoryError:
        raise steps_do_not_fit(k_steps) from None
    _kernels.world_trace(
        cfg.init_rotation.ravel().tolist(), cfg.init_position.tolist(),
        cfg.landmarks.tolist(), refs.tolist(),
        cfg.omega_true.const.tolist(), cfg.omega_true.slope.tolist(),
        cfg.v_true.const.tolist(), cfg.v_true.slope.tolist(),
        cfg.bias_omega.tolist(), cfg.bias_v.tolist(),
        float(cfg.noise_std_omega), float(cfg.noise_std_v), float(cfg.feature_noise_std),
        np.ascontiguousarray(noise[:, :6]), feat_noise, float(cfg.dt), k_steps,
        rotations.reshape(k_steps + 1, 9), positions, u_m, y.reshape(k_steps, 3 * n),
        imu_body.reshape(k_steps, 3 * m),
    )

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
