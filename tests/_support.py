"""Small shared helpers for the test modules, and the reference laws.

The builders make the gains, random filter states and measurement
bundles that the observer, metrics and acceptance tests step with.  The
reference laws are numpy forms of what ``lieslam._kernels`` computes
on the run path: the observer corrections and rates, the quaternion
algebra the quaternion build rests on, and the single-step world
samplers.  The tests hold the shipped kernels against these oracles.
"""

from __future__ import annotations

import warnings

import numpy as np

from lieslam._laws import _PI_COND_LIMIT, TAU_FLOOR
from lieslam.harness import FilterRunResult, RunConfig, _candidate
from lieslam.metrics import error_state
from lieslam.liegroup import Pose, Twist, adjoint_aug, se3_exp, skew, so3_exp
from lieslam.observers import (
    _OBSERVERS,
    AttitudeKernel,
    BasicGains,
    FilterState,
    ImuGains,
    QuatFilterState,
    basic_step,
    build_kernel,
    imu_step,
    quat_imu_step,
    quat_normalize,
)
from lieslam.worldsim import (
    LinearProfile,
    MeasurementBundle,
    TrueState,
    WorldConfig,
    WorldTrace,
    augmented_refs,
)


def random_rotation(rng: np.random.Generator, max_angle: float = np.pi) -> np.ndarray:
    """Uniform random axis, angle uniform in (0, max_angle]."""
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    return so3_exp(axis * rng.uniform(0.0, max_angle))


def random_unit(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def random_weights(rng: np.random.Generator, m: int) -> np.ndarray:
    """m direction weights in [0.2, 2.0], scaled to sum to 3."""
    w = rng.uniform(0.2, 2.0, m)
    return w * (3.0 / w.sum())


def random_ref_triad(rng: np.random.Generator) -> np.ndarray:
    """Three unit directions that safely span 3-space."""
    while True:
        refs = np.array([random_unit(rng) for _ in range(3)])
        if abs(np.linalg.det(refs)) > 0.1:
            return refs


def series_exp(m: np.ndarray, terms: int) -> np.ndarray:
    """Plain truncated exponential series, the slow-but-sure oracle."""
    total = np.eye(m.shape[0])
    term = np.eye(m.shape[0])
    for k in range(1, terms + 1):
        term = term @ m / k
        total = total + term
    return total


def small_world_dict(**overrides) -> dict:
    """A fast-to-simulate scenario for harness/CLI tests."""
    world = {
        "landmarks": [[5.0, 0.0, 0.0], [0.0, 5.0, 0.0], [0.0, 0.0, 5.0]],
        "imu_refs": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
        "omega_true": [0.0, 0.0, 0.3],
        "v_true": [1.0, 0.0, 0.0],
        "bias_omega": [0.01, -0.01, 0.02],
        "bias_v": [0.02, 0.0, -0.01],
        "noise_std_omega": 0.05,
        "noise_std_v": 0.05,
        "dt": 0.001,
        "duration": 1.0,
        "rng_seed": 5,
        "init_position": [0.0, 0.0, 2.0],
    }
    world.update(overrides)
    return world


def small_run_dict(**overrides) -> dict:
    """A complete run config around small_world_dict()."""
    doc = {
        "world": small_world_dict(),
        "filter": "both",
        "gains": {
            "basic": {"k_w": 2.0, "k_1": 2.0, "gamma": [1, 1, 1, 10, 10, 10], "alpha": 0.5},
            "imu": {"k_w": 2.0, "k_1": 2.0, "k_2": 5.0, "gamma_1": 1.0, "gamma_2": 10.0, "alpha": 0.5},
        },
        "sample_stride": 100,
    }
    doc.update(overrides)
    return doc


# ------------------------------------------------------------- builders


# the bundled configs' direction references, completed to a triad, and
# their attitude kernel under unit weights; the kernel of the axes
BENCH_REFS = augmented_refs(np.array([[1.0, -1.0, 1.0], [0.0, 0.0, 1.0]]))
BENCH_KERNEL = build_kernel(BENCH_REFS, np.ones(3))
UNIT_KERNEL = build_kernel(np.eye(3), np.ones(3))
QUARTER_TURN = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])  # about z


def basic_gains(n: int = 4, **overrides) -> BasicGains:
    """Feature-only gains at the bundled configs' values, n landmarks."""
    kw = {"k_w": 5.0, "k_1": 5.0, "gamma": [3.0, 3, 3, 100, 100, 100], "alpha": np.full(n, 0.1)}
    kw.update(overrides)
    return BasicGains(**kw)


def imu_gains(n: int = 4, **overrides) -> ImuGains:
    """IMU-aided gains at the bundled configs' values, n landmarks."""
    kw = {
        "k_w": 5.0, "k_1": 5.0, "k_2": 20.0,
        "gamma_1": np.full(3, 3.0), "gamma_2": np.full(3, 100.0),
        "alpha": np.full(n, 0.1),
    }
    kw.update(overrides)
    return ImuGains(**kw)


def random_filter_state(rng: np.random.Generator, n: int = 4,
                        max_angle: float = np.pi) -> FilterState:
    """Attitude of angle up to max_angle, position ~2 m, landmarks ~5 m,
    bias ~0.1, drawn in that order."""
    return FilterState(
        pose=Pose(random_rotation(rng, max_angle), rng.standard_normal(3) * 2.0),
        landmarks=rng.standard_normal((n, 3)) * 5.0,
        bias=Twist(rng.standard_normal(3) * 0.1, rng.standard_normal(3) * 0.1),
    )


def consistent_y(fs: FilterState) -> np.ndarray:
    """Measurements that make every innovation exactly zero."""
    return (fs.landmarks - fs.pose.position) @ fs.pose.rotation


def bundle(y, refs=np.eye(3), bodies=np.eye(3), u: Twist | None = None) -> MeasurementBundle:
    """One interval's measurements at t = 0; the velocity defaults to zero."""
    return MeasurementBundle(
        u_m=u if u is not None else Twist.zero(),
        y=np.asarray(y, dtype=float),
        imu_ref=np.array(refs, dtype=float),
        imu_body=np.array(bodies, dtype=float),
        t=0.0,
    )


# observer -> its step, called as (state, m, kernel, gains, dt), and the
# builder of its gains
_STEPS = {
    "basic": (lambda fs, m, kernel, gains, dt: basic_step(fs, m, gains, dt), basic_gains),
    "imu": (imu_step, imu_gains),
    "imu_quat": (quat_imu_step, imu_gains),
}


def start_state(name: str, fs: FilterState):
    """The observer's own state form of a matrix-form state."""
    if _OBSERVERS[name][1] == 4:
        return QuatFilterState.from_rotation(fs.pose.rotation, fs.pose.position, fs.landmarks,
                                             fs.bias)
    return fs


def advance(name: str, state, m, dt: float, steps: int = 1, kernel=BENCH_KERNEL, gains=None):
    """``steps`` intervals of an observer on held measurements, with the
    bundled gains unless others are given."""
    step, default_gains = _STEPS[name]
    gains = default_gains(state.landmarks.shape[0]) if gains is None else gains
    for _ in range(steps):
        state = step(state, m, kernel, gains, dt)
    return state


def assert_rates(fs: FilterState, out: FilterState, dt: float, rates: tuple) -> None:
    """One step of dt from fs to out recovers the continuous rates."""
    steps = (out.pose.rotation - fs.pose.rotation, out.pose.position - fs.pose.position,
             out.bias.vector() - fs.bias.vector(), out.landmarks - fs.landmarks)
    for step, rate in zip(steps, rates):
        np.testing.assert_allclose(step / dt, rate, rtol=1e-4, atol=1e-4)


# ------------------------------------------------- feature-only observer


def innovation_errors(fs: FilterState, y: np.ndarray) -> np.ndarray:
    """Landmark innovations e_i = p-hat_i - R-hat y_i - P-hat, stacked (n, 3)."""
    r = fs.pose.rotation
    return fs.landmarks - np.asarray(y, dtype=float) @ r.T - fs.pose.position


def innovation_wrench(fs: FilterState, e: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted 6-D stack [sum w_i g_i x e_i ; sum w_i e_i].

    g_i = R-hat y_i + P-hat is recovered as p-hat_i - e_i, so no
    measurement is needed here.
    """
    w = weights[:, None]
    return np.concatenate([
        (w * np.cross(fs.landmarks - e, e)).sum(axis=0),
        (w * e).sum(axis=0),
    ])


def basic_correction(fs: FilterState, e: np.ndarray, gains: BasicGains) -> Twist:
    """Pose correction: -k_w Ad(T-hat^-1) applied to the innovation wrench."""
    z = innovation_wrench(fs, e, np.ones(e.shape[0]))
    w = -gains.k_w * (adjoint_aug(fs.pose.inverse()) @ z)
    return Twist(w[:3], w[3:])


# ----------------------------------------------------- IMU-aided observer


def direction_sums(v_hat: np.ndarray, refs: np.ndarray, bodies: np.ndarray,
                   weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Half innovation sum_j (w_j/2) v-hat_j x v_j and the outer-product
    sums A = sum_j w_j v_j ref_j^T, B = sum_j w_j v-hat_j ref_j^T, from
    the estimated body directions v-hat_j (rows)."""
    half = 0.5 * (weights[:, None] * np.cross(v_hat, bodies)).sum(axis=0)
    w = weights[:, None, None]
    a_mat = (w * (bodies[:, :, None] * refs[:, None, :])).sum(axis=0)
    b_mat = (w * (v_hat[:, :, None] * refs[:, None, :])).sum(axis=0)
    return half, a_mat, b_mat


def upsilon_meas(rotation: np.ndarray, refs: np.ndarray, bodies: np.ndarray,
                 weights: np.ndarray) -> np.ndarray:
    """Attitude innovation from direction pairs, in the inertial frame.

    Equals vex of the antisymmetric part of (R-hat R^T) M when the body
    rows are noise-free transports of the references.
    """
    refs = np.asarray(refs, dtype=float)
    half, _, _ = direction_sums(refs @ rotation, refs, np.asarray(bodies, dtype=float),
                                np.asarray(weights, dtype=float))
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

    NaN when the measured outer-product matrix is near-singular.
    """
    refs = np.asarray(refs, dtype=float)
    _, a_mat, b_mat = direction_sums(refs @ rotation, refs, np.asarray(bodies, dtype=float),
                                     np.asarray(weights, dtype=float))
    return pi_from_products(a_mat, b_mat)


def attitude_gain_divisor(kernel: AttitudeKernel, pi: float) -> float:
    """tau = lambda_min(breve) * (1 + pi), floored at TAU_FLOOR with a
    warning (on the antipodal set, and when pi is NaN)."""
    tau = kernel.lambda_min * (1.0 + pi)
    if not np.isfinite(tau) or tau < TAU_FLOOR:
        warnings.warn("attitude gain divisor clamped to its floor", RuntimeWarning,
                      stacklevel=2)
        return TAU_FLOOR
    return float(tau)


def attitude_terms(rotation: np.ndarray, m: MeasurementBundle,
                   kernel: AttitudeKernel) -> tuple[np.ndarray, float]:
    """Body-frame half innovation sum_j (s_j/2) v_hat_j x v_j, and tau."""
    half, a_mat, b_mat = direction_sums(m.imu_ref @ rotation, m.imu_ref, m.imu_body,
                                        kernel.weights)
    return half, attitude_gain_divisor(kernel, pi_from_products(a_mat, b_mat))


def imu_correction(fs: FilterState, m: MeasurementBundle, e: np.ndarray,
                   kernel: AttitudeKernel, gains: ImuGains,
                   simplified_form: bool = False) -> Twist:
    """Pose correction: direction-driven attitude part, innovation-driven
    translation part."""
    r = fs.pose.rotation
    half, tau = attitude_terms(r, m, kernel)
    scale = 1.0 if simplified_form else float(e.shape[0])
    w_omega = scale * (gains.k_w / tau) * half
    w_v = -gains.k_2 * ((1.0 / gains.alpha)[:, None] * (e @ r)).sum(axis=0)
    return Twist(w_omega, w_v)


# ------------------------------------------------------ continuous rates
#
# The observers' rates at a state, as (attitude, position, bias,
# landmarks) blocks in the order ``pack_state`` lays the state out.


def basic_rates(fs: FilterState, m: MeasurementBundle, gains: BasicGains) -> tuple:
    r = fs.pose.rotation
    e = innovation_errors(fs, m.y)
    u = m.u_m.vector() - fs.bias.vector() - basic_correction(fs, e, gains).vector()
    zw = innovation_wrench(fs, e, 1.0 / gains.alpha)
    return r @ skew(u[:3]), r @ u[3:], -gains.gamma * (adjoint_aug(fs.pose).T @ zw), -gains.k_1 * e


def imu_bias_rates(gains: ImuGains, scale: float, half: np.ndarray, e_body: np.ndarray,
                   y: np.ndarray) -> np.ndarray:
    """Bias rates of the IMU-aided observers from the body-frame half
    innovation and landmark innovations."""
    inv_a = (1.0 / gains.alpha)[:, None]
    return np.concatenate([
        gains.gamma_1 * (scale * 0.5 * half - (inv_a * np.cross(y, e_body)).sum(axis=0)),
        -gains.gamma_2 * (inv_a * e_body).sum(axis=0),
    ])


def imu_rates(fs: FilterState, m: MeasurementBundle, kernel: AttitudeKernel, gains: ImuGains,
              simplified_form: bool = False) -> tuple:
    r = fs.pose.rotation
    e = innovation_errors(fs, m.y)
    w = imu_correction(fs, m, e, kernel, gains, simplified_form)
    half, _ = attitude_terms(r, m, kernel)
    scale = 1.0 if simplified_form else float(e.shape[0])
    u = m.u_m.vector() - fs.bias.vector() - w.vector()
    return (r @ skew(u[:3]), r @ u[3:], imu_bias_rates(gains, scale, half, e @ r, m.y),
            -gains.k_1 * e + np.cross(m.y, w.omega) @ r.T)


# ------------------------------------------------------------ quaternions


def quat_conjugate(q: np.ndarray) -> np.ndarray:
    """Inverse of a unit quaternion (negated vector part)."""
    q = np.asarray(q, dtype=float)
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a (x) b: scalar a0 b0 - av.bv, vector
    a0 bv + b0 av + av x bv."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    av, bv = a[1:], b[1:]
    return np.concatenate(([a[0] * b[0] - av @ bv], a[0] * bv + b[0] * av + np.cross(av, bv)))


def rotate_by_quat(q: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Conjugation q (x) (0, x) (x) q^-1 in expanded form, of one vector
    or of an (n, 3) stack."""
    q = np.asarray(q, dtype=float)
    x = np.asarray(x, dtype=float)
    t = np.cross(q[1:], x)
    return x + 2.0 * q[0] * t + 2.0 * np.cross(q[1:], t)


def quat_omega(chi: np.ndarray) -> np.ndarray:
    """4x4 kinematics matrix: dq/dt = 0.5 * quat_omega(chi) @ q, i.e.
    quat_omega(chi) @ q == q (x) (0, chi)."""
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


def quat_correction(fs: QuatFilterState, m: MeasurementBundle, kernel: AttitudeKernel,
                    gains: ImuGains, simplified_form: bool = False) -> Twist:
    """Pose correction of the quaternion filter, every frame change by
    conjugation: the attitude innovation is carried to the inertial
    frame and back without forming a rotation matrix."""
    q, q_inv = fs.q, quat_conjugate(fs.q)
    scale = 1.0 if simplified_form else float(fs.landmarks.shape[0])
    e = fs.landmarks - rotate_by_quat(q, m.y) - fs.position
    half, a_mat, b_mat = direction_sums(rotate_by_quat(q_inv, m.imu_ref), m.imu_ref,
                                        m.imu_body, kernel.weights)
    innov_body = rotate_by_quat(q_inv, rotate_by_quat(q, half))
    tau = attitude_gain_divisor(kernel, pi_from_products(a_mat, b_mat))
    w_omega = scale * (gains.k_w / tau) * innov_body
    w_v = -gains.k_2 * ((1.0 / gains.alpha)[:, None] * rotate_by_quat(q_inv, e)).sum(axis=0)
    return Twist(w_omega, w_v)


# ------------------------------------------------ single-step world model


def profile_at(profile: LinearProfile, t: float) -> np.ndarray:
    """Value const + slope * t of a linear-in-time profile."""
    return profile.const + profile.slope * t


def initial_true_state(cfg: WorldConfig) -> TrueState:
    return TrueState(Pose(cfg.init_rotation.copy(), cfg.init_position.copy()),
                     cfg.landmarks, t=0.0)


def propagate_true(state: TrueState, u: Twist, dt: float) -> TrueState:
    """Advance the true pose by one interval; landmarks never move."""
    return TrueState(state.pose.compose(se3_exp(u, dt)), state.landmarks, t=state.t + dt)


def sample_velocity(u_true: Twist, cfg: WorldConfig, rng: np.random.Generator) -> Twist:
    """Velocity readout: truth plus constant bias plus per-axis noise."""
    omega = u_true.omega + cfg.bias_omega + cfg.noise_std_omega * rng.standard_normal(3)
    v = u_true.v + cfg.bias_v + cfg.noise_std_v * rng.standard_normal(3)
    return Twist(omega, v)


def sample_features(state: TrueState, cfg: WorldConfig, rng: np.random.Generator) -> np.ndarray:
    """Body-frame landmark vectors y_i = R^T (p_i - P), optionally noisy."""
    y = (state.landmarks - state.pose.position) @ state.pose.rotation
    if cfg.feature_noise_std > 0.0:
        y = y + cfg.feature_noise_std * rng.standard_normal(y.shape)
    return y


def sample_imu(state: TrueState, cfg: WorldConfig,
               rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Direction-sensor pairs (reference rows, body rows): the noise-free
    transports R^T v of the configured references, then the renormalized
    cross product of the first two body rows.  ``rng`` is unused (the
    direction sensors are noise-free) and kept for symmetry."""
    refs = augmented_refs(cfg.imu_refs)
    body = refs[:-1] @ state.pose.rotation
    third = np.cross(body[0], body[1])
    return refs, np.vstack([body, third / np.linalg.norm(third)])


def measurement_state(trace: WorldTrace, k: int) -> TrueState:
    """Truth at the midpoint of interval k, where record k is sampled:
    the truth at instant k carried over dt/2 by the quarter-interval
    twist, as ``simulate_world`` does."""
    cfg = trace.cfg
    t = float(trace.times[k])
    u_quarter = Twist(profile_at(cfg.omega_true, t + cfg.dt / 4),
                      profile_at(cfg.v_true, t + cfg.dt / 4))
    return propagate_true(trace.true_state(k), u_quarter, cfg.dt / 2)


def lyapunov_steps(trace: WorldTrace, rc: RunConfig, result: FilterRunResult) -> np.ndarray:
    """Lyapunov candidate of a run at every step, (K+1,).

    One call of ``metrics.error_state`` over the recorded states; entry
    k equals the ``lyap`` that ``metrics.evaluate`` reports for step k.
    """
    gains, kernel, att_mult = _candidate(trace, rc, result.name)
    cfg = trace.cfg
    truth = TrueState(Pose(trace.rotations, trace.positions), trace.landmarks)
    return error_state(truth, result.state(slice(None)), Twist(cfg.bias_omega, cfg.bias_v),
                       gains, kernel, att_mult)[3]
