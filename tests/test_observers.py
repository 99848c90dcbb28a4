"""The step contract that every observer in ``observers._OBSERVERS`` keeps,
one test per property parametrized over the observers, and the bad
gains that each gains builder refuses."""

from __future__ import annotations

import numpy as np
import pytest

from _support import (
    BENCH_REFS,
    QUARTER_TURN,
    UNIT_KERNEL,
    advance,
    basic_gains,
    bundle,
    consistent_y,
    imu_gains,
    lyapunov_steps,
    random_filter_state,
    start_state,
)
from lieslam import _kernels
from lieslam.harness import _candidate
from lieslam.liegroup import Pose, Twist, se3_exp
from lieslam.observers import (
    _OBSERVERS,
    FilterDivergence,
    FilterState,
    QuatFilterState,
    basic_params,
    imu_params,
    pack_state,
    quat_to_rot,
)


def _attitude(state) -> np.ndarray:
    return state.q if isinstance(state, QuatFilterState) else state.pose.rotation


def _pose(state) -> tuple[np.ndarray, np.ndarray]:
    """Rotation matrix and position of either state form."""
    if isinstance(state, QuatFilterState):
        return quat_to_rot(state.q), state.position
    return state.pose.rotation, state.pose.position


# ------------------------------------------------------------------- gains


# gains builder and the override that each must refuse
_BAD_GAINS = {
    "basic-k_w": (basic_gains, {"k_w": 0.0}),
    "basic-k_1": (basic_gains, {"k_1": -1.0}),
    "basic-gamma_size": (basic_gains, {"gamma": [1.0, 1.0, 1.0]}),
    "basic-gamma_zero": (basic_gains, {"gamma": [1, 1, 1, 1, 1, 0]}),
    "basic-alpha": (basic_gains, {"alpha": np.array([0.1, 0.1, -0.1, 0.1])}),
    "imu-k_2": (imu_gains, {"k_2": 0.0}),
    "imu-gamma_1": (imu_gains, {"gamma_1": np.array([1.0, 1.0])}),
    "imu-gamma_2": (imu_gains, {"gamma_2": np.array([1.0, -1.0, 1.0])}),
}


@pytest.mark.parametrize("case", _BAD_GAINS)
def test_gain_validation(case):
    build, bad = _BAD_GAINS[case]
    with pytest.raises(ValueError):
        build(4, **bad)


# ------------------------------------------------------- the step contract
#
# Every property holds for each observer in observers._OBSERVERS; the
# tables give each one its case, so an observer added there fails here
# until it has them.

_HALF_TURN = np.diag([-1.0, -1.0, 1.0])  # about z: the quaternion (0, 0, 0, 1)

# observer -> (seed, attitude, position) of its fixed point
_FIXED_POINTS = {
    "basic": (55, QUARTER_TURN, [-2.5, 0.75, 3.0]),
    "imu": (69, QUARTER_TURN, [1.5, -0.25, 4.0]),
    "imu_quat": (69, _HALF_TURN, [1.5, -0.25, 4.0]),
}


@pytest.mark.parametrize("name", _OBSERVERS)
def test_step_fixed_point_is_exact(name):
    """Zero twist, zero bias, self-consistent measurements: nothing moves.

    The attitude is a signed permutation, whose quaternion is exact for
    the half turn, so that mapping points to the body frame and back is
    exact in floating point; with a generic rotation the round trip
    leaves ~1e-15 of innovation and the state creeps.
    """
    seed, attitude, position = _FIXED_POINTS[name]
    rng = np.random.default_rng(seed)
    fs = FilterState(Pose(attitude, np.array(position)), rng.uniform(-8.0, 8.0, size=(4, 3)),
                     Twist.zero())
    start = start_state(name, fs)
    out = advance(name, start, bundle(consistent_y(fs), BENCH_REFS, BENCH_REFS @ attitude),
                   0.001, steps=5)
    assert np.array_equal(_attitude(out), _attitude(start))
    assert np.array_equal(_pose(out)[1], fs.pose.position)
    assert np.array_equal(out.landmarks, fs.landmarks)
    assert np.array_equal(out.bias.vector(), np.zeros(6))


# observer -> (seed, largest attitude angle) of its random state
_TWIST_CASES = {"basic": (56, np.pi), "imu": (71, np.pi / 2), "imu_quat": (71, np.pi / 2)}


@pytest.mark.parametrize("name", _OBSERVERS)
def test_step_pose_follows_corrected_twist(name):
    """With zero innovation the pose advances by exp of (u_m - bias)."""
    seed, max_angle = _TWIST_CASES[name]
    rng = np.random.default_rng(seed)
    fs = random_filter_state(rng, max_angle=max_angle)
    u_m = Twist(rng.standard_normal(3), rng.standard_normal(3))
    m = bundle(consistent_y(fs), BENCH_REFS, BENCH_REFS @ fs.pose.rotation, u=u_m)
    # innovations grow ~ |u| dt inside the step and feed back through the
    # gains at O(dt^2), so dt must be tiny for the pure-transport comparison
    dt = 1e-7
    rotation, position = _pose(advance(name, start_state(name, fs), m, dt))
    expected = fs.pose.compose(se3_exp(Twist.from_vector(u_m.vector() - fs.bias.vector()), dt))
    assert np.abs(rotation - expected.rotation).max() < 1e-9
    assert np.abs(position - expected.position).max() < 1e-9


# observer -> bounds on the rotation, position, landmarks and bias
_TRUTH_BOUNDS = {"basic": (5e-4, 1e-4, 1e-5, 3e-3), "imu": (1e-5, 5e-4, 1e-5, 3e-3),
                 "imu_quat": (1e-5, 5e-4, 1e-5, 3e-3)}


@pytest.mark.parametrize("name", _OBSERVERS)
def test_step_tracks_truth_from_exact_state(name, clean_trace, climb_rc):
    """Started on the truth with the true bias, one interval stays on it.

    The measurements are interval snapshots, so the correction sees a
    transient O(dt) innovation inside the step; the bounds are
    calibrated several times above the resulting drift.
    """
    cfg = clean_trace.cfg
    bias = np.concatenate([cfg.bias_omega, cfg.bias_v])
    fs = FilterState(clean_trace.true_state(0).pose, clean_trace.landmarks.copy(),
                     Twist(bias[:3], bias[3:]))
    gains, kernel, _ = _candidate(clean_trace, climb_rc, name)
    out = advance(name, start_state(name, fs), clean_trace.bundle(0), cfg.dt, kernel=kernel,
                   gains=gains)
    rotation, position = _pose(out)
    truth1 = clean_trace.true_state(1).pose
    deviations = [np.abs(rotation - truth1.rotation).max(),
                  np.abs(position - truth1.position).max(),
                  np.abs(out.landmarks - clean_trace.landmarks).max(),
                  np.abs(out.bias.vector() - bias).max()]
    assert np.all(np.less(deviations, _TRUTH_BOUNDS[name])), deviations


@pytest.mark.parametrize("name", _OBSERVERS)
def test_step_attitude_stays_valid(name):
    """200 steps on held noisy measurements keep the attitude a rotation
    (or a unit quaternion)."""
    rng = np.random.default_rng(58)
    fs = random_filter_state(rng)
    y = consistent_y(fs) + rng.standard_normal((4, 3)) * 0.5
    m = bundle(y, BENCH_REFS, BENCH_REFS @ fs.pose.rotation,
               u=Twist(rng.standard_normal(3), rng.standard_normal(3)))
    attitude = _attitude(advance(name, start_state(name, fs), m, 0.001, steps=200))
    if attitude.shape == (4,):
        assert abs(attitude @ attitude - 1.0) < 1e-12
    else:
        assert np.abs(attitude.T @ attitude - np.eye(3)).max() < 1e-9


# observer -> (seed, largest attitude angle) of its random state, and the
# non-finite feature value
_NONFINITE_CASES = {"basic": (59, np.pi, np.nan), "imu": (72, np.pi / 2, np.inf),
                    "imu_quat": (46, np.pi, np.nan)}


@pytest.mark.parametrize("name", _OBSERVERS)
def test_step_divergence_raises(name):
    seed, max_angle, bad = _NONFINITE_CASES[name]
    fs = random_filter_state(np.random.default_rng(seed), max_angle=max_angle)
    m = bundle(np.full((4, 3), bad), BENCH_REFS, BENCH_REFS @ fs.pose.rotation)
    with pytest.raises(FilterDivergence):
        advance(name, start_state(name, fs), m, 0.001)


@pytest.mark.parametrize("scale,error", ((1e160, OverflowError), (0.0, ZeroDivisionError)))
@pytest.mark.parametrize("name", _OBSERVERS)
def test_step_float_exceptions_raise_divergence(name, scale, error):
    """A 1e160 attitude keeps every product finite but overflows its
    square where the interval ends: in the Gram-Schmidt repair of a
    matrix, in the renormalization of a quaternion.  A zero attitude
    divides by a zero norm there.  The IMU-aided observers are at rest,
    so the axes of the attitude stay exactly parallel to the sensed
    directions.  The kernel raises, the step reports divergence."""
    kernel_name, size, substeps, _ = _OBSERVERS[name]
    attitude = scale * (np.array([1.0, 0.0, 0.0, 0.0]) if size == 4 else np.eye(3))
    if size == 4:
        state = QuatFilterState(attitude, np.zeros(3), np.zeros((4, 3)), Twist.zero())
    else:
        state = FilterState(Pose(attitude, np.zeros(3)), np.zeros((4, 3)), Twist.zero())
    x = pack_state(attitude, np.zeros(3), Twist.zero(), np.zeros((4, 3)))
    omega = np.array([0.1, 0.2, 0.3]) if name == "basic" else np.zeros(3)
    m = bundle(np.zeros((4, 3)), u=Twist(omega, np.zeros(3)))
    gains = basic_gains(4) if name == "basic" else imu_gains(4)
    params = basic_params(m, gains) if name == "basic" else imu_params(m, UNIT_KERNEL, gains, 4.0)
    with pytest.raises(error):
        getattr(_kernels, kernel_name)(x, params, 0.001, substeps)
    with pytest.raises(FilterDivergence, match="non-finite"):
        advance(name, state, m, 0.001, kernel=UNIT_KERNEL)


# ----------------------------------------------------- full-run behaviour


# case -> the session fixtures of its clean run and of that run's config
_CLEAN_RUNS = {
    "basic": ("clean_basic", "clean_rc"),
    "imu": ("clean_imu", "clean_rc"),
    "imu_quat": ("clean_imu_quat", "clean_rc"),
    "imu_simplified": ("clean_imu_simplified", "clean_rc_simplified"),
}


@pytest.mark.parametrize("case", [*_OBSERVERS, "imu_simplified"])
def test_energy_never_increases_on_clean_run(case, clean_trace, request):
    result, rc = (request.getfixturevalue(fixture) for fixture in _CLEAN_RUNS[case])
    assert np.diff(lyapunov_steps(clean_trace, rc, result)).max() <= 1e-6
