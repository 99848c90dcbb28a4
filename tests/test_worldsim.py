"""Ground-truth propagation and measurement synthesis."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from _support import (
    initial_true_state,
    measurement_state,
    profile_at,
    propagate_true,
    random_rotation,
    sample_features,
    sample_imu,
    sample_velocity,
)
from lieslam.liegroup import Pose, Twist
from lieslam.worldsim import (
    ConfigError,
    LinearProfile,
    WorldConfig,
    augmented_refs,
    simulate_world,
)


def _world_dict(**overrides) -> dict:
    base = {
        "landmarks": [[10.0, 10.0, 0.0], [10.0, -10.0, 0.0], [-10.0, 10.0, 0.0], [-10.0, -10.0, 0.0]],
        "imu_refs": [[1.0, -1.0, 1.0], [0.0, 0.0, 1.0]],
        "omega_true": [0.0, 0.0, 0.3],
        "v_true": {"const": [2.5, 0.0, 0.0], "slope": [0.0, 0.0, 0.2]},
        "bias_omega": [0.2, -0.2, 0.2],
        "bias_v": [0.04, 0.1, -0.02],
        "noise_std_omega": 0.2,
        "noise_std_v": 0.2,
        "dt": 0.001,
        "duration": 0.5,
        "rng_seed": 7,
        "init_position": [0.0, 0.0, 6.0],
    }
    base.update(overrides)
    return base


# ---------------------------------------------------------------- profiles


def test_linear_profile_plain_vector():
    p = LinearProfile.parse([1.0, 2.0, 3.0], "k")
    assert np.array_equal(profile_at(p, 0.0), [1.0, 2.0, 3.0])
    assert np.array_equal(profile_at(p, 10.0), [1.0, 2.0, 3.0])


def test_linear_profile_with_slope():
    p = LinearProfile.parse({"const": [2.5, 0.0, 0.0], "slope": [0.0, 0.0, 0.2]}, "k")
    assert np.allclose(profile_at(p, 3.0), [2.5, 0.0, 0.6], atol=1e-15)


def test_linear_profile_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown keys"):
        LinearProfile.parse({"const": [0, 0, 0], "rate": [1, 1, 1]}, "k")


def test_linear_profile_rejects_bad_shape():
    with pytest.raises(ConfigError):
        LinearProfile.parse([1.0, 2.0], "k")


# ------------------------------------------------------------- validation


def test_config_requires_core_fields():
    for missing in ("landmarks", "imu_refs", "dt", "duration"):
        raw = _world_dict()
        del raw[missing]
        with pytest.raises(ConfigError, match=missing):
            WorldConfig.from_dict(raw)


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown"):
        WorldConfig.from_dict(_world_dict(gravity=[0, 0, -9.8]))


def test_config_needs_three_landmarks():
    with pytest.raises(ConfigError, match="at least 3"):
        WorldConfig.from_dict(_world_dict(landmarks=[[1, 0, 0], [0, 1, 0]]))


def test_config_needs_two_directions():
    with pytest.raises(ConfigError, match="at least 2"):
        WorldConfig.from_dict(_world_dict(imu_refs=[[0, 0, 1]]))


def test_config_rejects_collinear_directions():
    with pytest.raises(ConfigError, match="collinear"):
        WorldConfig.from_dict(_world_dict(imu_refs=[[0, 0, 1], [0, 0, -2]]))


def test_config_weight_validation():
    with pytest.raises(ConfigError, match="3 weights"):
        WorldConfig.from_dict(_world_dict(sensor_weights=[1.0, 1.0]))
    with pytest.raises(ConfigError, match="nonnegative"):
        WorldConfig.from_dict(_world_dict(sensor_weights=[1.0, -1.0, 1.0]))
    with pytest.raises(ConfigError, match="nonnegative"):
        WorldConfig.from_dict(_world_dict(sensor_weights=[0.0, 0.0, 0.0]))


def test_config_normalizes_weights_to_sum_three():
    cfg = WorldConfig.from_dict(_world_dict(sensor_weights=[1.0, 2.0, 3.0]))
    assert np.isclose(cfg.sensor_weights.sum(), 3.0, atol=1e-12)
    assert np.allclose(cfg.sensor_weights, [0.5, 1.0, 1.5], atol=1e-12)


def test_config_default_weights_are_uniform():
    cfg = WorldConfig.from_dict(_world_dict())
    assert np.array_equal(cfg.sensor_weights, np.ones(3))


def test_config_rejects_nonpositive_steps():
    with pytest.raises(ConfigError, match="positive"):
        WorldConfig.from_dict(_world_dict(dt=0.0))
    with pytest.raises(ConfigError, match="positive"):
        WorldConfig.from_dict(_world_dict(duration=-1.0))


def test_config_init_rotation_shape():
    with pytest.raises(ConfigError, match="9 scalars"):
        WorldConfig.from_dict(_world_dict(init_rotation=[1.0, 0.0, 0.0]))


def test_config_step_count():
    cfg = WorldConfig.from_dict(_world_dict(dt=0.001, duration=0.5))
    assert cfg.n_steps == 500
    assert cfg.n_landmarks == 4


# ------------------------------------------------------------ propagation


def test_propagate_zero_twist_is_identity():
    cfg = WorldConfig.from_dict(_world_dict())
    s0 = initial_true_state(cfg)
    s1 = propagate_true(s0, Twist.zero(), 0.25)
    assert np.array_equal(s1.pose.rotation, s0.pose.rotation)
    assert np.array_equal(s1.pose.position, s0.pose.position)
    assert s1.t == 0.25


def test_propagate_pure_translation():
    cfg = WorldConfig.from_dict(_world_dict())
    s = propagate_true(
        initial_true_state(cfg), Twist(np.zeros(3), np.array([1.0, 0.0, 0.0])), 2.0
    )
    assert np.allclose(s.pose.position, [2.0, 0.0, 6.0], atol=1e-15)
    assert np.array_equal(s.landmarks, cfg.landmarks)


def test_quadratic_altitude_profile(clean_trace):
    """Constant vertical acceleration integrates to z(t) = z0 + 0.1 t^2."""
    t = clean_trace.times
    expected = 6.0 + 0.1 * t**2
    assert np.abs(clean_trace.positions[:, 2] - expected).max() < 1e-3


# --------------------------------------------------------------- sampling


def test_sample_velocity_passthrough_and_bias():
    rng = np.random.default_rng(0)
    clean = WorldConfig.from_dict(
        _world_dict(noise_std_omega=0.0, noise_std_v=0.0, bias_omega=[0, 0, 0], bias_v=[0, 0, 0])
    )
    u = Twist(np.array([0.1, 0.2, 0.3]), np.array([1.0, 2.0, 3.0]))
    got = sample_velocity(u, clean, rng)
    assert np.array_equal(got.omega, u.omega)
    assert np.array_equal(got.v, u.v)

    biased = WorldConfig.from_dict(_world_dict(noise_std_omega=0.0, noise_std_v=0.0))
    got = sample_velocity(u, biased, rng)
    assert np.allclose(got.omega, u.omega + [0.2, -0.2, 0.2], atol=1e-15)
    assert np.allclose(got.v, u.v + [0.04, 0.1, -0.02], atol=1e-15)


def test_sample_velocity_noise_statistics():
    # first and second moments over 1e5 draws; 3-sigma acceptance bands
    cfg = WorldConfig.from_dict(_world_dict())
    rng = np.random.default_rng(20240515)
    u = Twist.zero()
    draws = np.array([sample_velocity(u, cfg, rng).vector() for _ in range(100_000)])
    mean = draws.mean(axis=0)
    bias = np.concatenate([cfg.bias_omega, cfg.bias_v])
    assert np.abs(mean - bias).max() < 3 * 0.2 / np.sqrt(100_000)
    std = draws.std(axis=0)
    assert std.min() > 0.19 and std.max() < 0.21


def test_sample_features_reference_cases():
    cfg = WorldConfig.from_dict(_world_dict(noise_std_omega=0.0, noise_std_v=0.0))
    state = initial_true_state(cfg)
    rng = np.random.default_rng(1)

    # at the origin with identity attitude the body frame is the world frame
    origin = state._replace(pose=Pose(np.eye(3), np.zeros(3)))
    y = sample_features(origin, cfg, rng)
    assert np.array_equal(y, cfg.landmarks)

    # sitting exactly on landmark 0 zeroes its vector
    on_lm = state._replace(pose=Pose(np.eye(3), cfg.landmarks[0].copy()))
    y = sample_features(on_lm, cfg, rng)
    assert np.array_equal(y[0], np.zeros(3))


def test_sample_features_is_isometric():
    """Body-frame vectors preserve inter-landmark distances."""
    cfg = WorldConfig.from_dict(_world_dict())
    rng = np.random.default_rng(2)
    state = initial_true_state(cfg)._replace(
        pose=Pose(random_rotation(rng), rng.standard_normal(3) * 4.0),
    )
    y = sample_features(state, cfg, rng)
    p = cfg.landmarks
    for i in range(len(p)):
        for j in range(len(p)):
            assert np.isclose(
                np.linalg.norm(y[i] - y[j]), np.linalg.norm(p[i] - p[j]), atol=1e-10
            )


def test_augmented_refs_unitizes_and_appends_cross():
    refs = augmented_refs(np.array([[1.0, -1.0, 1.0], [0.0, 0.0, 1.0]]))
    assert refs.shape == (3, 3)
    assert np.allclose(np.linalg.norm(refs, axis=1), 1.0, atol=1e-12)
    # cross of the normalized pair, renormalized: (-1,-1,0)/sqrt(2)
    assert np.allclose(refs[2], np.array([-1.0, -1.0, 0.0]) / np.sqrt(2.0), atol=1e-12)
    assert abs(np.linalg.det(refs)) > 0.1


def test_augmented_refs_rejects_degenerate_input():
    with pytest.raises(ConfigError, match="zero vector"):
        augmented_refs(np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
    with pytest.raises(ConfigError, match="collinear"):
        augmented_refs(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 3.0]]))


def test_sample_imu_transport_relation():
    cfg = WorldConfig.from_dict(_world_dict())
    rng = np.random.default_rng(3)
    state = initial_true_state(cfg)._replace(
        pose=Pose(random_rotation(rng), rng.standard_normal(3)),
    )
    refs, body = sample_imu(state, cfg, rng)
    r = state.pose.rotation
    # configured rows transport exactly; the synthesized row is the
    # renormalized cross of the first two body rows, which for an exact
    # rotation equals the transported third reference
    for j in range(2):
        assert np.allclose(body[j], r.T @ refs[j], atol=1e-12)
    assert np.allclose(body[2], r.T @ refs[2], atol=1e-10)
    assert np.allclose(np.linalg.norm(body, axis=1), 1.0, atol=1e-12)


def test_sample_imu_identity_attitude():
    cfg = WorldConfig.from_dict(_world_dict())
    state = initial_true_state(cfg)  # identity attitude
    refs, body = sample_imu(state, cfg, np.random.default_rng(4))
    assert np.allclose(refs, body, atol=1e-15)


# ----------------------------------------------------------------- traces


def _reference_trace(cfg: WorldConfig):
    """Sequential re-derivation of simulate_world from the public samplers."""
    rng = np.random.default_rng(cfg.rng_seed)
    state = initial_true_state(cfg)
    rot, pos = [state.pose.rotation], [state.pose.position]
    u_ms, ys, bodies = [], [], []
    for k in range(cfg.n_steps):
        t = k * cfg.dt
        u_quarter = Twist(profile_at(cfg.omega_true, t + cfg.dt / 4),
                          profile_at(cfg.v_true, t + cfg.dt / 4))
        mid = propagate_true(state, u_quarter, cfg.dt / 2)
        u_mid = Twist(profile_at(cfg.omega_true, t + cfg.dt / 2),
                      profile_at(cfg.v_true, t + cfg.dt / 2))
        u_ms.append(sample_velocity(u_mid, cfg, rng).vector())
        ys.append(sample_features(mid, cfg, rng))
        bodies.append(sample_imu(mid, cfg, rng)[1])
        state = propagate_true(state, u_mid, cfg.dt)
        rot.append(state.pose.rotation)
        pos.append(state.pose.position)
    return (
        np.array(rot), np.array(pos), np.array(u_ms), np.array(ys), np.array(bodies),
    )


def test_trace_matches_sequential_reference_clean():
    cfg = WorldConfig.from_dict(
        _world_dict(noise_std_omega=0.0, noise_std_v=0.0, duration=0.2)
    )
    trace = simulate_world(cfg)
    rot, pos, u_m, y, body = _reference_trace(cfg)
    assert np.abs(trace.rotations - rot).max() < 1e-12
    assert np.abs(trace.positions - pos).max() < 1e-12
    assert np.abs(trace.u_m - u_m).max() < 1e-12
    assert np.abs(trace.y - y).max() < 1e-12
    assert np.abs(trace.imu_body - body).max() < 1e-12


def test_trace_matches_sequential_reference_noisy():
    """Chunked noise draws must reproduce the per-sampler stream order."""
    cfg = WorldConfig.from_dict(_world_dict(duration=0.1, feature_noise_std=0.05))
    trace = simulate_world(cfg)
    _, _, u_m, y, _ = _reference_trace(cfg)
    assert np.abs(trace.u_m - u_m).max() < 1e-12
    assert np.abs(trace.y - y).max() < 1e-12


def test_trace_reconstruction_invariant(clean_trace):
    """p_i = R_mid y_i + P_mid at the sampling instant, every interval."""
    lm = clean_trace.landmarks
    for k in (0, 1, 1000, 20000, clean_trace.u_m.shape[0] - 1):
        ms = measurement_state(clean_trace, k)
        rebuilt = clean_trace.y[k] @ ms.pose.rotation.T + ms.pose.position
        assert np.abs(rebuilt - lm).max() < 1e-10


def test_trace_time_labels():
    cfg = WorldConfig.from_dict(_world_dict(duration=0.01))
    trace = simulate_world(cfg)
    assert np.allclose(trace.times, np.arange(11) * 0.001, atol=1e-15)
    b = trace.bundle(3)
    assert np.isclose(b.t, 0.003, atol=1e-15)
    assert np.isclose(measurement_state(trace, 3).t, 0.0035, atol=1e-15)


def test_trace_is_deterministic():
    cfg = WorldConfig.from_dict(_world_dict(duration=0.2))
    a = simulate_world(cfg)
    b = simulate_world(cfg)
    assert np.array_equal(a.u_m, b.u_m)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.rotations, b.rotations)
    assert np.array_equal(a.imu_body, b.imu_body)


def test_trace_seed_override():
    cfg = WorldConfig.from_dict(_world_dict(duration=0.1))
    reseeded = simulate_world(dataclasses.replace(cfg, rng_seed=99))
    equivalent = simulate_world(dataclasses.replace(cfg, rng_seed=99))
    assert np.array_equal(reseeded.u_m, equivalent.u_m)
    assert np.array_equal(reseeded.y, equivalent.y)
    # the trace names the seed it drew from
    assert reseeded.cfg.rng_seed == 99
    # and a different seed actually changes the noise
    assert not np.array_equal(reseeded.u_m, simulate_world(cfg).u_m)


def test_zero_noise_velocity_stream_is_exact():
    """Bias-corrected clean velocity reproduces truth step for step."""
    cfg = WorldConfig.from_dict(
        _world_dict(noise_std_omega=0.0, noise_std_v=0.0, duration=0.05)
    )
    trace = simulate_world(cfg)
    bias = np.concatenate([cfg.bias_omega, cfg.bias_v])
    state = initial_true_state(cfg)
    for k in range(cfg.n_steps):
        state = propagate_true(state, Twist.from_vector(trace.u_m[k] - bias), cfg.dt)
    assert np.abs(state.pose.rotation - trace.rotations[-1]).max() < 1e-12
    assert np.abs(state.pose.position - trace.positions[-1]).max() < 1e-12
