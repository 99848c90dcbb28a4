"""Session-wide fixtures.

The bundled benchmark scenario takes a couple of seconds per filter run, so
the full-length trajectories are computed once per session and shared by the
module tests and the acceptance checks.  Wall-clock cost of each heavy phase
is recorded in ``phase_times`` so that tests with runtime budgets charge
the phases they consume (criterion 6 the whole noisy run, CSVs included),
and a throwaway short run up front keeps one-time costs out of everyone's
budget.
"""

from __future__ import annotations

import dataclasses
import time
import warnings

import pytest

from lieslam.harness import RunConfig, bundled_config_path, load_run_config, run, run_filter
from lieslam.worldsim import simulate_world


@pytest.fixture(scope="session")
def phase_times() -> dict:
    return {}


@pytest.fixture(scope="session")
def warmed_up(phase_times) -> bool:
    """Run every observer once on a tiny scenario, so that any one-time
    cost of a first run stays out of every budget.  It compiles nothing:
    the C build is made, or loaded from the cache, when
    ``lieslam._kernels`` is imported."""
    rc = load_run_config(bundled_config_path("square_climb"))
    world = dataclasses.replace(rc.world, duration=0.005)
    tiny = dataclasses.replace(rc, world=world, sample_stride=1)
    trace = simulate_world(world)
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for name in ("basic", "imu", "imu_quat"):
            run_filter(trace, tiny, name)
    phase_times["warmup"] = time.perf_counter() - start
    return True


@pytest.fixture(scope="session")
def climb_rc(warmed_up) -> RunConfig:
    return load_run_config(bundled_config_path("square_climb"))


@pytest.fixture(scope="session")
def level_rc(warmed_up) -> RunConfig:
    return load_run_config(bundled_config_path("square_level"))


@pytest.fixture(scope="session")
def clean_rc(climb_rc) -> RunConfig:
    """The benchmark scenario with every noise source switched off."""
    world = dataclasses.replace(
        climb_rc.world, noise_std_omega=0.0, noise_std_v=0.0, feature_noise_std=0.0
    )
    return dataclasses.replace(climb_rc, world=world)


@pytest.fixture(scope="session")
def clean_trace(clean_rc, phase_times):
    start = time.perf_counter()
    trace = simulate_world(clean_rc.world)
    phase_times["simulate_clean"] = time.perf_counter() - start
    return trace


@pytest.fixture(scope="session")
def noisy_basic(climb_artifacts):
    return climb_artifacts.results["basic"]


@pytest.fixture(scope="session")
def noisy_imu(climb_artifacts):
    return climb_artifacts.results["imu"]


@pytest.fixture(scope="session")
def clean_basic(clean_trace, clean_rc):
    return run_filter(clean_trace, clean_rc, "basic")


@pytest.fixture(scope="session")
def clean_imu(clean_trace, clean_rc):
    return run_filter(clean_trace, clean_rc, "imu")


@pytest.fixture(scope="session")
def clean_rc_simplified(clean_rc) -> RunConfig:
    """The clean scenario with the IMU-aided observer in simplified form."""
    return dataclasses.replace(clean_rc, simplified_form=True)


@pytest.fixture(scope="session")
def clean_imu_simplified(clean_trace, clean_rc_simplified):
    return run_filter(clean_trace, clean_rc_simplified, "imu")


@pytest.fixture(scope="session")
def clean_imu_quat(clean_trace, clean_rc):
    return run_filter(clean_trace, clean_rc, "imu_quat")


@pytest.fixture(scope="session")
def climb_artifacts(climb_rc, tmp_path_factory, phase_times):
    """One full artifact-producing run of the benchmark scenario, noisy,
    with both filters; its whole wall time is ``phase_times["run_noisy"]``."""
    out = tmp_path_factory.mktemp("climb_run")
    rc = dataclasses.replace(climb_rc, output_dir=out)
    start = time.perf_counter()
    artifacts = run(rc)
    phase_times["run_noisy"] = time.perf_counter() - start
    return artifacts
