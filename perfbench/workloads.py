"""Benchmark workloads: seed -> lieslam run config (a JSON-ready dict).

Every workload is a closed loop, one ``lieslam run`` at a time.  The
program receives only the configs built here; nothing in the package is
configured any other way.

Why these three (each stresses a different layer):

- ``climb_both``: the bundled ``square_climb`` scenario (4 landmarks,
  stride 100) with both observers.  With so few landmarks about half of
  an IMU step is fixed per-step cost (temporaries, the step wrapper, the
  ``run_filter`` loop), so a fused loop or a wrapper cut shows here.  It
  is the only workload that runs ``filter_basic``.
- ``level_quat_dense``: the bundled ``square_level`` scenario with the
  quaternion observer and ``sample_stride`` 1, so ``metrics.evaluate``
  and CSV writing run on every step.  The only workload on the
  quaternion kernel; it uses neither matrix kernel.
- ``ring32_imu``: a seed-jittered ring of 32 landmarks with feature
  noise, matrix IMU observer, stride 100.  Per-landmark loops dominate
  a step, so a fixed-cost optimisation should barely move it.  The only
  workload on the feature-noise path of ``simulate_world``.  The
  n-fold attitude block diverges at this landmark count with the bundled
  gains, hence ``simplified_form`` and alpha scaled by n / 4.
"""

from __future__ import annotations

import copy
import json
import math
import random
from pathlib import Path

# world steps per measured run (dt = 1 ms): one ``lieslam run`` takes
# about 1-1.5 s on a 2.0 GHz Xeon vCPU, of which ~0.3 s is start-up.
# Short runs keep each one close to the calibration loops that bracket it
# (see run.py) and give a 30 s measurement about twenty runs to take the
# median of.
_STEPS = {"climb_both": 500, "level_quat_dense": 700, "ring32_imu": 250}
_FILTERS = {"climb_both": ["basic", "imu"], "level_quat_dense": ["imu_quat"],
            "ring32_imu": ["imu"]}
NAMES = tuple(_STEPS)

_RING_N = 32
_RING_RADIUS = 12.0


def _bundled(root: Path, name: str) -> dict:
    return json.loads((root / "src" / "lieslam" / "configs" / name).read_text())


def _ring(root: Path, seed: int) -> dict:
    cfg = _bundled(root, "square_level.json")
    rnd = random.Random(seed)
    landmarks = []
    for i in range(_RING_N):
        phi = 2.0 * math.pi * i / _RING_N + rnd.uniform(-0.05, 0.05)
        rad = _RING_RADIUS + rnd.uniform(-1.0, 1.0)
        landmarks.append([round(rad * math.cos(phi), 6), round(rad * math.sin(phi), 6),
                          round(rnd.uniform(-0.5, 0.5), 6)])
    cfg["world"]["landmarks"] = landmarks
    cfg["world"]["feature_noise_std"] = 0.01
    cfg["init"]["landmarks"] = [[0.0, 0.0, 0.0]] * _RING_N
    alpha = 0.1 * _RING_N / 4
    cfg["gains"]["basic"]["alpha"] = alpha
    cfg["gains"]["imu"]["alpha"] = alpha
    cfg["simplified_form"] = True
    return cfg


def make_config(root: Path, name: str, seed: int) -> dict:
    """The measured run config of workload ``name`` for ``seed``."""
    if name == "climb_both":
        cfg = _bundled(root, "square_climb.json")
    elif name == "level_quat_dense":
        cfg = _bundled(root, "square_level.json")
        cfg["sample_stride"] = 1
    elif name == "ring32_imu":
        cfg = _ring(root, seed)
    else:
        raise ValueError(f"unknown workload {name!r}")
    filters = _FILTERS[name]
    cfg["filter"] = "both" if len(filters) == 2 else filters[0]
    cfg["world"]["rng_seed"] = seed
    cfg["world"]["duration"] = _STEPS[name] * cfg["world"]["dt"]
    cfg["output_dir"] = "out"
    return cfg


def setup_config(cfg: dict) -> dict:
    """The same config cut to a single step (for ``setup_s``)."""
    cut = copy.deepcopy(cfg)
    cut["world"]["duration"] = cut["world"]["dt"]
    return cut


def filters_of(cfg: dict) -> list[str]:
    return ["basic", "imu"] if cfg["filter"] == "both" else [cfg["filter"]]


def world_steps(cfg: dict) -> int:
    return int(round(cfg["world"]["duration"] / cfg["world"]["dt"]))


def sample_rows(cfg: dict) -> int:
    """Rows each CSV of a run holds: samples at k = 0, stride, ... <= K."""
    return len(range(0, world_steps(cfg) + 1, cfg["sample_stride"]))
