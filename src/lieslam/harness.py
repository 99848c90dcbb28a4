"""Run orchestration: config loading, filter execution, CSV artifacts.

A run simulates one world trace and feeds it to the selected
estimator(s); each keeps its states and sampled error reports as stacked
arrays.  One row writer formats every output: ``truth.csv`` plus, per
filter, ``filter_<name>.csv`` (error reports) and ``estimate_<name>.csv``
(estimated trajectories).  Identical configs give byte-identical files.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .config import (
    FILTER_CHOICES,
    ConfigError,
    check_rotation,
    fields,
    floats,
    integer,
    read_error,
    rotation,
    scalar,
)
from .liegroup import Pose, Twist
from .metrics import ErrorReport, evaluate, report_header
from .observers import BasicGains, FilterDivergence, FilterState, ImuGains, QuatFilterState
from .observers import basic_step, build_kernel, imu_step, quat_imu_step, quat_to_rot
from .worldsim import WorldConfig, WorldTrace, augmented_refs, simulate_world, steps_do_not_fit


@dataclass(frozen=True)
class RunConfig:
    """Full description of one simulation + estimation run."""

    world: WorldConfig
    filter_kind: str                     # one of FILTER_CHOICES
    gains_basic: BasicGains | None
    gains_imu: ImuGains | None
    init_rotation: np.ndarray            # (3, 3), orthonormalized
    init_position: np.ndarray            # (3,)
    init_landmarks: np.ndarray           # (n, 3)
    init_bias: np.ndarray                # (6,)
    output_dir: Path
    sample_stride: int
    simplified_form: bool

    def __post_init__(self):
        # dataclasses.replace re-runs this, so overrides are checked too
        if self.filter_kind not in FILTER_CHOICES:
            raise ConfigError(
                f"filter: {self.filter_kind!r} is not one of {list(FILTER_CHOICES)}"
            )
        for name in self.filters():
            block = "basic" if name == "basic" else "imu"
            if getattr(self, f"gains_{block}") is None:
                raise ConfigError(f"gains.{block}: required for the selected filter")
        # one alpha and one initial estimate per landmark of the world, and
        # an initial pose and bias of the parser's sizes, in its words
        n = self.world.n_landmarks
        sizes = [(f"gains.{block}.alpha", gains.alpha.shape, (n,), f"{n} numbers")
                 for block in _GAINS if (gains := getattr(self, f"gains_{block}")) is not None]
        sizes += [("init.landmarks", self.init_landmarks.shape, (n, 3), f"{n} 3-vectors"),
                  ("init.rotation", self.init_rotation.shape, (3, 3), "9 scalars (row-major)"),
                  ("init.position", self.init_position.shape, (3,), "3 numbers"),
                  ("init.bias", self.init_bias.shape, (6,), "6 numbers (angular then linear)")]
        for key, got, want, expected in sizes:
            if got != want:
                raise ConfigError(f"{key}: expected {expected}, got shape {got}")
        # checked, not repaired: a valid rotation keeps its bits
        check_rotation(self.init_rotation, "init.rotation")
        if self.filters() != ["basic"]:
            try:
                build_kernel(augmented_refs(self.world.imu_refs), self.world.sensor_weights)
            except ValueError as exc:
                raise ConfigError(f"world.sensor_weights: {exc}") from None

    def filters(self) -> list[str]:
        if self.filter_kind == "both":
            return ["basic", "imu"]
        return [self.filter_kind]


def _broadcast(raw, length: int, key: str) -> np.ndarray:
    """One number repeated ``length`` times, or a list of ``length``."""
    return np.full(length, floats(raw, key, (length,) if isinstance(raw, list) else ()))


_GAINS = {"basic": BasicGains, "imu": ImuGains}


def _parse_gains(block: str, raw, n: int) -> BasicGains | ImuGains:
    cls = _GAINS[block]
    scalars, diagonals = cls.SCALARS, cls.DIAGONALS
    key = f"gains.{block}"
    fields(raw, key, (*scalars, *diagonals, "alpha"), scalars)
    kwargs = {name: scalar(raw[name], f"{key}.{name}") for name in scalars}
    for name, size in diagonals.items():
        kwargs[name] = _broadcast(raw.get(name, 1.0), size, f"{key}.{name}")
    kwargs["alpha"] = _broadcast(raw.get("alpha", 1.0), n, f"{key}.alpha")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def parse_run_config(raw: dict, base_dir: Path | None = None) -> RunConfig:
    """Validate a parsed JSON document into a RunConfig."""
    fields(raw, "", ("world", "filter", "gains", "init", "output_dir", "sample_stride",
                     "simplified_form"), ("world",))
    world = WorldConfig.from_dict(raw["world"])
    n = world.n_landmarks

    gains_raw = fields(raw.get("gains", {}), "gains", _GAINS)
    gains = {block: _parse_gains(block, gains_raw[block], n)
             for block in _GAINS if block in gains_raw}

    init_raw = fields(raw.get("init", {}), "init", ("rotation", "position", "landmarks", "bias"))
    rot = rotation(init_raw.get("rotation", np.eye(3).ravel()), "init.rotation")
    position = floats(init_raw.get("position", np.zeros(3)), "init.position", (3,))
    landmarks = floats(init_raw.get("landmarks", np.zeros((n, 3))), "init.landmarks", (n, 3))
    bias = floats(init_raw.get("bias", np.zeros(6)), "init.bias", (6,),
                  "numbers (angular then linear)")

    stride = integer(raw.get("sample_stride", 1), "sample_stride", 1)

    simplified = raw.get("simplified_form", False)
    if not isinstance(simplified, bool):
        raise ConfigError("simplified_form: expected true or false")

    out_dir = raw.get("output_dir", "out")
    if not isinstance(out_dir, str):
        raise ConfigError("output_dir: expected a path")
    out_dir = Path(out_dir)
    if base_dir is not None and not out_dir.is_absolute():
        out_dir = base_dir / out_dir

    return RunConfig(
        world=world,
        filter_kind=raw.get("filter", "both"),
        gains_basic=gains.get("basic"),
        gains_imu=gains.get("imu"),
        init_rotation=rot,
        init_position=position,
        init_landmarks=landmarks,
        init_bias=bias,
        output_dir=out_dir,
        sample_stride=stride,
        simplified_form=simplified,
    )


def bundled_config_path(name: str) -> Path:
    """Path of a config shipped with the package (name may omit .json)."""
    if not name.endswith(".json"):
        name += ".json"
    return Path(__file__).parent / "configs" / name


def load_run_config(path: str | Path) -> RunConfig:
    """Load and validate a JSON run config from disk.

    A bare name that matches a bundled config (e.g. ``square_climb.json``)
    resolves to the packaged copy when no such file exists locally.
    """
    p = Path(path)
    if not p.exists():
        candidate = bundled_config_path(p.name)
        if p.parent == Path(".") and candidate.exists():
            p = candidate
        else:
            raise ConfigError(f"{path}: no such config file")
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise ConfigError(f"{p}: cannot read the config: nested too deeply") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{p}: cannot read the config: {read_error(exc)}") from None
    try:
        return parse_run_config(raw, base_dir=Path.cwd())
    except ConfigError as exc:
        raise ConfigError(f"{p}: {exc}") from None


class FilterRunResult(NamedTuple):
    """What one estimator did over a world trace: its state after every
    step, and its error reports at the sampled steps."""

    name: str
    sample_ks: np.ndarray            # (S,) sampled step indices
    rotations: np.ndarray            # (K+1, 3, 3) estimator state at every step
    positions: np.ndarray            # (K+1, 3)
    landmarks: np.ndarray            # (K+1, n, 3)
    biases: np.ndarray               # (K+1, 6) angular then linear
    report: ErrorReport              # stacked over sample_ks: (S,) or (S, n) columns
    wall_time: float

    def state(self, k) -> FilterState:
        """Estimator state after step k (0 is the initial state).  A
        slice gives one FilterState whose arrays stack those steps."""
        return _recorded_state(self.rotations, self.positions, self.landmarks, self.biases, k)

    @property
    def states(self) -> list[FilterState]:
        """Estimator state at each sample, built on access.

        The steps are kept as stacked arrays rather than as state
        objects, which a caller would otherwise pay to free one by one.
        """
        return [self.state(k) for k in self.sample_ks]


def _recorded_state(rotations, positions, landmarks, biases, k) -> FilterState:
    return FilterState(Pose(rotations[k], positions[k]), landmarks[k],
                       Twist(biases[k, :3], biases[k, 3:]))


def _candidate(trace: WorldTrace, rc: RunConfig, name: str) -> tuple:
    """Lyapunov candidate of a filter as (gains, attitude kernel,
    attitude multiplicity); the gains and the kernel are also the ones
    the filter steps with."""
    if name == "basic":
        return rc.gains_basic, None, 1.0
    kernel = build_kernel(trace.imu_ref, trace.cfg.sensor_weights)
    return rc.gains_imu, kernel, 1.0 if rc.simplified_form else float(trace.cfg.n_landmarks)


def run_filter(trace: WorldTrace, rc: RunConfig, name: str) -> FilterRunResult:
    """Run one estimator over a simulated trace.

    The state after every step is recorded; the error reports are
    evaluated every ``sample_stride`` steps and stacked.  Raises
    FilterDivergence (annotated with the step index) if the estimator
    state stops being finite, and ConfigError if the record does not
    fit in memory.
    """
    if name not in ("basic", "imu", "imu_quat"):
        raise ValueError(f"unknown filter {name!r}")
    cfg = trace.cfg
    k_steps = trace.u_m.shape[0]
    dt = cfg.dt
    gains, kernel, att_mult = _candidate(trace, rc, name)

    # the steps return new states, so the initial one may share rc's arrays
    bias = Twist(rc.init_bias[:3], rc.init_bias[3:])
    quat = name == "imu_quat"
    if quat:
        fs = QuatFilterState.from_rotation(rc.init_rotation, rc.init_position,
                                           rc.init_landmarks, bias)
    else:
        fs = FilterState(Pose(rc.init_rotation, rc.init_position), rc.init_landmarks, bias)
    try:
        # the quaternion filter's attitude is converted once, after the loop
        attitudes = np.empty((k_steps + 1,) + ((4,) if quat else (3, 3)))
        positions = np.empty((k_steps + 1, 3))
        landmarks = np.empty((k_steps + 1,) + rc.init_landmarks.shape)
        biases = np.empty((k_steps + 1, 6))
    except MemoryError:
        raise steps_do_not_fit(k_steps) from None

    # each looks its step function up on this module when called, so a
    # wrapper put on that name sees every step
    step = {
        "basic": lambda fs, m: basic_step(fs, m, gains, dt),
        "imu": lambda fs, m: imu_step(fs, m, kernel, gains, dt, rc.simplified_form),
        "imu_quat": lambda fs, m: quat_imu_step(fs, m, kernel, gains, dt, rc.simplified_form),
    }[name]
    start = time.perf_counter()
    for k in range(k_steps + 1):
        if quat:
            attitudes[k], positions[k] = fs.q, fs.position
        else:
            attitudes[k], positions[k] = fs.pose.rotation, fs.pose.position
        landmarks[k] = fs.landmarks
        biases[k, :3] = fs.bias.omega
        biases[k, 3:] = fs.bias.v
        if k == k_steps:
            break

        try:
            fs = step(fs, trace.bundle(k))
        except FilterDivergence as exc:
            raise FilterDivergence(f"{name}: step {k} (t={k * dt:.6g}): {exc}") from None

    rotations = quat_to_rot(attitudes) if quat else attitudes
    # a stride beyond the run samples step 0 alone, whatever its size
    sample_ks = np.arange(0, k_steps + 1, min(rc.sample_stride, k_steps + 1))
    bias_true = Twist(cfg.bias_omega, cfg.bias_v)
    reports = [
        evaluate(trace.true_state(k), _recorded_state(rotations, positions, landmarks, biases, k),
                 bias_true, gains, kernel, att_mult)
        for k in sample_ks
    ]
    report = ErrorReport._make(map(np.array, zip(*reports)))
    return FilterRunResult(name, sample_ks, rotations, positions, landmarks, biases, report,
                           time.perf_counter() - start)


def _csv_text(header: str, *columns: np.ndarray) -> str:
    """CSV of float64 columns ((S,) or (S, m) each), one row per sample.

    The columns go into one table, formatted a row at a time: a
    whole-table ``tolist`` would hold every value as a Python float at
    once."""
    lines = [header]
    lines += [",".join(map(repr, row.tolist())) for row in np.column_stack(columns)]
    return "\n".join(lines) + "\n"


def _state_header(n_landmarks: int) -> str:
    """t, position, the rotation row-major, then the landmarks row by row."""
    cols = ["t", "P_x", "P_y", "P_z"]
    cols += [f"r{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)]
    for i in range(n_landmarks):
        cols += [f"p_{i + 1}_{ax}" for ax in ("x", "y", "z")]
    return ",".join(cols)


def truth_csv_text(trace: WorldTrace, stride: int) -> str:
    times = trace.times[::stride]
    n = trace.landmarks.shape[0]
    return _csv_text(_state_header(n), times, trace.positions[::stride],
                     trace.rotations[::stride].reshape(-1, 9),
                     np.broadcast_to(trace.landmarks.reshape(-1), (times.shape[0], 3 * n)))


def estimate_csv_text(result: FilterRunResult, times: np.ndarray) -> str:
    ks = result.sample_ks
    n = result.landmarks.shape[1]
    return _csv_text(_state_header(n), times[ks], result.positions[ks],
                     result.rotations[ks].reshape(-1, 9),
                     result.landmarks[ks].reshape(-1, 3 * n))


def report_csv_text(result: FilterRunResult, n_landmarks: int) -> str:
    rep = result.report
    return _csv_text(report_header(n_landmarks), rep.t, rep.att_dist, rep.pos_err,
                     rep.feat_err, rep.e_norms, rep.bias_err, rep.lyap)


class RunArtifacts(NamedTuple):
    """Paths written by run(), plus the in-memory results."""

    output_dir: Path
    truth_path: Path
    filter_paths: dict[str, Path]
    estimate_paths: dict[str, Path]
    results: dict[str, FilterRunResult]
    trace: WorldTrace


def _write(path: Path, text: str) -> Path:
    """Write one CSV artifact; a refusal of the file system is a
    ConfigError on output_dir."""
    try:
        path.write_text(text, newline="\n")
    except OSError as exc:
        raise ConfigError(f"output_dir: cannot write {path}: {read_error(exc)}") from None
    return path


def run(rc: RunConfig, suffix: str = "") -> RunArtifacts:
    """Execute a run config: simulate, filter, write CSV artifacts.

    ``suffix`` is appended to every file stem (used by multi-seed runs).
    Raises ConfigError when the output directory cannot be created or
    written.
    """
    trace = simulate_world(rc.world)
    out = rc.output_dir
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output_dir: cannot create {out}: {read_error(exc)}") from None

    truth_path = _write(out / f"truth{suffix}.csv", truth_csv_text(trace, rc.sample_stride))

    results: dict[str, FilterRunResult] = {}
    filter_paths: dict[str, Path] = {}
    estimate_paths: dict[str, Path] = {}
    for name in rc.filters():
        result = run_filter(trace, rc, name)
        results[name] = result
        filter_paths[name] = _write(out / f"filter_{name}{suffix}.csv",
                                    report_csv_text(result, rc.world.n_landmarks))
        estimate_paths[name] = _write(out / f"estimate_{name}{suffix}.csv",
                                      estimate_csv_text(result, trace.times))

    return RunArtifacts(
        output_dir=out,
        truth_path=truth_path,
        filter_paths=filter_paths,
        estimate_paths=estimate_paths,
        results=results,
        trace=trace,
    )

