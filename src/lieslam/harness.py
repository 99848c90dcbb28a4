"""Run orchestration: config loading, filter execution, CSV artifacts.

A run simulates one world trace and feeds it to the selected
estimator(s).  Outputs per run: ``truth.csv`` plus, per filter,
``filter_<name>.csv`` (error reports) and ``estimate_<name>.csv``
(estimated trajectories).  Identical config + seed gives byte-identical
files.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from .filter_basic import BasicGains, FilterDivergence, FilterState, basic_step
from .filter_imu import ImuGains, build_kernel, imu_step
from .liegroup import Pose, Twist, orthonormalize, rotation_defect
from .metrics import ErrorReport, error_state, evaluate, report_header, report_row
from .quaternion import QuatFilterState, quat_imu_step, quat_to_rot
from .worldsim import (
    ConfigError,
    TrueState,
    WorldConfig,
    WorldTrace,
    floats,
    integer,
    scalar,
    simulate_world,
    steps_do_not_fit,
)

FILTER_CHOICES = ("basic", "imu", "imu_quat", "both")
# Accepting a printed-to-few-digits rotation and repairing it is fine;
# anything further from orthonormal than this is a config mistake.
_INIT_ROTATION_SLACK = 1e-2


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

    def filters(self) -> list[str]:
        if self.filter_kind == "both":
            return ["basic", "imu"]
        return [self.filter_kind]


def _broadcast(raw, length: int, key: str) -> np.ndarray:
    arr = floats(raw, key)
    if arr.ndim == 0:
        return np.full(length, float(arr))
    if arr.shape != (length,):
        raise ConfigError(f"{key}: expected a scalar or {length} values")
    return arr


# gains block -> (gains class, scalar gains, diagonal gains and their sizes)
_GAINS = {
    "basic": (BasicGains, ("k_w", "k_1"), {"gamma": 6}),
    "imu": (ImuGains, ("k_w", "k_1", "k_2"), {"gamma_1": 3, "gamma_2": 3}),
}


def _parse_gains(block: str, raw, n: int) -> BasicGains | ImuGains:
    cls, scalars, diagonals = _GAINS[block]
    key = f"gains.{block}"
    if not isinstance(raw, dict):
        raise ConfigError(f"{key}: expected an object")
    for name in scalars:
        if name not in raw:
            raise ConfigError(f"{key}.{name}: required")
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
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected an object")
    known = {"world", "filter", "gains", "init", "output_dir", "sample_stride",
             "simplified_form"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"top level: unknown keys {sorted(unknown)}")
    if "world" not in raw:
        raise ConfigError("world: required")

    world = WorldConfig.from_dict(raw["world"])
    n = world.n_landmarks

    gains_raw = raw.get("gains", {})
    if not isinstance(gains_raw, dict):
        raise ConfigError("gains: expected an object")
    gains = {block: _parse_gains(block, gains_raw[block], n)
             for block in _GAINS if block in gains_raw}

    init_raw = raw.get("init", {})
    if not isinstance(init_raw, dict):
        raise ConfigError("init: expected an object")
    rot = floats(init_raw.get("rotation", np.eye(3).ravel()), "init.rotation")
    if rot.size != 9:
        raise ConfigError("init.rotation: expected 9 scalars (row-major)")
    rot = rot.reshape(3, 3)
    if rotation_defect(rot) > _INIT_ROTATION_SLACK:
        raise ConfigError("init.rotation: not close to a rotation matrix")
    rot = orthonormalize(rot)

    position = floats(init_raw.get("position", np.zeros(3)), "init.position")
    if position.shape != (3,):
        raise ConfigError("init.position: expected 3 numbers")

    landmarks = floats(init_raw.get("landmarks", np.zeros((n, 3))), "init.landmarks")
    if landmarks.shape != (n, 3):
        raise ConfigError(f"init.landmarks: expected {n} 3-vectors")

    bias = floats(init_raw.get("bias", np.zeros(6)), "init.bias")
    if bias.shape != (6,):
        raise ConfigError("init.bias: expected 6 numbers (angular then linear)")

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


def _read_error(exc: OSError | UnicodeDecodeError) -> str:
    if isinstance(exc, UnicodeDecodeError):
        return f"not UTF-8 text (byte {exc.start})"
    return exc.strerror or str(exc)


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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{p}: cannot read the config: {_read_error(exc)}") from None
    try:
        return parse_run_config(raw, base_dir=Path.cwd())
    except ConfigError as exc:
        raise ConfigError(f"{p}: {exc}") from None


@dataclass
class FilterRunResult:
    """What one estimator did over a world trace: its state after every
    step, and its error reports at the sampled steps."""

    name: str
    sample_ks: np.ndarray            # (S,) sampled step indices
    rotations: np.ndarray            # (K+1, 3, 3) estimator state at every step
    positions: np.ndarray            # (K+1, 3)
    landmarks: np.ndarray            # (K+1, n, 3)
    biases: np.ndarray               # (K+1, 6) angular then linear
    reports: list[ErrorReport]       # one per entry of sample_ks
    wall_time: float

    def state(self, k) -> FilterState:
        """Estimator state after step k (0 is the initial state).  A
        slice gives one FilterState whose arrays stack those steps."""
        return FilterState(Pose(self.rotations[k], self.positions[k]), self.landmarks[k],
                           Twist(self.biases[k, :3], self.biases[k, 3:]))

    @property
    def states(self) -> list[FilterState]:
        """Estimator state at each sample, built on access.

        The steps are kept as stacked arrays rather than as state
        objects, which a caller would otherwise pay to free one by one.
        """
        return [self.state(k) for k in self.sample_ks]


def _candidate(trace: WorldTrace, rc: RunConfig, name: str) -> tuple:
    """Lyapunov candidate of a filter as (kind, gains, attitude kernel,
    attitude multiplicity); the gains and the kernel are also the ones
    the filter steps with."""
    if name == "basic":
        return "basic", rc.gains_basic, None, 1.0
    kernel = build_kernel(trace.imu_ref, trace.cfg.sensor_weights)
    return ("imu", rc.gains_imu, kernel,
            1.0 if rc.simplified_form else float(trace.cfg.n_landmarks))


def run_filter(trace: WorldTrace, rc: RunConfig, name: str) -> FilterRunResult:
    """Run one estimator over a simulated trace.

    The state after every step is recorded; the error reports are
    evaluated every ``sample_stride`` steps.  Raises FilterDivergence
    (annotated with the step index) if the estimator state stops being
    finite, and ConfigError if the record does not fit in memory.
    """
    if name not in ("basic", "imu", "imu_quat"):
        raise ValueError(f"unknown filter {name!r}")
    cfg = trace.cfg
    k_steps = trace.u_m.shape[0]
    dt = cfg.dt
    kind, gains, kernel, att_mult = _candidate(trace, rc, name)

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

        m = trace.bundle(k)
        try:
            if name == "basic":
                fs = basic_step(fs, m, gains, dt)
            elif name == "imu":
                fs = imu_step(fs, m, kernel, gains, dt, rc.simplified_form)
            else:
                fs = quat_imu_step(fs, m, kernel, gains, dt, rc.simplified_form)
        except FilterDivergence as exc:
            raise FilterDivergence(f"{name}: step {k} (t={k * dt:.6g}): {exc}") from None

    result = FilterRunResult(name, np.arange(0, k_steps + 1, rc.sample_stride),
                             quat_to_rot(attitudes) if quat else attitudes, positions,
                             landmarks, biases, reports=[], wall_time=0.0)
    bias_true = Twist(cfg.bias_omega, cfg.bias_v)
    result.reports.extend(
        evaluate(trace.true_state(k), result.state(k), bias_true, lyap_kind=kind,
                 gains=gains, kernel=kernel, att_multiplicity=att_mult)
        for k in result.sample_ks
    )
    result.wall_time = time.perf_counter() - start
    return result


def lyapunov_steps(trace: WorldTrace, rc: RunConfig, result: FilterRunResult) -> np.ndarray:
    """Lyapunov candidate of a run at every step, (K+1,).

    One call of :func:`metrics.error_state` over the recorded states;
    entry k equals the ``lyap`` that :func:`metrics.evaluate` reports
    for step k.
    """
    kind, gains, kernel, att_mult = _candidate(trace, rc, result.name)
    cfg = trace.cfg
    truth = TrueState(Pose(trace.rotations, trace.positions), trace.landmarks)
    return error_state(truth, result.state(slice(None)), Twist(cfg.bias_omega, cfg.bias_v),
                       kind, gains, kernel, att_mult)[3]


def _fmt(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _state_csv_text(n_landmarks: int, rows) -> str:
    """CSV of sampled states; ``rows`` yields (t, position, rotation,
    landmarks) with the rotation and the landmarks in row-major order."""
    cols = ["t", "P_x", "P_y", "P_z"]
    cols += [f"r{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)]
    for i in range(n_landmarks):
        cols += [f"p_{i + 1}_{ax}" for ax in ("x", "y", "z")]
    lines = [",".join(cols)]
    for t, p, r, lm in rows:
        lines.append(_fmt(np.concatenate([[t], p, r.ravel(), lm.ravel()])))
    return "\n".join(lines) + "\n"


def truth_csv_text(trace: WorldTrace, stride: int) -> str:
    return _state_csv_text(trace.landmarks.shape[0], zip(
        trace.times[::stride], trace.positions[::stride], trace.rotations[::stride],
        repeat(trace.landmarks)))


def estimate_csv_text(result: FilterRunResult, times: np.ndarray) -> str:
    ks = result.sample_ks
    return _state_csv_text(result.landmarks.shape[1], zip(
        times[ks], result.positions[ks], result.rotations[ks], result.landmarks[ks]))


def report_csv_text(result: FilterRunResult, n_landmarks: int) -> str:
    lines = [report_header(n_landmarks)]
    lines += [report_row(rep) for rep in result.reports]
    return "\n".join(lines) + "\n"


@dataclass
class RunArtifacts:
    """Paths written by run(), plus the in-memory results."""

    output_dir: Path
    truth_path: Path
    filter_paths: dict[str, Path]
    estimate_paths: dict[str, Path]
    results: dict[str, FilterRunResult]
    trace: WorldTrace


def run(rc: RunConfig, suffix: str = "", seed: int | None = None) -> RunArtifacts:
    """Execute a run config: simulate, filter, write CSV artifacts.

    ``suffix`` is appended to every file stem (used by multi-seed runs);
    ``seed`` overrides the world's rng_seed.
    """
    trace = simulate_world(rc.world, seed=seed)
    out = rc.output_dir
    out.mkdir(parents=True, exist_ok=True)

    truth_path = out / f"truth{suffix}.csv"
    truth_path.write_text(truth_csv_text(trace, rc.sample_stride), newline="\n")

    results: dict[str, FilterRunResult] = {}
    filter_paths: dict[str, Path] = {}
    estimate_paths: dict[str, Path] = {}
    for name in rc.filters():
        result = run_filter(trace, rc, name)
        results[name] = result

        fpath = out / f"filter_{name}{suffix}.csv"
        fpath.write_text(report_csv_text(result, rc.world.n_landmarks), newline="\n")
        filter_paths[name] = fpath

        epath = out / f"estimate_{name}{suffix}.csv"
        epath.write_text(estimate_csv_text(result, trace.times), newline="\n")
        estimate_paths[name] = epath

    return RunArtifacts(
        output_dir=out,
        truth_path=truth_path,
        filter_paths=filter_paths,
        estimate_paths=estimate_paths,
        results=results,
        trace=trace,
    )


def read_csv(path: str | Path) -> tuple[list[str], np.ndarray]:
    """Read one of our CSVs: (header columns, float data (rows, cols))."""
    try:
        text = Path(path).read_text(encoding="utf-8").strip().splitlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {_read_error(exc)}") from None
    if not text:
        raise ConfigError(f"{path}: empty file")
    header = text[0].split(",")
    rows = [line.split(",") for line in text[1:]]
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    if any(len(row) != len(header) for row in rows):
        raise ConfigError(f"{path}: ragged rows")
    try:
        data = np.array([[float(v) for v in row] for row in rows], dtype=float)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return header, data.reshape(len(rows), len(header))


@dataclass(frozen=True)
class ColumnDelta:
    column: str
    final: float
    max: float


def compare(path_a: str | Path, path_b: str | Path) -> list[ColumnDelta]:
    """Per-column |a-b| deltas (final row and max over rows).

    Raises ConfigError when the schemas (headers or row counts) differ.
    """
    header_a, data_a = read_csv(path_a)
    header_b, data_b = read_csv(path_b)
    if header_a != header_b:
        missing = set(header_a) ^ set(header_b)
        detail = f"; differing columns {sorted(missing)}" if missing else ""
        raise ConfigError(f"column mismatch between {path_a} and {path_b}{detail}")
    if data_a.shape[0] != data_b.shape[0]:
        raise ConfigError(
            f"row count mismatch: {data_a.shape[0]} vs {data_b.shape[0]}"
        )
    diff = np.abs(data_a - data_b)
    # NaN-safe: treat NaN==NaN as zero delta (lyap column may be NaN)
    both_nan = np.isnan(data_a) & np.isnan(data_b)
    diff[both_nan] = 0.0
    return [
        ColumnDelta(column=col, final=float(diff[-1, j]), max=float(diff[:, j].max()))
        for j, col in enumerate(header_a)
    ]
