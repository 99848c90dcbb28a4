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
from pathlib import Path

import numpy as np

from . import metrics
from .filter_basic import BasicGains, FilterDivergence, FilterState, basic_step
from .filter_imu import AttitudeKernel, ImuGains, build_kernel, imu_step
from .liegroup import Pose, Twist, orthonormalize, rotation_defect
from .metrics import ErrorReport, evaluate, report_header, report_row
from .quaternion import QuatFilterState, quat_imu_step, quat_to_rot
from .worldsim import ConfigError, WorldConfig, WorldTrace, simulate_world

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

    def filters(self) -> list[str]:
        if self.filter_kind == "both":
            return ["basic", "imu"]
        return [self.filter_kind]


def _broadcast(raw, length: int, key: str) -> np.ndarray:
    arr = np.asarray(raw, dtype=float)
    if arr.ndim == 0:
        return np.full(length, float(arr))
    if arr.shape != (length,):
        raise ConfigError(f"{key}: expected a scalar or {length} values")
    return arr


def _parse_gains_basic(raw: dict, n: int) -> BasicGains:
    try:
        return BasicGains(
            k_w=float(raw["k_w"]),
            k_1=float(raw["k_1"]),
            gamma=_broadcast(raw.get("gamma", 1.0), 6, "gains.basic.gamma"),
            alpha=_broadcast(raw.get("alpha", 1.0), n, "gains.basic.alpha"),
        )
    except KeyError as exc:
        raise ConfigError(f"gains.basic.{exc.args[0]}: required") from None
    except ValueError as exc:
        raise ConfigError(f"gains.basic: {exc}") from None


def _parse_gains_imu(raw: dict, n: int) -> ImuGains:
    try:
        return ImuGains(
            k_w=float(raw["k_w"]),
            k_1=float(raw["k_1"]),
            k_2=float(raw["k_2"]),
            gamma_1=_broadcast(raw.get("gamma_1", 1.0), 3, "gains.imu.gamma_1"),
            gamma_2=_broadcast(raw.get("gamma_2", 1.0), 3, "gains.imu.gamma_2"),
            alpha=_broadcast(raw.get("alpha", 1.0), n, "gains.imu.alpha"),
        )
    except KeyError as exc:
        raise ConfigError(f"gains.imu.{exc.args[0]}: required") from None
    except ValueError as exc:
        raise ConfigError(f"gains.imu: {exc}") from None


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

    filter_kind = raw.get("filter", "both")
    if filter_kind not in FILTER_CHOICES:
        raise ConfigError(
            f"filter: {filter_kind!r} is not one of {list(FILTER_CHOICES)}"
        )

    gains_raw = raw.get("gains", {})
    if not isinstance(gains_raw, dict):
        raise ConfigError("gains: expected an object")
    needs_basic = filter_kind in ("basic", "both")
    needs_imu = filter_kind in ("imu", "imu_quat", "both")
    gains_basic = gains_imu = None
    if needs_basic:
        if "basic" not in gains_raw:
            raise ConfigError("gains.basic: required for the selected filter")
        gains_basic = _parse_gains_basic(gains_raw["basic"], n)
    if needs_imu:
        if "imu" not in gains_raw:
            raise ConfigError("gains.imu: required for the selected filter")
        gains_imu = _parse_gains_imu(gains_raw["imu"], n)

    init_raw = raw.get("init", {})
    if not isinstance(init_raw, dict):
        raise ConfigError("init: expected an object")
    rot = np.asarray(init_raw.get("rotation", np.eye(3).ravel()), dtype=float)
    if rot.size != 9:
        raise ConfigError("init.rotation: expected 9 scalars (row-major)")
    rot = rot.reshape(3, 3)
    if rotation_defect(rot) > _INIT_ROTATION_SLACK:
        raise ConfigError("init.rotation: not close to a rotation matrix")
    rot = orthonormalize(rot)

    position = np.asarray(init_raw.get("position", np.zeros(3)), dtype=float)
    if position.shape != (3,):
        raise ConfigError("init.position: expected 3 numbers")

    landmarks = np.asarray(init_raw.get("landmarks", np.zeros((n, 3))), dtype=float)
    if landmarks.shape != (n, 3):
        raise ConfigError(f"init.landmarks: expected {n} 3-vectors")

    bias = np.asarray(init_raw.get("bias", np.zeros(6)), dtype=float)
    if bias.shape != (6,):
        raise ConfigError("init.bias: expected 6 numbers (angular then linear)")

    stride = int(raw.get("sample_stride", 1))
    if stride < 1:
        raise ConfigError("sample_stride: must be >= 1")

    out_dir = Path(raw.get("output_dir", "out"))
    if base_dir is not None and not out_dir.is_absolute():
        out_dir = base_dir / out_dir

    return RunConfig(
        world=world,
        filter_kind=filter_kind,
        gains_basic=gains_basic,
        gains_imu=gains_imu,
        init_rotation=rot,
        init_position=position,
        init_landmarks=landmarks,
        init_bias=bias,
        output_dir=out_dir,
        sample_stride=stride,
        simplified_form=bool(raw.get("simplified_form", False)),
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
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    try:
        return parse_run_config(raw, base_dir=Path.cwd())
    except ConfigError as exc:
        raise ConfigError(f"{p}: {exc}") from None


@dataclass
class FilterRunResult:
    """Everything recorded while one estimator consumed a world trace."""

    name: str
    sample_ks: np.ndarray            # (S,) sampled step indices
    rotations: np.ndarray            # (S, 3, 3) estimator state at each sample
    positions: np.ndarray            # (S, 3)
    landmarks: np.ndarray            # (S, n, 3)
    biases: np.ndarray               # (S, 6) angular then linear
    reports: list[ErrorReport]
    lyap_steps: np.ndarray | None    # (K+1,) candidate at every step, if recorded
    rot_traj: np.ndarray | None      # (K+1, 3, 3) estimated attitude, if recorded
    pos_traj: np.ndarray | None      # (K+1, 3)
    wall_time: float

    @property
    def states(self) -> list[FilterState]:
        """Estimator state at each sample, built on access.

        The samples are kept as stacked arrays rather than as state
        objects, which a caller would otherwise pay to free one by one.
        """
        return [FilterState(Pose(r, p), lm, Twist(b[:3], b[3:]))
                for r, p, lm, b in zip(self.rotations, self.positions,
                                       self.landmarks, self.biases)]


def _initial_filter_state(rc: RunConfig) -> FilterState:
    return FilterState(
        pose=Pose(rc.init_rotation.copy(), rc.init_position.copy()),
        landmarks=rc.init_landmarks.copy(),
        bias=Twist(rc.init_bias[:3].copy(), rc.init_bias[3:].copy()),
    )


def run_filter(
    trace: WorldTrace,
    rc: RunConfig,
    name: str,
    record_lyap: bool = False,
    record_trajectory: bool = False,
) -> FilterRunResult:
    """Run one estimator over a simulated trace.

    Raises FilterDivergence (annotated with the step index) if the
    estimator state stops being finite.
    """
    if name not in ("basic", "imu", "imu_quat"):
        raise ValueError(f"unknown filter {name!r}")
    cfg = trace.cfg
    k_steps = trace.u_m.shape[0]
    dt = cfg.dt
    stride = rc.sample_stride
    bias_true = Twist(cfg.bias_omega, cfg.bias_v)

    kernel: AttitudeKernel | None = None
    if name in ("imu", "imu_quat"):
        kernel = build_kernel(trace.imu_ref, cfg.sensor_weights)
        gains: ImuGains | BasicGains = rc.gains_imu
        lyap_kind = "imu"
        att_mult = 1.0 if rc.simplified_form else float(cfg.n_landmarks)
    else:
        gains = rc.gains_basic
        lyap_kind = "basic"
        att_mult = 1.0

    fs = _initial_filter_state(rc)
    qs: QuatFilterState | None = None
    if name == "imu_quat":
        qs = QuatFilterState.from_rotation(
            fs.pose.rotation, fs.pose.position, fs.landmarks, fs.bias
        )

    sample_ks: list[int] = []
    n_samples = k_steps // stride + 1
    sample_rot = np.empty((n_samples, 3, 3))
    sample_pos = np.empty((n_samples, 3))
    sample_lm = np.empty((n_samples,) + fs.landmarks.shape)
    sample_bias = np.empty((n_samples, 6))
    reports: list[ErrorReport] = []
    lyap_steps = np.empty(k_steps + 1) if record_lyap else None
    rot_traj = np.empty((k_steps + 1, 3, 3)) if record_trajectory else None
    pos_traj = np.empty((k_steps + 1, 3)) if record_trajectory else None

    def current_state() -> FilterState:
        if qs is None:
            return fs
        return FilterState(
            pose=Pose(quat_to_rot(qs.q), qs.position),
            landmarks=qs.landmarks,
            bias=qs.bias,
        )

    def lyap_value(state: FilterState, k: int) -> float:
        truth = trace.true_state(k)
        r_tilde = state.pose.rotation @ truth.pose.rotation.T
        p_tilde = state.pose.position - r_tilde @ truth.pose.position
        e = state.landmarks - truth.landmarks @ r_tilde.T - p_tilde
        bias_diff = bias_true.vector() - state.bias.vector()
        if lyap_kind == "basic":
            return metrics.lyapunov_basic(e, bias_diff, gains)
        return metrics.lyapunov_imu(e, r_tilde, bias_diff, gains, kernel, att_mult)

    start = time.perf_counter()
    for k in range(k_steps + 1):
        state = current_state()
        if record_trajectory:
            rot_traj[k] = state.pose.rotation
            pos_traj[k] = state.pose.position
        if record_lyap:
            lyap_steps[k] = lyap_value(state, k)
        if k % stride == 0:
            s = len(sample_ks)
            sample_ks.append(k)
            sample_rot[s] = state.pose.rotation
            sample_pos[s] = state.pose.position
            sample_lm[s] = state.landmarks
            sample_bias[s, :3] = state.bias.omega
            sample_bias[s, 3:] = state.bias.v
            reports.append(
                evaluate(
                    trace.true_state(k), state, bias_true,
                    lyap_kind=lyap_kind, gains=gains, kernel=kernel,
                    att_multiplicity=att_mult,
                )
            )
        if k == k_steps:
            break

        m = trace.bundle(k)
        try:
            if name == "basic":
                fs = basic_step(fs, m, gains, dt)
            elif name == "imu":
                fs = imu_step(fs, m, kernel, gains, dt, rc.simplified_form)
            else:
                qs = quat_imu_step(qs, m, kernel, gains, dt, rc.simplified_form)
        except FilterDivergence as exc:
            raise FilterDivergence(f"{name}: step {k} (t={k * dt:.6g}): {exc}") from None

    return FilterRunResult(
        name=name,
        sample_ks=np.asarray(sample_ks),
        rotations=sample_rot,
        positions=sample_pos,
        landmarks=sample_lm,
        biases=sample_bias,
        reports=reports,
        lyap_steps=lyap_steps,
        rot_traj=rot_traj,
        pos_traj=pos_traj,
        wall_time=time.perf_counter() - start,
    )


def _fmt(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def truth_csv_text(trace: WorldTrace, stride: int) -> str:
    n = trace.landmarks.shape[0]
    cols = ["t", "P_x", "P_y", "P_z"]
    cols += [f"r{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)]
    for i in range(n):
        cols += [f"p_{i + 1}_{ax}" for ax in ("x", "y", "z")]
    lines = [",".join(cols)]
    flat_lm = trace.landmarks.ravel()
    for k in range(0, trace.times.shape[0], stride):
        row = np.concatenate([
            [trace.times[k]], trace.positions[k], trace.rotations[k].ravel(), flat_lm,
        ])
        lines.append(_fmt(row))
    return "\n".join(lines) + "\n"


def estimate_csv_text(result: FilterRunResult, times: np.ndarray) -> str:
    n = result.landmarks.shape[1]
    cols = ["t", "P_x", "P_y", "P_z"]
    cols += [f"r{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)]
    for i in range(n):
        cols += [f"p_{i + 1}_{ax}" for ax in ("x", "y", "z")]
    lines = [",".join(cols)]
    for k, r, p, lm in zip(result.sample_ks, result.rotations, result.positions,
                           result.landmarks):
        row = np.concatenate([[times[k]], p, r.ravel(), lm.ravel()])
        lines.append(_fmt(row))
    return "\n".join(lines) + "\n"


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
    text = Path(path).read_text().strip().splitlines()
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
