"""Traced in-process run: per-layer metrics from spans at module boundaries.

The spans come from wrappers this file installs around the package's
module-level functions for the length of one ``harness.run`` call; the
package itself is not modified.  A span is (name, start ns, end ns,
index of the parent span or -1, run id).  Spans stay in memory and are
written to ``spans.json`` in the work directory when the run ends.

Each traced run is paired with an untraced one on the same config, so
the tracing overhead is the median over pairs of their ``steps_per_s``
ratio.  Every layer metric names the end-to-end metric and workload it
should move:

- ``cli.import_s``, ``harness.load_run_config_s`` -> ``setup_s``, all
  workloads.
- ``worldsim.simulate_world_us_per_step`` -> ``steps_per_s``, mostly
  ``ring32_imu`` and ``level_quat_dense`` (one filter per world step).
- ``<module>.step_us_p50/p99``, ``.kernel_us``, ``.wrap_us`` (step minus
  kernel) -> ``steps_per_s``: ``filter_basic`` and ``filter_imu`` on
  ``climb_both`` (fixed cost), ``filter_imu`` on ``ring32_imu``
  (per-landmark cost), ``quaternion`` on ``level_quat_dense``.  On a
  workload that does not run a module, they come from that module's
  step called repeatedly on the fixed state below, and should not move
  that workload's ``steps_per_s``.
- ``<module>.rates_us`` and ``.rk4_combine_us`` (sample time minus
  4 x substeps x rates time): direct kernel calls on a fixed state from
  the workload's trace, for all three modules on every workload.
- ``harness.run_filter_self_us_per_step`` (``run_filter`` minus its step
  and evaluate children) -> ``steps_per_s``, mostly ``climb_both``.
- ``metrics.evaluate_us``/``_calls`` and ``harness.csv_us_per_row``/
  ``csv_bytes`` -> ``steps_per_s`` on ``level_quat_dense``.
- Counts per run: ``steps`` (world steps x filters), ``samples`` (rows
  per CSV), ``kernel_calls`` (``*_sample`` calls) and ``rates_calls``
  (4 x substeps x steps, computed).
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

import check
import speed
import workloads

# filter name -> (module, step function in harness, sample kernel, rates kernel)
MODULES = {
    "basic": ("filter_basic", "basic_step", "basic_sample", "_basic_rates"),
    "imu": ("filter_imu", "imu_step", "imu_sample", "_imu_rates"),
    "imu_quat": ("quaternion", "quat_imu_step", "quat_sample", "_quat_rates"),
}
_CSV = ("truth_csv_text", "report_csv_text", "estimate_csv_text")
IMPORT_REPEATS = 5
LOAD_REPEATS = 20
MICRO_ROUNDS = 15
# share of harness.run that its traced layers may leave uncovered
MAX_UNACCOUNTED = 0.1
# enough single steps that the 99th percentile has ten beyond it
FIXED_STATE_STEPS = 1000


class Tracer:
    """Spans kept in memory; ``wrap`` returns a span-recording callable.

    Spans of one run share ``run_id``; ``kinds`` says what each run was
    ("workload", or the module whose step ran on the fixed state) and
    ``factors`` its scale factor to the reference CPU speed.
    """

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.run_id = 0
        self.kinds: dict[int, str] = {}
        self.factors: dict[int, float] = {}

    def start_run(self, kind: str) -> None:
        self.run_id += 1
        self.kinds[self.run_id] = kind

    def runs(self, kind: str) -> list[int]:
        return [run for run, k in self.kinds.items() if k == kind and run in self.factors]

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced_call(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.run_id)
        return traced_call


@contextmanager
def _patched(targets):
    """Temporarily replace module attributes: [(module, attr, new), ...]."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in targets]
    try:
        for mod, attr, new in targets:
            setattr(mod, attr, new)
        yield
    finally:
        for mod, attr, old in saved:
            setattr(mod, attr, old)


def _layer_targets(tracer, harness, kernels):
    wrap = tracer.wrap
    targets = [
        (harness, "simulate_world", wrap("worldsim.simulate_world", harness.simulate_world)),
        (kernels, "world_trace", wrap("_kernels.world_trace", kernels.world_trace)),
        (harness, "run_filter", wrap("harness.run_filter", harness.run_filter)),
        (harness, "evaluate", wrap("metrics.evaluate", harness.evaluate)),
    ]
    for module, step, kernel, _ in MODULES.values():
        targets.append((harness, step, wrap(f"{module}.step", getattr(harness, step))))
        targets.append((kernels, kernel, wrap(f"_kernels.{kernel}", getattr(kernels, kernel))))
    for name in _CSV:
        targets.append((harness, name, wrap("harness.csv", getattr(harness, name))))
    return targets


def _import_seconds(src: Path, bracket: speed.Bracket) -> float:
    """Median time of ``import lieslam.cli`` in a fresh interpreter, scaled."""
    code = ("import time; t = time.perf_counter(); import lieslam.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(src))
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], cwd=src.parent, env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout) * bracket.factor())
    return statistics.median(times)


def _batch_s(fn, args, number: int) -> float:
    start = time.perf_counter()
    for _ in range(number):
        fn(*args)
    return (time.perf_counter() - start) / number


def _batch_size(fn, args) -> int:
    """Calls that take at least 10 ms together."""
    number = 1
    while _batch_s(fn, args, number) * number < 0.01:
        number *= 2
    return number


def _rates_and_combine_us(rates, sample, args, bracket) -> tuple[float, float]:
    """Per-call rates time and the RK4 combine time of one sample kernel.

    Rates and sample batches alternate, and the combine time (sample
    minus 4 x substeps x rates) is taken per round, so a change in CPU
    speed between batches cancels.
    """
    rates_args, nsub = args[:-2], args[-1]
    n_rates, n_sample = _batch_size(rates, rates_args), _batch_size(sample, args)
    rates_s, combine_s = [], []
    for _ in range(MICRO_ROUNDS):
        r = _batch_s(rates, rates_args, n_rates)
        rates_s.append(r)
        combine_s.append(_batch_s(sample, args, n_sample) - 4 * nsub * r)
    factor = bracket.factor() * 1e6
    return statistics.median(rates_s) * factor, statistics.median(combine_s) * factor


def _fixed_state_steps(harness, cfg, rc, artifacts) -> dict:
    """Module -> zero-argument call of its step function on one fixed state.

    The state is the workload's first filter at its middle sample, with
    that interval's measurements; the step functions are looked up on
    ``harness`` at call time, so installed wrappers see the calls.
    """
    rc_all = harness.parse_run_config(dict(cfg, filter="both"))
    gains_basic, gains_imu = rc_all.gains_basic, rc_all.gains_imu
    result = artifacts.results[rc.filters()[0]]
    mid = len(result.states) // 2
    state, k = result.states[mid], int(result.sample_ks[mid])
    trace = artifacts.trace
    bundle = trace.bundle(min(k, trace.u_m.shape[0] - 1))
    kernel = harness.build_kernel(trace.imu_ref, rc.world.sensor_weights)
    quat = harness.QuatFilterState.from_rotation(
        state.pose.rotation, state.pose.position, state.landmarks, state.bias)
    dt, simplified = rc.world.dt, rc.simplified_form
    return {
        "filter_basic": lambda: harness.basic_step(state, bundle, gains_basic, dt),
        "filter_imu": lambda: harness.imu_step(state, bundle, kernel, gains_imu, dt,
                                               simplified),
        "quaternion": lambda: harness.quat_imu_step(quat, bundle, kernel, gains_imu, dt,
                                                    simplified),
    }


def _kernel_args(kernels, steps) -> dict:
    """Kernel name -> the arguments its step function passes it."""
    captured = {}

    def capture(name):
        original = getattr(kernels, name)

        def grab(*args):
            captured[name] = args
            return original(*args)
        return (kernels, name, grab)

    with _patched([capture(kernel) for _, _, kernel, _ in MODULES.values()]):
        for step in steps.values():
            step()
    return captured


class _SpanTable:
    """Indexes over a tracer's spans, with scaled durations in us."""

    def __init__(self, tracer: Tracer, problems: list[str]):
        self.spans = spans = tracer.spans
        self.factors = tracer.factors
        self.child_ns = [0] * len(spans)
        self.by_name: dict[str, list[int]] = {}
        for idx, (name, start, end, parent, run) in enumerate(spans):
            self.by_name.setdefault(name, []).append(idx)
            if parent < 0:
                continue
            p_name, p_start, p_end, _, p_run = spans[parent]
            if start < p_start or end > p_end or run != p_run:
                problems.append(f"span {name} lies outside its parent {p_name}")
            self.child_ns[parent] += end - start
        for idx, (name, start, end, _, _) in enumerate(spans):
            if self.child_ns[idx] > end - start:
                problems.append(f"children of {name} outlast it")

    def select(self, name: str, runs) -> list[int]:
        return [i for i in self.by_name.get(name, []) if self.spans[i][4] in runs]

    def us(self, idx: int) -> float:
        name, start, end, _, run = self.spans[idx]
        return (end - start) * self.factors[run] / 1e3

    def self_us(self, idx: int) -> float:
        span = self.spans[idx]
        return (span[2] - span[1] - self.child_ns[idx]) * self.factors[span[4]] / 1e3

    def per_run(self, name: str, runs, fn) -> float:
        """Median over runs of the sum of fn(span) over that run's spans."""
        totals = dict.fromkeys(runs, 0)
        for idx in self.select(name, runs):
            totals[self.spans[idx][4]] += fn(idx)
        return statistics.median(totals.values())


def _step_metrics(table: _SpanTable, module: str, kernel: str, runs) -> dict:
    """Step p50/p99, kernel and wrapper self time of one module, in us."""
    steps = table.select(f"{module}.step", runs)
    durs = [table.us(i) for i in steps]
    return {
        f"{module}.step_us_p50": statistics.median(durs),
        f"{module}.step_us_p99": statistics.quantiles(durs, n=100, method="inclusive")[98],
        f"{module}.kernel_us": statistics.median(
            table.us(i) for i in table.select(f"_kernels.{kernel}", runs)),
        f"{module}.wrap_us": statistics.median(table.self_us(i) for i in steps),
    }


def _layer_metrics(table: _SpanTable, cfg, runs, walls, problems) -> dict:
    """Metrics of the traced workload runs; ``walls`` maps run id -> wall s."""
    k_steps = workloads.world_steps(cfg)
    n_filters = len(workloads.filters_of(cfg))
    roots = table.select("harness.run", runs)
    for idx in roots:
        name, start, end, _, run = table.spans[idx]
        if not 0.99 * walls[run] <= (end - start) / 1e9 <= walls[run]:
            problems.append(f"run {run}: root span does not match its wall time")
    count = lambda i: 1  # noqa: E731
    rows = workloads.sample_rows(cfg) * (1 + 2 * n_filters)
    out = {
        "worldsim.simulate_world_us_per_step":
            table.per_run("worldsim.simulate_world", runs, table.us) / k_steps,
        "harness.run_filter_self_us_per_step": statistics.median(
            table.self_us(i) for i in table.select("harness.run_filter", runs)) / k_steps,
        "metrics.evaluate_us": statistics.median(
            table.us(i) for i in table.select("metrics.evaluate", runs)),
        "metrics.evaluate_calls": table.per_run("metrics.evaluate", runs, count),
        "harness.csv_us_per_row": table.per_run("harness.csv", runs, table.us) / rows,
        "kernel_calls": sum(table.per_run(f"_kernels.{kernel}", runs, count)
                            for _, _, kernel, _ in MODULES.values()),
        "trace.unaccounted_frac": statistics.median(
            table.self_us(i) / table.us(i) for i in roots),
    }
    if out["trace.unaccounted_frac"] > MAX_UNACCOUNTED:
        problems.append(f"layers account for only {1 - out['trace.unaccounted_frac']:.1%} "
                        "of harness.run")
    for key, want in (("kernel_calls", k_steps * n_filters),
                      ("metrics.evaluate_calls", workloads.sample_rows(cfg) * n_filters)):
        if out[key] != want:
            problems.append(f"traced {key} = {out[key]}, expected {want}")
    return out


def traced(cfg: dict, seconds: float, work: Path, src: Path) -> dict:
    """Traced runs of ``cfg`` for ``seconds``; the result has run.py's format."""
    with speed.Bracket() as bracket:
        return _traced(cfg, seconds, work, src, bracket)


def _traced(cfg, seconds, work, src, bracket) -> dict:
    import_s = _import_seconds(src, bracket)
    sys.path.insert(0, str(src))
    from lieslam import _kernels as kernels
    from lieslam import harness
    if Path(harness.__file__).resolve().parent != (src / "lieslam").resolve():
        raise RuntimeError(f"imported lieslam from {harness.__file__}, not {src}")

    config_path = work / "run.json"
    config_path.write_text(json.dumps(cfg, indent=1))
    start = time.perf_counter()
    for _ in range(LOAD_REPEATS):
        rc = harness.load_run_config(config_path)
    load_s = (time.perf_counter() - start) / LOAD_REPEATS * bracket.factor()

    obs_steps = workloads.world_steps(cfg) * len(rc.filters())
    tracer = Tracer()
    reference = None
    attempted = failed = 0
    plain_s, walls = {}, {}
    artifacts = steps = None
    ran = {MODULES[f][0] for f in rc.filters()}
    problems: list[str] = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        tracer.start_run("workload")
        # alternate which of the pair runs first, so order effects cancel
        modes = ("plain", "traced") if tracer.run_id % 2 else ("traced", "plain")
        for mode in modes:
            out_dir = work / f"out_{mode}"
            shutil.rmtree(out_dir, ignore_errors=True)
            rc_out = dataclasses.replace(rc, output_dir=out_dir)
            attempted += 1
            t0 = time.perf_counter()
            try:
                if mode == "plain":
                    artifacts = harness.run(rc_out)
                else:
                    with _patched(_layer_targets(tracer, harness, kernels)):
                        tracer.wrap("harness.run", harness.run)(rc_out)
                code = 0
            except Exception:
                traceback.print_exc(file=sys.stdout)
                code = 1
            wall = time.perf_counter() - t0
            factor = bracket.factor()
            run_problems, digests = check.check_run(out_dir, cfg, code, reference, True)
            reference = reference or digests
            if run_problems:
                failed += 1
                print(f"{mode} run {tracer.run_id}: FAILED: {'; '.join(run_problems)}")
                break
            if mode == "plain":
                plain_s[tracer.run_id] = wall * factor
            else:
                walls[tracer.run_id] = wall
                tracer.factors[tracer.run_id] = factor
            print(f"{mode} run {tracer.run_id}: {wall:.3f} s, at reference speed "
                  f"{wall * factor:.3f} s, {obs_steps / (wall * factor):.1f} steps/s")
        if failed:
            break
        if steps is None:
            steps = _fixed_state_steps(harness, cfg, rc, artifacts)
            for module in steps.keys() - ran:
                # not on this workload's path: time its step on the fixed state
                tracer.start_run(module)
                with _patched(_layer_targets(tracer, harness, kernels)):
                    for _ in range(FIXED_STATE_STEPS):
                        steps[module]()
                tracer.factors[tracer.run_id] = bracket.factor()

    metrics = {"cli.import_s": import_s, "harness.load_run_config_s": load_s}
    if not failed:
        metrics["trace.steps_per_s_ratio"] = statistics.median(
            plain_s[run] / (walls[run] * tracer.factors[run]) for run in walls)
        table = _SpanTable(tracer, problems)
        metrics.update(_layer_metrics(table, cfg, tracer.runs("workload"), walls, problems))
        args = _kernel_args(kernels, steps)
        for module, _, kernel, rates in MODULES.values():
            runs = tracer.runs("workload" if module in ran else module)
            metrics.update(_step_metrics(table, module, kernel, runs))
            metrics[f"{module}.rates_us"], metrics[f"{module}.rk4_combine_us"] = (
                _rates_and_combine_us(getattr(kernels, rates), getattr(kernels, kernel),
                                      args[kernel], bracket))
        metrics["steps"] = obs_steps
        metrics["samples"] = workloads.sample_rows(cfg)
        metrics["harness.csv_bytes"] = sum(
            (work / "out_traced" / f).stat().st_size for f in check.expected_files(cfg))
        metrics["rates_calls"] = sum(
            4 * args[MODULES[f][2]][-1] * workloads.world_steps(cfg) for f in rc.filters())

    (work / "spans.json").write_text(json.dumps({
        "fields": ["name", "start_ns", "end_ns", "parent", "run_id"],
        "runs": {run: {"kind": tracer.kinds[run], "factor": tracer.factors.get(run)}
                 for run in tracer.kinds},
        "spans": tracer.spans,
    }))
    print(f"spans: {len(tracer.spans)} written to {work / 'spans.json'}")
    if problems:
        failed += 1
        for problem in problems[:20]:
            print(f"trace check: {problem}")
    for key in UNITS:
        metrics.setdefault(key, 0.0)
    print(f"failed_frac: {failed / attempted:.6g} frac")
    for key in sorted(metrics):
        print(f"{key}: {metrics[key]:.6g} {UNITS[key]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in sorted(metrics.items())},
    }


UNITS = {
    "cli.import_s": "s",
    "harness.load_run_config_s": "s",
    "worldsim.simulate_world_us_per_step": "us",
    "harness.run_filter_self_us_per_step": "us",
    "metrics.evaluate_us": "us",
    "metrics.evaluate_calls": "count",
    "harness.csv_us_per_row": "us",
    "harness.csv_bytes": "bytes",
    "steps": "count",
    "samples": "count",
    "kernel_calls": "count",
    "rates_calls": "count",
    "trace.steps_per_s_ratio": "ratio",
    "trace.unaccounted_frac": "frac",
}
for _module, *_ in MODULES.values():
    for _suffix in ("step_us_p50", "step_us_p99", "kernel_us", "wrap_us",
                    "rates_us", "rk4_combine_us"):
        UNITS[f"{_module}.{_suffix}"] = "us"
