"""lieslam benchmark: ``lieslam run`` throughput, set-up time and memory.

Usage, from the root of a source checkout (no install needed):

    python3 perfbench/run.py --workload climb_both --seed 1 --seconds 30 --trace 0

``--trace 0`` drives the real CLI (``python -m lieslam run``) as a child
process, one run at a time (closed loop, one client), and reports the
end-to-end metrics as medians over the runs:

- ``steps_per_s``: observer steps (world steps x filters) per second of
  run-process wall time, at the reference CPU speed (see ``speed.py``);
- ``setup_s``: wall time of the same command on the config cut to one
  step (interpreter start, imports, config validation, artifact write),
  at the reference CPU speed, over SETUP_REPEATS runs;
- ``peak_rss_mb``: peak resident memory of one run process.

``--trace 1`` runs the same config in this process with spans around
each layer and reports the per-layer metrics (see ``tracing.py``).
The whole benchmark is pinned to one CPU, which its children inherit,
so the calibration loops in ``speed.py`` time the CPU the runs use.

Every run's artifacts go through ``check.check_run``.  Human-readable
lines (environment, per-run figures, artifact digests, ``failed_frac``)
come first; the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import check
import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# a run process is killed after CHILD_TIMEOUT_S, or sooner if the whole
# benchmark would otherwise overrun DEADLINE_S (the limit is 180 s)
CHILD_TIMEOUT_S = 120.0
DEADLINE_S = 160.0
SETUP_REPEATS = 11
UNITS = {"steps_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
MIN_RUNS = 3


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    """sha256 over the package sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "lieslam").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def environment(name: str, cfg: dict) -> dict:
    return {
        "backend": "numba" if importlib.util.find_spec("numba") else "interpreted",
        "python": sys.version.split()[0],
        "numpy": _version("numpy"),
        "numba": _version("numba"),
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "workload": {
            "name": name,
            "steps": workloads.world_steps(cfg),
            "landmarks": len(cfg["world"]["landmarks"]),
            "filters": workloads.filters_of(cfg),
        },
    }


def _spawn(config: Path, out_dir: Path, log: Path, timeout: float
           ) -> tuple[int, float, float]:
    """One ``lieslam run``: (exit code, wall seconds, peak RSS in MB).

    The child is reaped with ``os.wait4`` so the peak RSS is that one
    process's, not the running maximum over all children.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-m", "lieslam", "run", "--config", str(config),
           "--out", str(out_dir)]
    with open(log, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sink,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


class _RunSet:
    """Runs of one config, each checked against the set's first run.

    Wall times are kept both as measured and scaled to the reference
    CPU speed (see ``speed.py``).
    """

    def __init__(self, cfg: dict, tag: str, work: Path, converge: bool,
                 bracket: speed.Bracket, deadline: float):
        self.cfg = cfg
        self.tag = tag
        self.work = work
        self.converge = converge
        self.config_path = work / f"{tag}.json"
        self.config_path.write_text(json.dumps(cfg, indent=1))
        self.reference: dict[str, str] | None = None
        self.attempted = 0
        self.failed = 0
        self.walls: list[float] = []
        self.scaled: list[float] = []
        self.rss: list[float] = []
        self.bracket = bracket
        self.deadline = deadline

    def run_once(self) -> tuple[float, float]:
        out_dir = self.work / f"out_{self.tag}"
        shutil.rmtree(out_dir, ignore_errors=True)
        timeout = max(1.0, min(CHILD_TIMEOUT_S, self.deadline - time.monotonic()))
        code, wall, rss = _spawn(self.config_path, out_dir, self.work / f"{self.tag}.log",
                                 timeout)
        scaled = wall * self.bracket.factor()
        problems, digests = check.check_run(out_dir, self.cfg, code, self.reference,
                                            self.converge)
        if self.reference is None:
            self.reference = digests
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"{self.tag} run {self.attempted}: FAILED: {'; '.join(problems)}")
        else:
            self.walls.append(wall)
            self.scaled.append(scaled)
            self.rss.append(rss)
        return wall, scaled


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(name: str, seed: int, cfg: dict, seconds: float, work: Path) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    with speed.Bracket() as bracket:
        return _end_to_end(name, seed, cfg, seconds, work, bracket, deadline)


def _end_to_end(name, seed, cfg, seconds, work, bracket, deadline) -> dict:
    setup = _RunSet(workloads.setup_config(cfg), "setup", work, False, bracket, deadline)
    for _ in range(SETUP_REPEATS):
        setup.run_once()

    measured = _RunSet(cfg, "run", work, True, bracket, deadline)
    obs_steps = workloads.world_steps(cfg) * len(workloads.filters_of(cfg))
    start = time.perf_counter()
    while measured.attempted < MIN_RUNS or time.perf_counter() - start < seconds:
        wall, scaled = measured.run_once()
        print(f"run {measured.attempted}: {wall:.3f} s, {obs_steps / wall:.1f} steps/s; "
              f"at reference speed {scaled:.3f} s, {obs_steps / scaled:.1f} steps/s")

    attempted = setup.attempted + measured.attempted
    failed = setup.failed + measured.failed
    print("digest " + json.dumps({
        "workload": name, "seed": seed, "files": measured.reference,
        "combined": check.digest(measured.reference or {}),
    }, sort_keys=True))
    print(f"runs: {measured.attempted} measured + {setup.attempted} set-up; unscaled "
          f"steps_per_s {_median([obs_steps / w for w in measured.walls]):.6g} 1/s, "
          f"setup_s {_median(setup.walls):.6g} s")
    print(f"failed_frac: {failed / attempted:.6g} frac")
    metrics = {
        "steps_per_s": _median([obs_steps / w for w in measured.scaled]),
        "setup_s": _median(setup.scaled),
        "peak_rss_mb": _median(measured.rss),
    }
    for key, value in metrics.items():
        print(f"{key}: {value:.6g} {UNITS[key]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lieslam" / "__init__.py").is_file():
        print(f"error: no lieslam sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    cfg = workloads.make_config(ROOT, args.workload, args.seed)
    work = WORK / f"{args.workload}_seed{args.seed}_trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    print("env " + json.dumps(environment(args.workload, cfg), sort_keys=True))

    if args.trace:
        result = tracing.traced(cfg, args.seconds, work, SRC)
    else:
        result = end_to_end(args.workload, args.seed, cfg, args.seconds, work)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
