"""Command-line front end: run scenarios, compare CSV outputs.

Exit codes: 0 success, 2 invalid configuration or schema mismatch,
3 numerical abort inside an estimator; with ``--runs`` the worst code
over the seeds.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING

from .config import FILTER_CHOICES, ConfigError, integer

if TYPE_CHECKING:
    from .harness import RunConfig


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lieslam",
        description="Simulate rigid-body SLAM scenarios and run the "
        "geometric observers over them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario and write CSV artifacts")
    p_run.add_argument("--config", required=True,
                       help="JSON run config (bundled names like square_climb.json resolve too)")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config's rng_seed")
    p_run.add_argument("--filter", choices=FILTER_CHOICES, default=None,
                       help="override the config's filter selection")
    p_run.add_argument("--out", default=None, help="override the output directory")
    p_run.add_argument("--runs", type=int, default=1,
                       help="run N consecutive seeds in a parallel worker pool")

    p_cmp = sub.add_parser("compare", help="column-wise deltas between two run CSVs")
    p_cmp.add_argument("csv_a")
    p_cmp.add_argument("csv_b")
    return parser


def _seed_worker(rc: RunConfig, seed: int) -> None:
    from .harness import run

    run(replace(rc, world=replace(rc.world, rng_seed=seed)), suffix=f"_seed{seed}")


def _run_seeds(rc: RunConfig, runs: int) -> int:
    """Run consecutive seeds in a worker pool and report each one; the
    exit code is the worst over the seeds."""
    from concurrent.futures import ProcessPoolExecutor  # costs ~10 ms; single runs skip it

    from .filter_basic import FilterDivergence

    seeds = [rc.world.rng_seed + i for i in range(runs)]
    code = 0
    with ProcessPoolExecutor(max_workers=min(runs, 8)) as pool:
        futures = [pool.submit(_seed_worker, rc, seed) for seed in seeds]
        for seed, future in zip(seeds, futures):
            try:
                future.result()
            except (FilterDivergence, ConfigError) as exc:
                print(f"seed {seed}: error: {exc}", file=sys.stderr)
                code = max(code, 3 if isinstance(exc, FilterDivergence) else 2)
            else:
                print(f"seed {seed}: done")
    if code == 0:
        print(f"wrote {runs} runs to {rc.output_dir}")
    return code


def _cmd_run(args: argparse.Namespace) -> int:
    from .filter_basic import FilterDivergence  # compare never needs the run path
    from .harness import load_run_config, run

    try:
        rc = load_run_config(args.config)
        if args.filter is not None:
            rc = replace(rc, filter_kind=args.filter)
        if args.out is not None:
            rc = replace(rc, output_dir=Path(args.out))
        if args.seed is not None:
            rc = replace(rc, world=replace(rc.world, rng_seed=integer(args.seed, "--seed", 0)))
        runs = integer(args.runs, "--runs", 1)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if runs > 1:
        return _run_seeds(rc, runs)
    try:
        artifacts = run(rc)
    except FilterDivergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for name, result in artifacts.results.items():
        report = result.report
        print(
            f"{name}: t={report.t[-1]:g} att_dist={report.att_dist[-1]:.3e} "
            f"pos_err={report.pos_err[-1]:.3e} bias_err={report.bias_err[-1]:.3e}"
        )
    print(f"wrote artifacts to {artifacts.output_dir}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .compare import compare  # a run never needs it

    try:
        deltas = compare(args.csv_a, args.csv_b)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for d in deltas:
        print(f"{d.column}: final_delta={d.final:.6g} max_delta={d.max:.6g}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
