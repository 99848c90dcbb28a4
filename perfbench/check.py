"""Output check for one ``lieslam run``: the artifacts a config must produce.

The expected schema is written out here independently of the package,
so a change to what the program writes fails the check instead of
silently redefining it.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import workloads


def _state_header(n: int) -> str:
    cols = ["t", "P_x", "P_y", "P_z"]
    cols += [f"r{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)]
    cols += [f"p_{i}_{ax}" for i in range(1, n + 1) for ax in "xyz"]
    return ",".join(cols)


def _report_header(n: int) -> str:
    cols = ["t", "att_dist", "pos_err"]
    cols += [f"feat_err_{i}" for i in range(1, n + 1)]
    cols += [f"e_norm_{i}" for i in range(1, n + 1)]
    cols += ["bias_err", "lyap"]
    return ",".join(cols)


def expected_files(cfg: dict) -> dict[str, str]:
    """File name -> exact header line, for every artifact of ``cfg``."""
    n = len(cfg["world"]["landmarks"])
    files = {"truth.csv": _state_header(n)}
    for name in workloads.filters_of(cfg):
        files[f"filter_{name}.csv"] = _report_header(n)
        files[f"estimate_{name}.csv"] = _state_header(n)
    return files


def digest(files: dict[str, str]) -> str:
    """One sha256 over the per-file digests, in file-name order."""
    joined = "".join(f"{name}:{files[name]}\n" for name in sorted(files))
    return hashlib.sha256(joined.encode()).hexdigest()


def check_run(out_dir: Path, cfg: dict, returncode: int,
              reference: dict[str, str] | None, converge: bool
              ) -> tuple[list[str], dict[str, str]]:
    """Problems found in one run's artifacts, and their sha256 digests.

    ``reference`` holds the digests of the set's first run with the same
    config (None for that first run); ``converge`` asks every filter's
    final max |e_i| to lie below its value at t = 0.
    """
    problems: list[str] = []
    digests: dict[str, str] = {}
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    rows = workloads.sample_rows(cfg)
    for name, header in expected_files(cfg).items():
        path = out_dir / name
        if not path.is_file():
            problems.append(f"{name}: missing")
            continue
        data = path.read_bytes()
        digests[name] = hashlib.sha256(data).hexdigest()
        lines = data.decode("ascii", errors="replace").split("\n")
        if lines[-1] != "":
            problems.append(f"{name}: no final newline")
        lines = lines[:-1]
        if not lines or lines[0] != header:
            problems.append(f"{name}: unexpected header")
            continue
        if len(lines) - 1 != rows:
            problems.append(f"{name}: {len(lines) - 1} rows, expected {rows}")
            continue
        ncol = header.count(",") + 1
        table = []
        for i, line in enumerate(lines[1:], start=1):
            fields = line.split(",")
            try:
                values = [float(v) for v in fields]
            except ValueError:
                values = []
            if len(values) != ncol or not all(map(math.isfinite, values)):
                problems.append(f"{name}: row {i} is not {ncol} finite numbers")
                break
            table.append(values)
        else:
            if converge and name.startswith("filter_"):
                cols = [j for j, c in enumerate(header.split(",")) if c.startswith("e_norm_")]
                first = max(table[0][j] for j in cols)
                last = max(table[-1][j] for j in cols)
                if not last < first:
                    problems.append(f"{name}: final max |e_i| {last:.3g} "
                                    f"not below initial {first:.3g}")
    if reference is not None and digests and digests != reference:
        changed = sorted(k for k in reference if digests.get(k) != reference[k])
        problems.append(f"bytes differ from the first run: {changed}")
    return problems, digests
