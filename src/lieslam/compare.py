"""``lieslam compare``: per-column deltas between two run CSVs.

Only that subcommand imports this module; a run never needs it.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

import numpy as np

from .config import ConfigError, read_error


def read_csv(path: str | Path) -> tuple[list[str], np.ndarray]:
    """Read one of our CSVs: (header columns, float data (rows, cols))."""
    try:
        text = Path(path).read_text(encoding="utf-8").strip().splitlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {read_error(exc)}") from None
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


class ColumnDelta(NamedTuple):
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
    # equal values (infinities included) and NaN pairs (the lyap column may
    # be NaN) have delta 0; subtracting only the others never runs inf - inf
    differ = (data_a != data_b) & ~(np.isnan(data_a) & np.isnan(data_b))
    diff = np.zeros_like(data_a)
    diff[differ] = np.abs(data_a[differ] - data_b[differ])
    return [
        ColumnDelta(column=col, final=float(diff[-1, j]), max=float(diff[:, j].max()))
        for j, col in enumerate(header_a)
    ]
