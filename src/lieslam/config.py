"""Readers of the JSON run config: every object through :func:`fields`,
every number through :func:`floats`, and the error they raise.

Imports only numpy and ``liegroup``, so ``lieslam compare`` and the
CLI's own argument checks load no filter and no kernel.
"""

from __future__ import annotations

import numpy as np

from .liegroup import orthonormalize, rotation_defect

FILTER_CHOICES = ("basic", "imu", "imu_quat", "both")

# Accepting a printed-to-few-digits rotation and repairing it is fine;
# anything further from orthonormal than this is a config mistake.
_INIT_ROTATION_SLACK = 1e-2


class ConfigError(ValueError):
    """A configuration document failed validation."""


def read_error(exc: OSError | UnicodeDecodeError) -> str:
    """Why a file could not be read or written, for a ConfigError."""
    if isinstance(exc, UnicodeDecodeError):
        return f"not UTF-8 text (byte {exc.start})"
    return exc.strerror or str(exc)


def fields(raw, key: str, known, required=()) -> dict:
    """A JSON object with no keys outside ``known`` and every key of
    ``required``; ``key`` is its path, "" for the top level."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{key or 'top level'}: expected an object")
    unknown = set(raw) - set(known)
    if unknown:
        raise ConfigError(f"{key or 'top level'}: unknown keys {sorted(unknown)}")
    for name in required:
        if name not in raw:
            raise ConfigError(f"{key}.{name}: required" if key else f"{name}: required")
    return raw


def _has_text_or_bool(raw) -> bool:
    """Whether a string or a boolean sits anywhere in a JSON value;
    numpy would read "5" and true as the numbers 5 and 1."""
    stack = [raw]
    while stack:
        item = stack.pop()
        if isinstance(item, (str, bool)):
            return True
        if isinstance(item, list):
            stack.extend(item)
    return False


def _expected(shape: tuple, unit: str) -> str:
    if not shape:
        return "a number"
    count = "a list of" if shape[0] is None else str(shape[0])
    return f"{count} {unit}" if len(shape) == 1 else f"{count} {shape[1]}-vectors"


def floats(raw, key: str, shape: tuple | None = None, unit: str = "numbers") -> np.ndarray:
    """The finite numbers of a JSON value, as a float array of the given
    shape (any shape without one; a None entry is any length)."""
    if _has_text_or_bool(raw):
        raise ConfigError(f"{key}: expected numbers")
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{key}: expected numbers") from None
    except OverflowError:  # an integer beyond the float range
        raise ConfigError(f"{key}: expected finite numbers") from None
    if shape is not None and (arr.ndim != len(shape) or any(
            want not in (None, got) for want, got in zip(shape, arr.shape))):
        raise ConfigError(f"{key}: expected {_expected(shape, unit)}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ConfigError(f"{key}: expected finite numbers")
    return arr


def scalar(raw, key: str) -> float:
    return float(floats(raw, key, ()))


def integer(raw, key: str, minimum: int) -> int:
    """A JSON integer (not a bool, not 2.0) of at least ``minimum``."""
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ConfigError(f"{key}: expected an integer")
    if raw < minimum:
        raise ConfigError(f"{key}: must be >= {minimum}")
    return raw


def check_rotation(rot: np.ndarray, key: str) -> None:
    """Raise ConfigError unless the 3x3 ``rot`` is within
    _INIT_ROTATION_SLACK of orthonormal with determinant +1; a
    reflection is orthonormal but no rotation, and a NaN fails.

    An entry beyond 2 in magnitude already puts R^T R off the identity
    by more than 3, so it is rejected before the product can overflow.
    """
    # the determinant as a triple product: np.linalg.det would page in
    # LAPACK code that no run otherwise uses (0.1 MB of peak memory)
    if not (np.abs(rot).max() <= 2.0 and rotation_defect(rot) <= _INIT_ROTATION_SLACK
            and np.cross(rot[0], rot[1]) @ rot[2] >= 0):
        raise ConfigError(f"{key}: not close to a rotation matrix")


def rotation(raw, key: str) -> np.ndarray:
    """A row-major 3x3 rotation that passes :func:`check_rotation`,
    repaired by :func:`orthonormalize`."""
    rot = floats(raw, key)
    if rot.size != 9:
        raise ConfigError(f"{key}: expected 9 scalars (row-major)")
    rot = rot.reshape(3, 3)
    check_rotation(rot, key)
    return orthonormalize(rot)
