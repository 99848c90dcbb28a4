"""The kernels the run path calls: the bound observer build and the world trace.

The observer laws live in :mod:`lieslam._laws`, one Python-float source
for two builds.  At import this module binds the six entry points the
steps of :mod:`lieslam.observers` call through it (``basic_sample``,
``imu_sample``, ``quat_sample`` and their rates ``_basic_rates``,
``_imu_rates``, ``_quat_rates``) to one of them; :data:`BACKEND` names
which:

- compiled: the C extension that ``_ctranslate`` makes of ``_laws.py``,
  cached in ``$XDG_CACHE_HOME/lieslam`` (``~/.cache/lieslam`` when that
  is unset, empty or relative, as the XDG spec says) under a key of
  ``_laws.py``, the translator, the prelude, ``$CC`` and the Python ABI.
  On a cache hit the key is read from those files and the extension is
  loaded; neither ``_laws`` nor ``_ctranslate`` is imported.  On a miss
  ``_ctranslate`` builds it first and keeps the newest few builds of the
  cache, whatever tree or environment made them;
- interpreted: when that build fails (no compiler, no ``Python.h``, no
  writable cache; ``BUILD_ERROR`` says which), the functions of
  ``_laws`` themselves, imported only then.

:func:`world_trace` is the truth recursion of a simulated run: the pose
at every instant and at every interval midpoint, in one call on Python
floats in either case.  It keeps the laws' float discipline (see
``_laws``), with ``np.sin``/``np.cos`` where it needs them.  The
measurements taken from those poses are ``worldsim``'s.
"""

from __future__ import annotations

import os
import sys
import zlib
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_loader
from math import sqrt

import numpy as np

from .liegroup import _SMALL_ANGLE


def _exp_step(r, p, om, v, h):
    """Advance (r, p) by the twist (om, v) held for h seconds.

    Same closed Rodrigues / left-Jacobian forms as liegroup.se3_exp,
    written on w w^T - theta^2 I instead of an explicit skew square.
    ``r`` is a row-major 9-sequence; returns (rotation 9-tuple,
    position 3-tuple).
    """
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = r
    p0, p1, p2 = p
    om0, om1, om2 = om
    v0, v1, v2 = v
    w0 = om0 * h
    w1 = om1 * h
    w2 = om2 * h
    t2 = w0 * w0 + w1 * w1 + w2 * w2
    theta = sqrt(t2)
    if theta < _SMALL_ANGLE:
        a = 1.0
        b = 0.5
        jc = 1.0 / 6.0
    else:
        sin_t = float(np.sin(theta))
        a = sin_t / theta
        b = (1.0 - float(np.cos(theta))) / t2
        jc = (theta - sin_t) / (t2 * theta)
    w00 = w0 * w0
    w01 = w0 * w1
    w02 = w0 * w2
    w11 = w1 * w1
    w12 = w1 * w2
    w22 = w2 * w2
    de = 1.0 - b * t2
    dj = 1.0 - jc * t2
    e00 = b * w00 + de
    e01 = b * w01 - a * w2
    e02 = b * w02 + a * w1
    e10 = b * w01 + a * w2
    e11 = b * w11 + de
    e12 = b * w12 - a * w0
    e20 = b * w02 - a * w1
    e21 = b * w12 + a * w0
    e22 = b * w22 + de
    j00 = jc * w00 + dj
    j01 = jc * w01 - b * w2
    j02 = jc * w02 + b * w1
    j10 = jc * w01 + b * w2
    j11 = jc * w11 + dj
    j12 = jc * w12 - b * w0
    j20 = jc * w02 - b * w1
    j21 = jc * w12 + b * w0
    j22 = jc * w22 + dj
    # body-frame translation of the step
    t0 = h * (j00 * v0 + j01 * v1 + j02 * v2)
    t1 = h * (j10 * v0 + j11 * v1 + j12 * v2)
    tz = h * (j20 * v0 + j21 * v1 + j22 * v2)
    return ((r00 * e00 + r01 * e10 + r02 * e20,
             r00 * e01 + r01 * e11 + r02 * e21,
             r00 * e02 + r01 * e12 + r02 * e22,
             r10 * e00 + r11 * e10 + r12 * e20,
             r10 * e01 + r11 * e11 + r12 * e21,
             r10 * e02 + r11 * e12 + r12 * e22,
             r20 * e00 + r21 * e10 + r22 * e20,
             r20 * e01 + r21 * e11 + r22 * e21,
             r20 * e02 + r21 * e12 + r22 * e22),
            (p0 + r00 * t0 + r01 * t1 + r02 * tz,
             p1 + r10 * t0 + r11 * t1 + r12 * tz,
             p2 + r20 * t0 + r21 * t1 + r22 * tz))


def world_trace(r, p, om_c, om_s, v_c, v_s, dt, k_steps,
                rotations, positions, mid_rotations, mid_positions):
    """Fill the truth at the K + 1 instants and the pose at the K interval
    midpoints: the truth advances by the midpoint twist held for dt, a
    midpoint pose by the quarter-point twist held for dt / 2.  Rotations
    go row-major, 9 to a row, from ``r`` on.
    """
    om_c0, om_c1, om_c2 = om_c
    om_s0, om_s1, om_s2 = om_s
    v_c0, v_c1, v_c2 = v_c
    v_s0, v_s1, v_s2 = v_s
    for k in range(k_steps):
        rotations[k] = r
        positions[k] = p
        t_mid = (k + 0.5) * dt
        t_quarter = (k + 0.25) * dt
        mid_rotations[k], mid_positions[k] = _exp_step(
            r, p, (om_c0 + om_s0 * t_quarter, om_c1 + om_s1 * t_quarter,
                   om_c2 + om_s2 * t_quarter),
            (v_c0 + v_s0 * t_quarter, v_c1 + v_s1 * t_quarter, v_c2 + v_s2 * t_quarter),
            0.5 * dt)
        r, p = _exp_step(r, p, (om_c0 + om_s0 * t_mid, om_c1 + om_s1 * t_mid,
                                om_c2 + om_s2 * t_mid),
                         (v_c0 + v_s0 * t_mid, v_c1 + v_s1 * t_mid, v_c2 + v_s2 * t_mid), dt)
    rotations[k_steps] = r
    positions[k_steps] = p


# ------------------------------------------------------------------ backends

_COMPILED = ("_basic_rates", "basic_sample", "_imu_rates", "imu_sample",
             "_quat_rates", "quat_sample")


def _compiled():
    """(extension module, None), built on a cache miss, or (None, why not).

    A build is named ``lieslam_kernels_<32 hex>``, the environment key and
    the source key written together.  A hit reads the three source files
    and loads the extension; only a miss imports the translator.
    """
    here = os.path.dirname(os.path.abspath(__file__))
    cc = os.environ.get("CC") or "cc"
    env = f"{cc}\0{EXTENSION_SUFFIXES[0]}\0{sys.version}".encode()
    crc, adler = zlib.crc32(b""), zlib.adler32(b"")
    for name in ("_laws.py", "_ctranslate.py", "_cprelude.h"):
        with open(os.path.join(here, name), "rb") as f:
            data = f.read()
        crc, adler = zlib.crc32(data, crc), zlib.adler32(data, adler)
    module = f"lieslam_kernels_{zlib.crc32(env):08x}{zlib.adler32(env):08x}{crc:08x}{adler:08x}"
    cache = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(cache):  # XDG: a relative path is to be ignored
        cache = os.path.join(os.path.expanduser("~"), ".cache")
    path = os.path.join(cache, "lieslam", module + EXTENSION_SUFFIXES[0])
    try:
        if not os.path.exists(path):
            from . import _ctranslate
            _ctranslate.build(os.path.join(here, "_laws.py"), path, module, cc)
        loader = ExtensionFileLoader(module, path)
        ext = module_from_spec(spec_from_loader(module, loader))
        loader.exec_module(ext)
    except (ImportError, OSError) as exc:  # _ctranslate.BuildError is an ImportError
        return None, str(exc)
    return ext, None


_ext, BUILD_ERROR = _compiled()
BACKEND = "interpreted" if _ext is None else "compiled"
if _ext is None:
    from . import _laws as _ext  # the interpreted fallback
globals().update({name: getattr(_ext, name) for name in _COMPILED})
