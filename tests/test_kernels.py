"""The bound kernels against the numpy forms of the laws, and the
compiled build against its Python-float source, ``lieslam._laws``.

The rates kernels are called exactly as the step functions call them
(flat state from ``pack_state``, parameters from the step's own
packing) and compared with the reference corrections in ``_support``
plus the kinematics at a relative tolerance of 1e-12.  On the compiled
backend a property test holds every compiled function to its Python
original bit for bit, and every compiled call, refused or not, frees
the arena it allocates; a malformed call raises what the Python original
raises.  A byte-identity guard pins the CSV digests of two short bundled
runs on the Python-float arithmetic (interpreted or compiled).
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from _support import (
    attitude_gain_divisor,
    basic_rates,
    bundle,
    consistent_y,
    direction_sums,
    imu_bias_rates,
    imu_rates,
    pi_from_products,
    quat_conjugate,
    quat_correction,
    quat_omega,
    random_filter_state,
    random_ref_triad,
    random_rotation,
    random_unit,
    random_weights,
    rotate_by_quat,
    series_exp,
)

from lieslam import _ctranslate, _kernels, _laws
from lieslam.cli import main
from lieslam.harness import bundled_config_path
from lieslam.liegroup import Pose, Twist, wedge
from lieslam.observers import (
    BasicGains,
    ImuGains,
    QuatFilterState,
    basic_params,
    build_kernel,
    imu_params,
    pack_state,
)

SIZES = (3, 4, 32)
RTOL = 1e-12


def _close(actual, expected):
    """rtol 1e-12 against the block's largest entry, so that entries
    which cancel to near zero are held to the same absolute accuracy."""
    expected = np.asarray(expected, dtype=float)
    atol = RTOL * np.abs(expected).max()
    np.testing.assert_allclose(np.asarray(actual, dtype=float), expected, rtol=RTOL, atol=atol)


def _case(seed: int, n: int):
    """Random state, measurements, direction kernel and gains with n landmarks."""
    rng = np.random.default_rng(seed)
    fs = random_filter_state(rng, n)
    refs = random_ref_triad(rng)
    weights = random_weights(rng, 3)
    bodies = refs @ random_rotation(rng)
    y = consistent_y(fs) + rng.standard_normal((n, 3))
    m = bundle(y, refs, bodies, u=Twist(rng.standard_normal(3), rng.standard_normal(3)))
    basic = BasicGains(k_w=rng.uniform(1, 5), k_1=rng.uniform(1, 5),
                       gamma=rng.uniform(1, 100, 6), alpha=rng.uniform(0.1, 1, n))
    imu = ImuGains(k_w=rng.uniform(1, 5), k_1=rng.uniform(1, 5), k_2=rng.uniform(1, 20),
                   gamma_1=rng.uniform(1, 10, 3), gamma_2=rng.uniform(1, 100, 3),
                   alpha=rng.uniform(0.1, 1, n))
    return fs, m, build_kernel(refs, weights), basic, imu


def _flat(fs) -> list:
    return pack_state(fs.pose.rotation, fs.pose.position, fs.bias, fs.landmarks)


def _imu_call(n: int) -> tuple:
    """Flat state and IMU-aided parameters of a kernel call, n landmarks."""
    fs, m, kernel, _, gains = _case(600, n)
    return _flat(fs), imu_params(m, kernel, gains, 4.0)


def _rates(rates, x, params) -> np.ndarray:
    return np.array(rates(x, params))


@pytest.mark.parametrize("n", SIZES)
def test_basic_rates_match_numpy_laws(n):
    fs, m, _, gains, _ = _case(100 + n, n)
    out = _rates(_kernels._basic_rates, _flat(fs), basic_params(m, gains))
    for got, want in zip(np.split(out, [9, 12, 18]), basic_rates(fs, m, gains)):
        _close(got, np.ravel(want))


@pytest.mark.parametrize("simplified", (False, True))
@pytest.mark.parametrize("n", SIZES)
def test_imu_rates_match_numpy_laws(n, simplified):
    fs, m, kernel, _, gains = _case(200 + n, n)
    scale = 1.0 if simplified else float(n)
    out = _rates(_kernels._imu_rates, _flat(fs), imu_params(m, kernel, gains, scale))
    for got, want in zip(np.split(out, [9, 12, 18]), imu_rates(fs, m, kernel, gains, simplified)):
        _close(got, np.ravel(want))


@pytest.mark.parametrize("simplified", (False, True))
@pytest.mark.parametrize("n", SIZES)
def test_quat_rates_match_numpy_laws(n, simplified):
    fs, m, kernel, _, gains = _case(300 + n, n)
    qs = QuatFilterState.from_rotation(fs.pose.rotation, fs.pose.position,
                                       fs.landmarks, fs.bias)
    scale = 1.0 if simplified else float(n)
    x = pack_state(qs.q, qs.position, qs.bias, qs.landmarks)
    out = _rates(_kernels._quat_rates, x, imu_params(m, kernel, gains, scale))

    q, q_inv = qs.q, quat_conjugate(qs.q)
    w = quat_correction(qs, m, kernel, gains, simplified_form=simplified)
    half, _, _ = direction_sums(rotate_by_quat(q_inv, m.imu_ref), m.imu_ref, m.imu_body,
                                kernel.weights)
    innov = rotate_by_quat(q_inv, rotate_by_quat(q, half))
    e = qs.landmarks - rotate_by_quat(q, m.y) - qs.position
    u = m.u_m.vector() - qs.bias.vector() - w.vector()
    _close(out[:4], 0.5 * (quat_omega(u[:3]) @ q))
    _close(out[4:7], rotate_by_quat(q, u[3:]))
    _close(out[7:13], imu_bias_rates(gains, scale, innov, rotate_by_quat(q_inv, e), m.y))
    _close(out[13:], (-gains.k_1 * e + rotate_by_quat(q, np.cross(m.y, w.omega))).ravel())


def test_gain_divisor_matches_numpy_guards():
    fs, m, kernel, _, _ = _case(400, 4)
    _, a_mat, b_mat = direction_sums(m.imu_ref @ fs.pose.rotation, m.imu_ref, m.imu_body,
                                     kernel.weights)
    tau = attitude_gain_divisor(kernel, pi_from_products(a_mat, b_mat))
    got = _laws._gain_divisor(tuple(a_mat.ravel().tolist()), tuple(b_mat.ravel().tolist()),
                              kernel.lambda_min)
    assert got == pytest.approx(tau, rel=RTOL)
    singular = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0)
    assert _laws._gain_divisor(singular, singular, 1.0) == _laws.TAU_FLOOR
    ill = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1e-9)
    assert _laws._gain_divisor(singular, ill, 1.0) == _laws.TAU_FLOOR


# rotation angles on both sides of _exp_step's 1e-6 small-angle switch
@pytest.mark.parametrize("theta", (0.0, 1e-9, 9e-7, 1.1e-6, 1e-3, 0.5, np.pi))
def test_exp_step_matches_series(theta):
    """The world trace's exponential step against criterion 3's series
    oracle, composed onto the pose it advances."""
    rng = np.random.default_rng(700)
    worst = 0.0
    for _ in range(20):
        r, p = random_rotation(rng), rng.standard_normal(3) * 2.0
        h = rng.uniform(0.05, 0.5)
        om, v = random_unit(rng) * (theta / h), rng.standard_normal(3) * 2.0
        got_r, got_p = _kernels._exp_step(r.ravel().tolist(), p.tolist(), om.tolist(),
                                          v.tolist(), h)
        want = Pose(r, p).matrix() @ series_exp(wedge(Twist(om, v)) * h, 30)
        worst = max(worst, np.abs(np.reshape(got_r, (3, 3)) - want[:3, :3]).max(),
                    np.abs(np.subtract(got_p, want[:3, 3])).max())
    assert worst < 1e-10


def _outcome(fn, *args):
    """float64 bit patterns of a kernel's result, every NaN read as one
    (IEEE 754 leaves a NaN's sign and payload open, and a C compiler may
    swap the operands of + and *, which picks them), or the type of the
    exception it raised."""
    try:
        out = np.array(fn(*args), dtype=float)
    except (OverflowError, ZeroDivisionError, ValueError) as exc:
        return type(exc)
    out[np.isnan(out)] = np.nan
    return out.view(np.uint64).tolist()


@pytest.mark.skipif(_kernels.BACKEND != "compiled", reason="the C build is not bound")
@settings(max_examples=300, deadline=None)
@given(n=st.sampled_from(SIZES), seed=st.integers(0, 2**32 - 1), simplified=st.booleans(),
       nsub=st.integers(1, 2), size=st.floats(-3.0, 3.0),
       attitude=st.sampled_from((0.0, 1e160)) | st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e))
def test_compiled_kernels_match_python_floats(n, seed, simplified, nsub, size, attitude):
    """Every compiled rates and sample function against its Python-float
    original on random states of magnitude 10**size, the attitude block
    scaled off the rotation group (0 and 1e160 make the float kernels
    raise, see the *_float_exceptions_raise_divergence tests)."""
    fs, m, kernel, basic, gains = _case(seed, n)
    mag = 10.0 ** size
    m = bundle(m.y * mag, m.imu_ref, m.imu_body, u=Twist(m.u_m.omega, m.u_m.v * mag))
    position, landmarks = fs.pose.position * mag, fs.landmarks * mag
    q = QuatFilterState.from_rotation(fs.pose.rotation, position, landmarks, fs.bias).q
    x = pack_state(fs.pose.rotation * attitude, position, fs.bias, landmarks)
    xq = pack_state(q * attitude, position, fs.bias, landmarks)
    imu = imu_params(m, kernel, gains, 1.0 if simplified else float(n))
    for name, state, params in (("basic", x, basic_params(m, basic)), ("imu", x, imu),
                                ("quat", xq, imu)):
        for fn, args in ((f"_{name}_rates", ()), (f"{name}_sample", (0.001, nsub))):
            compiled, original = getattr(_kernels, fn), getattr(_laws, fn)
            assert compiled is not original
            assert _outcome(compiled, state, params, *args) == \
                _outcome(original, state, params, *args), fn


@pytest.mark.skipif(_kernels.BACKEND != "compiled", reason="the C build is not bound")
def test_compiled_kernel_called_while_converting_arguments():
    """A call made from an argument's __float__, in the middle of another
    call's conversion, keeps both calls' lists apart."""
    x, params = _imu_call(4)
    other = [2.0 * v for v in x]
    nested = []

    class Reentrant:
        def __float__(self):
            nested.append(_kernels.imu_sample(other, params, 0.001, 1))
            return params[7]

    # k_w, converted after x and the measurement rows
    got = _kernels.imu_sample(x, params[:7] + (Reentrant(),) + params[8:], 0.001, 1)
    assert nested == [_kernels.imu_sample(other, params, 0.001, 1)]
    assert got == _kernels.imu_sample(x, params, 0.001, 1)


# calls of imu_sample that its argument checks refuse, with the exception
# both builds raise
MALFORMED_CALLS = {
    "argument_count": (TypeError, lambda x, p: (x, p, 0.001)),
    "params_one_short": (ValueError, lambda x, p: (x, p[:-1], 0.001, 1)),
    "text_in_state": (TypeError, lambda x, p: (["a", *x[1:]], p, 0.001, 1)),
    "two_entry_row": (ValueError,
                      lambda x, p: (x, ([p[0][0][:2], *p[0][1:]], *p[1:]), 0.001, 1)),
    "state_of_17_floats": (ValueError, lambda x, p: (x[:17], p, 0.001, 1)),
    "nsub_float": (TypeError, lambda x, p: (x, p, 0.001, 1.0)),
    "nsub_zero": (ZeroDivisionError, lambda x, p: (x, p, 0.001, 0)),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CALLS))
def test_malformed_kernel_call_raises_like_python_floats(case):
    """The bound kernel refuses a malformed call with the exception its
    Python-float original raises, and the next valid call is unchanged."""
    x, params = _imu_call(4)
    want = _kernels.imu_sample(x, params, 0.001, 1)
    error, malformed = MALFORMED_CALLS[case]
    for fn in (_kernels.imu_sample, _laws.imu_sample):
        with pytest.raises(error):
            fn(*malformed(x, params))
    assert _kernels.imu_sample(x, params, 0.001, 1) == want


class _MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks", "uordblks",
        "fordblks", "keepcost")]


@pytest.mark.skipif(_kernels.BACKEND != "compiled", reason="the C build is not bound")
def test_compiled_calls_free_their_arena():
    """Every call frees the arena it allocates, whether it returns or its
    arguments are refused: a thousand rounds of all the calls above leave
    the C heap (glibc's count of bytes in use) less than one 4096-double
    block bigger."""
    libc = ctypes.CDLL(None)
    if not hasattr(libc, "mallinfo2"):
        pytest.skip("needs glibc's mallinfo2")
    libc.mallinfo2.restype = _MallInfo2
    x, params = _imu_call(32)
    calls = [(x, params, 0.001, 2), *(malformed(x, params)
                                      for _, malformed in MALFORMED_CALLS.values())]

    def rounds(count):
        for _ in range(count):
            for args in calls:
                try:
                    _kernels.imu_sample(*args)
                except (TypeError, ValueError, ZeroDivisionError):
                    pass
        info = libc.mallinfo2()
        return info.uordblks + info.hblkhd

    start = rounds(10)
    assert rounds(1000) - start < 4096 * 8


@pytest.mark.skipif(_kernels.BACKEND != "compiled", reason="the C build is not bound")
def test_generated_c_compiles_without_warnings(tmp_path):
    """The C made of ``_laws.py`` compiles under the build's flags with
    ``-Wall -Werror``: no unused helper or variable is left in it."""
    src = tmp_path / "kernels.c"
    src.write_text(_ctranslate.translate(Path(_laws.__file__).read_text(), "lieslam_check"))
    flags = [flag for flag in _ctranslate.CFLAGS if flag != "-shared"]
    done = subprocess.run([*shlex.split(os.environ.get("CC") or "cc"), *flags, "-c", "-Wall",
                           "-Werror", f"-I{sysconfig.get_paths()['include']}",
                           "-o", str(tmp_path / "kernels.o"), str(src)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("line", (
    "while x > 0.0: x = x - 1.0",   # a loop other than for/range
    "x = x % 2.0",                  # an operator CPython and C disagree on
    "x = x ** 0.5",                 # a power other than a positive integer
    "x = abs(x)",                   # a call of anything but a kernel
    "x = x if x else 1.0",          # a conditional expression
    "x = [x, x][0:1:1]",            # a stepped slice
    "x.append(x)",                  # append to a float
    "x = [a for a in [x, x]][0]",   # a comprehension not over a zip
    pytest.param("if x > 0.0:\n        x = 1.0\n    else:\n        x = 2.0", id="if-else"),
))
def test_translator_rejects_code_outside_its_subset(line):
    source = f"def f(x):\n    {line}\n    return x\n"
    with pytest.raises(_ctranslate.BuildError, match="outside the translated subset"):
        _ctranslate._Translator(source).specialise("f", ("F",))


def _import_kernels(env: dict, *checks: str,
                    src: Path | None = None) -> subprocess.CompletedProcess:
    """Import lieslam.cli from ``src`` (this checkout's by default) in a
    fresh interpreter with warnings as errors and print the given
    expressions."""
    code = "import sys, types; import lieslam.cli; from lieslam import _kernels; " + \
        "; ".join(f"print({c})" for c in checks)
    src = str(src or Path(_kernels.__file__).parent.parent)
    return subprocess.run([sys.executable, "-W", "error", "-c", code],
                          env={**env, "PYTHONPATH": src}, capture_output=True, text=True,
                          timeout=300)


def test_failed_build_keeps_python_floats(tmp_path):
    out = _import_kernels(dict(os.environ, CC="false", XDG_CACHE_HOME=str(tmp_path)),
                          "_kernels.BACKEND",
                          "all(isinstance(getattr(_kernels, f), types.FunctionType) "
                          "for f in _kernels._COMPILED)",
                          "_kernels.BUILD_ERROR")
    assert out.returncode == 0 and out.stderr == ""
    backend, python_bound, why = out.stdout.splitlines()
    assert (backend, python_bound) == ("interpreted", "True")
    assert why.startswith("false exited with status 1")
    assert not list(tmp_path.rglob("*.so"))


def test_relative_cache_home_is_ignored(tmp_path):
    """A relative ``XDG_CACHE_HOME`` is ignored, as the XDG spec says: the
    build goes to ``~/.cache/lieslam``, never under the working directory.
    With the compiled backend the current build is put there first, so
    the child loads it instead of compiling."""
    home, work = tmp_path / "home", tmp_path / "work"
    work.mkdir()
    cache = home / ".cache" / "lieslam"
    cache.mkdir(parents=True)
    if _kernels.BACKEND == "compiled":
        built = Path(_kernels._ext.__file__)
        (cache / built.name).write_bytes(built.read_bytes())
    env = dict(os.environ, HOME=str(home), XDG_CACHE_HOME="cache",
               PYTHONPATH=str(Path(_kernels.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-W", "error", "-c",
                          "from lieslam import _kernels; print(_kernels.BACKEND)"],
                         cwd=work, env=env, capture_output=True, text=True, timeout=300)
    assert (out.returncode, out.stderr, out.stdout) == (0, "", f"{_kernels.BACKEND}\n")
    assert not list(work.iterdir())
    if _kernels.BACKEND == "compiled":
        assert [p.name for p in cache.iterdir()] == [built.name]


@pytest.mark.skipif(_kernels.BACKEND != "compiled", reason="the C build is not bound")
def test_cached_build_loads_without_translator():
    """A warm cache loads the extension without importing the law source,
    the translator, the compiler driver or hashlib (which alone adds
    ~3.5 MB of RSS)."""
    out = _import_kernels(dict(os.environ), "_kernels.BACKEND",
                          "[m for m in ('lieslam._laws', 'lieslam._ctranslate', 'hashlib', "
                          "'cffi', 'shlex') if m in sys.modules]")
    assert out.returncode == 0 and out.stderr == ""
    assert out.stdout.splitlines() == ["compiled", "[]"]


def _plant(cache: Path, names, mtime: float = 1e9) -> list[Path]:
    """Empty files of the given names, a second apart in mtime from
    ``mtime`` on, the last named the newest."""
    cache.mkdir(parents=True, exist_ok=True)
    paths = [cache / name for name in names]
    for k, path in enumerate(paths):
        path.write_bytes(b"")
        os.utime(path, (mtime + k, mtime + k))
    return paths


@pytest.mark.skipif(_kernels.BACKEND != "compiled", reason="the C build is not bound")
def test_build_keeps_the_newest_builds(tmp_path):
    """A fresh build keeps the newest entries of the cache by mtime,
    itself among them, and deletes the others, whatever their form: two
    keys, one key (the older forms) or another Python's suffix.  A file
    not named like a build is left alone."""
    built = _kernels._ext.__name__ + EXTENSION_SUFFIXES[0]
    cache = tmp_path / "lieslam"
    names = [f"lieslam_kernels_{k:016x}_{'0' * 16}{EXTENSION_SUFFIXES[0]}" for k in range(4)]
    names += [f"lieslam_kernels_{k:016x}{EXTENSION_SUFFIXES[0]}" for k in range(4)]
    names += [f"lieslam_kernels_{k:032x}.cpython-399-x86_64-linux-gnu.so" for k in range(4)]
    planted = _plant(cache, names)
    (cache / "notes.txt").write_text("kept\n")
    out = _import_kernels(dict(os.environ, XDG_CACHE_HOME=str(tmp_path)), "_kernels.BACKEND")
    assert (out.returncode, out.stderr, out.stdout) == (0, "", "compiled\n")
    kept = [p.name for p in planted[len(planted) - _ctranslate.KEEP + 1:]]
    assert sorted(p.name for p in cache.iterdir()) == sorted([built, "notes.txt", *kept])


@pytest.mark.skipif(_kernels.BACKEND != "compiled", reason="the C build is not bound")
def test_build_survives_an_entry_it_cannot_delete(tmp_path):
    """An old entry that cannot be removed, here a directory named like a
    one-key build, stays in the cache, the older entries past it still go,
    and the build just made stays bound."""
    built = _kernels._ext.__name__ + EXTENSION_SUFFIXES[0]
    cache = tmp_path / "lieslam"
    stuck = cache / f"lieslam_kernels_0123456789abcdef{EXTENSION_SUFFIXES[0]}"
    stuck.mkdir(parents=True)
    os.utime(stuck, (1e9 + 0.5, 1e9 + 0.5))
    planted = _plant(cache, [f"lieslam_kernels_{k:032x}.so" for k in range(_ctranslate.KEEP + 1)])
    out = _import_kernels(dict(os.environ, XDG_CACHE_HOME=str(tmp_path)),
                          "_kernels.BACKEND", "_kernels.BUILD_ERROR")
    assert (out.returncode, out.stderr, out.stdout) == (0, "", "compiled\nNone\n")
    kept = [p.name for p in planted[2:]]
    assert sorted(p.name for p in cache.iterdir()) == sorted([built, stuck.name, *kept])
    assert stuck.is_dir()


@pytest.mark.skipif(_kernels.BACKEND != "compiled", reason="the C build is not bound")
def test_alternating_trees_compile_once_each(tmp_path):
    """Two checkouts whose ``_laws.py`` differ by a comment line, imported
    in turn with one cache, compile once each and leave both builds."""
    package = Path(_kernels.__file__).parent
    trees = [tmp_path / "a", tmp_path / "b"]
    for tree in trees:
        shutil.copytree(package, tree / "lieslam", ignore=shutil.ignore_patterns("__pycache__"))
    with open(trees[1] / "lieslam" / "_laws.py", "a") as f:
        f.write("# the other checkout\n")
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path / "cache"))
    runs = [_import_kernels(env, "_kernels.BACKEND", "'lieslam._ctranslate' in sys.modules",
                            src=tree) for tree in trees * 2]
    compiled = [(out.returncode, out.stderr, out.stdout) for out in runs]
    assert compiled == [(0, "", "compiled\nTrue\n")] * 2 + [(0, "", "compiled\nFalse\n")] * 2
    assert len(list((tmp_path / "cache" / "lieslam").iterdir())) == 2


# sha256 of every CSV of two 0.3 s bundled runs, recorded on the
# interpreted backend before the kernels moved to Python floats
DIGESTS = {
    ("square_climb", "both"): {
        "estimate_basic.csv": "e19ad8c17e25dd67554031f751b8979c65deec3a1e660932bbf0c5719d60ac9c",
        "estimate_imu.csv": "793ea4b9e5b8684d86d287dfcd61e35ce946697a931afb09200c374d83162023",
        "filter_basic.csv": "321044929917d6aeaa119ca7d6bc8c5d99aa7efa6769d952a2bb5958fab026b1",
        "filter_imu.csv": "a913fdecc4122a559ec38f0f259f9e1da48149100d240f7400381ddbec561e8f",
        "truth.csv": "d6526d15cfa2967d8b37f74ac07d0e3c7e2defdb61c184bc1660b98b86e74596",
    },
    ("square_level", "imu_quat"): {
        "estimate_imu_quat.csv": "7c2358a162c1507cc62cd127744677058087a4c3f54ba478bd14246b85a65da4",
        "filter_imu_quat.csv": "3a18c0373119d643048d8d4e9720a73d462721e3d44560b8b2d437fb2552324d",
        "truth.csv": "df9789bf8470d96dfe72ae3e27f045631bd5dc914c6e853069a2a7528c4cf0f2",
    },
}


@pytest.mark.parametrize("config,filter_kind", sorted(DIGESTS))
def test_short_runs_are_byte_identical(tmp_path, config, filter_kind):
    doc = json.loads(bundled_config_path(config).read_text())
    doc["world"]["duration"] = 0.3
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--filter", filter_kind, "--out", str(out)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert got == DIGESTS[(config, filter_kind)]
