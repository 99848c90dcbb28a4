"""Command-line entry point: exit codes, artifact writing, output text."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lieslam
from _support import small_run_dict, small_world_dict
from lieslam.cli import main
from lieslam.harness import bundled_config_path


def _write_config(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_run_success(tmp_path, capsys, warmed_up):
    cfg = _write_config(tmp_path, small_run_dict())
    out = tmp_path / "artifacts"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "basic: t=1" in stdout
    assert "imu: t=1" in stdout
    assert f"wrote artifacts to {out}" in stdout
    assert (out / "truth.csv").exists()
    assert (out / "filter_basic.csv").exists()
    assert (out / "estimate_imu.csv").exists()


def test_run_filter_override(tmp_path, capsys, warmed_up):
    cfg = _write_config(tmp_path, small_run_dict())
    out = tmp_path / "only_imu"
    assert main(["run", "--config", cfg, "--out", str(out), "--filter", "imu"]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["estimate_imu.csv", "filter_imu.csv", "truth.csv"]


def test_run_missing_config(capsys):
    assert main(["run", "--config", "no_such_config.json"]) == 2
    assert "no such config" in capsys.readouterr().err


def test_run_invalid_json(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert main(["run", "--config", str(p)]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_unknown_config_key(tmp_path, capsys):
    assert main(["run", "--config", _write_config(tmp_path, small_run_dict(plot=True))]) == 2
    assert "unknown keys" in capsys.readouterr().err


def test_run_filter_without_gains(tmp_path, capsys):
    doc = small_run_dict(filter="basic")
    del doc["gains"]["imu"]
    cfg = _write_config(tmp_path, doc)
    out = tmp_path / "x"
    assert main(["run", "--config", cfg, "--out", str(out), "--filter", "imu"]) == 2
    assert "gains.imu" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ("imu", "imu_quat"))
def test_run_filter_override_uses_other_gains_block(tmp_path, kind, warmed_up):
    """Both gains blocks are read, whichever filter the file selects."""
    doc = json.loads(bundled_config_path("square_level").read_text())
    doc["filter"] = "basic"
    doc["world"]["duration"] = 0.05
    out = tmp_path / "out"
    assert main(["run", "--config", _write_config(tmp_path, doc), "--out", str(out),
                 "--filter", kind]) == 0
    assert (out / f"filter_{kind}.csv").exists()


def _set(*path_and_value):
    """Edit of a run config: set the entry at path to value."""
    *path, key, value = path_and_value

    def edit(doc):
        for p in path:
            doc = doc[p]
        doc[key] = value
    return edit


# (edit of small_run_dict(), extra CLI arguments, key the error must name)
MALFORMED = {
    "dt_nan": (_set("world", "dt", float("nan")), [], "world.dt"),
    "duration_inf": (_set("world", "duration", float("inf")), [], "world.duration"),
    "dt_text": (_set("world", "dt", "abc"), [], "world.dt"),
    "dt_string": (_set("world", "dt", "0.001"), [], "world.dt"),
    "landmark_bool": (_set("world", "landmarks", [[5, 0, 0], [0, 5, 0], [0, 0, True]]), [],
                      "world.landmarks"),
    "gain_bool": (_set("gains", "imu", "k_w", True), [], "gains.imu.k_w"),
    "seed_text": (_set("world", "rng_seed", "x"), [], "world.rng_seed"),
    "stride_text": (_set("sample_stride", "x"), [], "sample_stride"),
    "ragged_landmarks": (_set("world", "landmarks", [[5, 0, 0], [0, 5], [0, 0, 5]]), [],
                         "world.landmarks"),
    "profile_text": (_set("world", "omega_true", {"const": "a"}), [], "world.omega_true.const"),
    "negative_noise": (_set("world", "noise_std_v", -1), [], "world.noise_std_v"),
    "dt_over_duration": (_set("world", "dt", 2.0), [], "world.duration"),
    "fractional_stride": (_set("sample_stride", 2.7), [], "sample_stride"),
    "nan_landmark": (_set("world", "landmarks", [[5, 0, 0], [0, 5, 0], [0, 0, float("nan")]]),
                     [], "world.landmarks"),
    "nan_gain": (_set("gains", "imu", "k_w", float("nan")), [], "gains.imu.k_w"),
    "literal_1e400": (_set("world", "bias_v", [0.0, "1e400", 0.0]), [], "world.bias_v"),
    "gains_not_object": (_set("gains", "basic", 5), [], "gains.basic"),
    "init_nan": (_set("init", {"position": [0.0, float("nan"), 0.0]}), [], "init.position"),
    "flag_text": (_set("simplified_form", "no"), [], "simplified_form"),
    "output_dir_number": (_set("output_dir", 7), [], "output_dir"),
    "negative_seed": (lambda doc: None, ["--seed", "-1"], "--seed"),
    "steps_beyond_memory": (lambda doc: doc["world"].update(dt=1e-9, duration=1e6), [],
                            "world.duration"),
    # found by test_any_edit_of_a_config_gives_config_or_config_error
    "integer_beyond_float_range": (_set("gains", "basic", "alpha", 10**400), [],
                                   "gains.basic.alpha"),
    # both rotation keys share one check, which must not overflow
    "world_init_rotation_scaled": (_set("world", "init_rotation", [2, 0, 0, 0, 1, 0, 0, 0, 1]),
                                   [], "world.init_rotation"),
    "world_init_rotation_huge": (_set("world", "init_rotation",
                                      [1e200, 0, 0, 0, 1, 0, 0, 0, 1]), [],
                                 "world.init_rotation"),
    "init_rotation_huge": (_set("init", {"rotation": [1e200, 0, 0, 0, 1, 0, 0, 0, 1]}), [],
                           "init.rotation"),
    # numpy refuses the arrays with a ValueError rather than a MemoryError
    "steps_beyond_array_size": (lambda doc: doc["world"].update(dt=1e-20, duration=1), [],
                                "world.duration"),
    "weights_sum_overflows": (_set("world", "sensor_weights", [1e308, 1e308, 1e308]), [],
                              "world.sensor_weights"),
    # every object of the config rejects a key it does not know
    "gains_imu_unknown_key": (_set("gains", "imu", "gamma", 7), [], "gains.imu"),
    "gains_basic_unknown_key": (_set("gains", "basic", "k_2", 1.0), [], "gains.basic"),
    "gains_unknown_block": (_set("gains", "quat", {"k_w": 1.0}), [], "gains"),
    "init_unknown_key": (_set("init", {"rotaton": [0, 1, 0, -1, 0, 0, 0, 0, 1]}), [], "init"),
    # orthonormal, but a reflection
    "init_rotation_reflection": (_set("init", {"rotation": [1, 0, 0, 0, 1, 0, 0, 0, -1]}), [],
                                 "init.rotation"),
    "world_init_rotation_reflection": (_set("world", "init_rotation",
                                            [1, 0, 0, 0, 1, 0, 0, 0, -1]), [],
                                       "world.init_rotation"),
    # configs that parse but cannot run: no attitude kernel, an infinite 1 / gain
    "weights_rank_deficient": (_set("world", "sensor_weights", [1, 1, 0]), [],
                               "world.sensor_weights"),
    "gain_reciprocal_overflows": (_set("gains", "imu", "alpha", 1e-320), [], "gains.imu"),
    "gamma_reciprocal_overflows": (_set("gains", "basic", "gamma", 1e-320), [], "gains.basic"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_run_malformed_config_exits_2(tmp_path, capsys, case):
    edit, args, key = MALFORMED[case]
    doc = small_run_dict()
    doc["world"]["duration"] = 0.05
    edit(doc)
    text = json.dumps(doc).replace('"1e400"', "1e400")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"), *args]) == 2
    assert f"{key}:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # nothing written


@pytest.mark.parametrize("case", ("directory", "not_utf8", "nested_too_deeply"))
def test_run_unreadable_config_exits_2(tmp_path, capsys, case):
    cfg = tmp_path / "cfg.json"
    if case == "directory":
        cfg.mkdir()
    elif case == "nested_too_deeply":  # beyond the JSON decoder's recursion limit
        cfg.write_text('{"world": ' + "[" * 5000 + "]" * 5000 + "}")
    else:
        cfg.write_bytes(json.dumps(small_run_dict(output_dir="caf\u00e9"),
                                   ensure_ascii=False).encode("latin-1"))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"error: {cfg}: cannot read the config" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("runs", (1, 2))
@pytest.mark.parametrize("blocked", ("is_a_file", "under_a_file", "csv_is_a_directory"))
def test_run_unwritable_output_dir_exits_2(tmp_path, capsys, warmed_up, blocked, runs):
    """An output directory that cannot be created or written is a
    configuration error, for a single run and for each seed of --runs."""
    doc = small_run_dict()
    doc["world"]["duration"] = 0.05
    cfg = _write_config(tmp_path, doc)
    out = tmp_path / "out"
    if blocked == "csv_is_a_directory":
        for name in ["truth.csv"] if runs == 1 else ["truth_seed5.csv", "truth_seed6.csv"]:
            (out / name).mkdir(parents=True)
    else:
        out.write_text("")
        if blocked == "under_a_file":
            out = out / "run"
    assert main(["run", "--config", cfg, "--out", str(out), "--runs", str(runs)]) == 2
    err = capsys.readouterr().err
    if runs == 1:
        assert err.startswith("error: output_dir: ")
    else:
        for seed in (5, 6):
            assert f"seed {seed}: error: output_dir: " in err


@pytest.mark.parametrize("block", ("basic", "imu"))
def test_run_largest_landmark_weight_exits_0(tmp_path, warmed_up, block):
    """A landmark weight alpha of 1e308 is finite with a finite reciprocal,
    so the run and its Lyapunov candidate raise no RuntimeWarning."""
    doc = small_run_dict(filter=block)
    doc["world"]["duration"] = 0.05
    doc["gains"][block]["alpha"] = 1e308
    cfg = _write_config(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


def test_run_stride_beyond_the_run_samples_step_0(tmp_path, warmed_up):
    doc = small_run_dict(sample_stride=10**30)
    doc["world"]["duration"] = 0.05
    out = tmp_path / "out"
    assert main(["run", "--config", _write_config(tmp_path, doc), "--out", str(out)]) == 0
    for name in ("truth.csv", "filter_basic.csv", "estimate_imu.csv"):
        header, row = (out / name).read_text().splitlines()
        assert row.startswith("0.0,")


def test_compare_loads_no_filter_or_kernel(tmp_path):
    """``lieslam compare`` neither builds nor loads the kernels, and the
    CLI imports none of the run path until it runs something."""
    csv = tmp_path / "a.csv"
    csv.write_text("t,v\n0.0,1.0\n")
    cache = tmp_path / "cache"
    cache.mkdir()
    env = dict(os.environ, XDG_CACHE_HOME=str(cache),
               PYTHONPATH=str(Path(lieslam.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-W", "error", "-m", "lieslam", "compare",
                           str(csv), str(csv)], env=env, capture_output=True, text=True,
                          timeout=300)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "t: final_delta=0 max_delta=0\nv: final_delta=0 max_delta=0\n"
    assert not list(cache.iterdir())
    # every module of the package but the five the compare path imports
    compare_path = {"__init__", "cli", "compare", "config", "liegroup"}
    run_path = sorted(f"lieslam.{p.stem}" for p in Path(lieslam.__file__).parent.glob("*.py")
                      if p.stem not in compare_path)
    assert {"lieslam._kernels", "lieslam.harness", "lieslam.observers"} <= set(run_path)
    loaded = subprocess.run([sys.executable, "-W", "error", "-c",
                             "import sys, lieslam.cli, lieslam.compare; "
                             f"print([m for m in {run_path} if m in sys.modules])"],
                            env=env, capture_output=True, text=True, timeout=300)
    assert (loaded.returncode, loaded.stderr, loaded.stdout) == (0, "", "[]\n")


def test_run_rejects_bad_runs_count(tmp_path, capsys):
    cfg = _write_config(tmp_path, small_run_dict())
    assert main(["run", "--config", cfg, "--runs", "0"]) == 2
    assert "--runs" in capsys.readouterr().err


def _diverging_doc() -> dict:
    return {
        "world": small_world_dict(duration=0.05, noise_std_omega=0.0, noise_std_v=0.0),
        "filter": "basic",
        "gains": {"basic": {"k_w": 1e9, "k_1": 1.0, "gamma": 1.0, "alpha": 1.0}},
    }


def test_run_divergence_exit_code(tmp_path, capsys, warmed_up):
    cfg = _write_config(tmp_path, _diverging_doc())
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "d")]) == 3
    err = capsys.readouterr().err
    assert "non-finite" in err and "step" in err


def test_run_multi_seed_reports_every_failed_seed(tmp_path, capsys, warmed_up):
    cfg = _write_config(tmp_path, _diverging_doc())
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "d"), "--runs", "2"]) == 3
    err = capsys.readouterr().err
    for seed in (5, 6):
        assert f"seed {seed}: error: basic: step" in err


def test_run_multi_seed(tmp_path, capsys, warmed_up):
    doc = small_run_dict()
    doc["world"]["duration"] = 0.2
    cfg = _write_config(tmp_path, doc)
    out = tmp_path / "sweep"
    assert main(["run", "--config", cfg, "--out", str(out), "--runs", "2"]) == 0
    stdout = capsys.readouterr().out
    assert "seed 5: done" in stdout and "seed 6: done" in stdout
    assert "wrote 2 runs" in stdout
    for seed in (5, 6):
        assert (out / f"truth_seed{seed}.csv").exists()
        assert (out / f"filter_imu_seed{seed}.csv").exists()


def test_run_seed_override_changes_noise(tmp_path, warmed_up):
    doc = small_run_dict()
    doc["world"]["duration"] = 0.2
    cfg = _write_config(tmp_path, doc)
    a, b, c = (tmp_path / s for s in ("a", "b", "c"))
    assert main(["run", "--config", cfg, "--out", str(a)]) == 0
    assert main(["run", "--config", cfg, "--out", str(b), "--seed", "123"]) == 0
    assert main(["run", "--config", cfg, "--out", str(c), "--seed", "123"]) == 0
    # the true trajectory is deterministic, so the seed shows up only in the
    # measurement noise and hence in what the estimators produce
    assert (b / "truth.csv").read_text() == (a / "truth.csv").read_text()
    base = (a / "filter_basic.csv").read_text()
    assert (b / "filter_basic.csv").read_text() != base
    assert (c / "filter_basic.csv").read_text() == (b / "filter_basic.csv").read_text()


def test_compare_success(tmp_path, capsys):
    p = tmp_path / "x.csv"
    p.write_text("t,v\n0.0,1.0\n1.0,3.0\n")
    q = tmp_path / "y.csv"
    q.write_text("t,v\n0.0,2.0\n1.0,3.5\n")
    assert main(["compare", str(p), str(q)]) == 0
    stdout = capsys.readouterr().out
    assert "t: final_delta=0 max_delta=0" in stdout
    assert "v: final_delta=0.5 max_delta=1" in stdout


def test_compare_missing_file(tmp_path, capsys):
    p = tmp_path / "x.csv"
    p.write_text("t\n0.0\n")
    assert main(["compare", str(p), str(tmp_path / "missing.csv")]) == 2
    assert "error:" in capsys.readouterr().err


def test_compare_not_utf8_csv_exits_2(tmp_path, capsys):
    p = tmp_path / "x.csv"
    p.write_text("t\n0.0\n")
    q = tmp_path / "y.csv"
    q.write_bytes("t\u00e9\n0.0\n".encode("latin-1"))
    assert main(["compare", str(p), str(q)]) == 2
    assert f"error: {q}: not UTF-8 text" in capsys.readouterr().err


def test_compare_schema_mismatch(tmp_path, capsys):
    p = tmp_path / "x.csv"
    p.write_text("t,a\n0.0,1.0\n")
    q = tmp_path / "y.csv"
    q.write_text("t,b\n0.0,1.0\n")
    assert main(["compare", str(p), str(q)]) == 2
    assert "column mismatch" in capsys.readouterr().err


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit):
        main([])


def test_run_overflowing_velocity_noise_exits_3(tmp_path, capsys, warmed_up):
    """A noise level whose samples overflow gives infinite measurements
    silently; the estimator that reads them stops with exit 3."""
    doc = small_run_dict()
    doc["world"].update(duration=0.05, noise_std_v=1e308)
    cfg = _write_config(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("omega_true", [[0.0, 0.0, 1e160],
                                        {"const": [0.0, 0.0, 0.3], "slope": [0.0, 0.0, 1e300]}],
                         ids=["const", "slope"])
def test_run_overflowing_angular_velocity_exits_3(tmp_path, capsys, warmed_up, omega_true):
    """A rotation angle whose square overflows gives NaN poses silently
    (no warning from the truth recursion); the estimator stops with exit 3."""
    doc = small_run_dict()
    doc["world"].update(duration=0.05, omega_true=omega_true)
    cfg = _write_config(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert "non-finite" in capsys.readouterr().err


# ------------------------------------------------------------ process entry


def _lieslam(*args: str) -> subprocess.CompletedProcess:
    """``python -W error -m lieslam ARGS`` in a child process."""
    env = dict(os.environ, PYTHONPATH=str(Path(lieslam.__file__).parent.parent))
    return subprocess.run([sys.executable, "-W", "error", "-m", "lieslam", *args], env=env,
                          capture_output=True, text=True, timeout=300)


def test_process_entry_matches_in_process_main(tmp_path, capsys, warmed_up):
    """The process entry (collector off, heap frozen) prints and writes
    what an in-process ``main`` call does, and warns about nothing."""
    doc = small_run_dict(sample_stride=1)
    doc["world"]["duration"] = 0.01
    cfg = _write_config(tmp_path, doc)
    child, here = tmp_path / "child", tmp_path / "here"
    done = _lieslam("run", "--config", cfg, "--out", str(child))
    assert (done.returncode, done.stderr) == (0, "")
    assert main(["run", "--config", cfg, "--out", str(here)]) == 0
    assert done.stdout.replace(str(child), str(here)) == capsys.readouterr().out
    names = sorted(p.name for p in here.iterdir())
    assert sorted(p.name for p in child.iterdir()) == names and len(names) == 5
    for name in names:
        assert (child / name).read_bytes() == (here / name).read_bytes(), name


@pytest.mark.parametrize("doc, code", [
    (small_run_dict(sample_stride=0), 2),
    (_diverging_doc(), 3),
], ids=["malformed", "diverging"])
def test_process_entry_exit_codes(tmp_path, doc, code):
    done = _lieslam("run", "--config", _write_config(tmp_path, doc),
                    "--out", str(tmp_path / "out"))
    assert (done.returncode, done.stdout) == (code, "")
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


def test_process_entry_runs_a_worker_pool(tmp_path):
    doc = small_run_dict()
    doc["world"]["duration"] = 0.01
    out = tmp_path / "sweep"
    done = _lieslam("run", "--config", _write_config(tmp_path, doc), "--out", str(out),
                    "--runs", "2")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == f"seed 5: done\nseed 6: done\nwrote 2 runs to {out}\n"


def test_console_script_takes_the_process_entry():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"lieslam": "lieslam.__main__:entry"}
