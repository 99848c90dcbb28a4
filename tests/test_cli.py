"""Command-line entry point: exit codes, artifact writing, output text."""

from __future__ import annotations

import json

import pytest

from _support import small_run_dict, small_world_dict
from lieslam.cli import main


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


def test_run_rejects_bad_runs_count(tmp_path, capsys):
    cfg = _write_config(tmp_path, small_run_dict())
    assert main(["run", "--config", cfg, "--runs", "0"]) == 2
    assert "--runs" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_run_divergence_exit_code(tmp_path, capsys, warmed_up):
    doc = {
        "world": small_world_dict(duration=0.05, noise_std_omega=0.0, noise_std_v=0.0),
        "filter": "basic",
        "gains": {"basic": {"k_w": 1e9, "k_1": 1.0, "gamma": 1.0, "alpha": 1.0}},
    }
    cfg = _write_config(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "d")]) == 3
    err = capsys.readouterr().err
    assert "non-finite" in err and "step" in err


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
