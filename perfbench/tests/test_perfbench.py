"""Tests of the benchmark itself: its configs and its output check.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import check  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from lieslam import harness  # noqa: E402


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.UNITS


@pytest.mark.parametrize("name", workloads.NAMES)
@pytest.mark.parametrize("seed", [0, 46, 12345])
def test_generated_configs_pass_load_run_config(tmp_path, name, seed):
    cfg = workloads.make_config(ROOT, name, seed)
    for tag, raw, steps in (("run", cfg, workloads.world_steps(cfg)),
                            ("setup", workloads.setup_config(cfg), 1)):
        path = tmp_path / f"{tag}.json"
        path.write_text(json.dumps(raw))
        rc = harness.load_run_config(path)
        assert rc.world.n_steps == steps
        assert rc.world.rng_seed == seed
        assert rc.filters() == workloads.filters_of(raw)
        assert rc.world.n_landmarks == len(raw["world"]["landmarks"])


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_gives_same_config(name):
    first = json.dumps(workloads.make_config(ROOT, name, 7), sort_keys=True)
    again = json.dumps(workloads.make_config(ROOT, name, 7), sort_keys=True)
    other = json.dumps(workloads.make_config(ROOT, name, 8), sort_keys=True)
    assert first == again
    assert first != other


def test_ring_is_jittered_by_the_seed():
    a = workloads.make_config(ROOT, "ring32_imu", 1)["world"]["landmarks"]
    b = workloads.make_config(ROOT, "ring32_imu", 2)["world"]["landmarks"]
    assert len(a) == len(b) == 32
    assert a != b


@pytest.fixture(scope="module")
def short_run(tmp_path_factory):
    """A 200-step climb_both run: its config and a directory of good artifacts."""
    cfg = workloads.make_config(ROOT, "climb_both", 3)
    cfg["world"]["duration"] = 200 * cfg["world"]["dt"]
    base = tmp_path_factory.mktemp("short")
    path = base / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = harness.load_run_config(path)
    harness.run(dataclasses.replace(rc, output_dir=base / "good"))
    return cfg, base / "good"


def test_check_passes_a_good_run(short_run):
    cfg, good = short_run
    problems, digests = check.check_run(good, cfg, 0, None, converge=True)
    assert problems == []
    assert sorted(digests) == sorted(check.expected_files(cfg))
    again, _ = check.check_run(good, cfg, 0, digests, converge=True)
    assert again == []


def _truncate(path: Path):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))


def _alter_digit(path: Path):
    text = path.read_text()
    pos = text.rindex("1")
    path.write_text(text[:pos] + "2" + text[pos + 1:])


def _nan(path: Path):
    header, first, *rest = path.read_text().splitlines(keepends=True)
    path.write_text(header + first.replace(first.split(",")[1], "nan", 1) + "".join(rest))


def _rename_column(path: Path):
    text = path.read_text()
    path.write_text(text.replace("P_x", "Px", 1))


@pytest.mark.parametrize("mutate, fname, expect", [
    (_truncate, "truth.csv", "rows"),
    (_truncate, "filter_imu.csv", "rows"),
    (_alter_digit, "estimate_basic.csv", "bytes differ"),
    (_nan, "filter_basic.csv", "finite"),
    (_rename_column, "truth.csv", "header"),
    (Path.unlink, "estimate_imu.csv", "missing"),
])
def test_check_fails_on_a_damaged_csv(short_run, tmp_path, mutate, fname, expect):
    cfg, good = short_run
    _, reference = check.check_run(good, cfg, 0, None, converge=True)
    bad = tmp_path / "bad"
    shutil.copytree(good, bad)
    mutate(bad / fname)
    problems, _ = check.check_run(bad, cfg, 0, reference, converge=True)
    assert any(expect in p for p in problems), problems


def test_check_fails_on_exit_code_and_divergence(short_run, tmp_path):
    cfg, good = short_run
    problems, _ = check.check_run(good, cfg, 3, None, converge=True)
    assert any("exit code 3" in p for p in problems)

    # swap the first and last data rows of a report: |e| then grows
    bad = tmp_path / "bad"
    shutil.copytree(good, bad)
    path = bad / "filter_imu.csv"
    header, *rows = path.read_text().splitlines(keepends=True)
    rows[0], rows[-1] = rows[-1], rows[0]
    path.write_text(header + "".join(rows))
    problems, _ = check.check_run(bad, cfg, 0, None, converge=True)
    assert any("not below initial" in p for p in problems), problems


def test_tracer_records_nested_spans_with_parents():
    tracer = tracing.Tracer()
    tracer.start_run("workload")
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert [(s[0], s[3], s[4]) for s in tracer.spans] == [("outer", -1, 1), ("inner", 0, 1)]
    out_start, out_end = tracer.spans[0][1:3]
    in_start, in_end = tracer.spans[1][1:3]
    assert out_start <= in_start <= in_end <= out_end


def test_span_table_scales_self_times_and_flags_bad_nesting():
    tracer = tracing.Tracer()
    tracer.start_run("workload")
    tracer.factors[1] = 2.0
    tracer.spans[:] = [
        ("harness.run", 0, 10_000, -1, 1),
        ("filter_imu.step", 2_000, 5_000, 0, 1),
        ("_kernels.imu_sample", 2_500, 4_500, 1, 1),
    ]
    problems = []
    table = tracing._SpanTable(tracer, problems)
    assert problems == []
    assert table.us(0) == 20.0
    assert table.self_us(1) == 2.0
    assert table.self_us(0) == 14.0

    tracer.spans.append(("metrics.evaluate", 9_000, 11_000, 0, 1))
    tracing._SpanTable(tracer, problems)
    assert any("outside its parent" in p for p in problems)
