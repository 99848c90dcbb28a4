"""Run configs, filter execution, CSV artifacts, comparison."""

from __future__ import annotations

import collections
import dataclasses
import gc
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _support import lyapunov_steps, small_run_dict, small_world_dict
from lieslam import _kernels, harness
from lieslam.compare import compare, read_csv
from lieslam.config import ConfigError
from lieslam.harness import (
    bundled_config_path,
    load_run_config,
    parse_run_config,
    run,
    run_filter,
)
from lieslam.liegroup import rotation_defect
from lieslam.metrics import report_header
from lieslam.observers import _OBSERVERS
from lieslam.worldsim import simulate_world


# ------------------------------------------------------------------ parsing

# any JSON value json.loads can return: NaN and the infinities included,
# and integers too large for a float
_JSON = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=6)
    | st.integers() | st.sampled_from((10**400, -(10**400))),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def _parses_or_config_error(doc):
    try:
        rc = parse_run_config(doc)
    except ConfigError:
        return
    assert rc.filters()


def _paths(doc, prefix=()):
    """Key paths of every value nested in doc."""
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _full_run_dict() -> dict:
    """The bundled climb with every optional key of the schema set."""
    doc = json.loads(bundled_config_path("square_climb").read_text())
    doc["init"] = {"rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1], "position": [0, 0, 1],
                   "landmarks": [[1, 1, 0]] * 4, "bias": [0] * 6}
    doc.update(sample_stride=10, simplified_form=False, output_dir="out")
    return doc


@settings(max_examples=300, deadline=None)
@given(doc=_JSON)
def test_any_json_document_gives_config_or_config_error(doc):
    _parses_or_config_error(doc)


@settings(max_examples=500, deadline=None)
@given(data=st.data(), value=_JSON, delete=st.booleans())
def test_any_edit_of_a_config_gives_config_or_config_error(data, value, delete):
    """One value anywhere in a complete config replaced by any JSON
    value, or its key removed."""
    doc = _full_run_dict()
    *parent_path, last = data.draw(st.sampled_from(sorted(_paths(doc), key=repr)))
    parent = doc
    for key in parent_path:
        parent = parent[key]
    if delete and isinstance(parent, dict):
        del parent[last]
    else:
        parent[last] = value
    _parses_or_config_error(doc)



def test_parse_minimal_config_defaults():
    rc = parse_run_config(small_run_dict())
    assert rc.filter_kind == "both"
    assert rc.filters() == ["basic", "imu"]
    assert rc.sample_stride == 100
    assert not rc.simplified_form
    assert np.array_equal(rc.init_rotation, np.eye(3))
    assert np.array_equal(rc.init_landmarks, np.zeros((3, 3)))
    assert np.array_equal(rc.init_bias, np.zeros(6))


def test_parse_rejects_unknown_top_key():
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_run_config(small_run_dict(plot=True))


def test_parse_requires_world():
    doc = small_run_dict()
    del doc["world"]
    with pytest.raises(ConfigError, match="world: required"):
        parse_run_config(doc)


def test_parse_rejects_unknown_filter():
    with pytest.raises(ConfigError, match="filter"):
        parse_run_config(small_run_dict(filter="kalman"))


def test_parse_requires_matching_gains():
    doc = small_run_dict(filter="imu")
    del doc["gains"]["imu"]
    with pytest.raises(ConfigError, match="gains.imu"):
        parse_run_config(doc)
    doc = small_run_dict(filter="basic")
    del doc["gains"]["basic"]
    with pytest.raises(ConfigError, match="gains.basic"):
        parse_run_config(doc)
    doc = small_run_dict(filter="imu")
    del doc["gains"]["imu"]["k_2"]
    with pytest.raises(ConfigError, match="k_2: required"):
        parse_run_config(doc)


def test_parse_gain_broadcasting():
    doc = small_run_dict()
    doc["gains"]["basic"]["alpha"] = 0.25
    doc["gains"]["basic"]["gamma"] = 2.0
    rc = parse_run_config(doc)
    assert np.array_equal(rc.gains_basic.alpha, np.full(3, 0.25))
    assert np.array_equal(rc.gains_basic.gamma, np.full(6, 2.0))
    doc["gains"]["basic"]["alpha"] = [0.1, 0.2]  # 3 landmarks
    with pytest.raises(ConfigError, match="alpha"):
        parse_run_config(doc)


def test_parse_init_rotation_repair_and_rejection():
    """Both rotation keys repair a rotation printed to a few digits and
    reject anything further off."""
    printed = [0.8112, -0.5660, 0.1468, 0.5749, 0.8179, -0.0234, -0.1068, 0.1034, 0.9889]
    for key, doc, parsed in (
        ("init.rotation", lambda r: small_run_dict(init={"rotation": r}),
         lambda rc: rc.init_rotation),
        ("world.init_rotation", lambda r: small_run_dict(world=small_world_dict(init_rotation=r)),
         lambda rc: rc.world.init_rotation),
    ):
        assert rotation_defect(parsed(parse_run_config(doc(printed)))) < 1e-12
        with pytest.raises(ConfigError, match=f"{key}: not close to a rotation"):
            parse_run_config(doc([1.1, 0, 0, 0, 1.1, 0, 0, 0, 1.1]))
        with pytest.raises(ConfigError, match=f"{key}: expected 9 scalars"):
            parse_run_config(doc([1.0, 0.0, 0.0]))


def test_parse_init_shape_checks():
    with pytest.raises(ConfigError, match="landmarks"):
        parse_run_config(small_run_dict(init={"landmarks": [[0, 0, 0]]}))
    with pytest.raises(ConfigError, match="bias"):
        parse_run_config(small_run_dict(init={"bias": [0, 0, 0]}))
    with pytest.raises(ConfigError, match="sample_stride"):
        parse_run_config(small_run_dict(sample_stride=0))


# ------------------------------------------------------------------ loading


@pytest.mark.parametrize("field,size", [("alpha", 3), ("alpha", 5), ("init_landmarks", 3),
                                        ("init_landmarks", 5)])
def test_replace_checks_sizes_against_the_world(level_rc, field, size):
    """dataclasses.replace re-runs the config's checks, so an alpha or an
    initial map that no longer fits the world's 4 landmarks is refused in
    the parser's words before a run writes anything."""
    if field == "alpha":
        change = {"gains_imu": dataclasses.replace(level_rc.gains_imu, alpha=np.full(size, 0.1))}
        message = f"gains.imu.alpha: expected 4 numbers, got shape ({size},)"
    else:
        change = {"init_landmarks": np.zeros((size, 3))}
        message = f"init.landmarks: expected 4 3-vectors, got shape ({size}, 3)"
    with pytest.raises(ConfigError, match=re.escape(message)):
        dataclasses.replace(level_rc, filter_kind="imu", **change)


@pytest.mark.parametrize("field,value,message", [
    ("init_bias", np.zeros(5), "init.bias: expected 6 numbers (angular then linear), "
                               "got shape (5,)"),
    ("init_position", np.zeros(2), "init.position: expected 3 numbers, got shape (2,)"),
    ("init_rotation", np.eye(2), "init.rotation: expected 9 scalars (row-major), "
                                 "got shape (2, 2)"),
    ("init_rotation", np.diag([1.0, 1.0, -1.0]), "init.rotation: not close to a rotation"),
    ("init_rotation", 1.1 * np.eye(3), "init.rotation: not close to a rotation"),
    ("init_rotation", np.full((3, 3), np.nan), "init.rotation: not close to a rotation"),
], ids=["init_bias-5", "init_position-2", "init_rotation-2x2", "init_rotation-reflection",
        "init_rotation-scaled", "init_rotation-nan"])
def test_replace_checks_the_initial_estimate(level_rc, field, value, message):
    """dataclasses.replace checks the fixed-size initial pose and bias too,
    with the parser's sizes and its rotation test, before a run writes
    anything."""
    with pytest.raises(ConfigError, match=re.escape(message)):
        dataclasses.replace(level_rc, **{field: value})


def test_replace_keeps_a_valid_initial_rotation(level_rc):
    """A near rotation passed to dataclasses.replace is checked, not
    repaired: the config holds the very array it was given."""
    rot = np.eye(3)
    rot[0, 1] = 1e-3
    assert dataclasses.replace(level_rc, init_rotation=rot).init_rotation is rot


def test_load_bundled_configs():
    for name in ("square_climb.json", "square_level"):
        rc = load_run_config(name)
        assert rc.filter_kind == "both"
        assert rc.world.n_landmarks == 4
        assert rc.world.rng_seed == 46
        assert rc.sample_stride == 100
    assert bundled_config_path("square_climb").exists()


def test_bundled_configs_differ_only_in_velocity_profile():
    climb = load_run_config("square_climb")
    level = load_run_config("square_level")
    assert np.array_equal(level.world.v_true.slope, np.zeros(3))
    assert np.array_equal(climb.world.v_true.slope, [0.0, 0.0, 0.2])
    assert np.array_equal(climb.world.v_true.const, level.world.v_true.const)
    assert np.array_equal(climb.world.omega_true.const, level.world.omega_true.const)


def test_climb_config_contents():
    rc = load_run_config("square_climb")
    w = rc.world
    assert np.array_equal(
        w.landmarks,
        [[10.0, 10, 0], [-10, 10, 0], [10, -10, 0], [-10, -10, 0]],
    )
    assert np.array_equal(w.init_position, [0.0, 0.0, 6.0])
    assert np.array_equal(w.bias_omega, [0.2, -0.2, 0.2])
    assert np.array_equal(w.bias_v, [0.04, 0.1, -0.02])
    assert w.noise_std_omega == w.noise_std_v == 0.2
    assert w.feature_noise_std == 0.0
    assert w.dt == 0.001 and w.duration == 40.0
    g = rc.gains_imu
    assert g.k_w == 5.0 and g.k_1 == 5.0 and g.k_2 == 20.0
    assert np.array_equal(g.gamma_1, np.full(3, 3.0))
    assert np.array_equal(g.gamma_2, np.full(3, 100.0))
    assert np.array_equal(g.alpha, np.full(4, 0.1))
    gb = rc.gains_basic
    assert np.array_equal(gb.gamma, [3.0, 3, 3, 100, 100, 100])
    assert rotation_defect(rc.init_rotation) < 1e-12


def test_load_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="no such config"):
        load_run_config(tmp_path / "nope.json")
    with pytest.raises(ConfigError, match="no such config"):
        load_run_config("definitely_not_bundled.json")


def test_load_invalid_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"world\": }")
    with pytest.raises(ConfigError, match="bad.json:1:"):
        load_run_config(bad)


def test_load_invalid_content(tmp_path):
    doc = small_run_dict()
    del doc["world"]["landmarks"]
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="landmarks"):
        load_run_config(p)


# ---------------------------------------------------------------- execution


def test_run_filter_rejects_unknown_name():
    rc = parse_run_config(small_run_dict())
    trace = simulate_world(rc.world)
    with pytest.raises(ValueError, match="unknown filter"):
        run_filter(trace, rc, "ekf")


def test_run_filter_sampling_grid(warmed_up):
    rc = parse_run_config(small_run_dict())
    trace = simulate_world(rc.world)
    result = run_filter(trace, rc, "imu")
    # stride 100 over 1000 steps: samples at 0, 100, ..., 1000
    assert np.array_equal(result.sample_ks, np.arange(0, 1001, 100))
    assert len(result.states) == len(result.report.t) == 11
    assert result.report.feat_err.shape == result.report.e_norms.shape == (11, 3)
    # the state after every step is kept
    assert result.rotations.shape == (1001, 3, 3)
    assert result.biases.shape == (1001, 6)
    assert result.report.t[0] == 0.0
    assert np.isclose(result.report.t[-1], 1.0, atol=1e-12)


@pytest.mark.parametrize("name", ("basic", "imu", "imu_quat"))
def test_lyap_steps_match_sampled_reports(name, warmed_up):
    """The per-step candidate and the sampled reports share one error state."""
    rc = parse_run_config(small_run_dict())
    trace = simulate_world(rc.world)
    result = run_filter(trace, rc, name)
    assert np.array_equal(lyapunov_steps(trace, rc, result)[result.sample_ks],
                          result.report.lyap)


def test_run_writes_artifacts(tmp_path, warmed_up):
    doc = small_run_dict()
    rc = dataclasses.replace(parse_run_config(doc), output_dir=tmp_path / "out")
    artifacts = run(rc)
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "estimate_basic.csv", "estimate_imu.csv",
        "filter_basic.csv", "filter_imu.csv", "truth.csv",
    ]
    header, data = read_csv(artifacts.truth_path)
    assert header[:4] == ["t", "P_x", "P_y", "P_z"]
    assert header[4:13] == ["r11", "r12", "r13", "r21", "r22", "r23", "r31", "r32", "r33"]
    assert header[13:16] == ["p_1_x", "p_1_y", "p_1_z"]
    assert data.shape == (11, len(header))

    eheader, edata = read_csv(artifacts.estimate_paths["imu"])
    assert eheader == header
    assert edata.shape == data.shape

    fheader, fdata = read_csv(artifacts.filter_paths["basic"])
    assert ",".join(fheader) == report_header(3)
    assert fdata.shape == (11, len(fheader))
    # diagnostics recompute exactly from the stored reports
    rep = artifacts.results["basic"].report
    assert fdata[-1, 1] == rep.att_dist[-1]
    assert fdata[-1, 2] == rep.pos_err[-1]


def _ring_run_dict(n: int) -> dict:
    """small_run_dict with n landmarks on a ring, feature noise and the
    IMU observer in simplified form."""
    phi = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    doc = small_run_dict(filter="imu", simplified_form=True,
                         init={"landmarks": [[0.0, 0.0, 0.0]] * n})
    doc["world"]["landmarks"] = np.c_[12 * np.cos(phi), 12 * np.sin(phi), np.zeros(n)].tolist()
    doc["world"]["feature_noise_std"] = 0.01
    return doc


@pytest.mark.parametrize("doc", [small_run_dict(), small_run_dict(filter="imu_quat"),
                                 _ring_run_dict(32)], ids=["both", "imu_quat", "ring32"])
def test_run_makes_no_reference_cycles(tmp_path, warmed_up, doc):
    """A run leaves nothing for the cyclic collector to find, which is
    why a ``lieslam`` process runs with it off (``lieslam.__main__``)."""
    doc = dict(doc, sample_stride=1)
    doc["world"] = dict(doc["world"], duration=0.2)
    gc.collect()
    gc.disable()
    try:
        artifacts = run(dataclasses.replace(parse_run_config(doc), output_dir=tmp_path / "out"))
        assert len(artifacts.trace.times) == 201
        del artifacts
        assert gc.collect() == 0
    finally:
        gc.enable()


# filter -> its step function in harness (its kernel is _OBSERVERS[filter][0])
_STEP_NAMES = {"basic": "basic_step", "imu": "imu_step", "imu_quat": "quat_imu_step"}


@pytest.mark.parametrize("filter_kind", ("both", "imu_quat"))
def test_run_calls_steps_kernels_and_evaluate_by_name(tmp_path, monkeypatch, warmed_up,
                                                      filter_kind):
    """A run calls its step functions and ``evaluate`` as attributes of
    ``harness``, and the kernels as attributes of ``_kernels``, looked up
    at call time: a wrapper put on one of those names sees one call per
    world step (steps and kernels) or per sample (``evaluate``) and
    filter.  The benchmark's traced mode counts its calls this way."""
    calls = collections.Counter()

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    for name in (*_STEP_NAMES.values(), "evaluate"):
        count(harness, name)
    for kernel, *_ in _OBSERVERS.values():
        count(_kernels, kernel)
    doc = small_run_dict(filter=filter_kind, sample_stride=30)
    doc["world"]["duration"] = 0.1
    rc = dataclasses.replace(parse_run_config(doc), output_dir=tmp_path / "out")
    k_steps = harness.run(rc).trace.u_m.shape[0]
    assert k_steps == 100
    want = collections.Counter(evaluate=len(range(0, k_steps + 1, 30)) * len(rc.filters()))
    for name in rc.filters():
        want[_STEP_NAMES[name]] = want[_OBSERVERS[name][0]] = k_steps
    assert calls == want


def test_read_csv_rejects_bad_files(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ConfigError, match="empty"):
        read_csv(empty)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b\n1.0,2.0\n3.0\n")
    with pytest.raises(ConfigError):
        read_csv(ragged)


# --------------------------------------------------------------- comparison


def test_compare_identical_files(climb_artifacts):
    deltas = compare(climb_artifacts.truth_path, climb_artifacts.truth_path)
    assert all(d.final == 0.0 and d.max == 0.0 for d in deltas)


def test_compare_filters_shows_attitude_gap(climb_artifacts):
    """On the benchmark run the IMU-aided observer pins the attitude while
    the feature-only one settles a constant offset away."""
    deltas = {
        d.column: d
        for d in compare(
            climb_artifacts.filter_paths["basic"], climb_artifacts.filter_paths["imu"]
        )
    }
    assert deltas["att_dist"].final > 0.04
    assert deltas["t"].max == 0.0


def test_compare_schema_mismatch(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("t,x\n0.0,1.0\n")
    b.write_text("t,y\n0.0,1.0\n")
    with pytest.raises(ConfigError, match="column mismatch"):
        compare(a, b)
    c = tmp_path / "c.csv"
    c.write_text("t,x\n0.0,1.0\n1.0,2.0\n")
    with pytest.raises(ConfigError, match="row count"):
        compare(a, c)


def test_compare_treats_shared_nan_as_equal(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("t,lyap\n0.0,nan\n")
    b.write_text("t,lyap\n0.0,nan\n")
    deltas = compare(a, b)
    assert deltas[1].final == 0.0 and deltas[1].max == 0.0
    # equal infinities too, without an inf - inf warning
    a.write_text("t,x,y\n0.0,inf,-inf\n1.0,inf,2.0\n")
    b.write_text("t,x,y\n0.0,inf,-inf\n1.0,inf,inf\n")
    deltas = compare(a, b)
    assert deltas[1].final == 0.0 and deltas[1].max == 0.0
    assert deltas[2].final == np.inf and deltas[2].max == np.inf
