"""End-to-end acceptance checks.

Each test prints one human-readable verdict line (visible under plain
``pytest``) and then asserts the same condition, so a red run still shows
which criterion fell over and by how much.  Runtime-budgeted criteria
charge exactly the work they consume: heavy shared phases come from the
session fixtures, which record their wall time, and one-time kernel
compilation happens in the warmup fixture before anything is measured.
"""

from __future__ import annotations

import dataclasses
import filecmp
import time

import numpy as np

from _support import (
    BENCH_KERNEL,
    BENCH_REFS,
    lyapunov_steps,
    pi_meas,
    random_rotation,
    series_exp,
    upsilon_meas,
)
from lieslam.harness import run
from lieslam.liegroup import (
    Pose,
    Twist,
    adjoint_aug,
    antisym_project,
    se3_exp,
    skew,
    so3_distance,
    so3_exp,
    upsilon,
    vex,
    wedge,
)


def _announce(capsys, num: int, label: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_algebraic_identities(capsys):
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        v, w, y, x = rng.standard_normal((4, 3))
        a = rng.standard_normal((3, 3))
        r = random_rotation(rng)
        r2 = random_rotation(rng)
        t = Pose(r2, rng.standard_normal(3) * 2.0)
        u = Twist(rng.standard_normal(3), rng.standard_normal(3))

        # cross-product realization, rotation conjugation, outer-product
        # form, trace pairing
        worst = max(worst, np.abs(skew(v) @ w - np.cross(v, w)).max())
        worst = max(worst, np.abs(skew(r @ y) - r @ skew(y) @ r.T).max())
        worst = max(worst, np.abs(skew(np.cross(y, x)) - (np.outer(x, y) - np.outer(y, x))).max())
        worst = max(worst, abs(np.trace(a @ skew(y)) + 2.0 * vex(antisym_project(a)) @ y))

        # adjoint map carried through the homogeneous representation
        lhs = wedge(Twist.from_vector(adjoint_aug(t) @ u.vector()))
        rhs = t.matrix() @ wedge(u) @ t.inverse().matrix()
        worst = max(worst, np.abs(lhs - rhs).max())

        # attitude-distance trace form
        worst = max(worst, abs((1.0 - so3_distance(r)) - 0.25 * (1.0 + np.trace(r))))

        # direction-measurement forms of the weighted attitude energy,
        # innovation, and trace estimate
        r_hat = random_rotation(rng)
        r_tilde = r_hat @ r.T
        bodies = BENCH_REFS @ r
        v_hat = BENCH_REFS @ r_hat
        energy_meas = 0.25 * (BENCH_KERNEL.weights * (1.0 - (v_hat * bodies).sum(axis=1))).sum()
        energy_alg = 0.25 * np.trace((np.eye(3) - r_tilde) @ BENCH_KERNEL.matrix)
        worst = max(worst, abs(energy_meas - energy_alg))
        innov = upsilon_meas(r_hat, BENCH_REFS, bodies, BENCH_KERNEL.weights)
        worst = max(worst, np.abs(innov - upsilon(r_tilde @ BENCH_KERNEL.matrix)).max())
        worst = max(worst, abs(pi_meas(r_hat, BENCH_REFS, bodies, BENCH_KERNEL.weights) - np.trace(r_tilde)))
    elapsed = time.perf_counter() - start

    ok = worst < 1e-9 and elapsed < 1.0
    _announce(capsys, 1, "algebraic identity suite", ok,
              f"max deviation {worst:.2e}, {elapsed:.2f}s")
    assert worst < 1e-9
    assert elapsed < 1.0


def test_criterion_2_attitude_energy_bound(capsys):
    rng = np.random.default_rng(2025)
    kernel = BENCH_KERNEL
    worst_slack = np.inf
    count = 0
    while count < 1000:
        r_tilde = random_rotation(rng)
        if np.trace(r_tilde) <= -1.0 + 1e-3:
            continue  # bounded away from the antipodal set
        count += 1
        energy = 0.25 * np.trace((np.eye(3) - r_tilde) @ kernel.matrix)
        innov = vex(antisym_project(r_tilde @ kernel.matrix))
        bound = (2.0 / kernel.lambda_min) * (innov @ innov) / (1.0 + np.trace(r_tilde))
        worst_slack = min(worst_slack, bound - energy)

    ok = worst_slack >= -1e-9
    _announce(capsys, 2, "innovation bounds attitude energy", ok,
              f"min slack {worst_slack:.2e} over 1000 rotations")
    assert worst_slack >= -1e-9


def test_criterion_3_exponential_map_oracles(capsys):
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(200):
        w = rng.standard_normal(3)
        norm = np.linalg.norm(w)
        if norm > np.pi:
            w *= np.pi / norm
        worst = max(worst, np.abs(so3_exp(w) - series_exp(skew(w), 30)).max())

        u = Twist(rng.standard_normal(3), rng.standard_normal(3) * 2.0)
        dt = rng.uniform(0.05, 0.5)
        oracle = series_exp(wedge(u) * dt, 30)
        worst = max(worst, np.abs(se3_exp(u, dt).matrix() - oracle).max())

    ok = worst < 1e-10
    _announce(capsys, 3, "closed-form exponentials vs series", ok,
              f"max deviation {worst:.2e}")
    assert worst < 1e-10


def test_criterion_4_quaternion_equivalence(capsys, phase_times, clean_imu, clean_imu_quat):
    rot_dev = np.abs(clean_imu_quat.rotations - clean_imu.rotations).max()
    pos_dev = np.abs(clean_imu_quat.positions - clean_imu.positions).max()
    budget = (phase_times["simulate_clean"] + clean_imu.wall_time
              + clean_imu_quat.wall_time)

    ok = rot_dev < 1e-4 and pos_dev < 1e-4 and budget < 10.0
    _announce(capsys, 4, "quaternion vs matrix filter", ok,
              f"rot dev {rot_dev:.2e}, pos dev {pos_dev:.2e}, {budget:.1f}s")
    assert rot_dev < 1e-4
    assert pos_dev < 1e-4
    assert budget < 10.0


def test_criterion_5_innovation_convergence(capsys, noisy_basic, noisy_imu,
                                            clean_basic, clean_imu):
    finals = {}
    window_worst = {}
    for res in (noisy_basic, noisy_imu):
        finals[res.name] = res.report.e_norms[-1].max()
        window = res.report.e_norms[res.report.t >= 38.0]
        window_worst[res.name] = window.min(axis=0).max()

    slopes = {}
    for res in (clean_basic, clean_imu):
        early = res.report.t <= 10.0
        t = res.report.t[early]
        e = np.log10(np.maximum(res.report.e_norms[early].max(axis=1), 1e-15))
        slopes[res.name] = np.polyfit(t, e, 1)[0]

    ok = (max(finals.values()) < 0.05 and max(window_worst.values()) < 0.05
          and max(slopes.values()) < 0.0)
    _announce(capsys, 5, "innovations converge", ok,
              f"final |e| basic {finals['basic']:.3f} / imu {finals['imu']:.3f} "
              f"(noisy), log-slope basic {slopes['basic']:.2f} / "
              f"imu {slopes['imu']:.2f} per s (clean)")
    assert finals["basic"] < 0.05 and finals["imu"] < 0.05
    assert window_worst["basic"] < 0.05 and window_worst["imu"] < 0.05
    assert slopes["basic"] < 0.0 and slopes["imu"] < 0.0


def test_criterion_6_attitude_contrast(capsys, phase_times, noisy_basic, noisy_imu):
    imu_att = noisy_imu.report.att_dist[-1]
    imu_feat = noisy_imu.report.feat_err[-1].max()
    basic_att = noisy_basic.report.att_dist[-1]
    basic_tail = noisy_basic.report.att_dist[noisy_basic.report.t >= 38.0]
    budget = phase_times["run_noisy"]  # the simulation, both filters and their CSVs

    ok = (imu_att < 0.01 and imu_feat < 0.5 and basic_att > 0.05
          and basic_tail.var() < 1e-4 and budget < 30.0)
    _announce(capsys, 6, "direction sensors pin the attitude", ok,
              f"att imu {imu_att:.2e} vs basic {basic_att:.3f} "
              f"(tail var {basic_tail.var():.1e}), imu feat {imu_feat:.3f} m, "
              f"{budget:.1f}s")
    assert imu_att < 0.01
    assert imu_feat < 0.5
    assert basic_att > 0.05
    assert basic_tail.var() < 1e-4
    assert budget < 30.0


def test_criterion_7_energy_monotonicity(capsys, clean_trace, clean_rc, clean_rc_simplified,
                                         clean_basic, clean_imu, clean_imu_simplified):
    rises = {
        label: float(np.diff(lyapunov_steps(clean_trace, rc, res)).max())
        for label, rc, res in (("basic", clean_rc, clean_basic), ("imu", clean_rc, clean_imu),
                               ("imu_simplified", clean_rc_simplified, clean_imu_simplified))
    }
    worst = max(rises.values())

    ok = worst <= 1e-6
    _announce(capsys, 7, "energy is monotone step to step", ok,
              "max rise " + ", ".join(f"{k} {v:.1e}" for k, v in rises.items()))
    assert worst <= 1e-6


def test_criterion_8_bias_recovery(capsys, clean_imu):
    final = clean_imu.report.bias_err[-1]

    ok = final < 0.02
    _announce(capsys, 8, "velocity bias recovered", ok,
              f"final |b - b-hat| {final:.2e}")
    assert final < 0.02


def test_criterion_9_determinism(capsys, climb_rc, climb_artifacts, tmp_path):
    rerun = run(dataclasses.replace(climb_rc, output_dir=tmp_path / "again"))
    pairs = [(climb_artifacts.truth_path, rerun.truth_path)]
    pairs += [(climb_artifacts.filter_paths[n], rerun.filter_paths[n])
              for n in climb_artifacts.filter_paths]
    pairs += [(climb_artifacts.estimate_paths[n], rerun.estimate_paths[n])
              for n in climb_artifacts.estimate_paths]
    identical = all(filecmp.cmp(a, b, shallow=False) for a, b in pairs)

    _announce(capsys, 9, "identical config gives identical bytes", identical,
              f"{len(pairs)} files compared")
    assert identical
