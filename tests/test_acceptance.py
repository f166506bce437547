"""Acceptance suite: end-to-end behavioural contract of the package.

Each test prints one `[criterion NN] name: PASS/FAIL detail` line so a
verbose run (`pytest tests/test_acceptance.py -v -s`) doubles as a
checklist.  The street pair (120 reference / 90 observed frames with a
stop, a shadow band and a parked vehicle) is aligned once per mode in a
module fixture and shared across criteria.
"""

import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from roadalign.evaluate import ContingencyTable, metrics
from roadalign.imagecore import load_mask
from roadalign.pipeline import list_frames, run_align, run_eval, run_groundtruth
from roadalign.spatial import (CameraIntrinsics, RotationParams, lk_align,
                               ssd_gradient, ssd_objective, warp_image,
                               warp_mask)
from roadalign.synth import RideSpec, SceneSpec, make_pair
from roadalign.temporal import SyncConfig, fixed_lag_infer
from roadalign.transfer import otsu_threshold

from helpers import brute_force_map, naive_otsu, textured_image


def _report(num, name, ok, detail):
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num:02d} ({name}): {detail}"


@pytest.fixture(scope="module")
def street_runs(street_pair, street_cfg, tmp_path_factory):
    """Align the street pair three ways: refined, unrefined, gray."""
    out = tmp_path_factory.mktemp("acceptance")
    runs = SimpleNamespace(pair=street_pair, cfg=street_cfg, dirs={})

    emissions = []
    t0 = time.perf_counter()
    runs.refined = run_align(street_pair.ref, street_pair.obs,
                             out / "refined", street_cfg, refine=True,
                             on_emit=lambda t, e: emissions.append((t, e)))
    runs.align_seconds = time.perf_counter() - t0
    runs.emissions = emissions
    runs.dirs["refined"] = out / "refined"

    runs.unrefined = run_align(street_pair.ref, street_pair.obs,
                               out / "unrefined", street_cfg, refine=False)
    runs.dirs["unrefined"] = out / "unrefined"

    gray_cfg = replace(street_cfg, feature_space="gray", diff_space="gray")
    runs.gray = run_align(street_pair.ref, street_pair.obs, out / "gray",
                          gray_cfg, refine=False)

    t0 = time.perf_counter()
    _, runs.agg_refined = run_eval(out / "refined", street_pair.obs)
    runs.eval_seconds = time.perf_counter() - t0
    _, runs.agg_unrefined = run_eval(out / "unrefined", street_pair.obs)
    runs.frame_count = len(list_frames(street_pair.obs))
    return runs


@pytest.fixture(scope="module")
def swap_runs(tmp_path_factory):
    """A symmetric pair (same track and speed, different jitter) decoded
    in both directions in ground-truth mode."""
    root = tmp_path_factory.mktemp("swap")
    scene = SceneSpec(seed=21, track_points=((0.0, 0.0), (0.5, 20.0)),
                      road_width=4.0, image_width=120, image_height=90,
                      focal_px=110.0, theta=0.7, frames=50)
    jit_a = np.random.default_rng([21, 5]).uniform(-0.004, 0.004, (50, 3))
    jit_b = np.random.default_rng([21, 6]).uniform(-0.004, 0.004, (50, 3))
    ride_a = RideSpec(jitter=tuple(map(tuple, jit_a)))
    ride_b = RideSpec(jitter=tuple(map(tuple, jit_b)))
    make_pair(scene, ride_a, ride_b, root)

    from roadalign.config import PipelineConfig
    cfg = PipelineConfig.load(root / "scene.cfg")
    fwd_rows = run_groundtruth(root / "ref", root / "obs", root / "fwd", cfg)
    _, agg_fwd = run_eval(root / "fwd", root / "obs")
    rev_rows = run_groundtruth(root / "obs", root / "ref", root / "rev", cfg)
    _, agg_rev = run_eval(root / "rev", root / "ref")
    return SimpleNamespace(fwd_rows=fwd_rows, rev_rows=rev_rows,
                           agg_fwd=agg_fwd, agg_rev=agg_rev)


def _sync_error(rows, truth):
    errs = [abs((r.label - 1) - truth.correspondence[r.observed_index])
            for r in rows]
    return float(np.mean(errs))


def test_criterion_01_fixed_lag_matches_brute_force():
    rng = np.random.default_rng(4021)
    t0 = time.perf_counter()
    agree = 0
    trials = 1000
    for _ in range(trials):
        n = int(rng.integers(1, 7))
        rows = int(rng.integers(1, 6))
        lag = int(rng.integers(0, 5))
        table = rng.uniform(0.05, 1.0, size=(rows, n))
        cfg = SyncConfig(lag_l=lag,
                         window_L=max(lag, rows - 1, 1),
                         beta=float(rng.uniform(0.5, 1.5)))
        label, _ = fixed_lag_infer(table, cfg)
        seq = brute_force_map(table, cfg)
        lag_index = max(0, rows - 1 - lag)
        agree += int(label == seq[lag_index])
    elapsed = time.perf_counter() - t0
    ok = agree == trials and elapsed < 10.0
    _report(1, "fixed-lag label equals joint MAP label", ok,
            f"({agree}/{trials} agree, {elapsed:.1f}s)")


def test_criterion_02_emitted_labels_never_decrease(street_runs, swap_runs):
    sequences = {
        "refined": [r.label for r in street_runs.refined],
        "unrefined": [r.label for r in street_runs.unrefined],
        "gray": [r.label for r in street_runs.gray],
        "swap-fwd": [r.label for r in swap_runs.fwd_rows],
        "swap-rev": [r.label for r in swap_runs.rev_rows],
    }
    bad = [name for name, seq in sequences.items()
           if any(b < a for a, b in zip(seq, seq[1:]))]
    ok = not bad
    _report(2, "emitted label sequences are non-decreasing", ok,
            f"({sum(len(s) for s in sequences.values())} labels in "
            f"{len(sequences)} runs" + (f"; violations in {bad}" if bad
                                        else "") + ")")


def test_criterion_03_sync_error_within_budget(street_runs):
    err = _sync_error(street_runs.refined, street_runs.pair.truth)
    elapsed = street_runs.align_seconds
    ok = err <= 1.5 and elapsed < 60.0
    _report(3, "mean sync error on the street pair", ok,
            f"(mean |label-truth| = {err:.3f} frames <= 1.5, "
            f"align {elapsed:.1f}s)")


def test_criterion_04_invariant_beats_gray_under_shadows(street_runs):
    err_inv = _sync_error(street_runs.refined, street_runs.pair.truth)
    err_gray = _sync_error(street_runs.gray, street_runs.pair.truth)
    ok = err_inv <= err_gray
    _report(4, "shadow-invariant features sync at least as well as gray",
            ok, f"(invariant {err_inv:.3f} <= gray {err_gray:.3f} frames)")


def test_criterion_05_rotation_recovery_and_gradient():
    intr = CameraIntrinsics(500.0, 79.5, 59.5)
    rng = np.random.default_rng(505)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(50):
        ref = textured_image(7000 + trial, (120, 160))
        omega_true = RotationParams(*rng.uniform(-0.01, 0.01, 3))
        obs, _ = warp_image(ref, omega_true, intr)
        est, _ = lk_align(ref, obs, intr)
        worst = max(worst, float(
            np.abs(est.as_array() - omega_true.as_array()).max()))

    worst_rel = 0.0
    eps = 1e-6
    for trial in range(5):
        ref = textured_image(7500 + trial, (120, 160))
        obs, _ = warp_image(ref, RotationParams(*rng.uniform(-0.01, 0.01, 3)),
                            intr)
        grad = ssd_gradient(ref, obs, RotationParams(), intr)
        for axis in range(3):
            step = np.zeros(3)
            step[axis] = eps
            hi, _ = ssd_objective(ref, obs, RotationParams(*step), intr)
            lo, _ = ssd_objective(ref, obs, RotationParams(*(-step)), intr)
            fd = (hi - lo) / (2 * eps)
            worst_rel = max(worst_rel, abs(grad[axis] - fd) / abs(fd))
    elapsed = time.perf_counter() - t0
    ok = worst <= 2e-4 and worst_rel < 1e-4 and elapsed < 60.0
    _report(5, "rotation recovery and analytic gradient", ok,
            f"(worst angle error {worst:.2e} <= 2e-4, worst gradient "
            f"rel. err {worst_rel:.2e} < 1e-4, {elapsed:.1f}s)")


def test_criterion_06_refinement_never_hurts(street_runs):
    gains = []
    for name in ("quality", "specificity", "accuracy"):
        gains.append((name, street_runs.agg_refined[name][0],
                      street_runs.agg_unrefined[name][0]))
    metric_ok = all(r >= u for _, r, u in gains)

    intr = street_runs.cfg.intrinsics(160, 120)
    subset_ok = True
    for row in street_runs.refined:
        refined = load_mask(street_runs.dirs["refined"]
                            / f"mask_{row.observed_index:06d}.pgm")
        ref_mask = load_mask(street_runs.pair.ref
                             / f"mask_{row.label - 1:06d}.pgm")
        transferred = warp_mask(ref_mask, row.omega, intr)
        if not np.all(~refined | transferred):
            subset_ok = False
            break
    ok = metric_ok and subset_ok
    detail = ", ".join(f"{n} {r:.4f}>={u:.4f}" for n, r, u in gains)
    _report(6, "refined masks beat raw transfer and stay inside it", ok,
            f"({detail}; subset {'holds' if subset_ok else 'violated'})")


def test_criterion_07_end_to_end_quality(street_runs):
    g_mean = street_runs.agg_refined["quality"][0]
    elapsed = street_runs.align_seconds + street_runs.eval_seconds
    ok = g_mean >= 0.90 and elapsed < 120.0
    _report(7, "refined street-pair quality", ok,
            f"(mean quality {g_mean:.4f} >= 0.90, align+eval "
            f"{elapsed:.1f}s)")


def test_criterion_08_swap_symmetry(swap_runs):
    g_fwd = swap_runs.agg_fwd["quality"][0]
    g_rev = swap_runs.agg_rev["quality"][0]
    diff = abs(g_fwd - g_rev)
    ok = diff <= 0.02
    _report(8, "role swap leaves quality unchanged", ok,
            f"(forward {g_fwd:.4f} vs reverse {g_rev:.4f}, "
            f"|diff| {diff:.4f} <= 0.02)")


def test_criterion_09_threshold_matches_exhaustive_search():
    rng = np.random.default_rng(909)
    mismatches = 0
    for trial in range(200):
        kind = trial % 3
        size = int(rng.integers(30, 300))
        if kind == 0:
            values = rng.uniform(0.0, 1.0, size)
        elif kind == 1:
            lo = rng.normal(0.25, 0.08, size)
            hi = rng.normal(0.75, 0.08, int(rng.integers(10, 200)))
            values = np.clip(np.concatenate([lo, hi]), 0.0, 1.0)
        else:
            values = rng.uniform(0.0, 1.0, (int(rng.integers(5, 20)),
                                            int(rng.integers(5, 20))))
        bins = int(rng.choice([16, 64, 256]))
        if otsu_threshold(values, bins=bins) != naive_otsu(values, bins=bins):
            mismatches += 1
    ok = mismatches == 0
    _report(9, "threshold equals exhaustive variance search", ok,
            f"({200 - mismatches}/200 images agree exactly)")


def test_criterion_10_metric_arithmetic():
    m = metrics(ContingencyTable(tp=50, fp=10, fn=10, tn=30))
    got = (round(m.quality, 4), round(m.accuracy, 4),
           round(m.sensitivity, 4), round(m.specificity, 4))
    want = (0.7143, 0.8, 0.8333, 0.75)
    ok = got == want
    _report(10, "pixel metric arithmetic on a hand case", ok,
            f"(quality/accuracy/sensitivity/specificity {got} == {want})")


def test_criterion_11_fixed_lag_latency(street_runs):
    lag = street_runs.cfg.lag
    offsets = {push - e.observed_index for push, e in street_runs.emissions}
    count_ok = len(street_runs.emissions) == street_runs.frame_count - lag
    ok = offsets == {lag} and count_ok
    _report(11, "mask for frame t emitted while processing frame t+lag", ok,
            f"(lag {lag}, offsets {sorted(offsets)}, "
            f"{len(street_runs.emissions)} emissions from "
            f"{street_runs.frame_count} frames)")
