import dataclasses
import math
import shutil

import numpy as np
import pytest
from helpers import similarity

from roadalign import _kernels, pipeline
from roadalign.config import PipelineConfig
from roadalign.descriptor import compute_descriptor
from roadalign.errors import AlignmentError, DataError
from roadalign.imagecore import (load_image, load_mask, save_image_rgb,
                                 save_mask)
from roadalign.invariant import InvariantDirection
from roadalign.pipeline import (SYNC_HEADER, AlignRow, convert_frame,
                                list_frames, list_masks, load_reference,
                                run_align, run_eval, run_groundtruth)
from roadalign.spatial import RotationParams
from roadalign.transfer import transfer_and_refine


@pytest.fixture(scope="module")
def mini_cfg(mini_pair):
    return PipelineConfig.load(mini_pair.root / "scene.cfg")


def test_list_frames_sorted_and_validated(mini_pair, tmp_path):
    frames = list_frames(mini_pair.ref)
    assert [i for i, _ in frames] == list(range(18))
    assert all(p.name == f"frame_{i:06d}.ppm" for i, p in frames)
    masks = list_masks(mini_pair.ref)
    assert len(masks) == 18
    with pytest.raises(DataError, match="no frame files"):
        list_frames(tmp_path)
    with pytest.raises(DataError, match="not a directory"):
        list_frames(tmp_path / "nope")


def test_convert_frame_spaces():
    rgb = 0.1 + 0.8 * np.random.default_rng(70).random((6, 8, 3))
    direction = InvariantDirection(0.7)
    inv = convert_frame(rgb, "invariant", direction)
    assert inv.shape == (6, 8)
    gray = convert_frame(rgb, "gray", direction)
    assert gray.shape == (6, 8)
    assert not np.allclose(inv, gray)
    already = convert_frame(gray, "gray", direction)
    assert np.array_equal(already, gray)
    # runs reject gray frames in the invariant space before converting
    with pytest.raises(ValueError):
        convert_frame(gray, "invariant", direction)


def test_load_reference_builds_bank(mini_pair, mini_cfg):
    ref = load_reference(mini_pair.ref, mini_cfg)
    assert len(ref.feature) == len(ref.masks) == len(ref.bank) == 18
    assert ref.feature[0].shape == (60, 80)


def test_load_reference_stores_float32_frames_and_one_bit_masks(mini_pair,
                                                               mini_cfg):
    ref = load_reference(mini_pair.ref, mini_cfg)
    h, w = ref.shape
    stored = {id(a): a for a in [*ref.feature, *ref.masks]}
    assert (sum(a.nbytes for a in stored.values())
            == len(ref.bank) * (4 * h * w + math.ceil(h * w / 8)))
    direction = InvariantDirection(mini_cfg.theta)
    pairs = zip(list_frames(mini_pair.ref), list_masks(mini_pair.ref))
    for label, ((_, frame_path), (_, mask_path)) in enumerate(pairs, 1):
        image = convert_frame(load_image(frame_path), mini_cfg.feature_space,
                              direction)
        frame = ref.frame(label)
        assert frame.dtype == np.float32 and not frame.flags.writeable
        assert np.array_equal(frame, image.astype(np.float32))
        mask = ref.mask(label)
        assert mask.dtype == bool and np.array_equal(mask, load_mask(mask_path))
        # the bank describes the float64 image, not the stored frame
        assert np.array_equal(ref.bank.matrix[label - 1], compute_descriptor(
            image, mini_cfg.smooth_sigma, mini_cfg.downsample_factor).ravel())


def test_load_reference_requires_masks(tmp_path, mini_cfg):
    rng = np.random.default_rng(71)
    save_image_rgb(0.1 + 0.8 * rng.random((60, 80, 3)),
                   tmp_path / "frame_000000.ppm")
    with pytest.raises(DataError, match="missing reference mask"):
        load_reference(tmp_path, mini_cfg)


def test_align_row_formatting():
    row = AlignRow(3, 7, 0.25, RotationParams(0.001, -0.002, 0.0), math.nan)
    assert row.csv_line() == "3,7,0.25,0.001,-0.002,0,nan"
    assert SYNC_HEADER.count(",") == row.csv_line().count(",")


def test_run_align_self_alignment(mini_pair, mini_cfg, tmp_path):
    seen = []
    rows = run_align(mini_pair.ref, mini_pair.ref, tmp_path / "out", mini_cfg,
                     on_emit=lambda t, e: seen.append((t, e)))
    assert len(rows) == 18 - mini_cfg.lag
    assert [r.observed_index for r in rows] == list(range(13))
    # a ride aligned against itself recovers the identity labeling
    assert [r.label for r in rows] == [i + 1 for i in range(13)]
    for r in rows:
        assert abs(r.omega.omega_x) < 1e-6
        assert r.residual == 0.0
    # emissions arrive exactly lag frames after the observed frame
    assert all(t - mini_cfg.lag == e.observed_index for t, e in seen)

    csv_lines = (tmp_path / "out" / "sync.csv").read_text().splitlines()
    assert csv_lines[0] == SYNC_HEADER
    assert len(csv_lines) == 1 + len(rows)
    for r in rows:
        mask = load_mask(tmp_path / "out" / f"mask_{r.observed_index:06d}.pgm")
        truth = load_mask(mini_pair.ref / f"mask_{r.observed_index:06d}.pgm")
        assert np.array_equal(mask, truth)
    # trailing lag frames never get a mask in on-line mode
    assert not (tmp_path / "out" / "mask_000013.pgm").exists()


def _copy_frames(src, dst, names):
    """Copy observed frames src/frame_<k> to dst/frame_<names[k]>."""
    dst.mkdir()
    for k, name in names.items():
        shutil.copy(src / f"frame_{k:06d}.ppm", dst / f"frame_{name:06d}.ppm")
    return dst


def _assert_same_alignment(base_out, base_rows, out, rows, names):
    """rows/out match base_rows/base_out with frame k renamed names[k]."""
    assert [r.observed_index for r in rows] == [
        names[r.observed_index] for r in base_rows]
    assert [(r.label, r.score, r.omega) for r in rows] == [
        (r.label, r.score, r.omega) for r in base_rows]
    for r in base_rows:
        name = names[r.observed_index]
        assert ((out / f"mask_{name:06d}.pgm").read_bytes()
                == (base_out / f"mask_{r.observed_index:06d}.pgm").read_bytes())
    written = sorted(p.name for p in out.glob("mask_*.pgm"))
    assert written == sorted(f"mask_{names[r.observed_index]:06d}.pgm"
                             for r in base_rows)
    csv = (out / "sync.csv").read_text().splitlines()
    assert csv[1:] == [r.csv_line() for r in rows]


def test_run_align_frame_numbers_from_100(mini_pair, mini_cfg, tmp_path):
    names = {k: 100 + k for k in range(14)}
    obs = _copy_frames(mini_pair.obs, tmp_path / "obs", names)
    base_rows = run_align(mini_pair.ref, mini_pair.obs, tmp_path / "base",
                          mini_cfg)
    rows = run_align(mini_pair.ref, obs, tmp_path / "out", mini_cfg)
    assert len(rows) == 14 - mini_cfg.lag
    _assert_same_alignment(tmp_path / "base", base_rows, tmp_path / "out",
                           rows, names)


def test_run_align_missing_frame(mini_pair, mini_cfg, tmp_path):
    # frame 3 is missing on disk; the stream is the other 13 frames
    kept = [k for k in range(14) if k != 3]
    gapped = _copy_frames(mini_pair.obs, tmp_path / "gapped",
                          {k: k for k in kept})
    contiguous = _copy_frames(mini_pair.obs, tmp_path / "contiguous",
                              {k: pos for pos, k in enumerate(kept)})
    base_rows = run_align(mini_pair.ref, contiguous, tmp_path / "base",
                          mini_cfg)
    rows = run_align(mini_pair.ref, gapped, tmp_path / "out", mini_cfg)
    assert len(rows) == 13 - mini_cfg.lag
    _assert_same_alignment(tmp_path / "base", base_rows, tmp_path / "out",
                           rows, dict(enumerate(kept)))


def test_run_groundtruth_masks_every_frame(mini_pair, mini_cfg, tmp_path,
                                           caplog):
    with caplog.at_level("WARNING"):
        rows = run_groundtruth(mini_pair.ref, mini_pair.obs, tmp_path / "gt",
                               mini_cfg)
    # the default band of 30 applies to align only and draws no warning
    assert "band" not in caplog.text
    assert len(rows) == 14
    assert [r.observed_index for r in rows] == list(range(14))
    labels = [r.label for r in rows]
    assert np.all(np.diff(labels) >= 0)
    # the observed ride moves ~3.5x faster than the reference
    truth_labels = mini_pair.truth.correspondence + 1
    assert np.abs(np.array(labels) - truth_labels).mean() <= 1.0
    for t in range(14):
        assert (tmp_path / "gt" / f"mask_{t:06d}.pgm").exists()


def test_run_align_reference_numbered_from_100_with_a_gap(mini_pair, mini_cfg,
                                                         tmp_path):
    # reference frame k is frame_<100 + k>, and frame_000105 is absent;
    # labels name frames by on-disk order, so nothing else changes
    ref = tmp_path / "ref"
    ref.mkdir()
    for k in range(18):
        name = 100 + k + (k >= 5)
        for kind, ext in (("frame", "ppm"), ("mask", "pgm")):
            shutil.copy(mini_pair.ref / f"{kind}_{k:06d}.{ext}",
                        ref / f"{kind}_{name:06d}.{ext}")
    run_align(mini_pair.ref, mini_pair.obs, tmp_path / "base", mini_cfg)
    rows = run_align(ref, mini_pair.obs, tmp_path / "out", mini_cfg)
    assert len(rows) == 14 - mini_cfg.lag
    for name in ["sync.csv"] + [f"mask_{r.observed_index:06d}.pgm"
                                for r in rows]:
        assert ((tmp_path / "out" / name).read_bytes()
                == (tmp_path / "base" / name).read_bytes())


def test_run_align_unpadded_reference_names(mini_pair, mini_cfg, tmp_path):
    # reference frame k is frame_<k>.ppm and its mask mask_<k>.pgm; a mask
    # belongs to the frame of its number, padded or not
    ref = tmp_path / "ref"
    ref.mkdir()
    for k in range(18):
        for kind, ext in (("frame", "ppm"), ("mask", "pgm")):
            shutil.copy(mini_pair.ref / f"{kind}_{k:06d}.{ext}",
                        ref / f"{kind}_{k}.{ext}")
    run_align(mini_pair.ref, mini_pair.obs, tmp_path / "base", mini_cfg)
    rows = run_align(ref, mini_pair.obs, tmp_path / "out", mini_cfg)
    assert len(rows) == 14 - mini_cfg.lag
    for name in ["sync.csv"] + [f"mask_{r.observed_index:06d}.pgm"
                                for r in rows]:
        assert ((tmp_path / "out" / name).read_bytes()
                == (tmp_path / "base" / name).read_bytes())


def test_clamped_pyramid_warns_once_per_run(mini_pair, mini_cfg, tmp_path,
                                            caplog):
    # 60x80 frames hold two pyramid levels; the scene file asks for two
    assert mini_cfg.pyramid_levels == 2
    deep = dataclasses.replace(mini_cfg, pyramid_levels=3)
    with caplog.at_level("WARNING"):
        rows = run_align(mini_pair.ref, mini_pair.obs, tmp_path / "deep", deep)
    clamped = [r for r in caplog.records if "clamped" in r.getMessage()]
    assert len(clamped) == 1
    assert len(rows) == 14 - mini_cfg.lag
    run_align(mini_pair.ref, mini_pair.obs, tmp_path / "two", mini_cfg)
    for name in ["sync.csv"] + [f"mask_{r.observed_index:06d}.pgm"
                                for r in rows]:
        assert ((tmp_path / "deep" / name).read_bytes()
                == (tmp_path / "two" / name).read_bytes())


def _assert_masks_are_fresh_transfers(mini_pair, cfg, out, rows):
    """Each row's mask equals `transfer_and_refine` from the stored
    reference frame and mask at the row's rotation, warped anew."""
    ref = load_reference(mini_pair.ref, cfg)
    direction = InvariantDirection(cfg.theta)
    intrinsics = cfg.intrinsics(ref.shape[1], ref.shape[0])
    for r in rows:
        obs = convert_frame(
            load_image(mini_pair.obs / f"frame_{r.observed_index:06d}.ppm"),
            cfg.feature_space, direction)
        expected = transfer_and_refine(
            ref.mask(r.label), ref.frame(r.label), obs, r.omega, intrinsics)
        mask = load_mask(out / f"mask_{r.observed_index:06d}.pgm")
        assert np.array_equal(mask, expected)


@pytest.mark.parametrize("feature_space", ["invariant", "gray"])
def test_align_masks_equal_a_fresh_transfer(mini_pair, mini_cfg, tmp_path,
                                            feature_space):
    # each mask is the transfer recomputed from the row's rotation with a
    # warp of its own, in place of the LK warp the run reuses
    cfg = dataclasses.replace(mini_cfg, feature_space=feature_space)
    rows = run_align(mini_pair.ref, mini_pair.obs, tmp_path / "out", cfg)
    assert len(rows) == 14 - cfg.lag
    _assert_masks_are_fresh_transfers(mini_pair, cfg, tmp_path / "out", rows)


def test_identity_fallback_transfers_from_the_stored_float32_frame(
        mini_pair, mini_cfg, tmp_path, monkeypatch):
    def textureless(*args):
        raise AlignmentError("singular normal equations (textureless input)")

    monkeypatch.setattr(pipeline, "lk_align", textureless)
    rows = run_align(mini_pair.ref, mini_pair.obs, tmp_path / "out", mini_cfg)
    assert len(rows) == 14 - mini_cfg.lag
    assert all(math.isnan(r.residual) and r.omega == RotationParams()
               for r in rows)
    _assert_masks_are_fresh_transfers(mini_pair, mini_cfg, tmp_path / "out",
                                      rows)


def test_align_warps_each_reference_frame_once_per_candidate(
        mini_pair, mini_cfg, tmp_path, monkeypatch):
    # the refinement takes LK's final warp instead of warping again
    calls = {"warp_bilinear": 0, "warp_sse": 0}
    for name in calls:
        fn = getattr(_kernels, name)

        def counted(*args, name=name, fn=fn):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(_kernels, name, counted)
    rows = run_align(mini_pair.ref, mini_pair.obs, tmp_path / "out", mini_cfg)
    assert all(not math.isnan(r.residual) for r in rows)  # no fallback
    assert calls["warp_sse"] > 0
    # registration warps only through warp_sse, and the refinement
    # takes its final warp, so no frame is warped a second time
    assert calls["warp_bilinear"] == 0


def test_align_registers_in_float32(mini_pair, mini_cfg, tmp_path,
                                    monkeypatch):
    # a stray float64 scalar would promote the whole registration to
    # float64 without failing anything else
    lk_accumulate = _kernels.lk_accumulate
    dtypes = set()

    def spied(warped, valid, resid, *args):
        dtypes.update((warped.dtype, resid.dtype))
        return lk_accumulate(warped, valid, resid, *args)

    monkeypatch.setattr(_kernels, "lk_accumulate", spied)
    run_align(mini_pair.ref, mini_pair.obs, tmp_path / "out", mini_cfg)
    assert dtypes == {np.dtype(np.float32)}


@pytest.mark.parametrize("run", [run_align, run_groundtruth])
def test_sync_csv_score_is_the_frames_observation_term(run, mini_pair,
                                                       mini_cfg, tmp_path):
    # in both modes, a row's score is its own frame's term at its label,
    # -(1 - similarity)**2, and 0 for a perfect match; sync.csv holds
    # it to 9 significant digits
    rows = run(mini_pair.ref, mini_pair.obs, tmp_path / "out", mini_cfg)
    assert len(rows) >= 14 - mini_cfg.lag
    assert (tmp_path / "out" / "sync.csv").read_text().splitlines()[1:] == \
        [r.csv_line() for r in rows]
    direction = InvariantDirection(mini_cfg.theta)

    def descriptor(path):
        return compute_descriptor(convert_frame(
            load_image(path), mini_cfg.feature_space, direction),
            mini_cfg.smooth_sigma, mini_cfg.downsample_factor)

    ref = [descriptor(path) for _, path in list_frames(mini_pair.ref)]
    for r in rows:
        obs = descriptor(mini_pair.obs / f"frame_{r.observed_index:06d}.ppm")
        want = -(1.0 - similarity(obs, ref[r.label - 1])) ** 2
        assert r.score == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("run", [run_align, run_groundtruth])
def test_frame_size_mismatch_is_a_data_error(run, mini_pair, mini_cfg,
                                             tmp_path):
    # the observed ride is 96 px wide, the reference ride 80 px
    obs = tmp_path / "obs"
    obs.mkdir()
    for _, path in list_frames(mini_pair.obs):
        wide = np.pad(load_image(path), ((0, 0), (8, 8), (0, 0)), mode="edge")
        save_image_rgb(wide, obs / path.name)
    with pytest.raises(DataError, match=r"frame_000000\.ppm: frame is 96x60"):
        run(mini_pair.ref, obs, tmp_path / "out", mini_cfg)
    assert not list((tmp_path / "out").glob("mask_*.pgm"))


def test_reference_mask_size_mismatch_names_the_mask(mini_pair, mini_cfg,
                                                     tmp_path):
    ref = tmp_path / "ref"
    ref.mkdir()
    for path in mini_pair.ref.iterdir():
        (ref / path.name).write_bytes(path.read_bytes())
    save_mask(np.ones((10, 10), dtype=bool), ref / "mask_000003.pgm")
    with pytest.raises(DataError, match=r"mask_000003\.pgm: mask is 10x10, "
                                        r"its frame .*frame_000003\.ppm is 80x60"):
        load_reference(ref, mini_cfg)


def test_run_eval_identity_and_outputs(mini_pair, tmp_path):
    per_frame, agg = run_eval(mini_pair.ref, mini_pair.ref, tmp_path / "m")
    assert len(per_frame) == 18
    assert agg["quality"] == (1.0, 0.0)
    assert agg["accuracy"] == (1.0, 0.0)
    text = (tmp_path / "m" / "metrics.csv").read_text().splitlines()
    assert text[0] == "frame,quality,accuracy,sensitivity,specificity"
    assert text[1].startswith("0,1.000000,")
    assert text[-1] == "summary,1.0000±0.0000,1.0000±0.0000,1.0000±0.0000,1.0000±0.0000"


def test_run_eval_requires_matching_truth(mini_pair, tmp_path):
    subset = tmp_path / "subset"
    subset.mkdir()
    mask = load_mask(mini_pair.ref / "mask_000000.pgm")
    save_mask(mask, subset / "mask_000000.pgm")
    # evaluating a subset of frames against the full truth is fine
    per_frame, _ = run_eval(subset, mini_pair.ref)
    assert len(per_frame) == 1
    # but a result frame without truth is an error
    save_mask(mask, subset / "mask_000099.pgm")
    with pytest.raises(DataError, match="no truth mask for frame"):
        run_eval(subset, mini_pair.ref)


def test_run_eval_rejects_shape_mismatch(mini_pair, tmp_path):
    bad = tmp_path / "bad"
    bad.mkdir()
    save_mask(np.ones((10, 10), dtype=bool), bad / "mask_000000.pgm")
    with pytest.raises(DataError, match="shape mismatch"):
        run_eval(bad, mini_pair.ref)
