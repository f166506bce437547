import numpy as np
import pytest

from roadalign import pipeline
from roadalign.cli import PRESET_NAMES, main
from roadalign.imagecore import (load_image, load_mask, save_image_rgb,
                                 save_mask)


def _inverted_masks(src_dir, dst_dir, count):
    dst_dir.mkdir()
    for t in range(count):
        mask = load_mask(src_dir / f"mask_{t:06d}.pgm")
        save_mask(~mask, dst_dir / f"mask_{t:06d}.pgm")


def test_no_arguments_is_a_usage_error(capsys):
    assert main([]) == 1
    assert "usage error" in capsys.readouterr().err


def test_unknown_subcommand_is_a_usage_error(capsys):
    assert main(["frobnicate"]) == 1


def test_synth_preset_layout(tmp_path, capsys):
    assert main(["synth", "mini", str(tmp_path / "d")]) == 0
    out = capsys.readouterr().out
    assert "18 reference + 14 observed" in out
    assert len(list((tmp_path / "d" / "ref").glob("frame_*.ppm"))) == 18
    assert len(list((tmp_path / "d" / "obs").glob("frame_*.ppm"))) == 14
    assert (tmp_path / "d" / "scene.cfg").is_file()
    assert (tmp_path / "d" / "truth_correspondence.csv").is_file()


def test_synth_spec_file_overrides_preset(tmp_path, capsys):
    spec = tmp_path / "custom.cfg"
    spec.write_text("preset=mini\nimage_width=64\nimage_height=48\n"
                    "seed=3\nnoise_sigma=0.01\n")
    assert main(["synth", str(spec), str(tmp_path / "d")]) == 0
    assert len(list((tmp_path / "d" / "ref").glob("frame_*.ppm"))) == 18
    assert len(list((tmp_path / "d" / "obs").glob("frame_*.ppm"))) == 14
    img = load_image(tmp_path / "d" / "obs" / "frame_000000.ppm")
    assert img.shape == (48, 64, 3)


def test_synth_unknown_preset_fails(tmp_path, capsys):
    assert main(["synth", "boulevard", str(tmp_path / "d")]) == 2
    assert "unknown preset" in capsys.readouterr().err
    spec = tmp_path / "bad.cfg"
    spec.write_text("preset=nowhere\n")
    assert main(["synth", str(spec), str(tmp_path / "d")]) == 2
    spec.write_text("preset=mini\nroad_width=wide\n")
    assert main(["synth", str(spec), str(tmp_path / "d")]) == 2


def test_preset_names_are_the_presets():
    from roadalign.synth import PRESETS
    assert sorted(PRESET_NAMES) == sorted(PRESETS)


def _synth_spec(tmp_path, text):
    spec = tmp_path / "spec.cfg"
    spec.write_text(text)
    return main(["synth", str(spec), str(tmp_path / "d")])


@pytest.mark.parametrize("line, near", [
    ("focal=100", "focal_px"), ("image_widht=64", "image_width"),
    # frame counts are fixed by the preset's schedules
    ("frames=30", None)])
def test_synth_spec_unknown_key_is_a_config_error(tmp_path, capsys, line,
                                                  near):
    assert _synth_spec(tmp_path, f"preset=mini\n{line}\n") == 2
    err = capsys.readouterr().err
    assert f"unknown spec key {line.split('=')[0]!r}" in err
    if near is not None:
        assert f"did you mean {near!r}" in err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("line", [
    # out of range
    "focal_px=-3", "gain=2", "image_width=1",
    # not finite
    "theta=nan", "focal_px=inf", "road_width=inf", "noise_sigma=nan"])
def test_synth_spec_bad_value_is_a_config_error(tmp_path, capsys, line):
    assert _synth_spec(tmp_path, f"preset=mini\n{line}\n") == 2
    assert f"bad value in {tmp_path / 'spec.cfg'}: {line.split('=')[0]}" \
        in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("stray", ["ref/frame_000050.ppm",
                                   "obs/mask_000014.pgm"])
def test_synth_refuses_files_of_another_render(tmp_path, capsys, stray):
    # mini writes frames 0-17 to ref/ and 0-13 to obs/; a run would pair
    # the stray file with them
    path = tmp_path / "d" / stray
    path.parent.mkdir(parents=True)
    path.write_bytes(b"not this render's")
    assert main(["synth", "mini", str(tmp_path / "d")]) == 2
    assert str(path) in capsys.readouterr().err
    assert path.read_bytes() == b"not this render's"
    assert [p for p in (tmp_path / "d").rglob("*") if p.is_file()] == [path]


@pytest.mark.parametrize("width, height", [(8, 8), (8, 12), (40, 8)])
def test_synth_refuses_frames_its_scene_cfg_cannot_align(tmp_path, capsys,
                                                          width, height):
    # scene.cfg sets downsample_factor=8; a side of 8 gives one cell
    code = _synth_spec(tmp_path, f"preset=mini\nimage_width={width}\n"
                                 f"image_height={height}\n")
    assert code == 2
    assert "must be at least 9" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def test_synth_smallest_frames_align_with_their_scene_cfg(tmp_path, capsys):
    assert _synth_spec(tmp_path, "preset=mini\nimage_width=9\n"
                                 "image_height=9\n") == 0
    d = tmp_path / "d"
    assert main(["align", "--config", str(d / "scene.cfg"), str(d / "ref"),
                 str(d / "obs"), str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "sync.csv").is_file()


def test_synth_renders_again_into_its_own_directory(tmp_path, capsys):
    out = tmp_path / "d"
    assert main(["synth", "mini", str(out)]) == 0
    first = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert main(["synth", "mini", str(out)]) == 0
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == first


def test_align_needs_theta(mini_pair, tmp_path, capsys):
    code = main(["align", str(mini_pair.ref), str(mini_pair.obs),
                 str(tmp_path / "out")])
    assert code == 2
    assert "missing required key: theta" in capsys.readouterr().err


def test_align_missing_observed_directory(mini_pair, tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    for obs, message in [("absent", "not a directory"),
                         ("empty", "no frame files")]:
        code = main(["align", str(mini_pair.ref), str(tmp_path / obs),
                     str(tmp_path / "out"),
                     "--config", str(mini_pair.root / "scene.cfg")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not list((tmp_path / "out").glob("*"))


@pytest.mark.parametrize("command", ["align", "groundtruth"])
def test_empty_observed_directory_fails_before_any_load(mini_pair, tmp_path,
                                                        capsys, monkeypatch,
                                                        command):
    loads = []
    load_reference = pipeline.load_reference
    monkeypatch.setattr(pipeline, "load_reference",
                        lambda *args: loads.append(args) or load_reference(*args))
    (tmp_path / "empty").mkdir()
    code = main([command, str(mini_pair.ref), str(tmp_path / "empty"),
                 str(tmp_path / "out"),
                 "--config", str(mini_pair.root / "scene.cfg")])
    assert code == 2
    assert "no frame files" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert loads == []


def test_align_corrupt_frame(mini_pair, tmp_path, capsys):
    obs = tmp_path / "obs"
    obs.mkdir()
    (obs / "frame_000000.ppm").write_bytes(b"P6\n4 4\n255\n\x00\x01")
    code = main(["align", str(mini_pair.ref), str(obs), str(tmp_path / "out"),
                 "--config", str(mini_pair.root / "scene.cfg")])
    assert code == 2


def test_align_frame_size_mismatch_is_a_data_error(mini_pair, tmp_path,
                                                   capsys):
    obs = tmp_path / "obs"
    obs.mkdir()
    rng = np.random.default_rng(80)
    save_image_rgb(0.1 + 0.8 * rng.random((30, 40, 3)),
                   obs / "frame_000000.ppm")
    code = main(["align", str(mini_pair.ref), str(obs), str(tmp_path / "out"),
                 "--config", str(mini_pair.root / "scene.cfg"),
                 "--lag", "0", "--window", "1"])
    assert code == 2
    assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["align", "groundtruth"])
@pytest.mark.parametrize("case", ["mini", "tiny"])
def test_descriptor_grid_under_2x2_is_a_data_error(mini_pair, tmp_path, capsys,
                                                   command, case):
    # a descriptor needs 2x2 cells: mini's 80x60 frames at a factor of
    # 100000 make one cell, as do 14x12 frames at the default factor 16
    cfg = tmp_path / "align.cfg"
    if case == "mini":
        ref, obs = mini_pair.ref, mini_pair.obs
        cfg.write_text((mini_pair.root / "scene.cfg").read_text()
                       + "\ndownsample_factor=100000\n")
        message = ("frame_000000.ppm: frame is 80x60, under 2x2 descriptor "
                   "cells at downsample_factor=100000")
    else:
        ref, obs = tmp_path / "ref", tmp_path / "obs"
        ref.mkdir()
        obs.mkdir()
        rng = np.random.default_rng(81)
        for t in range(3):
            for side in (ref, obs):
                save_image_rgb(0.1 + 0.8 * rng.random((12, 14, 3)),
                               side / f"frame_{t:06d}.ppm")
            save_mask(np.ones((12, 14), dtype=bool), ref / f"mask_{t:06d}.pgm")
        cfg.write_text("theta=0.7\nfocal_px=20\n")
        message = ("frame_000000.ppm: frame is 14x12, under 2x2 descriptor "
                   "cells at downsample_factor=16")
    out = tmp_path / "out"
    assert main([command, str(ref), str(obs), str(out),
                 "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("side,extra,twin", [
    ("obs", "frame_3.ppm", "frame_000003.ppm"),
    ("ref", "frame_4.ppm", "frame_000004.ppm"),
    ("ref", "mask_4.pgm", "mask_000004.pgm"),
])
def test_repeated_frame_number_is_a_data_error(mini_pair, tmp_path, capsys,
                                               side, extra, twin):
    # a second file with the number of another, observed or reference,
    # would pair one frame's mask or sync.csv row with two frames
    dirs = {"ref": mini_pair.ref, "obs": mini_pair.obs}
    copy = tmp_path / side
    copy.mkdir()
    for path in dirs[side].iterdir():
        (copy / path.name).write_bytes(path.read_bytes())
    (copy / extra).write_bytes((copy / twin).read_bytes())
    dirs[side] = copy
    out = tmp_path / "out"
    code = main(["align", str(dirs["ref"]), str(dirs["obs"]), str(out),
                 "--config", str(mini_pair.root / "scene.cfg")])
    assert code == 2
    err = capsys.readouterr().err
    assert extra in err and twin in err
    assert not out.exists()


def test_stray_frame_name_is_left_out(mini_pair, tmp_path, capsys):
    # only a whole frame_<n>.ppm name is a frame; the 13 frames left make
    # 8 masks at lag 5
    obs = tmp_path / "obs"
    obs.mkdir()
    for path in mini_pair.obs.iterdir():
        (obs / path.name).write_bytes(path.read_bytes())
    (obs / "frame_000013.ppm").rename(obs / "backup_frame_000013.ppm")
    out = tmp_path / "out"
    assert main(["align", str(mini_pair.ref), str(obs), str(out),
                 "--config", str(mini_pair.root / "scene.cfg")]) == 0
    assert "emitted 8 mask(s)" in capsys.readouterr().out
    assert len(list(out.glob("mask_*.pgm"))) == 8
    rows = (out / "sync.csv").read_text().splitlines()[1:]
    assert [int(row.split(",")[0]) for row in rows] == list(range(8))


def _write_gray(img, path):
    """Write a color frame's mean as a binary PGM (P5) frame."""
    h, w, _ = img.shape
    pixels = np.round(img.mean(axis=2) * 255).astype(np.uint8)
    path.write_bytes(f"P5\n{w} {h}\n255\n".encode() + pixels.tobytes())


def test_align_checks_every_frame_size_before_writing(mini_pair, tmp_path,
                                                     capsys):
    # frame 10 of 14 is 96 px wide (the others 80 px), or gray, which the
    # invariant space cannot use, or its payload is 500 bytes short
    cases = {
        "wide": (lambda img, path: save_image_rgb(
            np.pad(img, ((0, 0), (8, 8), (0, 0)), mode="edge"), path),
            "frame_000010.ppm: frame is 96x60"),
        "gray": (_write_gray,
                 "frame_000010.ppm: invariant space requires color frames"),
        "short": (lambda img, path: path.write_bytes(path.read_bytes()[:-500]),
                  "frame_000010.ppm: expected 14400 payload bytes, found 13900"),
    }
    for command in ("align", "groundtruth"):
        for name, (rewrite, message) in cases.items():
            obs = tmp_path / command / name / "obs"
            obs.mkdir(parents=True)
            for path in sorted(mini_pair.obs.glob("frame_*.ppm")):
                (obs / path.name).write_bytes(path.read_bytes())
            rewrite(load_image(obs / "frame_000010.ppm"),
                    obs / "frame_000010.ppm")
            out = tmp_path / command / name / "out"
            code = main([command, str(mini_pair.ref), str(obs), str(out),
                         "--config", str(mini_pair.root / "scene.cfg")])
            assert code == 2, (command, name)
            assert message in capsys.readouterr().err, (command, name)
            assert not list(out.glob("mask_*.pgm")), (command, name)
            assert not (out / "sync.csv").exists(), (command, name)
            assert not out.exists(), (command, name)


@pytest.mark.parametrize("extra,config_line", [
    (["--band", "abc"], ""),
    ([], "window=0\n"),
    ([], "downsample_factor=0\n"),
    ([], "smooth_sigma=inf\n"),
    ([], "mu_y=inf\n"),
    ([], "cx=inf\n"),
    ([], "diff_space=gray\n"),
    ([], "min_blob_px=10\n"),
    ([], "mu_y=0.9\n"),
    ([], "max_shift=abc\n"),
    ([], "# caf\xe9, not UTF-8\n"),
    ([], "smooth_sigma=0\n"),
    ([], "downsample_factor=-2\n"),
])
def test_align_bad_config_value_is_a_config_error(mini_pair, tmp_path, capsys,
                                                   extra, config_line):
    cfg = tmp_path / "align.cfg"
    cfg.write_bytes((mini_pair.root / "scene.cfg").read_bytes() + b"\n"
                    + config_line.encode("latin-1"))
    code = main(["align", str(mini_pair.ref), str(mini_pair.obs),
                 str(tmp_path / "out"), "--config", str(cfg), *extra])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["align", "groundtruth"])
def test_misspelt_config_key_is_a_config_error(mini_pair, tmp_path, capsys,
                                              command):
    cfg = tmp_path / "align.cfg"
    cfg.write_text((mini_pair.root / "scene.cfg").read_text()
                   + "smooth_sigm=1.5\n")
    code = main([command, str(mini_pair.ref), str(mini_pair.obs),
                 str(tmp_path / "out"), "--config", str(cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "unknown config key 'smooth_sigm'" in err
    assert "did you mean 'smooth_sigma'?" in err
    assert not (tmp_path / "out").exists()


def test_align_ignores_the_removed_sync_keys(mini_pair, tmp_path):
    # the sync model has no beta or sigma_y; a config that sets them,
    # even to values once rejected, still loads and aligns exactly as
    # one without them, as does one that gives every former key its
    # fixed value (diff_space the feature space)
    scene = (mini_pair.root / "scene.cfg").read_text()
    outs = []
    for name, extra in [("plain", ""), ("old", "beta=0\nsigma_y=0\n"),
                        ("same", "diff_space=invariant\n"
                                 "gradient_floor_ratio=0.05\nmax_shift=2\n"
                                 "mu_y=1.0\nmax_iterations=50\n"
                                 "robust_skip=2\nmin_blob_px=25\n"
                                 "histogram_bins=256\n")]:
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(scene + "\n" + extra)
        outs.append(tmp_path / name)
        assert main(["align", str(mini_pair.ref), str(mini_pair.obs),
                     str(outs[-1]), "--config", str(cfg)]) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert "sync.csv" in names and len(names) > 1
    for out in outs[1:]:
        assert names == sorted(p.name for p in out.iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == (out / name).read_bytes()


def test_align_and_eval_round_trip(mini_pair, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["align", str(mini_pair.ref), str(mini_pair.ref), str(out),
                 "--config", str(mini_pair.root / "scene.cfg"),
                 "--no-refine"])
    assert code == 0
    assert "emitted 13 mask(s)" in capsys.readouterr().out
    assert (out / "sync.csv").is_file()
    # self-alignment without refinement reproduces the annotation exactly
    got = load_mask(out / "mask_000000.pgm")
    want = load_mask(mini_pair.ref / "mask_000000.pgm")
    assert np.array_equal(got, want)

    assert main(["eval", str(out), str(mini_pair.ref)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "quality: 1.0000±0.0000" in lines
    assert (out / "metrics.csv").is_file()


def test_eval_detects_total_disagreement(mini_pair, tmp_path, capsys):
    inverted = tmp_path / "inv"
    _inverted_masks(mini_pair.ref, inverted, 3)
    assert main(["eval", str(inverted), str(mini_pair.ref),
                 "--out", str(tmp_path / "report")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "quality: 0.0000±0.0000" in lines
    assert "accuracy: 0.0000±0.0000" in lines
    assert (tmp_path / "report" / "metrics.csv").is_file()


def test_groundtruth_swap_smoke(mini_pair, tmp_path, capsys):
    out = tmp_path / "gt"
    code = main(["groundtruth", str(mini_pair.obs), str(mini_pair.ref),
                 str(out), "--config", str(mini_pair.root / "scene.cfg"),
                 "--band", "none"])
    assert code == 0
    # swapped roles: the 18 reference frames are the ones being masked
    assert "transferred 18 mask(s)" in capsys.readouterr().out
    assert len(list(out.glob("mask_*.pgm"))) == 18


def test_flag_overrides_reach_the_pipeline(mini_pair, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["align", str(mini_pair.ref), str(mini_pair.ref), str(out),
                 "--config", str(mini_pair.root / "scene.cfg"),
                 "--lag", "2", "--window", "4"])
    assert code == 0
    assert "emitted 16 mask(s)" in capsys.readouterr().out
