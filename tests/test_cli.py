import numpy as np
import pytest

from roadalign.cli import main
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


def _write_gray(img, path):
    """Write a color frame's mean as a binary PGM (P5) frame."""
    h, w, _ = img.shape
    pixels = np.round(img.mean(axis=2) * 255).astype(np.uint8)
    path.write_bytes(f"P5\n{w} {h}\n255\n".encode() + pixels.tobytes())


def test_align_checks_every_frame_size_before_writing(mini_pair, tmp_path,
                                                     capsys):
    # frame 10 of 14 is 96 px wide (the others 80 px), or gray, which the
    # invariant space cannot use
    cases = {
        "wide": (lambda img, path: save_image_rgb(
            np.pad(img, ((0, 0), (8, 8), (0, 0)), mode="edge"), path),
            "frame_000010.ppm: frame is 96x60"),
        "gray": (_write_gray,
                 "frame_000010.ppm: invariant space requires color frames"),
    }
    for name, (rewrite, message) in cases.items():
        obs = tmp_path / name / "obs"
        obs.mkdir(parents=True)
        for path in sorted(mini_pair.obs.glob("frame_*.ppm")):
            (obs / path.name).write_bytes(path.read_bytes())
        rewrite(load_image(obs / "frame_000010.ppm"), obs / "frame_000010.ppm")
        out = tmp_path / name / "out"
        code = main(["align", str(mini_pair.ref), str(obs), str(out),
                     "--config", str(mini_pair.root / "scene.cfg")])
        assert code == 2, name
        assert message in capsys.readouterr().err
        assert not list(out.glob("mask_*.pgm")), name
        assert not (out / "sync.csv").exists(), name


@pytest.mark.parametrize("extra,config_line", [
    (["--band", "abc"], ""),
    ([], "beta=0\n"),
    ([], "downsample_factor=0\n"),
])
def test_align_bad_config_value_is_a_config_error(mini_pair, tmp_path, capsys,
                                                   extra, config_line):
    cfg = tmp_path / "align.cfg"
    cfg.write_text((mini_pair.root / "scene.cfg").read_text() + "\n"
                   + config_line)
    code = main(["align", str(mini_pair.ref), str(mini_pair.obs),
                 str(tmp_path / "out"), "--config", str(cfg), *extra])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


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
    code = main(["groundtruth", str(mini_pair.ref), str(mini_pair.obs),
                 str(out), "--config", str(mini_pair.root / "scene.cfg"),
                 "--swap", "--band", "none"])
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
