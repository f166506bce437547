import filecmp
import math
from dataclasses import replace

import numpy as np
import pytest

from roadalign.config import read_key_values
from roadalign.imagecore import load_image, load_mask, pyramid_depth
from roadalign.invariant import log_chroma_projection, rgb_to_invariant
from roadalign.synth import (PRESETS, RideSpec, SceneSpec, ShadowBand,
                             Vehicle, correspondence_from_arcs, make_pair,
                             preset_mini, relative_rotation_angles,
                             render_ride)

TINY = SceneSpec(seed=5, track_points=((0.0, 0.0), (0.0, 10.0)),
                 road_width=3.5, image_width=64, image_height=48,
                 focal_px=60.0, theta=0.7, frames=8)


def _rot_xyz(wx, wy, wz):
    cx, sx = math.cos(wx), math.sin(wx)
    cy, sy = math.cos(wy), math.sin(wy)
    cz, sz = math.cos(wz), math.sin(wz)
    rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    return rx @ ry @ rz


# --- spec validation ---------------------------------------------------------

def test_shadow_band_validation():
    with pytest.raises(ValueError):
        ShadowBand(start=5.0, end=5.0)
    with pytest.raises(ValueError):
        ShadowBand(start=0.0, end=1.0, attenuation=0.0)
    factors = ShadowBand(1.0, 2.0, attenuation=0.5, planck=0.3).channel_factors(0.7)
    assert factors[1] == 0.5
    assert factors[0] == pytest.approx(0.5 * math.exp(-0.3 * math.sin(0.7)))
    assert factors[2] == pytest.approx(0.5 * math.exp(0.3 * math.cos(0.7)))


def test_vehicle_validation():
    with pytest.raises(ValueError):
        Vehicle(arc_s=1.0, lateral=0.0, width=0.0, height=1.0)
    with pytest.raises(ValueError):
        Vehicle(arc_s=1.0, lateral=0.0, width=1.0, height=1.0,
                first_frame=5, last_frame=4)


def test_scene_spec_validation():
    with pytest.raises(ValueError):
        SceneSpec(seed=1, track_points=((0.0, 0.0),))
    with pytest.raises(ValueError):
        SceneSpec(seed=1, road_width=0.0)
    with pytest.raises(ValueError):
        SceneSpec(seed=1, frames=0)
    with pytest.raises(ValueError):
        SceneSpec(seed=1, focal_px=-10.0)


def test_ride_spec_validation():
    with pytest.raises(ValueError):
        RideSpec(speed_profile=(0.0, -0.1))
    with pytest.raises(ValueError):
        RideSpec(speed_profile=())
    with pytest.raises(ValueError):
        RideSpec(jitter=((0.001, 0.001),))
    with pytest.raises(ValueError):
        RideSpec(jitter=((0.001, 0.001, 0.05),))
    with pytest.raises(ValueError):
        RideSpec(gain=0.0)
    with pytest.raises(ValueError):
        RideSpec(gain=1.2)
    with pytest.raises(ValueError):
        RideSpec(noise_sigma=-0.1)
    with pytest.raises(ValueError):
        RideSpec(model_violation=1.5)


# --- geometry oracles --------------------------------------------------------

def test_correspondence_identity():
    arc = np.array([0.0, 0.5, 1.1, 2.0, 3.7])
    assert np.array_equal(correspondence_from_arcs(arc, arc), np.arange(5))


def test_correspondence_half_speed_with_ties():
    ref = np.array([0.0, 1.0, 2.0, 3.0])
    obs = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
    # midpoints tie; ties go to the smaller reference index
    assert list(correspondence_from_arcs(ref, obs)) == [0, 0, 1, 1, 2]


def test_correspondence_duplicates_canonicalize_to_first():
    ref = np.array([0.0, 1.0, 1.0, 1.0, 2.0])
    obs = np.array([0.9, 1.0, 1.2])
    got = list(correspondence_from_arcs(ref, obs))
    assert got == [1, 1, 1]
    assert np.all(np.diff(got) >= 0)


def test_correspondence_clamps_to_range():
    ref = np.array([1.0, 2.0, 3.0])
    obs = np.array([0.0, 5.0])
    assert list(correspondence_from_arcs(ref, obs)) == [0, 2]


def test_relative_rotation_recovers_small_angles():
    base = _rot_xyz(0.3, -0.2, 0.15)  # arbitrary solid orientation
    angles = np.array([0.004, -0.007, 0.002])
    obs = base @ _rot_xyz(*angles)
    got = relative_rotation_angles(base, obs)
    assert np.allclose(got, angles, atol=5e-5)
    assert np.array_equal(relative_rotation_angles(base, base), np.zeros(3))


# --- rendering ---------------------------------------------------------------

def test_render_is_deterministic():
    ride = RideSpec(noise_sigma=0.01)
    a = render_ride(TINY, ride)
    b = render_ride(TINY, ride)
    assert len(a.frames) == TINY.frames
    for fa, fb in zip(a.frames, b.frames):
        assert np.array_equal(fa, fb)
    for ma, mb in zip(a.masks, b.masks):
        assert np.array_equal(ma, mb)


def test_render_output_contract():
    out = render_ride(TINY, RideSpec())
    profile = np.full(8, 10.0 / 8)
    profile[0] = 0.0
    assert np.allclose(out.arc, np.cumsum(profile))
    for frame, mask in zip(out.frames, out.masks):
        assert frame.shape == (48, 64, 3)
        assert frame.min() > 0.0 and frame.max() <= 1.0
        assert mask.dtype == np.bool_
        assert mask.any()  # the road ahead is always visible
    assert out.rotations.shape == (8, 3, 3)
    # camera-to-world rotations are orthonormal
    for rot in out.rotations:
        assert np.allclose(rot @ rot.T, np.eye(3), atol=1e-12)


def test_ride_beyond_track_end_raises():
    with pytest.raises(ValueError, match="leaves the track"):
        render_ride(TINY, RideSpec(speed_profile=(0.0, 11.0)))


def test_jitter_length_must_match_frames():
    with pytest.raises(ValueError, match="jitter length"):
        render_ride(TINY, RideSpec(jitter=((0.001, 0.0, 0.0),) * 3))


def test_noise_changes_frames_deterministically():
    clean = render_ride(TINY, RideSpec())
    noisy = render_ride(TINY, RideSpec(noise_sigma=0.02))
    diff = np.abs(noisy.frames[2] - clean.frames[2])
    assert diff.max() > 0.01


# --- shadows and the invariant projection ------------------------------------

SHADOW = ShadowBand(start=3.0, end=8.0, attenuation=0.55, planck=0.35)


def test_shadow_darkens_rgb_but_not_invariant():
    clear = render_ride(TINY, RideSpec())
    shaded = render_ride(TINY, RideSpec(shadows=(SHADOW,)))
    j = 2  # shadow band well inside the view at the ride start
    rgb_gap = np.abs(clear.frames[j] - shaded.frames[j]).mean()
    assert rgb_gap > 0.02
    inv_clear = log_chroma_projection(clear.frames[j], TINY.theta)
    inv_shaded = log_chroma_projection(shaded.frames[j], TINY.theta)
    assert np.allclose(inv_clear, inv_shaded, atol=1e-9)


def test_shadow_survives_8bit_files(tmp_path):
    make_pair(TINY, RideSpec(), RideSpec(shadows=(SHADOW,)), tmp_path / "p")
    j = 2
    clear = load_image(tmp_path / "p" / "ref" / f"frame_{j:06d}.ppm")
    shaded = load_image(tmp_path / "p" / "obs" / f"frame_{j:06d}.ppm")
    inv_clear = rgb_to_invariant(clear, TINY.theta)
    inv_shaded = rgb_to_invariant(shaded, TINY.theta)
    assert np.abs(inv_clear - inv_shaded).mean() < 0.01
    assert np.abs(clear - shaded).mean() > 0.02


def test_model_violation_defeats_the_invariant():
    shaded = render_ride(TINY, RideSpec(shadows=(SHADOW,)))
    broken = render_ride(TINY, RideSpec(shadows=(SHADOW,), model_violation=0.25))
    j = 2
    inv_shaded = log_chroma_projection(shaded.frames[j], TINY.theta)
    inv_broken = log_chroma_projection(broken.frames[j], TINY.theta)
    assert np.abs(inv_shaded - inv_broken).max() > 1e-3


# --- vehicles ----------------------------------------------------------------

def test_vehicle_pixels_leave_the_road_mask():
    bare = render_ride(TINY, RideSpec())
    veh = render_ride(TINY, RideSpec(vehicles=(
        Vehicle(arc_s=6.0, lateral=0.0, width=2.0, height=1.6),)))
    removed_total = 0
    for mb, mv, fb, fv in zip(bare.masks, veh.masks, bare.frames, veh.frames):
        assert np.all(~mv | mb)  # with-vehicle mask is a subset
        removed = mb & ~mv
        removed_total += removed.sum()
        if removed.any():
            # removed pixels are painted over by the vehicle
            assert np.abs(fb - fv)[removed].mean() > 0.02
    assert removed_total > 0


def test_vehicle_frame_span_limits_visibility():
    always = render_ride(TINY, RideSpec(vehicles=(
        Vehicle(arc_s=6.0, lateral=0.0, width=2.0, height=1.6),)))
    windowed = render_ride(TINY, RideSpec(vehicles=(
        Vehicle(arc_s=6.0, lateral=0.0, width=2.0, height=1.6,
                first_frame=0, last_frame=1),)))
    bare = render_ride(TINY, RideSpec())
    assert not np.array_equal(always.frames[0], bare.frames[0])
    assert np.array_equal(windowed.frames[2], bare.frames[2])
    assert np.array_equal(windowed.frames[1], always.frames[1])


# --- pair generation ---------------------------------------------------------

def test_same_seed_reruns_byte_identical(tmp_path):
    scene, ride_ref, ride_obs = preset_mini()
    make_pair(scene, ride_ref, ride_obs, tmp_path / "a")
    make_pair(scene, ride_ref, ride_obs, tmp_path / "b")
    rel = sorted(p.relative_to(tmp_path / "a").as_posix()
                 for p in (tmp_path / "a").rglob("*") if p.is_file())
    assert len(rel) == 2 * (18 + 14) + 3
    match, mismatch, errors = filecmp.cmpfiles(
        tmp_path / "a", tmp_path / "b", rel, shallow=False)
    assert mismatch == [] and errors == []
    assert len(match) == len(rel)


def test_identical_rides_have_trivial_truth(tmp_path):
    ride = RideSpec()
    truth = make_pair(TINY, ride, ride, tmp_path / "p")
    assert np.array_equal(truth.correspondence, np.arange(8))
    assert np.array_equal(truth.omega_true, np.zeros((8, 3)))
    assert np.array_equal(truth.ref_arc, truth.obs_arc)
    assert truth.theta_used == TINY.theta


def test_pair_layout_and_truth_files(tmp_path):
    scene, ride_ref, ride_obs = preset_mini()
    truth = make_pair(scene, ride_ref, ride_obs, tmp_path / "p")
    root = tmp_path / "p"
    assert len(list((root / "ref").glob("frame_*.ppm"))) == 18
    assert len(list((root / "ref").glob("mask_*.pgm"))) == 18
    assert len(list((root / "obs").glob("frame_*.ppm"))) == 14
    assert len(list((root / "obs").glob("mask_*.pgm"))) == 14

    corr_lines = (root / "truth_correspondence.csv").read_text().splitlines()
    assert corr_lines[0] == "obs_index,ref_index"
    parsed = [tuple(int(v) for v in line.split(",")) for line in corr_lines[1:]]
    assert [p[0] for p in parsed] == list(range(14))
    assert np.array_equal([p[1] for p in parsed], truth.correspondence)
    assert np.all(np.diff(truth.correspondence) >= 0)

    omega_lines = (root / "truth_omega.csv").read_text().splitlines()
    assert omega_lines[0] == "obs_index,omega_x,omega_y,omega_z"
    row3 = omega_lines[4].split(",")
    assert float(row3[1]) == pytest.approx(truth.omega_true[3, 0], rel=1e-8)

    cfg_text = (root / "scene.cfg").read_text()
    assert "theta=0.7" in cfg_text
    assert "focal_px=75" in cfg_text

    # frames on disk load back as proper images and masks
    img = load_image(root / "obs" / "frame_000003.ppm")
    assert img.shape == (60, 80, 3)
    mask = load_mask(root / "obs" / "mask_000003.pgm")
    assert mask.shape == (60, 80)
    assert mask.any()


def test_scene_cfg_pyramid_levels_are_the_pyramid_depth(street_pair, mini_pair,
                                                        tmp_path):
    # 31 px halve once to 16 px, so a 40x31 scene gets 2 levels, as the
    # 80x60 mini scene does (60 px halve to 30, then to 15)
    narrow = replace(TINY, image_width=40, image_height=31)
    make_pair(narrow, RideSpec(), RideSpec(), tmp_path / "narrow")
    for root, scene, levels in [(street_pair.root, street_pair.scene, 3),
                                (mini_pair.root, mini_pair.scene, 2),
                                (tmp_path / "narrow", narrow, 2)]:
        written = int(read_key_values(root / "scene.cfg")["pyramid_levels"])
        shape = (scene.image_height, scene.image_width)
        assert written == pyramid_depth(shape, 3) == levels


def test_presets_registry():
    assert set(PRESETS) == {"street", "mini"}
    scene, ride_ref, ride_obs = PRESETS["mini"]()
    assert scene.frames == 18
    assert len(ride_obs.speed_profile) == 14
