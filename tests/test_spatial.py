from dataclasses import astuple

import numpy as np
import pytest
from helpers import (loop_lk_terms, loop_masked_sse, loop_warp_bilinear,
                     motion_field, ssd_gradient, ssd_objective, textured_image)

from roadalign import _kernels
from roadalign.errors import AlignmentError
from roadalign.spatial import (CameraIntrinsics, RotationParams, lk_align,
                               warp_image, warp_mask)

INTR = CameraIntrinsics(focal_px=500.0, cx=79.5, cy=59.5)


def test_rotation_params_validation():
    RotationParams(0.349, -0.349, 0.0)
    with pytest.raises(ValueError):
        RotationParams(omega_x=0.35)
    with pytest.raises(ValueError):
        RotationParams(omega_y=-0.4)
    with pytest.raises(ValueError):
        RotationParams(omega_z=np.nan)


def test_intrinsics_validation_and_scaling():
    with pytest.raises(ValueError):
        CameraIntrinsics(0.0, 10.0, 10.0)
    with pytest.raises(ValueError):
        CameraIntrinsics(100.0, np.inf, 10.0)
    k = CameraIntrinsics(400.0, 100.0, 80.0).scaled(4)
    assert (k.focal_px, k.cx, k.cy) == (100.0, 25.0, 20.0)


def test_lk_settings_validation():
    # the pyramid depth is the one LK setting left to callers
    img = textured_image(46, (60, 80))
    with pytest.raises(ValueError, match="levels"):
        lk_align(img, img, INTR, levels=0)


def test_motion_field_formula_and_linearity():
    k = CameraIntrinsics(200.0, 30.0, 20.0)
    rng = np.random.default_rng(40)
    xs = rng.uniform(0, 60, size=9)
    ys = rng.uniform(0, 40, size=9)
    wx, wy, wz = 0.004, -0.007, 0.003
    u, v = motion_field(xs, ys, RotationParams(wx, wy, wz), k)
    xb, yb = xs - 30.0, ys - 20.0
    f = 200.0
    assert np.allclose(u, (-xb * yb / f) * wx + (f + xb ** 2 / f) * wy - yb * wz)
    assert np.allclose(v, (-f - yb ** 2 / f) * wx + (xb * yb / f) * wy + xb * wz)
    # linear in the angles: field of the sum = sum of the fields
    u1, v1 = motion_field(xs, ys, RotationParams(wx, 0, 0), k)
    u2, v2 = motion_field(xs, ys, RotationParams(0, wy, wz), k)
    assert np.allclose(u, u1 + u2)
    assert np.allclose(v, v1 + v2)


def test_warp_identity_and_mask_outside():
    img = textured_image(41)
    warped, valid = warp_image(img, RotationParams(), INTR)
    assert np.array_equal(warped, img)
    assert valid.all()
    mask = np.ones(img.shape, dtype=bool)
    out = warp_mask(mask, RotationParams(omega_y=0.05), INTR)
    # a yaw shifts sampling out of frame on one side: those pixels go False
    assert out.sum() < mask.sum()
    assert out.dtype == np.bool_


def test_warp_round_trip_small_rotation():
    img = textured_image(42, (120, 160))
    omega = RotationParams(0.005, -0.008, 0.003)
    fwd, v1 = warp_image(img, omega, INTR)
    back, v2 = warp_image(fwd, RotationParams(-0.005, 0.008, -0.003), INTR)
    both = v1 & v2
    both[:3, :] = both[-3:, :] = False
    both[:, :3] = both[:, -3:] = False
    err = np.abs(back - img)[both]
    assert err.mean() < 0.01


def test_ssd_objective_zero_at_truth():
    img = textured_image(43)
    sse, n = ssd_objective(img, img, RotationParams(), INTR)
    assert sse == 0.0
    assert n == (120 - 4) * (160 - 4)


def test_ssd_gradient_matches_finite_differences():
    ref = textured_image(44)
    omega_true = RotationParams(0.004, -0.006, 0.002)
    obs, _ = warp_image(ref, omega_true, INTR)
    at = RotationParams()
    grad = ssd_gradient(ref, obs, at, INTR)
    eps = 1e-6
    for axis in range(3):
        step = np.zeros(3)
        step[axis] = eps
        hi, _ = ssd_objective(ref, obs, RotationParams(*step), INTR)
        lo, _ = ssd_objective(ref, obs, RotationParams(*(-step)), INTR)
        fd = (hi - lo) / (2 * eps)
        assert grad[axis] == pytest.approx(fd, rel=1e-4)


def test_ssd_objective_and_gradient_stay_float64():
    # only lk_align registers in float32; on float64 frames the objective
    # and its gradient keep the float64 oracles' tolerances
    ref = textured_image(48, (60, 80))
    obs = textured_image(49, (60, 80))
    k = CameraIntrinsics(250.0, 39.5, 29.5)
    omega = RotationParams(0.004, -0.006, 0.002)
    warped, valid = loop_warp_bilinear(ref, *astuple(omega), k.focal_px,
                                       k.cx, k.cy)
    sse, n = ssd_objective(ref, obs, omega, k)
    s_lp, n_lp = loop_masked_sse(warped, valid, obs, 2)
    assert n == n_lp
    assert sse == pytest.approx(s_lp, rel=1e-10)
    grad = ssd_gradient(ref, obs, omega, k)
    _, g_lp, _ = loop_lk_terms(warped, valid, obs, k.focal_px, k.cx, k.cy, 2)
    assert grad.dtype == np.float64
    assert np.allclose(grad, 2.0 * g_lp, rtol=1e-10, atol=1e-12)


def test_lk_align_recovers_known_rotation():
    ref = textured_image(45, (120, 160))
    omega_true = RotationParams(0.006, -0.004, 0.008)
    obs, _ = warp_image(ref, omega_true, INTR)
    est, mse, _ = lk_align(ref, obs, INTR)
    assert np.abs(np.subtract(astuple(est), astuple(omega_true))).max() <= 2e-4
    initial, _ = ssd_objective(ref, obs, RotationParams(), INTR)
    n0 = ssd_objective(ref, obs, RotationParams(), INTR)[1]
    assert mse <= initial / n0  # never worse than the identity start


@pytest.mark.parametrize("levels", [1, 3])
def test_lk_align_returns_the_warp_of_its_rotation(levels):
    ref = textured_image(47, (120, 160))
    obs, _ = warp_image(ref, RotationParams(-0.005, 0.007, 0.003), INTR)
    est, _, (warped, valid) = lk_align(ref, obs, INTR, levels)
    # registration runs in float32, so its warp is that of the float32 frame
    fresh, fresh_valid = warp_image(ref.astype(np.float32), est, INTR)
    assert warped.dtype == np.float32
    assert np.array_equal(warped, fresh)
    assert np.array_equal(valid, fresh_valid)


def test_lk_align_takes_frames_as_float32():
    ref = textured_image(48, (120, 160))
    obs, _ = warp_image(ref, RotationParams(0.004, -0.006, 0.002), INTR)
    est, mse, (warped, valid) = lk_align(ref, obs, INTR)
    est32, mse32, (warped32, valid32) = lk_align(
        ref.astype(np.float32), obs.astype(np.float32), INTR)
    assert est == est32 and mse == mse32
    assert np.array_equal(warped, warped32) and np.array_equal(valid, valid32)


def test_lk_align_warps_each_candidate_once(monkeypatch):
    # pinned counts; a solver that warps again for every Gauss-Newton step
    # and halves each level's last step down to 1e-7 rad makes 191
    # warp_sse calls on these five pairs
    warp_bilinear, warp_sse = _kernels.warp_bilinear, _kernels.warp_sse
    calls = {"warp_bilinear": 0, "warp_sse": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(_kernels, "warp_bilinear",
                        counted("warp_bilinear", warp_bilinear))
    monkeypatch.setattr(_kernels, "warp_sse", counted("warp_sse", warp_sse))
    rng = np.random.default_rng(505)
    counts = []
    for trial in range(5):
        ref = textured_image(7000 + trial)
        obs, _ = warp_image(ref, RotationParams(*rng.uniform(-0.01, 0.01, 3)),
                            INTR)
        calls.update(warp_bilinear=0, warp_sse=0)
        lk_align(ref, obs, INTR)
        # every warp of a candidate is the one warp_sse scores it with
        assert calls["warp_bilinear"] == 0
        counts.append(calls["warp_sse"])
    assert counts == [11, 10, 10, 9, 10]
    assert sum(counts) <= 191 // 2


def test_lk_align_rejects_textureless_frames():
    flat = np.full((80, 80), 0.5)
    k = CameraIntrinsics(100.0, 39.5, 39.5)
    with pytest.raises(AlignmentError, match="singular"):
        lk_align(flat, flat, k)


def test_lk_align_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="frame shapes differ"):
        lk_align(np.zeros((40, 40)), np.zeros((40, 50)),
                 CameraIntrinsics(100.0, 20.0, 20.0))
