import numpy as np
import pytest
from helpers import (loop_lk_terms, loop_masked_sse, loop_warp_bilinear,
                     loop_warp_nearest, textured_image)

from roadalign import _kernels as kernels


def _cases():
    rng = np.random.default_rng(30)
    cases = []
    for i in range(8):
        src = textured_image(300 + i, (45, 60))
        wx, wy, wz = rng.uniform(-0.02, 0.02, size=3)
        cases.append((src, wx, wy, wz, 70.0, 29.5, 22.0))
    # degenerate: huge rotation pushing most samples out of bounds
    cases.append((textured_image(99, (45, 60)), 0.3, -0.3, 0.3, 70.0, 29.5, 22.0))
    return cases


def test_identity_warp_copies_input():
    src = textured_image(31, (40, 50))
    warped, valid = kernels.warp_bilinear(src, 0.0, 0.0, 0.0, 80.0, 24.5, 19.5)
    assert np.array_equal(warped, src)
    assert valid.all()


def test_nearest_half_up_tie_rounds_to_larger_index():
    # pure roll rotation: u = -(y - cy) * wz, v = (x - cx) * wz.
    # At (y=2, x=cx) with wz = 0.25 and cy = 4 the source column is
    # exactly x + 0.5; half-up must pick column x + 1.
    h = w = 9
    cx = cy = 4.0
    mask = np.zeros((h, w), dtype=bool)
    mask[2, 5] = True
    out = kernels.warp_nearest(mask, 0.0, 0.0, 0.25, 100.0, cx, cy)
    assert out[2, 4]
    assert np.array_equal(out, loop_warp_nearest(mask, 0.0, 0.0, 0.25,
                                                 100.0, cx, cy))


def test_warp_bilinear_backends_agree():
    for src, wx, wy, wz, f, cx, cy in _cases():
        w_np, v_np = kernels.warp_bilinear(src, wx, wy, wz, f, cx, cy)
        w_lp, v_lp = loop_warp_bilinear(src, wx, wy, wz, f, cx, cy)
        assert w_np.dtype == np.float64
        assert np.array_equal(v_np, v_lp)
        assert np.allclose(w_np, w_lp, atol=1e-13, rtol=0.0)


def test_warp_nearest_backends_agree():
    rng = np.random.default_rng(32)
    for src, wx, wy, wz, f, cx, cy in _cases():
        mask = rng.random(src.shape) > 0.5
        m_np = kernels.warp_nearest(mask, wx, wy, wz, f, cx, cy)
        m_lp = loop_warp_nearest(mask, wx, wy, wz, f, cx, cy)
        assert np.array_equal(m_np, m_lp)


def test_warps_with_interleaved_intrinsics_of_one_shape():
    # the per-frame grid is cached; two cameras on one frame size must not
    # share it
    rng = np.random.default_rng(33)
    src = textured_image(34, (45, 60))
    mask = rng.random(src.shape) > 0.5
    cameras = [(70.0, 29.5, 22.0), (90.0, 31.0, 20.0)]
    for _ in range(2):
        for f, cx, cy in cameras:
            wx, wy, wz = 0.01, -0.02, 0.015
            w_np, v_np = kernels.warp_bilinear(src, wx, wy, wz, f, cx, cy)
            w_lp, v_lp = loop_warp_bilinear(src, wx, wy, wz, f, cx, cy)
            assert np.array_equal(w_np, w_lp)
            assert np.array_equal(v_np, v_lp)
            assert np.array_equal(
                kernels.warp_nearest(mask, wx, wy, wz, f, cx, cy),
                loop_warp_nearest(mask, wx, wy, wz, f, cx, cy))


@pytest.mark.parametrize("skip", [0, 2])
def test_lk_terms_backends_agree(skip):
    for src, wx, wy, wz, f, cx, cy in _cases():
        obs = textured_image(77, src.shape)
        warped, valid = kernels.warp_bilinear(src, wx, wy, wz, f, cx, cy)
        h_np, g_np, n_np = kernels.lk_accumulate(warped, valid, obs,
                                                 f, cx, cy, skip)
        h_lp, g_lp, n_lp = loop_lk_terms(warped, valid, obs, f, cx, cy, skip)
        assert n_np == n_lp
        assert np.allclose(h_np, h_lp, rtol=1e-10, atol=1e-12)
        assert np.allclose(g_np, g_lp, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("skip", [0, 2])
def test_masked_sse_backends_agree(skip):
    for src, wx, wy, wz, f, cx, cy in _cases():
        obs = textured_image(78, src.shape)
        warped, valid = kernels.warp_bilinear(src, wx, wy, wz, f, cx, cy)
        s_np, n_np = kernels.masked_sse(warped, valid, obs, skip)
        s_lp, n_lp = loop_masked_sse(warped, valid, obs, skip)
        assert n_np == n_lp
        assert s_np == pytest.approx(s_lp, rel=1e-10)


# float32 tolerances. A float32 warp samples the frame at positions
# rounded to float32 (about 1e-5 px at these sizes) and rounds every
# value to 1.2e-7 (float32's eps): warped values stay within WARP_ATOL
# of the float64 oracle, and a validity flip needs a position within
# POS_TOL of the frame edge. Gauss-Newton terms are float32 products
# summed pairwise over a few thousand pixels; they stay within TERM_RTOL
# of the largest entry of the float64 oracle run on the same warp.
WARP_ATOL = 2e-6
POS_TOL = 1e-4
TERM_RTOL = 1e-5


def _edge_distance(h, w, wx, wy, wz, f, cx, cy):
    """Float64 distance of every pixel's sampling position to the frame
    edge, from the flow formula written out."""
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    xb, yb = xx - cx, yy - cy
    sx = xx + (-xb * yb / f) * wx + (f + xb * xb / f) * wy - yb * wz
    sy = yy + (-f - yb * yb / f) * wx + (xb * yb / f) * wy + xb * wz
    return np.minimum.reduce([np.abs(sx), np.abs(sx - (w - 1)),
                              np.abs(sy), np.abs(sy - (h - 1))])


def test_float32_warp_agrees_with_the_float64_oracle():
    for src, wx, wy, wz, f, cx, cy in _cases():
        w32, v32 = kernels.warp_bilinear(src.astype(np.float32),
                                         wx, wy, wz, f, cx, cy)
        w_lp, v_lp = loop_warp_bilinear(src, wx, wy, wz, f, cx, cy)
        assert w32.dtype == np.float32
        flips = v32 != v_lp
        assert np.all(_edge_distance(*src.shape, wx, wy, wz, f, cx, cy)[flips]
                      <= POS_TOL)
        both = v32 & v_lp
        assert np.allclose(w32[both], w_lp[both], atol=WARP_ATOL, rtol=0.0)
        assert np.all(w32[~v32] == 0.0)


@pytest.mark.parametrize("skip", [0, 2])
def test_float32_terms_agree_with_the_float64_oracles(skip):
    for src, wx, wy, wz, f, cx, cy in _cases():
        obs = textured_image(77, src.shape).astype(np.float32)
        warped, valid = kernels.warp_bilinear(src.astype(np.float32),
                                              wx, wy, wz, f, cx, cy)
        # the oracles run in float64 on the same float32 values
        w64, o64 = warped.astype(np.float64), obs.astype(np.float64)
        hess, grad, n = kernels.lk_accumulate(warped, valid, obs,
                                              f, cx, cy, skip)
        h_lp, g_lp, n_lp = loop_lk_terms(w64, valid, o64, f, cx, cy, skip)
        assert n == n_lp
        assert grad.dtype == np.float32  # summed in float32
        assert np.allclose(hess, h_lp, rtol=0.0,
                           atol=TERM_RTOL * np.abs(h_lp).max())
        assert np.allclose(grad, g_lp, rtol=0.0,
                           atol=TERM_RTOL * np.abs(g_lp).max())
        s_np, n_np = kernels.masked_sse(warped, valid, obs, skip)
        s_lp, n_lp = loop_masked_sse(w64, valid, o64, skip)
        assert n_np == n_lp
        assert s_np == pytest.approx(s_lp, rel=TERM_RTOL)


def test_float32_and_float64_warps_of_one_shape_keep_their_own_grid():
    # the per-frame grid is cached per dtype; interleaved float32 and
    # float64 calls on one frame size and camera must not share it
    src = textured_image(37, (45, 60))
    f, cx, cy = 70.0, 29.5, 22.0
    wx, wy, wz = 0.01, -0.02, 0.015
    w_lp, v_lp = loop_warp_bilinear(src, wx, wy, wz, f, cx, cy)
    first32 = None
    for _ in range(2):
        for dtype in (np.float32, np.float64):
            warped, valid = kernels.warp_bilinear(src.astype(dtype),
                                                  wx, wy, wz, f, cx, cy)
            assert warped.dtype == dtype
            if dtype is np.float64:
                assert np.array_equal(warped, w_lp)
                assert np.array_equal(valid, v_lp)
            elif first32 is None:
                first32 = warped
            else:
                assert np.array_equal(warped, first32)
