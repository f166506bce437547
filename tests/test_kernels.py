import numpy as np
import pytest
from helpers import (clamped_warp_bilinear, full_frame_lk_accumulate,
                     full_frame_masked_sse, loop_lk_terms, loop_masked_sse,
                     loop_warp_bilinear, loop_warp_nearest, textured_image)

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


@pytest.mark.parametrize("skip", [0, 1, 2])
def test_lk_terms_backends_agree(skip):
    for src, wx, wy, wz, f, cx, cy in _cases():
        obs = textured_image(77, src.shape)
        warped, valid = kernels.warp_bilinear(src, wx, wy, wz, f, cx, cy)
        if skip == 0:
            _assert_no_full_frame_terms(warped, valid, obs, f, cx, cy)
            continue
        _, _, resid = kernels.masked_sse(warped, valid, obs, skip)
        h_np, g_np, n_np = kernels.lk_accumulate(warped, valid, resid,
                                                 f, cx, cy, skip)
        h_lp, g_lp, n_lp = loop_lk_terms(warped, valid, obs, f, cx, cy, skip)
        assert n_np == n_lp
        assert np.allclose(h_np, h_lp, rtol=1e-10, atol=1e-12)
        assert np.allclose(g_np, g_lp, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("skip", [0, 1, 2])
def test_masked_sse_backends_agree(skip):
    for src, wx, wy, wz, f, cx, cy in _cases():
        obs = textured_image(78, src.shape)
        warped, valid = kernels.warp_bilinear(src, wx, wy, wz, f, cx, cy)
        if skip == 0:
            _assert_no_full_frame_terms(warped, valid, obs, f, cx, cy)
            continue
        s_np, n_np, resid = kernels.masked_sse(warped, valid, obs, skip)
        s_lp, n_lp = loop_masked_sse(warped, valid, obs, skip)
        assert n_np == n_lp
        assert s_np == pytest.approx(s_lp, rel=1e-10)
        inner = np.s_[skip:-skip, skip:-skip]
        assert np.array_equal(resid, (warped - obs)[inner])


def _assert_no_full_frame_terms(warped, valid, obs, f, cx, cy):
    # skip=0 would take central differences at the frame edge
    with pytest.raises(ValueError, match="skip must be at least 1"):
        kernels.masked_sse(warped, valid, obs, 0)
    with pytest.raises(ValueError, match="skip must be at least 1"):
        kernels.lk_accumulate(warped, valid, obs, f, cx, cy, 0)


def test_residual_and_terms_refuse_a_frame_without_border():
    # the terms use central differences, which need a pixel on each side
    src = textured_image(79, (45, 60))
    warped, valid = kernels.warp_bilinear(src, 0.01, 0.0, 0.0, 70.0, 29.5, 22.0)
    _assert_no_full_frame_terms(warped, valid, src, 70.0, 29.5, 22.0)
    with pytest.raises(ValueError, match="skip must be at least 1"):
        kernels.warp_sse(kernels.pad_edge(src, src.dtype), src,
                         0.01, 0.0, 0.0, 70.0, 29.5, 22.0, 0)


def _edge_cases(h, w):
    """Rotations of an h x w frame: identity (every position on the
    grid, the last row and column read through the padding), a pure
    roll about an integer principal point (row cy samples whole columns
    up to the last one, column cx whole rows up to the last one),
    rotations pushing samples past every edge, and small ones."""
    f = 1.2 * w
    rng = np.random.default_rng(h * w)
    cases = [((0.0, 0.0, 0.0), f, (w - 1) / 2, (h - 1) / 2),
             ((0.0, 0.0, 0.05), f, float(w // 2), float(h // 2)),
             ((0.0, 0.0, -0.11), f, float(w // 3), float(h // 3))]
    for wx, wy in ((0.3, 0.0), (-0.3, 0.0), (0.0, 0.3), (0.0, -0.3)):
        cases.append(((wx, wy, 0.2), f, (w - 1) / 2, (h - 1) / 2))
    for _ in range(6):
        cases.append((tuple(rng.uniform(-0.02, 0.02, 3)), f,
                      (w - 1) / 2 + rng.uniform(-2, 2),
                      (h - 1) / 2 + rng.uniform(-2, 2)))
    return cases


@pytest.mark.parametrize("shape", [(120, 160), (60, 80), (30, 40), (17, 23)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_kernels_equal_the_whole_frame_formulation_bitwise(shape, dtype):
    src = textured_image(81, shape).astype(dtype)
    obs = textured_image(82, shape).astype(dtype)
    padded = kernels.pad_edge(src, dtype)
    edges = {"last row": False, "last column": False, "outside": False}
    for omega, f, cx, cy in _edge_cases(*shape):
        warped, valid = kernels.warp_bilinear(src, *omega, f, cx, cy)
        want, want_valid = clamped_warp_bilinear(src, *omega, f, cx, cy)
        assert warped.dtype == want.dtype == dtype
        assert np.array_equal(warped, want)
        assert np.array_equal(np.signbit(warped), np.signbit(want))
        assert np.array_equal(valid, want_valid)
        sse, n, resid = kernels.masked_sse(warped, valid, obs, 2)
        assert (sse, n) == full_frame_masked_sse(want, want_valid, obs, 2)
        hess, grad, count = kernels.lk_accumulate(warped, valid, resid,
                                                  f, cx, cy, 2)
        h_want, g_want, n_want = full_frame_lk_accumulate(
            want, want_valid, obs, f, cx, cy, 2)
        assert count == n_want
        assert grad.dtype == g_want.dtype
        assert np.all(hess == h_want) and np.all(grad == g_want)
        assert kernels.warp_sse(padded, obs, *omega, f, cx, cy, 2)[:2] \
            == (sse, n)

        h, w = shape
        cols, rows, basis = kernels.pixel_grid(h, w, f, cx, cy,
                                               np.dtype(dtype))
        sx, sy = basis.flow(*map(float, omega))
        sx, sy = sx + cols, sy + rows
        edges["last column"] |= bool(np.any(valid & (sx == w - 1)))
        edges["last row"] |= bool(np.any(valid & (sy == h - 1)))
        edges["outside"] |= all(np.any(c) for c in (
            sx < 0, sx > w - 1, sy < 0, sy > h - 1))
    assert all(edges.values())


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


@pytest.mark.parametrize("skip", [0, 1, 2])
def test_float32_terms_agree_with_the_float64_oracles(skip):
    for src, wx, wy, wz, f, cx, cy in _cases():
        obs = textured_image(77, src.shape).astype(np.float32)
        warped, valid = kernels.warp_bilinear(src.astype(np.float32),
                                              wx, wy, wz, f, cx, cy)
        if skip == 0:
            _assert_no_full_frame_terms(warped, valid, obs, f, cx, cy)
            continue
        # the oracles run in float64 on the same float32 values
        w64, o64 = warped.astype(np.float64), obs.astype(np.float64)
        s_np, n_np, resid = kernels.masked_sse(warped, valid, obs, skip)
        hess, grad, n = kernels.lk_accumulate(warped, valid, resid,
                                              f, cx, cy, skip)
        h_lp, g_lp, n_lp = loop_lk_terms(w64, valid, o64, f, cx, cy, skip)
        assert n == n_lp
        assert grad.dtype == np.float32  # summed in float32
        assert np.allclose(hess, h_lp, rtol=0.0,
                           atol=TERM_RTOL * np.abs(h_lp).max())
        assert np.allclose(grad, g_lp, rtol=0.0,
                           atol=TERM_RTOL * np.abs(g_lp).max())
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
