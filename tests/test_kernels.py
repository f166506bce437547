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
        h_np, g_np, s_np, n_np = kernels.lk_accumulate(warped, valid, obs,
                                                       f, cx, cy, skip)
        h_lp, g_lp, s_lp, n_lp = loop_lk_terms(warped, valid, obs,
                                               f, cx, cy, skip)
        assert n_np == n_lp
        assert np.allclose(h_np, h_lp, rtol=1e-10, atol=1e-12)
        assert np.allclose(g_np, g_lp, rtol=1e-10, atol=1e-12)
        assert s_np == pytest.approx(s_lp, rel=1e-10)


@pytest.mark.parametrize("skip", [0, 2])
def test_masked_sse_backends_agree(skip):
    for src, wx, wy, wz, f, cx, cy in _cases():
        obs = textured_image(78, src.shape)
        warped, valid = kernels.warp_bilinear(src, wx, wy, wz, f, cx, cy)
        s_np, n_np = kernels.masked_sse(warped, valid, obs, skip)
        s_lp, n_lp = loop_masked_sse(warped, valid, obs, skip)
        assert n_np == n_lp
        assert s_np == pytest.approx(s_lp, rel=1e-10)
