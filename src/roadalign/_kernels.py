"""Hot per-pixel kernels, vectorized with numpy.

Backward warping under the small-rotation quadratic motion model,
bilinear (images) or half-up nearest (masks) sampling, validity limited
to sampling positions inside [0, w-1] x [0, h-1], and Gauss-Newton term
accumulation with gradients matching numpy.gradient (central inside,
one-sided at borders). Pixels whose gradient stencil touches an invalid
sample are skipped.
"""

import numpy as np


def get_backend():
    """Name of the kernel implementation; there is only "numpy"."""
    return "numpy"


def flow(x, y, wx, wy, wz, f):
    """Rotation flow (u, v) at coordinates (x, y) relative to the centre."""
    u = (-x * y / f) * wx + (f + x * x / f) * wy - y * wz
    v = (-f - y * y / f) * wx + (x * y / f) * wy + x * wz
    return u, v


def _motion_grid(h, w, wx, wy, wz, f, cx, cy):
    """Sampling positions of every pixel of an h x w frame."""
    xi, yi = np.meshgrid(np.arange(w, dtype=np.float64),
                         np.arange(h, dtype=np.float64))
    u, v = flow(xi - cx, yi - cy, wx, wy, wz, f)
    return xi + u, yi + v


def warp_bilinear(src, wx, wy, wz, f, cx, cy):
    """Backward-warp src with bilinear sampling; returns (warped, valid)."""
    src = np.asarray(src, dtype=np.float64)
    h, w = src.shape
    sx, sy = _motion_grid(h, w, wx, wy, wz, f, cx, cy)
    valid = (sx >= 0.0) & (sx <= w - 1) & (sy >= 0.0) & (sy <= h - 1)
    x0 = np.floor(sx)
    y0 = np.floor(sy)
    fx = sx - x0
    fy = sy - y0
    x0 = np.clip(x0.astype(np.int64), 0, w - 1)
    y0 = np.clip(y0.astype(np.int64), 0, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    top = (1.0 - fx) * src[y0, x0] + fx * src[y0, x1]
    bot = (1.0 - fx) * src[y1, x0] + fx * src[y1, x1]
    out = (1.0 - fy) * top + fy * bot
    out[~valid] = 0.0
    return out, valid


def warp_nearest(mask, wx, wy, wz, f, cx, cy):
    """Backward-warp a boolean mask with half-up nearest sampling."""
    mask = np.asarray(mask, dtype=np.bool_)
    h, w = mask.shape
    sx, sy = _motion_grid(h, w, wx, wy, wz, f, cx, cy)
    valid = (sx >= 0.0) & (sx <= w - 1) & (sy >= 0.0) & (sy <= h - 1)
    ix = np.clip(np.floor(sx + 0.5).astype(np.int64), 0, w - 1)
    iy = np.clip(np.floor(sy + 0.5).astype(np.int64), 0, h - 1)
    return mask[iy, ix] & valid


def lk_terms(warped, valid, obs, f, cx, cy, skip):
    """Gauss-Newton terms (hess, grad, sse, count) of warped against obs."""
    h, w = warped.shape
    gy, gx = np.gradient(warped)

    ok = valid.copy()
    nb = np.empty_like(valid)
    nb[:, 1:-1] = valid[:, :-2] & valid[:, 2:]
    nb[:, 0] = valid[:, 1]
    nb[:, -1] = valid[:, -2]
    ok &= nb
    nb[1:-1, :] = valid[:-2, :] & valid[2:, :]
    nb[0, :] = valid[1, :]
    nb[-1, :] = valid[-2, :]
    ok &= nb
    if skip > 0:
        inner = np.zeros_like(ok)
        inner[skip:h - skip, skip:w - skip] = True
        ok &= inner

    xs = np.arange(w, dtype=np.float64) - cx
    ys = np.arange(h, dtype=np.float64) - cy
    x, y = np.meshgrid(xs, ys)
    jx = (gx * (-x * y / f) + gy * (-f - y * y / f))[ok]
    jy = (gx * (f + x * x / f) + gy * (x * y / f))[ok]
    jz = (gx * (-y) + gy * x)[ok]
    r = (warped - obs)[ok]

    hess = np.empty((3, 3))
    hess[0, 0] = (jx * jx).sum()
    hess[0, 1] = hess[1, 0] = (jx * jy).sum()
    hess[0, 2] = hess[2, 0] = (jx * jz).sum()
    hess[1, 1] = (jy * jy).sum()
    hess[1, 2] = hess[2, 1] = (jy * jz).sum()
    hess[2, 2] = (jz * jz).sum()
    grad = np.array([(jx * r).sum(), (jy * r).sum(), (jz * r).sum()])
    return hess, grad, float((r * r).sum()), int(ok.sum())


def masked_sse(warped, valid, obs, skip):
    """(sum of squared residuals, count) over valid pixels inside skip."""
    h, w = warped.shape
    if skip > 0:
        region = np.zeros_like(valid)
        region[skip:h - skip, skip:w - skip] = valid[skip:h - skip, skip:w - skip]
    else:
        region = valid
    r = (warped - obs)[region]
    return float((r * r).sum()), int(region.sum())


def lk_accumulate(ref, obs, wx, wy, wz, f, cx, cy, skip):
    """Warp ref, then return Gauss-Newton terms (hess, grad, sse, count)."""
    warped, valid = warp_bilinear(ref, wx, wy, wz, f, cx, cy)
    return lk_terms(warped, valid, obs, f, cx, cy, skip)


def warp_sse(ref, obs, wx, wy, wz, f, cx, cy, skip):
    """Warp ref and return (sum of squared residuals, pixel count)."""
    warped, valid = warp_bilinear(ref, wx, wy, wz, f, cx, cy)
    return masked_sse(warped, valid, obs, skip)
