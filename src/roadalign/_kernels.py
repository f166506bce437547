"""Hot per-pixel kernels, vectorized with numpy.

Backward warping under the small-rotation quadratic motion model,
bilinear (images) or half-up nearest (masks) sampling, validity limited
to sampling positions inside [0, w-1] x [0, h-1], and Gauss-Newton term
accumulation with gradients matching numpy.gradient (central inside,
one-sided at borders). Pixels whose gradient stencil touches an invalid
sample are skipped.

The image kernels compute in the dtype of their image input: float32
stays float32 and every other input is computed in float64. Gather
indices are int32 wherever a frame's pixel count fits.
"""

import functools

import numpy as np


def get_backend():
    """Name of the kernel implementation; there is only "numpy"."""
    return "numpy"


class FlowBasis:
    """Coefficients of the rotation flow at coordinates (x, y).

    x and y are relative to the principal point and broadcast against
    each other. Only x*y/f needs both coordinates; the other terms keep
    the shape of the one coordinate they depend on.
    """

    def __init__(self, x, y, f):
        self.x = x
        self.y = y
        self.xy = x * y / f
        self.fx = f + x * x / f
        self.fy = -f - y * y / f

    def flow(self, wx, wy, wz):
        """Displacement (u, v) under the rotation (wx, wy, wz)."""
        # in place, in the order of u = xy*-wx + fx*wy - y*wz and
        # v = fy*wx + xy*wy + x*wz, so that the values are the same
        u = self.xy * -wx
        u += self.fx * wy
        u -= self.y * wz
        v = self.xy * wy
        v += self.fy * wx
        v += self.x * wz
        return u, v


_F64 = np.dtype(np.float64)


def _float_dtype(arr):
    """float32 for a float32 array, float64 for every other one."""
    return arr.dtype if arr.dtype == np.float32 else _F64


def _index_dtype(h, w):
    """int32 while the flat indices of an h x w frame fit in it."""
    return np.int32 if h * w <= np.iinfo(np.int32).max else np.intp


@functools.lru_cache(maxsize=16)
def pixel_grid(h, w, f, cx, cy, dtype):
    """(columns, rows, FlowBasis) of every pixel of an h x w frame.

    Columns are a length-w row and rows an h x 1 column, so that they
    broadcast to the frame. All are of the float `dtype` (a numpy dtype);
    the camera enters as Python floats so that it does not promote them.
    Computed once per key and read-only.
    """
    cols = np.arange(w, dtype=dtype)
    rows = np.arange(h, dtype=dtype)[:, None]
    basis = FlowBasis(cols - float(cx), rows - float(cy), float(f))
    for a in (cols, rows, *vars(basis).values()):
        a.setflags(write=False)
    return cols, rows, basis


def _sample_positions(h, w, wx, wy, wz, f, cx, cy, dtype):
    """Sampling positions (sx, sy) of every pixel of an h x w frame."""
    cols, rows, basis = pixel_grid(h, w, f, cx, cy, dtype)
    # Python floats: a numpy float64 angle would promote a float32 grid
    sx, sy = basis.flow(float(wx), float(wy), float(wz))
    sx += cols
    sy += rows
    return sx, sy


def warp_bilinear(src, wx, wy, wz, f, cx, cy):
    """Backward-warp src with bilinear sampling; returns (warped, valid).

    `warped` is float32 for a float32 src and float64 otherwise.
    """
    src = np.asarray(src)
    dtype = _float_dtype(src)
    src = src.astype(dtype, copy=False)
    h, w = src.shape
    sx, sy = _sample_positions(h, w, wx, wy, wz, f, cx, cy, dtype)
    valid = (sx >= 0.0) & (sx <= w - 1) & (sy >= 0.0) & (sy <= h - 1)
    x0 = np.floor(sx)
    y0 = np.floor(sy)
    fx = sx - x0
    fy = sy - y0
    index = _index_dtype(h, w)
    ix = np.clip(x0, 0, w - 1, out=x0).astype(index)
    iy = np.clip(y0, 0, h - 1, out=y0).astype(index)
    # flat indices of the four neighbours; the far ones clamp at the edge
    i00 = iy * w
    i00 += ix
    i01 = i00 + (ix < w - 1)
    down = (iy < h - 1).astype(index)
    down *= w
    flat = src.ravel()
    gx = 1.0 - fx
    top = gx * flat.take(i00)
    top += fx * flat.take(i01)
    bot = gx * flat.take(i00 + down)
    bot += fx * flat.take(i01 + down)
    out = (1.0 - fy) * top
    out += fy * bot
    out[~valid] = 0.0
    return out, valid


def warp_nearest(mask, wx, wy, wz, f, cx, cy):
    """Backward-warp a boolean mask with half-up nearest sampling."""
    mask = np.asarray(mask, dtype=np.bool_)
    h, w = mask.shape
    sx, sy = _sample_positions(h, w, wx, wy, wz, f, cx, cy, _F64)
    valid = (sx >= 0.0) & (sx <= w - 1) & (sy >= 0.0) & (sy <= h - 1)
    index = _index_dtype(h, w)
    ix = np.clip(np.floor(sx + 0.5), 0, w - 1).astype(index)
    iy = np.clip(np.floor(sy + 0.5), 0, h - 1).astype(index)
    return mask.ravel().take(iy * w + ix) & valid


def lk_accumulate(warped, valid, obs, f, cx, cy, skip):
    """Gauss-Newton terms (hess, grad, count) of warped against obs.

    `warped` and `valid` are a `warp_bilinear` result, so that the step
    that accepted a warp reuses it. The per-pixel terms are computed in
    `warped`'s dtype, so `obs` should share it.
    """
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

    _, _, b = pixel_grid(h, w, f, cx, cy, _float_dtype(warped))
    jx = (gy * b.fy - gx * b.xy)[ok]
    jy = (gx * b.fx + gy * b.xy)[ok]
    jz = (gy * b.x - gx * b.y)[ok]
    r = (warped - obs)[ok]

    hess = np.empty((3, 3))
    hess[0, 0] = (jx * jx).sum()
    hess[0, 1] = hess[1, 0] = (jx * jy).sum()
    hess[0, 2] = hess[2, 0] = (jx * jz).sum()
    hess[1, 1] = (jy * jy).sum()
    hess[1, 2] = hess[2, 1] = (jy * jz).sum()
    hess[2, 2] = (jz * jz).sum()
    grad = np.array([(jx * r).sum(), (jy * r).sum(), (jz * r).sum()])
    return hess, grad, int(ok.sum())


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


def warp_sse(ref, obs, wx, wy, wz, f, cx, cy, skip):
    """Warp ref; return (sum of squared residuals, pixel count, warped, valid)."""
    warped, valid = warp_bilinear(ref, wx, wy, wz, f, cx, cy)
    return (*masked_sse(warped, valid, obs, skip), warped, valid)
