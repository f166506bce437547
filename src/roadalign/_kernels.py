"""Hot per-pixel kernels, vectorized with numpy.

Backward warping under the small-rotation quadratic motion model and
Gauss-Newton term accumulation.

A sampling position is valid when it lies inside [0, w-1] x [0, h-1],
that is when clipping it to that range leaves it unchanged; the floor
of the clipped position is the gather index. Bilinear sampling (images)
reads a frame padded with a copy of its last row and last column
(`pad_edge`), so the four neighbours of every clipped position lie in
the padded frame: one flat index array is taken from the padded frame
at offsets 0, 1, W and W+1. Nearest sampling (masks) rounds half up.

Residuals and Gauss-Newton terms cover only the interior
[skip:h-skip, skip:w-skip], skip >= 1, where the gradient is the
central difference (f[i+1] - f[i-1]) / 2 that numpy.gradient computes
there. Pixels whose gradient stencil touches an invalid sample are
skipped.

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


def _clipped_positions(h, w, wx, wy, wz, f, cx, cy, dtype):
    """(sx, sy, valid): every pixel's sampling position, clipped to the
    frame, and whether clipping left it unchanged."""
    cols, rows, basis = pixel_grid(h, w, f, cx, cy, dtype)
    # Python floats: a numpy float64 angle would promote a float32 grid
    sx, sy = basis.flow(float(wx), float(wy), float(wz))
    sx += cols
    sy += rows
    clipped_x = np.clip(sx, 0, w - 1)
    clipped_y = np.clip(sy, 0, h - 1)
    valid = clipped_x == sx
    valid &= clipped_y == sy
    return clipped_x, clipped_y, valid


def pad_edge(src, dtype):
    """src as `dtype` with a copy of its last row and last column appended."""
    h, w = src.shape
    out = np.empty((h + 1, w + 1), dtype=dtype)
    out[:h, :w] = src
    out[:h, w] = out[:h, w - 1]
    out[h] = out[h - 1]
    return out


def _warp_padded(padded, wx, wy, wz, f, cx, cy):
    """Bilinear backward warp of the frame that `padded` pads."""
    h, w = padded.shape[0] - 1, padded.shape[1] - 1
    sx, sy, valid = _clipped_positions(h, w, wx, wy, wz, f, cx, cy,
                                       padded.dtype)
    x0 = np.floor(sx)
    y0 = np.floor(sy)
    fx = sx - x0
    fy = sy - y0
    stride = w + 1
    i = y0.astype(_index_dtype(h + 1, stride))
    i *= stride
    i += x0.astype(i.dtype)
    flat = padded.ravel()
    gx = 1.0 - fx
    top = gx * flat.take(i)
    top += fx * flat[1:].take(i)
    bot = gx * flat[stride:].take(i)
    bot += fx * flat[stride + 1:].take(i)
    out = (1.0 - fy) * top
    out += fy * bot
    out[~valid] = 0.0
    return out, valid


def warp_bilinear(src, wx, wy, wz, f, cx, cy):
    """Backward-warp src with bilinear sampling; returns (warped, valid).

    `warped` is float32 for a float32 src and float64 otherwise.
    """
    src = np.asarray(src)
    return _warp_padded(pad_edge(src, _float_dtype(src)),
                        wx, wy, wz, f, cx, cy)


def warp_nearest(mask, wx, wy, wz, f, cx, cy):
    """Backward-warp a boolean mask with half-up nearest sampling."""
    mask = np.asarray(mask, dtype=np.bool_)
    h, w = mask.shape
    sx, sy, valid = _clipped_positions(h, w, wx, wy, wz, f, cx, cy, _F64)
    # a clipped position plus 0.5 is positive and below side - 0.5, so
    # the cast, which truncates, gives its floor inside the frame
    index = _index_dtype(h, w)
    sx += 0.5
    sy += 0.5
    i = sy.astype(index)
    i *= w
    i += sx.astype(index)
    return mask.ravel().take(i) & valid


def _interior(skip):
    """Slice of one axis leaving out `skip` >= 1 pixels at each end."""
    if skip < 1:
        raise ValueError(f"skip must be at least 1, got {skip}")
    return slice(skip, -skip)


def masked_sse(warped, valid, obs, skip):
    """(sum of squared residuals, count, resid) over valid interior pixels.

    `resid` is warped - obs over the whole interior [skip:h-skip,
    skip:w-skip], for `lk_accumulate`.
    """
    inner = _interior(skip)
    resid = warped[inner, inner] - obs[inner, inner]
    r = resid[valid[inner, inner]]
    return float((r * r).sum()), r.size, resid


def lk_accumulate(warped, valid, resid, f, cx, cy, skip):
    """Gauss-Newton terms (hess, grad, count) of a warp over the interior.

    `warped` and `valid` are a `warp_bilinear` result and `resid` the
    interior residual that `masked_sse` returned for them, so that the
    step that accepted a warp reuses both. The per-pixel terms are
    computed in `warped`'s dtype, so `resid` should share it.
    """
    h, w = warped.shape
    inner = _interior(skip)
    # the interior shifted one pixel back (up or left), down and right
    back = slice(skip - 1, -skip - 1)
    down = slice(skip + 1, h - skip + 1)
    right = slice(skip + 1, w - skip + 1)
    gx = warped[inner, right] - warped[inner, back]
    gx /= 2.0
    gy = warped[down, inner] - warped[back, inner]
    gy /= 2.0
    ok = valid[inner, inner] & valid[inner, back]
    ok &= valid[inner, right]
    ok &= valid[back, inner]
    ok &= valid[down, inner]

    _, _, b = pixel_grid(h, w, f, cx, cy, _float_dtype(warped))
    xy = b.xy[inner, inner]
    jx = (gy * b.fy[inner] - gx * xy)[ok]
    jy = (gx * b.fx[inner] + gy * xy)[ok]
    jz = (gy * b.x[inner] - gx * b.y[inner])[ok]
    r = resid[ok]

    hess = np.empty((3, 3))
    hess[0, 0] = (jx * jx).sum()
    hess[0, 1] = hess[1, 0] = (jx * jy).sum()
    hess[0, 2] = hess[2, 0] = (jx * jz).sum()
    hess[1, 1] = (jy * jy).sum()
    hess[1, 2] = hess[2, 1] = (jy * jz).sum()
    hess[2, 2] = (jz * jz).sum()
    grad = np.array([(jx * r).sum(), (jy * r).sum(), (jz * r).sum()])
    return hess, grad, r.size


def warp_sse(padded, obs, wx, wy, wz, f, cx, cy, skip):
    """Warp the frame that `padded` (a `pad_edge` result) pads onto obs.

    Returns (sum of squared residuals, pixel count, warped, valid,
    resid), as `masked_sse` and `warp_bilinear` give them.
    """
    warped, valid = _warp_padded(padded, wx, wy, wz, f, cx, cy)
    sse, n, resid = masked_sse(warped, valid, obs, skip)
    return sse, n, warped, valid, resid
