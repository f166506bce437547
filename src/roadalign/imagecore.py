"""NetPBM image I/O and the raster primitives used by every stage.

Images are plain numpy arrays: grayscale frames are float64 ``(h, w)`` grids
with values in [0, 1], color frames are float64 ``(h, w, 3)`` grids, and
masks are boolean ``(h, w)`` grids where True marks road. A pyramid is a
list of grayscale arrays, finest level first.

Gaussian smoothing is a numpy line filter run down the columns and then
along the rows: each line is edge-replicated by the kernel radius r, and
an output sample is x[i] k[r] plus (x[i - j] + x[i + j]) k[r - j] added
for j = r down to 1. That is the order in which scipy.ndimage sums an odd
symmetric kernel, so both give the same bits.
"""

import functools
import math
import os
from pathlib import Path

import numpy as np

from .errors import (
    MalformedHeaderError,
    TruncatedPayloadError,
    UnsupportedMaxvalError,
)

# Channels of color images are clamped away from zero so log-chromaticity
# ratios stay finite.
RGB_FLOOR = 1.0 / 510.0

MIN_PYRAMID_SIDE = 16

_WHITESPACE = (0x20, 0x09, 0x0A, 0x0D, 0x0B, 0x0C)


def _parse_pnm_header(data):
    """Return (magic, width, height, maxval, payload_offset).

    Comments starting with ``#`` are tolerated anywhere between header
    tokens. Width, height and maxval are written in ASCII digits only
    (no sign, no underscore). Exactly one whitespace byte separates the
    maxval from the binary payload.
    """
    n = len(data)
    tokens = []
    i = 0
    while len(tokens) < 4:
        while i < n and data[i] in _WHITESPACE:
            i += 1
        if i < n and data[i] == 0x23:  # '#'
            while i < n and data[i] not in (0x0A, 0x0D):
                i += 1
            continue
        if i >= n:
            raise MalformedHeaderError("incomplete NetPBM header")
        start = i
        while i < n and data[i] not in _WHITESPACE and data[i] != 0x23:
            i += 1
        tokens.append(data[start:i])
    if i >= n or data[i] not in _WHITESPACE:
        raise MalformedHeaderError("missing whitespace after maxval")
    magic = tokens[0].decode("ascii", errors="replace")
    if magic not in ("P5", "P6"):
        raise MalformedHeaderError(f"unsupported magic {magic!r}")
    if not all(t.isdigit() for t in tokens[1:]):
        raise MalformedHeaderError("non-numeric header field")
    try:
        width, height, maxval = (int(t) for t in tokens[1:])
    except ValueError:  # more digits than int() converts
        raise MalformedHeaderError("header field too long") from None
    if width <= 0 or height <= 0:
        raise MalformedHeaderError("non-positive image dimensions")
    if maxval != 255:
        raise UnsupportedMaxvalError(f"maxval {maxval} not supported, want 255")
    return magic, width, height, maxval, i + 1


def _check_payload(path, magic, width, height, offset, size):
    """Shape of a frame whose file holds `size` bytes, the payload from
    `offset`; a TruncatedPayloadError if that is shorter than promised."""
    shape = (height, width) if magic == "P5" else (height, width, 3)
    expected = math.prod(shape)
    if size - offset < expected:
        raise TruncatedPayloadError(
            f"{path}: expected {expected} payload bytes, found {size - offset}"
        )
    return shape


def read_image_shape(path):
    """Shape `load_image` gives a binary PGM or PPM file, from its header.

    That is (height, width) for a gray P5 file and (height, width, 3)
    for a color P6 file. Only the header is read; the file's size shows
    whether the payload is complete (TruncatedPayloadError if not).
    """
    data = b""
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(1024)
            data += chunk
            try:
                magic, width, height, _, offset = _parse_pnm_header(data)
                break
            except MalformedHeaderError:
                if not chunk:  # the header is malformed, not just unread
                    raise
        size = os.fstat(fh.fileno()).st_size
    return _check_payload(path, magic, width, height, offset, size)


def _read_pnm(path):
    """(magic, payload) of a binary PGM or PPM file.

    The payload is a read-only uint8 array of the shape `load_image`
    gives the file.
    """
    data = Path(path).read_bytes()
    magic, width, height, _, offset = _parse_pnm_header(data)
    shape = _check_payload(path, magic, width, height, offset, len(data))
    payload = np.frombuffer(data, dtype=np.uint8, count=math.prod(shape),
                            offset=offset)
    return magic, payload.reshape(shape)


def load_image(path):
    """Load a binary PGM (P5) or PPM (P6) file.

    Gray values are mapped to [0, 1] by v / 255. Color channels are
    additionally clamped to [RGB_FLOOR, 1].
    """
    magic, payload = _read_pnm(path)
    img = payload.astype(np.float64)
    img /= 255.0
    if magic == "P6":
        np.maximum(img, RGB_FLOOR, out=img)
    return img


def load_mask(path):
    """Load a P5 file as a boolean road mask (values above 0.5 are road).

    v / 255 > 0.5 holds exactly for the bytes v above 127.
    """
    magic, payload = _read_pnm(path)
    if magic != "P5":
        raise MalformedHeaderError(f"{path}: mask must be a P5 image")
    return payload > 127


def save_mask(mask, path):
    """Write a boolean mask as binary PGM, road pixels as 255."""
    payload = np.asarray(mask, dtype=bool).astype(np.uint8) * np.uint8(255)
    _write_pnm(path, "P5", payload)


def save_image_rgb(img, path):
    """Write a [0, 1] color image as binary PPM."""
    arr = np.asarray(img, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError("expected an (h, w, 3) array")
    payload = np.clip(np.rint(arr * 255.0), 0, 255).astype(np.uint8)
    _write_pnm(path, "P6", payload)


def _write_pnm(path, magic, payload):
    h, w = payload.shape[:2]
    header = f"{magic}\n{w} {h}\n255\n".encode("ascii")
    Path(path).write_bytes(header + payload.tobytes())


def rgb_to_gray(img):
    """Luma of a color image (Rec. 601 weights)."""
    arr = np.asarray(img, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError("expected an (h, w, 3) array")
    return arr[..., 0] * 0.299 + arr[..., 1] * 0.587 + arr[..., 2] * 0.114


def gaussian_kernel(sigma):
    """Discrete truncated Gaussian, radius ceil(3 sigma), weights sum to 1."""
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    radius = math.ceil(3.0 * sigma)
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-(offsets ** 2) / (2.0 * sigma * sigma))
    return kernel / kernel.sum()


def gaussian_smooth(img, sigma):
    """Separable Gaussian smoothing with edge replication.

    Output has the same dimensions as the input. Smoothing a constant
    image returns it unchanged.
    """
    arr = np.asarray(img, dtype=np.float64)
    kernel = gaussian_kernel(sigma)
    return _filter_lines(_filter_lines(arr, kernel, 0), kernel, 1)


def _filter_lines(arr, kernel, axis):
    """Correlate every line of `arr` along `axis` with a symmetric kernel.

    Each line is extended by the kernel radius at both ends with copies
    of its end samples, which also serves lines shorter than the radius.
    The result is C-contiguous, as scipy's is, so that later reductions
    over it add in the same order.
    """
    r = len(kernel) // 2
    lines = arr.swapaxes(0, axis)
    n = len(lines)
    padded = np.empty((n + 2 * r,) + lines.shape[1:])
    padded[r:r + n] = lines
    padded[:r] = lines[0]
    padded[r + n:] = lines[-1]
    out = padded[r:r + n] * kernel[r]
    pair = np.empty_like(out)
    for j in range(r, 0, -1):
        np.add(padded[r - j:r - j + n], padded[r + j:r + j + n], out=pair)
        pair *= kernel[r - j]
        out += pair
    return np.ascontiguousarray(out.swapaxes(0, axis))


def downsample(img, factor):
    """Block-mean downsampling; partial border blocks average what exists.

    Output dimensions are ceil(h / factor) x ceil(w / factor).
    """
    if int(factor) != factor or factor < 1:
        raise ValueError("factor must be a positive integer")
    factor = int(factor)
    arr = np.asarray(img, dtype=np.float64)
    if factor == 1:
        return arr.copy()
    h, w = arr.shape
    ri = np.arange(0, h, factor)
    ci = np.arange(0, w, factor)
    sums = np.add.reduceat(np.add.reduceat(arr, ri, axis=0), ci, axis=1)
    rcount = np.minimum(ri + factor, h) - ri
    ccount = np.minimum(ci + factor, w) - ci
    return sums / np.outer(rcount, ccount)


@functools.lru_cache(maxsize=16)
def smooth_and_average(n, sigma, factor):
    """(ceil(n / factor), n) operator of `downsample(gaussian_smooth(.))`
    along one axis of n samples.

    Row i smooths a line as `gaussian_smooth` does and averages block i
    of `factor` samples of the result, a partial last block over what it
    holds, as `downsample` does. So for an h x w frame,
    R @ img @ C.T with R = smooth_and_average(h, ...) and
    C = smooth_and_average(w, ...) is the smoothed, downsampled frame
    up to rounding. Computed once per key and read-only.
    """
    smoothed = _filter_lines(np.eye(n), gaussian_kernel(sigma), 0)
    starts = np.arange(0, n, factor)
    counts = np.minimum(starts + factor, n) - starts
    op = np.add.reduceat(smoothed, starts, axis=0) / counts[:, None]
    op.setflags(write=False)
    return op


def gradient(img):
    """Central-difference gradients, one-sided at the borders.

    Returns (dx, dy) with dx along columns and dy along rows.
    """
    arr = np.asarray(img, dtype=np.float64)
    if arr.shape[0] < 2 or arr.shape[1] < 2:
        raise ValueError("gradient needs at least a 2x2 image")
    dy, dx = np.gradient(arr)
    return dx, dy


def pyramid_depth(shape, levels):
    """Levels, at most `levels`, that `build_pyramid` builds for `shape`.

    A level is built only while both sides of the next one, ceil(side / 2),
    stay at least MIN_PYRAMID_SIDE.
    """
    if levels < 1:
        raise ValueError("levels must be at least 1")
    h, w = shape[:2]
    depth = 1
    while depth < levels:
        h, w = math.ceil(h / 2), math.ceil(w / 2)
        if h < MIN_PYRAMID_SIDE or w < MIN_PYRAMID_SIDE:
            break
        depth += 1
    return depth


def build_pyramid(img, levels):
    """Coarse-to-fine pyramid: smooth (sigma 1) then halve, per level.

    Levels whose dimensions would drop below 16x16 are not built, so
    the pyramid holds `pyramid_depth(img.shape, levels)` levels; a
    shorter pyramid than requested is not reported here.
    """
    arr = np.asarray(img, dtype=np.float64)
    depth = pyramid_depth(arr.shape, levels)
    pyramid = [arr]
    while len(pyramid) < depth:
        pyramid.append(downsample(gaussian_smooth(pyramid[-1], 1.0), 2))
    return pyramid
