"""NetPBM image I/O and the raster primitives used by every stage.

Images are plain numpy arrays: grayscale frames are float64 ``(h, w)`` grids
with values in [0, 1], color frames are float64 ``(h, w, 3)`` grids, and
masks are boolean ``(h, w)`` grids where True marks road. A pyramid is a
list of grayscale arrays, finest level first.

Every smoothing of a frame is followed by block means, and both are
linear, so the pair is one `smooth_and_average` operator per axis: a
small matrix that multiplies the frame from the left (rows) and from the
right (columns). The descriptor and each pyramid level are made that
way. An operator is built once per axis length, sigma and block size,
by a numpy line filter run on the identity: each line is edge-replicated
by the kernel radius r, and an output sample is x[i] k[r] plus
(x[i - j] + x[i + j]) k[r - j] added for j = r down to 1. That is the
order in which scipy.ndimage sums an odd symmetric kernel, so both give
the same bits.
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


class _HeaderCutShort(MalformedHeaderError):
    """The data ends inside the NetPBM header."""


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
            raise _HeaderCutShort("incomplete NetPBM header")
        start = i
        while i < n and data[i] not in _WHITESPACE and data[i] != 0x23:
            i += 1
        tokens.append(data[start:i])
    if i >= n:
        raise _HeaderCutShort("missing whitespace after maxval")
    if data[i] not in _WHITESPACE:
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
    data = bytearray()
    with open(path, "rb") as fh:
        while True:
            # doubling reads keep a long header (comments) linear in time
            chunk = fh.read(max(len(data), 1024))
            data += chunk
            try:
                magic, width, height, _, offset = _parse_pnm_header(data)
                break
            except _HeaderCutShort:
                if not chunk:  # the file ends inside its header
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


def _filter_lines(arr, kernel):
    """Correlate every column of `arr` with a symmetric kernel.

    Each column is extended by the kernel radius at both ends with
    copies of its end samples, which also serves columns shorter than
    the radius.
    """
    r = len(kernel) // 2
    n = len(arr)
    padded = np.empty((n + 2 * r,) + arr.shape[1:])
    padded[r:r + n] = arr
    padded[:r] = arr[0]
    padded[r + n:] = arr[-1]
    out = padded[r:r + n] * kernel[r]
    pair = np.empty_like(out)
    for j in range(r, 0, -1):
        np.add(padded[r - j:r - j + n], padded[r + j:r + j + n], out=pair)
        pair *= kernel[r - j]
        out += pair
    return out


@functools.lru_cache(maxsize=16)
def smooth_and_average(n, sigma, factor):
    """(ceil(n / factor), n) operator that smooths a line of n samples
    and then takes block means of the result.

    Row i is the weights by which a line, Gaussian smoothed (`sigma`,
    ends replicated), averages into block i of `factor` samples; a
    partial last block averages what it holds. So for an h x w frame,
    R @ img @ C.T with R = smooth_and_average(h, ...) and
    C = smooth_and_average(w, ...) is the smoothed, block-averaged frame
    up to rounding. The rows are those of the line filter run on the
    identity, which fixes their bits. Computed once per key and
    read-only.
    """
    smoothed = _filter_lines(np.eye(n), gaussian_kernel(sigma))
    starts = np.arange(0, n, factor)
    counts = np.minimum(starts + factor, n) - starts
    op = np.add.reduceat(smoothed, starts, axis=0) / counts[:, None]
    op.setflags(write=False)
    return op


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


@functools.lru_cache(maxsize=16)
def _halving_operator(n, dtype):
    """`smooth_and_average(n, 1.0, 2)` as `dtype`, cast once; read-only."""
    op = smooth_and_average(n, 1.0, 2).astype(dtype, copy=False)
    op.setflags(write=False)
    return op


def build_pyramid(img, levels):
    """Coarse-to-fine pyramid: smooth (sigma 1) then halve, per level.

    Each level is the one before it through `smooth_and_average(side,
    1.0, 2)` along both axes. The operators act on the level less its
    first pixel, added back after, so that a flat frame's levels are
    exactly flat. Levels whose dimensions would drop below 16x16 are not
    built, so the pyramid holds `pyramid_depth(img.shape, levels)`
    levels; a shorter pyramid than requested is not reported here.
    A float32 frame gives float32 levels, through the operators cast to
    float32; any other frame gives float64 levels.
    """
    arr = np.asarray(img)
    arr = arr.astype(arr.dtype if arr.dtype == np.float32 else np.float64,
                     copy=False)
    depth = pyramid_depth(arr.shape, levels)
    pyramid = [arr]
    while len(pyramid) < depth:
        x = pyramid[-1]
        rows, cols = (_halving_operator(n, arr.dtype) for n in x.shape)
        c = x.flat[0]
        pyramid.append(rows @ (x - c) @ cols.T + c)
    return pyramid
