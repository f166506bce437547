"""NetPBM image I/O and the raster primitives used by every stage.

Images are plain numpy arrays: grayscale frames are float64 ``(h, w)`` grids
with values in [0, 1], color frames are float64 ``(h, w, 3)`` grids, and
masks are boolean ``(h, w)`` grids where True marks road. A pyramid is a
list of grayscale arrays, finest level first.
"""

import logging
import math
from pathlib import Path

import numpy as np
from scipy import ndimage

from .errors import (
    MalformedHeaderError,
    TruncatedPayloadError,
    UnsupportedMaxvalError,
)

logger = logging.getLogger(__name__)

# Channels of color images are clamped away from zero so log-chromaticity
# ratios stay finite.
RGB_FLOOR = 1.0 / 510.0

MIN_PYRAMID_SIDE = 16

_WHITESPACE = (0x20, 0x09, 0x0A, 0x0D, 0x0B, 0x0C)


def _parse_pnm_header(data):
    """Return (magic, width, height, maxval, payload_offset).

    Comments starting with ``#`` are tolerated anywhere between header
    tokens. Exactly one whitespace byte separates the maxval from the
    binary payload.
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
    try:
        width, height, maxval = (int(t) for t in tokens[1:])
    except ValueError:
        raise MalformedHeaderError("non-numeric header field") from None
    if width <= 0 or height <= 0:
        raise MalformedHeaderError("non-positive image dimensions")
    if maxval != 255:
        raise UnsupportedMaxvalError(f"maxval {maxval} not supported, want 255")
    return magic, width, height, maxval, i + 1


def read_image_shape(path):
    """Shape `load_image` gives a binary PGM or PPM file, from its header.

    That is (height, width) for a gray P5 file and (height, width, 3)
    for a color P6 file.
    """
    data = b""
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(1024)
            data += chunk
            try:
                magic, width, height, _, _ = _parse_pnm_header(data)
                return (height, width) if magic == "P5" else (height, width, 3)
            except MalformedHeaderError:
                if not chunk:  # the header is malformed, not just unread
                    raise


def load_image(path):
    """Load a binary PGM (P5) or PPM (P6) file.

    Gray values are mapped to [0, 1] by v / 255. Color channels are
    additionally clamped to [RGB_FLOOR, 1].
    """
    data = Path(path).read_bytes()
    magic, width, height, _, offset = _parse_pnm_header(data)
    channels = 1 if magic == "P5" else 3
    expected = width * height * channels
    payload = data[offset:offset + expected]
    if len(payload) < expected:
        raise TruncatedPayloadError(
            f"{path}: expected {expected} payload bytes, found {len(payload)}"
        )
    raw = np.frombuffer(payload, dtype=np.uint8).astype(np.float64) / 255.0
    if channels == 1:
        return raw.reshape(height, width)
    rgb = raw.reshape(height, width, 3)
    return np.maximum(rgb, RGB_FLOOR)


def load_mask(path):
    """Load a P5 file as a boolean road mask (values above 0.5 are road)."""
    img = load_image(path)
    if img.ndim != 2:
        raise MalformedHeaderError(f"{path}: mask must be a P5 image")
    return img > 0.5


def save_mask(mask, path):
    """Write a boolean mask as binary PGM, road pixels as 255."""
    mask = np.asarray(mask, dtype=bool)
    payload = np.where(mask, 255, 0).astype(np.uint8)
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
    out = ndimage.convolve1d(arr, kernel, axis=0, mode="nearest")
    return ndimage.convolve1d(out, kernel, axis=1, mode="nearest")


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


def gradient(img):
    """Central-difference gradients, one-sided at the borders.

    Returns (dx, dy) with dx along columns and dy along rows.
    """
    arr = np.asarray(img, dtype=np.float64)
    if arr.shape[0] < 2 or arr.shape[1] < 2:
        raise ValueError("gradient needs at least a 2x2 image")
    dy, dx = np.gradient(arr)
    return dx, dy


def build_pyramid(img, levels):
    """Coarse-to-fine pyramid: smooth (sigma 1) then halve, per level.

    Levels whose dimensions would drop below 16x16 are not built; the
    pyramid is then shorter than requested and the reduction is logged.
    """
    if levels < 1:
        raise ValueError("levels must be at least 1")
    arr = np.asarray(img, dtype=np.float64)
    pyramid = [arr]
    while len(pyramid) < levels:
        h, w = pyramid[-1].shape
        nh, nw = math.ceil(h / 2), math.ceil(w / 2)
        if nh < MIN_PYRAMID_SIDE or nw < MIN_PYRAMID_SIDE:
            logger.warning(
                "pyramid clamped to %d levels (next level would be %dx%d)",
                len(pyramid), nw, nh,
            )
            break
        pyramid.append(downsample(gaussian_smooth(pyramid[-1], 1.0), 2))
    return pyramid
