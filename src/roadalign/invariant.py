"""Illuminant-invariant grayscale projection of log-chromaticity.

Shadows cast by a blackbody-like illuminant shift the log-chromaticity
pair (log R/G, log B/G) along a fixed direction. Projecting onto the
direction orthogonal to that shift removes the shadow while keeping
surface reflectance contrast.
"""

from dataclasses import dataclass

import math

import numpy as np


@dataclass(frozen=True)
class InvariantDirection:
    """Projection angle in radians, canonicalized into [0, pi)."""

    theta: float

    def __post_init__(self):
        if not math.isfinite(self.theta):
            raise ValueError("theta must be finite")
        object.__setattr__(self, "theta", self.theta % math.pi)


def _as_direction(direction):
    if isinstance(direction, InvariantDirection):
        return direction
    return InvariantDirection(float(direction))


def log_chroma_projection(img, direction):
    """Raw projection chi1*cos(theta) + chi2*sin(theta), no rescaling.

    chi1 = log(R/G), chi2 = log(B/G). Channels must be strictly positive;
    loading through `imagecore.load_image` guarantees that.
    """
    direction = _as_direction(direction)
    arr = np.asarray(img, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError("expected an (h, w, 3) array")
    if np.any(arr <= 0.0):
        raise ValueError("channels must be strictly positive")
    # the operations of log(R/G) cos + log(B/G) sin, in place
    proj = np.divide(arr[..., 0], arr[..., 1])
    np.log(proj, out=proj)
    proj *= math.cos(direction.theta)
    chi2 = np.divide(arr[..., 2], arr[..., 1])
    np.log(chi2, out=chi2)
    chi2 *= math.sin(direction.theta)
    proj += chi2
    return proj


def rgb_to_invariant(img, direction):
    """Invariant grayscale image, min/max rescaled to [0, 1].

    A constant projection (an achromatic or single-chromaticity image)
    maps to a flat 0.5 image.
    """
    proj = log_chroma_projection(img, direction)
    lo = proj.min()
    hi = proj.max()
    # a numerically flat projection must not have its rounding noise
    # stretched to full contrast
    if hi - lo <= 1e-12 * max(1.0, abs(hi), abs(lo)):
        return np.full_like(proj, 0.5)
    proj -= lo
    proj /= hi - lo
    return proj
