"""Coarse gradient-direction frame descriptors and their similarity.

A descriptor is the pair of gradient grids of a smoothed, heavily
downsampled frame, floored where the gradient magnitude is weak and
normalized to unit length as one stacked vector. Similarity is the best
renormalized inner product over small integer grid shifts, which buys
tolerance to small viewpoint offsets.
"""

import math
from dataclasses import dataclass

import numpy as np

from .imagecore import downsample, gaussian_smooth, gradient


@dataclass(frozen=True)
class DescriptorParams:
    smooth_sigma: float = 2.0
    downsample_factor: int = 16
    gradient_floor_ratio: float = 0.05
    max_shift: int = 2
    mu_y: float = 1.0
    sigma_y: float = 0.5

    def __post_init__(self):
        if not self.smooth_sigma > 0:
            raise ValueError("smooth_sigma must be positive")
        if self.downsample_factor < 1:
            raise ValueError("downsample_factor must be at least 1")
        if not 0.0 <= self.gradient_floor_ratio < 1.0:
            raise ValueError("gradient_floor_ratio must be in [0, 1)")
        if self.max_shift < 0:
            raise ValueError("max_shift must be non-negative")
        if not self.sigma_y > 0:
            raise ValueError("sigma_y must be positive")


@dataclass(frozen=True)
class Descriptor:
    """Unit-norm stacked gradient grids (dx, dy) at descriptor resolution."""

    dx: np.ndarray
    dy: np.ndarray

    @property
    def shape(self):
        return self.dx.shape

    @property
    def is_zero(self):
        return not (np.any(self.dx) or np.any(self.dy))

    @classmethod
    def from_gradients(cls, dx, dy):
        """Normalize raw gradient grids into a descriptor.

        All-zero gradients produce the zero descriptor.
        """
        dx = np.asarray(dx, dtype=np.float64)
        dy = np.asarray(dy, dtype=np.float64)
        if dx.shape != dy.shape:
            raise ValueError("dx and dy must have the same shape")
        norm = math.sqrt(float((dx * dx).sum() + (dy * dy).sum()))
        if norm > 0.0:
            return cls(dx / norm, dy / norm)
        return cls(dx.copy(), dy.copy())


def compute_descriptor(img, params=DescriptorParams()):
    """Descriptor of a grayscale frame.

    Smooth, block-mean downsample, take gradients, zero every cell whose
    magnitude falls below `gradient_floor_ratio` of the maximum, then
    normalize. The downsampled frame must be at least 2x2.
    """
    small = downsample(gaussian_smooth(img, params.smooth_sigma),
                       params.downsample_factor)
    if small.shape[0] < 2 or small.shape[1] < 2:
        raise ValueError(
            f"image too small: {small.shape[1]}x{small.shape[0]} after downsampling"
        )
    dx, dy = gradient(small)
    mag = np.hypot(dx, dy)
    floor = params.gradient_floor_ratio * mag.max()
    weak = mag < floor
    dx[weak] = 0.0
    dy[weak] = 0.0
    return Descriptor.from_gradients(dx, dy)


def _overlap_slices(h, w, u, v):
    ys0, ys1 = max(0, v), h + min(0, v)
    xs0, xs1 = max(0, u), w + min(0, u)
    return ys0, ys1, xs0, xs1


def similarity(a, b, max_shift=2):
    """Best renormalized inner product of b shifted against a.

    Each integer shift (u, v) with |u|, |v| <= max_shift is scored by the
    cosine of the two stacked gradient vectors restricted to the
    overlapping cells; the maximum is returned. The value lies in [-1, 1];
    a zero descriptor scores 0 against anything.
    """
    if a.shape != b.shape:
        raise ValueError("descriptor shapes differ")
    if a.is_zero or b.is_zero:
        return 0.0
    h, w = a.shape
    best = -math.inf
    for v in range(-max_shift, max_shift + 1):
        for u in range(-max_shift, max_shift + 1):
            ys0, ys1, xs0, xs1 = _overlap_slices(h, w, u, v)
            if ys0 >= ys1 or xs0 >= xs1:
                continue
            adx = a.dx[ys0:ys1, xs0:xs1]
            ady = a.dy[ys0:ys1, xs0:xs1]
            bdx = b.dx[ys0 - v:ys1 - v, xs0 - u:xs1 - u]
            bdy = b.dy[ys0 - v:ys1 - v, xs0 - u:xs1 - u]
            dot = float((adx * bdx).sum() + (ady * bdy).sum())
            na = math.sqrt(float((adx * adx).sum() + (ady * ady).sum()))
            nb = math.sqrt(float((bdx * bdx).sum() + (bdy * bdy).sum()))
            score = dot / (na * nb) if na > 0.0 and nb > 0.0 else 0.0
            if score > best:
                best = score
    if best == -math.inf:
        return 0.0
    return min(1.0, max(-1.0, best))


class DescriptorBank:
    """Stacked descriptor grids for batched similarity queries."""

    def __init__(self, descriptors):
        descriptors = list(descriptors)
        if not descriptors:
            raise ValueError("empty descriptor bank")
        shape = descriptors[0].shape
        for d in descriptors:
            if d.shape != shape:
                raise ValueError("descriptor shapes differ")
        self.dx = np.stack([d.dx for d in descriptors])
        self.dy = np.stack([d.dy for d in descriptors])

    def __len__(self):
        return self.dx.shape[0]

    @property
    def grid_shape(self):
        return self.dx.shape[1:]


def similarity_to_bank(d, bank, max_shift=2, start=0, stop=None):
    """Vector of similarity(d, bank[i]) for i in range(start, stop).

    Matches the scalar `similarity` exactly; used to score one observed
    frame against a contiguous stretch of the reference ride at once
    (the whole ride by default). Each entry is the same whichever range
    it is scored in.
    """
    if d.shape != bank.grid_shape:
        raise ValueError("descriptor shapes differ")
    stop = len(bank) if stop is None else stop
    if not 0 <= start <= stop <= len(bank):
        raise ValueError(f"column range [{start}, {stop}) outside the bank")
    n = stop - start
    if d.is_zero:
        return np.zeros(n)
    h, w = d.shape
    best = np.full(n, -np.inf)
    for v in range(-max_shift, max_shift + 1):
        for u in range(-max_shift, max_shift + 1):
            ys0, ys1, xs0, xs1 = _overlap_slices(h, w, u, v)
            if ys0 >= ys1 or xs0 >= xs1:
                continue
            adx = d.dx[ys0:ys1, xs0:xs1]
            ady = d.dy[ys0:ys1, xs0:xs1]
            bdx = bank.dx[start:stop, ys0 - v:ys1 - v, xs0 - u:xs1 - u]
            bdy = bank.dy[start:stop, ys0 - v:ys1 - v, xs0 - u:xs1 - u]
            dot = np.einsum("ij,nij->n", adx, bdx) + np.einsum("ij,nij->n", ady, bdy)
            na = math.sqrt(float((adx * adx).sum() + (ady * ady).sum()))
            nb = np.sqrt((bdx * bdx).sum(axis=(1, 2)) + (bdy * bdy).sum(axis=(1, 2)))
            ok = (na > 0.0) & (nb > 0.0)
            score = np.where(ok, dot / np.where(ok, na * nb, 1.0), 0.0)
            best = np.maximum(best, score)
    best[best == -np.inf] = 0.0
    return np.clip(best, -1.0, 1.0)


def likelihood_from_similarity(sim, params=DescriptorParams()):
    """Gaussian observation density of a similarity value (scalar or array)."""
    z = (np.asarray(sim, dtype=np.float64) - params.mu_y) / params.sigma_y
    out = np.exp(-0.5 * z * z) / (params.sigma_y * math.sqrt(2.0 * math.pi))
    if np.ndim(sim) == 0:
        return float(out)
    return out


def observation_likelihood(a, b, params=DescriptorParams()):
    """Observation density of descriptor a against reference descriptor b."""
    return likelihood_from_similarity(similarity(a, b, params.max_shift), params)
