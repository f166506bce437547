"""Coarse gradient-direction frame descriptors and their similarity.

A descriptor is the pair of gradient grids of a smoothed, heavily
downsampled frame, floored where the gradient magnitude is weak and
normalized to unit length as one stacked vector. The similarity of two
descriptors is the best cosine of the two stacked gradient vectors
restricted to their overlapping cells, over small integer grid shifts,
which buys tolerance to small viewpoint offsets. It lies in [-1, 1]; a
zero descriptor scores 0 against anything.
"""

import math
from dataclasses import dataclass

import numpy as np

from .imagecore import gradient, smooth_and_average

# cells whose gradient magnitude is below this share of the frame's
# largest are zeroed
GRADIENT_FLOOR_RATIO = 0.05
# grid shifts, in cells, over which two descriptors are compared
MAX_SHIFT = 2


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


def compute_descriptor(img, smooth_sigma, downsample_factor):
    """Descriptor of a grayscale frame.

    Smooth (Gaussian, `smooth_sigma`), take means of blocks of
    `downsample_factor` x `downsample_factor` pixels, take gradients,
    zero every cell whose magnitude falls below GRADIENT_FLOOR_RATIO of
    the maximum, then normalize. The downsampled frame must be at least
    2x2.

    Smoothing and downsampling are both linear, so they are one
    `smooth_and_average` operator per axis, applied to the frame less its
    first pixel: no gradient changes, and a flat frame gives exact zeros.
    """
    img = np.asarray(img, dtype=np.float64)
    rows, cols = (smooth_and_average(n, smooth_sigma, downsample_factor)
                  for n in img.shape)
    small = rows @ (img - img.flat[0]) @ cols.T
    if small.shape[0] < 2 or small.shape[1] < 2:
        raise ValueError(
            f"image too small: {small.shape[1]}x{small.shape[0]} after downsampling"
        )
    dx, dy = gradient(small)
    mag = np.hypot(dx, dy)
    floor = GRADIENT_FLOOR_RATIO * mag.max()
    weak = mag < floor
    dx[weak] = 0.0
    dy[weak] = 0.0
    return Descriptor.from_gradients(dx, dy)


def _shift_windows(h, w, max_shift):
    """(v, u, ys0, ys1, xs0, xs1) of each shift with a non-empty overlap.

    Shift (u, v) pairs cell (y, x) of the probe with cell (y - v, x - u)
    of a bank member; rows ys0:ys1 and columns xs0:xs1 are the probe's
    overlapping cells.
    """
    for v in range(-max_shift, max_shift + 1):
        for u in range(-max_shift, max_shift + 1):
            ys0, ys1 = max(0, v), h + min(0, v)
            xs0, xs1 = max(0, u), w + min(0, u)
            if ys0 < ys1 and xs0 < xs1:
                yield v, u, ys0, ys1, xs0, xs1


class DescriptorBank:
    """The descriptors of a reference ride as one (members, cells) matrix.

    Row i of `matrix` is member i's dx grid followed by its dy grid,
    flattened; `dx` and `dy` are (members, h, w) views of it.
    """

    def __init__(self, descriptors):
        descriptors = list(descriptors)
        if not descriptors:
            raise ValueError("empty descriptor bank")
        shape = descriptors[0].shape
        for d in descriptors:
            if d.shape != shape:
                raise ValueError("descriptor shapes differ")
        grids = np.stack((np.stack([d.dx for d in descriptors]),
                          np.stack([d.dy for d in descriptors])), axis=1)
        self.matrix = grids.reshape(len(descriptors), -1)
        self.dx, self.dy = grids[:, 0], grids[:, 1]
        self._shifts = {}

    def __len__(self):
        return self.matrix.shape[0]

    @property
    def grid_shape(self):
        return self.dx.shape[1:]

    def shift_plan(self, max_shift):
        """(gather, norms) of the shifts with a non-empty overlap.

        Row s of `gather` indexes a probe's flattened cells, with one
        zero appended, so that gathering gives the probe's overlap of
        shift s in bank cell order and zero elsewhere. `norms` (shifts,
        members) is every member's norm over that overlap. Neither
        depends on the probe, so both are computed once per max_shift.
        """
        plan = self._shifts.get(max_shift)
        if plan is None:
            h, w = self.grid_shape
            cells = np.arange(2 * h * w).reshape(2, h, w)
            gather, norms = [], []
            for v, u, ys0, ys1, xs0, xs1 in _shift_windows(h, w, max_shift):
                row = np.full((2, h, w), 2 * h * w)
                row[:, ys0 - v:ys1 - v, xs0 - u:xs1 - u] = \
                    cells[:, ys0:ys1, xs0:xs1]
                gather.append(row.ravel())
                bdx = self.dx[:, ys0 - v:ys1 - v, xs0 - u:xs1 - u]
                bdy = self.dy[:, ys0 - v:ys1 - v, xs0 - u:xs1 - u]
                norms.append(np.sqrt((bdx * bdx).sum(axis=(1, 2))
                                     + (bdy * bdy).sum(axis=(1, 2))))
            plan = self._shifts[max_shift] = (np.array(gather),
                                              np.array(norms))
        return plan


def similarity_to_bank(d, bank, max_shift=MAX_SHIFT, start=0, stop=None):
    """Vector of the similarity of d to bank[i] for i in range(start, stop).

    Scores one observed frame against a contiguous stretch of the
    reference ride at once (the whole ride by default). The probe's
    zero-padded overlap of every shift is one row of a (shifts, cells)
    matrix, so one product with the bank's rows gives every shift's
    inner products. Each entry is the same whichever range it is scored
    in: einsum sums each entry alone, where a BLAS product's summation
    order depends on the width of the range.
    """
    if d.shape != bank.grid_shape:
        raise ValueError("descriptor shapes differ")
    stop = len(bank) if stop is None else stop
    if not 0 <= start <= stop <= len(bank):
        raise ValueError(f"column range [{start}, {stop}) outside the bank")
    if d.is_zero:
        return np.zeros(stop - start)
    gather, norms = bank.shift_plan(max_shift)
    probe = np.concatenate((d.dx.ravel(), d.dy.ravel(), [0.0]))[gather]
    dot = np.einsum("sk,nk->sn", probe, bank.matrix[start:stop])
    na = np.sqrt(np.einsum("sk,sk->s", probe, probe))[:, None]
    nb = norms[:, start:stop]
    ok = (na > 0.0) & (nb > 0.0)
    score = np.where(ok, dot / np.where(ok, na * nb, 1.0), 0.0)
    return np.clip(score.max(axis=0), -1.0, 1.0)
