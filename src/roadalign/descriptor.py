"""Coarse gradient-direction frame descriptors and their similarity.

A descriptor is one read-only float64 array of shape (2, h, w): the dx
and dy gradient grids of a smoothed, heavily downsampled frame, floored
where the gradient magnitude is weak and divided by their joint norm, so
that the array has unit length (a flat frame gives exact zeros). This is
the format a DescriptorBank stores, one flattened descriptor per row.
The similarity of two descriptors is the best cosine of the two arrays
restricted to their overlapping cells, over small integer grid shifts,
which buys tolerance to small viewpoint offsets. It lies in [-1, 1]; a
zero descriptor scores 0 against anything.
"""

import math

import numpy as np

from .imagecore import smooth_and_average

# cells whose gradient magnitude is below this share of the frame's
# largest are zeroed
GRADIENT_FLOOR_RATIO = 0.05
# grid shifts, in cells, over which two descriptors are compared
MAX_SHIFT = 2


def compute_descriptor(img, smooth_sigma, downsample_factor):
    """Descriptor of a grayscale frame, a read-only (2, h, w) array.

    Smooth (Gaussian, `smooth_sigma`), take means of blocks of
    `downsample_factor` x `downsample_factor` pixels, take central
    differences (one-sided at the borders), zero every cell whose
    magnitude falls below GRADIENT_FLOOR_RATIO of the maximum, then
    divide both grids by their joint norm. The downsampled frame must be
    at least 2x2.

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
    dy, dx = np.gradient(small)
    mag = np.hypot(dx, dy)
    weak = mag < GRADIENT_FLOOR_RATIO * mag.max()
    dx[weak] = 0.0
    dy[weak] = 0.0
    norm = math.sqrt(float((dx * dx).sum() + (dy * dy).sum()))
    d = np.stack((dx, dy))
    if norm > 0.0:
        d /= norm
    d.setflags(write=False)
    return d


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

    Row i of `matrix` is member i's descriptor, flattened; `dx` and `dy`
    are (members, h, w) views of it.
    """

    def __init__(self, descriptors):
        descriptors = list(descriptors)
        if not descriptors:
            raise ValueError("empty descriptor bank")
        shape = descriptors[0].shape
        if len(shape) != 3 or shape[0] != 2 or \
                any(d.shape != shape for d in descriptors):
            raise ValueError("descriptors must be (2, h, w) arrays of one "
                             "shape")
        grids = np.stack(descriptors)
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
    if d.shape != (2, *bank.grid_shape):
        raise ValueError(f"descriptor shape {d.shape} is not "
                         f"{(2, *bank.grid_shape)}")
    stop = len(bank) if stop is None else stop
    if not 0 <= start <= stop <= len(bank):
        raise ValueError(f"column range [{start}, {stop}) outside the bank")
    if not d.any():
        return np.zeros(stop - start)
    gather, norms = bank.shift_plan(max_shift)
    probe = np.append(d.ravel(), 0.0)[gather]
    dot = np.einsum("sk,nk->sn", probe, bank.matrix[start:stop])
    na = np.sqrt(np.einsum("sk,sk->s", probe, probe))[:, None]
    nb = norms[:, start:stop]
    ok = (na > 0.0) & (nb > 0.0)
    score = np.where(ok, dot / np.where(ok, na * nb, 1.0), 0.0)
    return np.clip(score.max(axis=0), -1.0, 1.0)
