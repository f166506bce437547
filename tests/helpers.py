"""Shared oracles and inputs for the test suite.

Oracles are deliberately written as plain loops with no code shared with
the implementation, so the two can only agree by computing the same
thing. The smoothing and component-labeling oracles are the scipy.ndimage
versions the package used before it dropped scipy; scipy is a test
dependency only.
"""

import itertools
import math
from collections import deque

import numpy as np
from scipy import ndimage

from roadalign import _kernels
from roadalign.descriptor import similarity_to_bank
from roadalign.imagecore import RGB_FLOOR, _read_pnm, gaussian_kernel
from roadalign.spatial import warp_image
from roadalign.temporal import SyncEmission


def textured_image(seed, shape=(120, 160)):
    """Smooth random field rescaled to [0, 1]; rich gradient signal."""
    rng = np.random.default_rng(seed)
    img = scipy_gaussian_smooth(rng.random(shape), 3.0)
    return (img - img.min()) / (img.max() - img.min())


def brute_force_map(table):
    """Exhaustive MAP oracle over all non-decreasing label sequences.

    A sequence scores the sum of its rows' terms. Only meant for small
    instances: at most 6 rows and 8 labels. Ties resolve to the
    lexicographically smallest sequence. Returns 1-based labels.
    """
    table = np.asarray(table, dtype=np.float64)
    rows, n = table.shape
    if rows > 6 or n > 8:
        raise ValueError("instance too large for the brute-force oracle")
    seqs = np.array(list(itertools.combinations_with_replacement(range(n),
                                                                 rows)))
    totals = table[np.arange(rows), seqs].sum(axis=1)
    best = int(np.argmax(totals))  # first max = lexicographically smallest
    return [int(x) + 1 for x in seqs[best]]


def naive_monotone_best(table):
    """Best non-decreasing labeling by literal enumeration.

    A sequence scores the sum of its per-row terms. Ties resolve to the
    lexicographically smallest sequence (enumeration order), and so
    does a table on which every sequence scores -inf.
    """
    rows, n = table.shape
    best_seq = None
    best_score = -math.inf
    for seq in itertools.combinations_with_replacement(range(n), rows):
        score = 0.0
        for k in range(rows):
            score += table[k, seq[k]]
        if best_seq is None or score > best_score:
            best_seq = seq
            best_score = score
    return [s + 1 for s in best_seq], best_score


def full_width_fixed_lag_infer(table, cfg, min_label=1):
    """Fixed-lag MAP label and its row's term with messages over every label.

    The same max-sum recursion as `temporal.fixed_lag_infer`, run over
    all N columns of the table instead of its scored span.
    """
    table = np.asarray(table, dtype=np.float64)
    if table.ndim != 2 or table.shape[0] == 0:
        raise ValueError("table must be a non-empty 2-d array")
    if np.any(np.isnan(table)) or np.any(table == np.inf):
        raise ValueError("table entries must be finite or -inf")
    rows, n = table.shape
    lag_index = max(0, rows - 1 - cfg.lag_l)
    fwd = table[0].copy()
    for k in range(1, lag_index + 1):
        fwd = table[k] + np.maximum.accumulate(fwd)
    bwd = np.zeros(n)
    for k in range(rows - 2, lag_index - 1, -1):
        t = table[k + 1] + bwd
        bwd = np.maximum.accumulate(t[::-1])[::-1]
    scores = fwd + bwd
    if min_label > 1:
        scores[: min_label - 1] = -np.inf
    if scores.max() == -np.inf:
        raise ValueError("no feasible monotone labeling for this window")
    label = int(np.argmax(scores)) + 1
    return label, float(table[lag_index, label - 1])


def loop_map_sequence(table):
    """Whole-window MAP decode with a per-label prefix-argmax loop.

    Ties prefer the first column reaching the running maximum, column 0
    while every value so far is -inf.
    """
    table = np.asarray(table, dtype=np.float64)
    rows, n = table.shape
    fwd = table[0].copy()
    pointers = []
    for k in range(1, rows):
        best_val = -np.inf
        best_idx = 0
        prefix_val = np.empty(n)
        prefix_idx = np.empty(n, dtype=np.int64)
        for j in range(n):
            if fwd[j] > best_val:
                best_val = fwd[j]
                best_idx = j
            prefix_val[j] = best_val
            prefix_idx[j] = best_idx
        pointers.append(prefix_idx)
        fwd = table[k] + prefix_val
    if fwd.max() == -np.inf:
        raise ValueError("no feasible monotone labeling for this window")
    labels = np.empty(rows, dtype=np.int64)
    labels[-1] = int(np.argmax(fwd))
    for k in range(rows - 2, -1, -1):
        labels[k] = pointers[k][labels[k + 1]]
    return labels + 1


class RebuildingSynchronizer:
    """On-line synchronizer that keeps no rows of observation terms.

    Every push scores every window frame against every reference label,
    then sets the labels outside the candidate band around the last
    emission to -inf, and runs fixed-lag inference on that table.
    """

    def __init__(self, bank, cfg):
        self._bank = bank
        self._cfg = cfg
        self._window = deque(maxlen=cfg.window_L + 1)
        self._next_index = 0
        self._last_label = None

    def push(self, descriptor):
        cfg = self._cfg
        index = self._next_index
        self._next_index += 1
        self._window.append(descriptor)
        if index < cfg.lag_l:
            return None
        table = np.stack([-(similarity_to_bank(d, self._bank) - 1.0) ** 2
                          for d in self._window])
        if cfg.candidate_band is not None and self._last_label is not None:
            labels = np.arange(1, len(self._bank) + 1)
            table[:, np.abs(labels - self._last_label) > cfg.candidate_band] = \
                -np.inf
        label, score = full_width_fixed_lag_infer(
            table, cfg, min_label=self._last_label or 1)
        self._last_label = label
        return SyncEmission(index - cfg.lag_l, label, score)


# Per-pixel loop twins of the `_kernels` functions, same semantics and
# the same floating-point expressions, one pixel at a time.


def loop_warp_bilinear(src, wx, wy, wz, f, cx, cy):
    h, w = src.shape
    out = np.zeros((h, w))
    valid = np.zeros((h, w), dtype=np.bool_)
    for yy in range(h):
        yb = yy - cy
        for xx in range(w):
            xb = xx - cx
            u = (-xb * yb / f) * wx + (f + xb * xb / f) * wy - yb * wz
            v = (-f - yb * yb / f) * wx + (xb * yb / f) * wy + xb * wz
            sx = xx + u
            sy = yy + v
            if sx < 0.0 or sx > w - 1 or sy < 0.0 or sy > h - 1:
                continue
            x0 = int(np.floor(sx))
            y0 = int(np.floor(sy))
            fx = sx - x0
            fy = sy - y0
            x1 = x0 + 1 if x0 + 1 < w else w - 1
            y1 = y0 + 1 if y0 + 1 < h else h - 1
            top = (1.0 - fx) * src[y0, x0] + fx * src[y0, x1]
            bot = (1.0 - fx) * src[y1, x0] + fx * src[y1, x1]
            out[yy, xx] = (1.0 - fy) * top + fy * bot
            valid[yy, xx] = True
    return out, valid


def loop_warp_nearest(mask, wx, wy, wz, f, cx, cy):
    h, w = mask.shape
    out = np.zeros((h, w), dtype=np.bool_)
    for yy in range(h):
        yb = yy - cy
        for xx in range(w):
            xb = xx - cx
            u = (-xb * yb / f) * wx + (f + xb * xb / f) * wy - yb * wz
            v = (-f - yb * yb / f) * wx + (xb * yb / f) * wy + xb * wz
            sx = xx + u
            sy = yy + v
            if sx < 0.0 or sx > w - 1 or sy < 0.0 or sy > h - 1:
                continue
            ix = int(np.floor(sx + 0.5))
            iy = int(np.floor(sy + 0.5))
            if ix > w - 1:
                ix = w - 1
            if iy > h - 1:
                iy = h - 1
            out[yy, xx] = mask[iy, ix]
    return out


def loop_lk_terms(warped, valid, obs, f, cx, cy, skip):
    h, w = warped.shape
    hess = np.zeros((3, 3))
    grad = np.zeros(3)
    count = 0
    for yy in range(skip, h - skip):
        for xx in range(skip, w - skip):
            if not valid[yy, xx]:
                continue
            if 0 < xx < w - 1:
                if not (valid[yy, xx - 1] and valid[yy, xx + 1]):
                    continue
                gx = (warped[yy, xx + 1] - warped[yy, xx - 1]) * 0.5
            elif xx == 0:
                if not valid[yy, 1]:
                    continue
                gx = warped[yy, 1] - warped[yy, 0]
            else:
                if not valid[yy, w - 2]:
                    continue
                gx = warped[yy, w - 1] - warped[yy, w - 2]
            if 0 < yy < h - 1:
                if not (valid[yy - 1, xx] and valid[yy + 1, xx]):
                    continue
                gy = (warped[yy + 1, xx] - warped[yy - 1, xx]) * 0.5
            elif yy == 0:
                if not valid[1, xx]:
                    continue
                gy = warped[1, xx] - warped[0, xx]
            else:
                if not valid[h - 2, xx]:
                    continue
                gy = warped[h - 1, xx] - warped[h - 2, xx]
            xb = xx - cx
            yb = yy - cy
            jx = gx * (-xb * yb / f) + gy * (-f - yb * yb / f)
            jy = gx * (f + xb * xb / f) + gy * (xb * yb / f)
            jz = gx * (-yb) + gy * xb
            r = warped[yy, xx] - obs[yy, xx]
            hess[0, 0] += jx * jx
            hess[0, 1] += jx * jy
            hess[0, 2] += jx * jz
            hess[1, 1] += jy * jy
            hess[1, 2] += jy * jz
            hess[2, 2] += jz * jz
            grad[0] += jx * r
            grad[1] += jy * r
            grad[2] += jz * r
            count += 1
    hess[1, 0] = hess[0, 1]
    hess[2, 0] = hess[0, 2]
    hess[2, 1] = hess[1, 2]
    return hess, grad, count


def motion_field(x, y, omega, intrinsics):
    """Displacement (u, v) of the rotation flow at pixel positions (x, y).

    Linear in the angles; quadratic in the re-centered coordinates.
    Accepts scalars or arrays.
    """
    xb = np.asarray(x, dtype=np.float64) - intrinsics.cx
    yb = np.asarray(y, dtype=np.float64) - intrinsics.cy
    return _kernels.FlowBasis(xb, yb, intrinsics.focal_px).flow(
        omega.omega_x, omega.omega_y, omega.omega_z)


def ssd_objective(reference_frame, observed_frame, omega, intrinsics,
                  border_skip=2):
    """Sum of squared residuals of warp(reference) against observed.

    Returns (sse, pixel count) over valid pixels inside the border skip.
    """
    sse, n, _, _ = _kernels.warp_sse(
        reference_frame, observed_frame,
        omega.omega_x, omega.omega_y, omega.omega_z,
        intrinsics.focal_px, intrinsics.cx, intrinsics.cy, border_skip,
    )
    return sse, n


def ssd_gradient(reference_frame, observed_frame, omega, intrinsics,
                 border_skip=2):
    """Analytic gradient of the SSD objective with respect to the angles.

    Uses the warped-image gradients, so it equals the true derivative at
    omega = 0 and degrades gracefully nearby. The pixel set matches
    `ssd_objective` whenever the whole skip region warps validly.
    """
    warped, valid = warp_image(reference_frame, omega, intrinsics)
    _, grad, _ = _kernels.lk_accumulate(
        warped, valid, observed_frame,
        intrinsics.focal_px, intrinsics.cx, intrinsics.cy, border_skip,
    )
    return 2.0 * grad


def loop_masked_sse(warped, valid, obs, skip):
    h, w = warped.shape
    sse = 0.0
    count = 0
    for yy in range(skip, h - skip):
        for xx in range(skip, w - skip):
            if not valid[yy, xx]:
                continue
            r = warped[yy, xx] - obs[yy, xx]
            sse += r * r
            count += 1
    return sse, count


def descriptor(dx, dy):
    """The (2, h, w) descriptor of gradient grids dx and dy: both divided
    by their joint norm, all zeros when they are."""
    dx = np.asarray(dx, dtype=np.float64)
    dy = np.asarray(dy, dtype=np.float64)
    norm = math.sqrt(float((dx * dx).sum() + (dy * dy).sum()))
    d = np.stack((dx, dy))
    return d / norm if norm > 0.0 else d


def similarity(a, b, max_shift=2):
    """Best renormalized inner product of b shifted against a.

    Each integer shift (u, v) with |u|, |v| <= max_shift is scored by the
    cosine of the two stacked gradient vectors restricted to the
    overlapping cells; the maximum is returned. The value lies in [-1, 1];
    a zero descriptor scores 0 against anything.
    """
    if a.shape != b.shape:
        raise ValueError("descriptor shapes differ")
    if not (a.any() and b.any()):
        return 0.0
    _, h, w = a.shape
    best = -math.inf
    for v in range(-max_shift, max_shift + 1):
        for u in range(-max_shift, max_shift + 1):
            ys0, ys1 = max(0, v), h + min(0, v)
            xs0, xs1 = max(0, u), w + min(0, u)
            if ys0 >= ys1 or xs0 >= xs1:
                continue
            adx = a[0, ys0:ys1, xs0:xs1]
            ady = a[1, ys0:ys1, xs0:xs1]
            bdx = b[0, ys0 - v:ys1 - v, xs0 - u:xs1 - u]
            bdy = b[1, ys0 - v:ys1 - v, xs0 - u:xs1 - u]
            dot = float((adx * bdx).sum() + (ady * bdy).sum())
            na = math.sqrt(float((adx * adx).sum() + (ady * ady).sum()))
            nb = math.sqrt(float((bdx * bdx).sum() + (bdy * bdy).sum()))
            score = dot / (na * nb) if na > 0.0 and nb > 0.0 else 0.0
            if score > best:
                best = score
    if best == -math.inf:
        return 0.0
    return min(1.0, max(-1.0, best))


def observation_likelihood(a, b):
    """Observation term -(1 - s)**2 of descriptor a against reference b."""
    return -(similarity(a, b) - 1.0) ** 2


def naive_similarity(a, b, max_shift=2):
    """Descriptor similarity by explicit per-cell overlap loops."""
    if not (a.any() and b.any()):
        return 0.0
    _, h, w = a.shape
    best = -math.inf
    for v in range(-max_shift, max_shift + 1):
        for u in range(-max_shift, max_shift + 1):
            num = na = nb = 0.0
            hit = False
            for y in range(h):
                for x in range(w):
                    yb, xb = y - v, x - u
                    if 0 <= yb < h and 0 <= xb < w:
                        hit = True
                        num += a[0, y, x] * b[0, yb, xb]
                        num += a[1, y, x] * b[1, yb, xb]
                        na += a[0, y, x] ** 2 + a[1, y, x] ** 2
                        nb += b[0, yb, xb] ** 2 + b[1, yb, xb] ** 2
            if not hit:
                continue
            score = num / math.sqrt(na) / math.sqrt(nb) if na > 0 and nb > 0 else 0.0
            best = max(best, score)
    if best == -math.inf:
        return 0.0
    return min(1.0, max(-1.0, best))


def naive_otsu(values, bins=256):
    """Between-class variance maximization, one candidate edge at a time."""
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.min() == values.max():
        return float(values.min())
    hist, _ = np.histogram(values, bins=bins, range=(0.0, 1.0))
    centers = (np.arange(bins) + 0.5) / bins
    total = hist.sum()
    best_k, best_var = None, -math.inf
    for k in range(1, bins):
        w0 = int(hist[:k].sum())
        w1 = total - w0
        if w0 == 0 or w1 == 0:
            continue
        mu0 = float((hist[:k] * centers[:k]).sum()) / w0
        mu1 = float((hist[k:] * centers[k:]).sum()) / w1
        var = w0 * w1 * (mu0 - mu1) ** 2
        if var > best_var:
            best_k, best_var = k, var
    return best_k / bins


def naive_downsample(img, factor):
    """Block means with partial edge blocks, straight nested loops."""
    h, w = img.shape
    oh = -(-h // factor)
    ow = -(-w // factor)
    out = np.empty((oh, ow))
    for i in range(oh):
        for j in range(ow):
            block = img[i * factor:(i + 1) * factor, j * factor:(j + 1) * factor]
            out[i, j] = block.mean()
    return out


def smoothed_grid(img, sigma, factor):
    """The descriptor's smoothed and block-averaged frame, computed the
    direct way: smooth the whole frame, then take block means."""
    return naive_downsample(scipy_gaussian_smooth(img, sigma), factor)


def float_load_image(path):
    """`load_image` as a float64 formula over the file's bytes."""
    magic, payload = _read_pnm(path)
    raw = payload.ravel().astype(np.float64) / 255.0
    if magic == "P5":
        return raw.reshape(payload.shape)
    return np.maximum(raw.reshape(payload.shape), RGB_FLOOR)


def scipy_gaussian_smooth(img, sigma):
    """Separable Gaussian smoothing by scipy.ndimage, edges replicated."""
    arr = np.asarray(img, dtype=np.float64)
    kernel = gaussian_kernel(sigma)
    out = ndimage.convolve1d(arr, kernel, axis=0, mode="nearest")
    return ndimage.convolve1d(out, kernel, axis=1, mode="nearest")


_STRUCTURE_4 = ndimage.generate_binary_structure(2, 1)  # 4-connectivity


def scipy_fill_holes(mask):
    """Fill background regions not 4-connected to the image border."""
    mask = np.asarray(mask, dtype=bool)
    labels, _ = ndimage.label(~mask, structure=_STRUCTURE_4)
    border = np.concatenate([
        labels[0, :], labels[-1, :], labels[:, 0], labels[:, -1]
    ])
    border_labels = np.unique(border[border != 0])
    holes = ~mask & ~np.isin(labels, border_labels)
    return mask | holes


def scipy_remove_small_components(mask, min_px):
    """Drop 4-connected components smaller than min_px pixels."""
    mask = np.asarray(mask, dtype=bool)
    if min_px <= 1 or not mask.any():
        return mask.copy()
    labels, count = ndimage.label(mask, structure=_STRUCTURE_4)
    sizes = np.bincount(labels.ravel(), minlength=count + 1)
    keep = sizes >= min_px
    keep[0] = False
    return keep[labels]
