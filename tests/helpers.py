"""Shared oracles and inputs for the test suite.

Oracles are deliberately written as plain loops with no code shared with
the implementation, so the two can only agree by computing the same
thing.
"""

import itertools
import math
from collections import deque

import numpy as np

from roadalign.descriptor import (DescriptorParams,
                                  likelihood_from_similarity,
                                  similarity_to_bank)
from roadalign.errors import SyncLossError
from roadalign.imagecore import gaussian_smooth
from roadalign.temporal import SyncEmission, fixed_lag_infer


def textured_image(seed, shape=(120, 160)):
    """Smooth random field rescaled to [0, 1]; rich gradient signal."""
    rng = np.random.default_rng(seed)
    img = gaussian_smooth(rng.random(shape), 3.0)
    return (img - img.min()) / (img.max() - img.min())


def brute_force_map(table, cfg):
    """Exhaustive MAP oracle over all non-decreasing label sequences.

    Only meant for small instances: at most 6 rows and 8 labels. Ties
    resolve to the lexicographically smallest sequence. Returns 1-based
    labels.
    """
    table = np.asarray(table, dtype=np.float64)
    rows, n = table.shape
    if rows > 6 or n > 8:
        raise ValueError("instance too large for the brute-force oracle")
    seqs = np.array(list(itertools.combinations_with_replacement(range(n),
                                                                 rows)))
    with np.errstate(divide="ignore"):
        lt = np.log(table)
    totals = lt[np.arange(rows), seqs].sum(axis=1)
    totals += (rows - 1) * math.log(cfg.beta) - math.log(n)
    best = int(np.argmax(totals))  # first max = lexicographically smallest
    return [int(x) + 1 for x in seqs[best]]


def naive_monotone_best(table, beta):
    """Best non-decreasing labeling by literal enumeration.

    A sequence scores uniform-prior / n_labels times the product of its
    per-row likelihoods times beta per transition. Ties resolve to the
    lexicographically smallest sequence (enumeration order).
    """
    rows, n = table.shape
    best_seq = None
    best_score = -math.inf
    for seq in itertools.combinations_with_replacement(range(n), rows):
        score = 1.0 / n * beta ** (rows - 1)
        for k in range(rows):
            score *= table[k, seq[k]]
        if score > best_score:
            best_seq = seq
            best_score = score
    return [s + 1 for s in best_seq], best_score


def loop_map_sequence(table, cfg):
    """Whole-window MAP decode with a per-label prefix-argmax loop.

    Ties prefer the first column reaching the running maximum, column 0
    while every value so far is -inf.
    """
    table = np.asarray(table, dtype=np.float64)
    rows, n = table.shape
    with np.errstate(divide="ignore"):
        lt = np.log(table)
    log_beta = math.log(cfg.beta)
    fwd = lt[0] - math.log(n)
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
        fwd = lt[k] + log_beta + prefix_val
    if fwd.max() == -np.inf:
        raise SyncLossError("no feasible monotone labeling for this window")
    labels = np.empty(rows, dtype=np.int64)
    labels[-1] = int(np.argmax(fwd))
    for k in range(rows - 2, -1, -1):
        labels[k] = pointers[k][labels[k + 1]]
    return labels + 1


class RebuildingSynchronizer:
    """On-line synchronizer that keeps no likelihood rows.

    Every push scores every window frame against every reference label,
    then zeroes the labels outside the candidate band around the last
    emission, and runs fixed-lag inference on that table.
    """

    def __init__(self, bank, cfg, params):
        self._bank = bank
        self._cfg = cfg
        self._params = params
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
        table = np.stack([
            likelihood_from_similarity(
                similarity_to_bank(d, self._bank, self._params.max_shift),
                self._params)
            for d in self._window])
        if cfg.candidate_band is not None and self._last_label is not None:
            labels = np.arange(1, len(self._bank) + 1)
            table[:, np.abs(labels - self._last_label) > cfg.candidate_band] = 0.0
        label, score = fixed_lag_infer(table, cfg,
                                       min_label=self._last_label or 1)
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
    sse = 0.0
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
            sse += r * r
            count += 1
    hess[1, 0] = hess[0, 1]
    hess[2, 0] = hess[0, 2]
    hess[2, 1] = hess[1, 2]
    return hess, grad, sse, count


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
            ys0, ys1 = max(0, v), h + min(0, v)
            xs0, xs1 = max(0, u), w + min(0, u)
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


def observation_likelihood(a, b, params=DescriptorParams()):
    """Observation density of descriptor a against reference descriptor b."""
    return likelihood_from_similarity(similarity(a, b, params.max_shift), params)


def naive_similarity(a, b, max_shift=2):
    """Descriptor similarity by explicit per-cell overlap loops."""
    if a.is_zero or b.is_zero:
        return 0.0
    h, w = a.shape
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
                        num += a.dx[y, x] * b.dx[yb, xb]
                        num += a.dy[y, x] * b.dy[yb, xb]
                        na += a.dx[y, x] ** 2 + a.dy[y, x] ** 2
                        nb += b.dx[yb, xb] ** 2 + b.dy[yb, xb] ** 2
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
