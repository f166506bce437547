"""Shared oracles and inputs for the test suite.

Oracles are deliberately written as plain loops with no code shared with
the implementation, so the two can only agree by computing the same
thing.
"""

import itertools
import math
from collections import deque

import numpy as np

from roadalign.descriptor import (DescriptorBank, likelihood_from_similarity,
                                  similarity_to_bank)
from roadalign.errors import SyncLossError
from roadalign.imagecore import gaussian_smooth
from roadalign.temporal import SyncEmission, fixed_lag_infer


def textured_image(seed, shape=(120, 160)):
    """Smooth random field rescaled to [0, 1]; rich gradient signal."""
    rng = np.random.default_rng(seed)
    img = gaussian_smooth(rng.random(shape), 3.0)
    return (img - img.min()) / (img.max() - img.min())


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

    def __init__(self, reference_descriptors, cfg, params):
        self._bank = DescriptorBank(reference_descriptors)
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
            labels = np.arange(1, cfg.label_count_nr + 1)
            table[:, np.abs(labels - self._last_label) > cfg.candidate_band] = 0.0
        label, score = fixed_lag_infer(table, cfg,
                                       min_label=self._last_label or 1)
        self._last_label = label
        return SyncEmission(index - cfg.lag_l, label, score)


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
