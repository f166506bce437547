"""On-line temporal synchronization by fixed-lag smoothing.

Observed frames are matched to reference frame labels with a hidden
chain model: the label of frame k+1 is never smaller than the label of
frame k (the vehicle does not drive backward), and each frame emits its
descriptor with a Gaussian density in the similarity to the labeled
reference frame. Inference runs max-product over a sliding window of the
most recent frames and commits the label of the frame `lag_l` steps in
the past, so every frame's answer arrives with a fixed small latency.
"""

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .descriptor import (
    DescriptorParams,
    likelihood_from_similarity,
    similarity_to_bank,
)
from .errors import SyncLossError


@dataclass(frozen=True)
class SyncConfig:
    lag_l: int = 5
    window_L: int = 10
    beta: float = 1.0
    candidate_band: int | None = None

    def __post_init__(self):
        if self.lag_l < 0:
            raise ValueError("lag_l must be non-negative")
        if self.window_L < self.lag_l:
            raise ValueError("window_L must be at least lag_l")
        if not self.beta > 0:
            raise ValueError("beta must be positive")
        if self.candidate_band is not None and self.candidate_band < 0:
            raise ValueError("candidate_band must be non-negative")


class _WindowFrame:
    """One window entry: the frame's likelihood row, scored on demand.

    `row` has one entry per reference label. The columns from the left
    edge of the first band it was scored for up to `hi` hold scored
    values, the rest are zero. A row only grows to the right: its band
    center is the last emitted label, which never decreases.
    """

    __slots__ = ("descriptor", "row", "hi")

    def __init__(self, descriptor):
        self.descriptor = descriptor
        self.row = None
        self.hi = 0

    def score(self, bank, params, lo, hi, ahead):
        """Make the cached row cover [lo, hi), scoring only what it lacks.

        A row short on the right is extended up to `ahead`, so that a
        band center moving forward finds its next columns already there.
        """
        if self.row is None:
            self.row = np.zeros(len(bank))
            self.hi = lo
        if hi > self.hi:
            sim = similarity_to_bank(self.descriptor, bank, params.max_shift,
                                     self.hi, ahead)
            self.row[self.hi:ahead] = likelihood_from_similarity(sim, params)
            self.hi = ahead


def build_likelihood_table(window, bank, cfg, params, center=None):
    """Observation likelihood of every window frame against every label.

    Row k scores window frame k, column j scores reference label j+1 of
    the DescriptorBank `bank`. When `cfg.candidate_band` is set and a
    band center label is given, entries outside
    [center - band, center + band] are zero, and only the columns inside
    are scored. A new row is scored one band width further right as
    well, for the next centers. `window` holds either the synchronizer's
    frames, which keep their rows between calls so that each column of a
    frame is scored at most once, or bare descriptors, scored afresh.
    """
    if len(window) == 0:
        raise ValueError("empty observation window")
    n = len(bank)
    lo, hi, ahead = 0, n, n
    if cfg.candidate_band is not None and center is not None:
        band = cfg.candidate_band
        lo = min(max(center - 1 - band, 0), n)
        hi = min(max(center + band, lo), n)
        ahead = min(max(center + 2 * band, hi), n)
    table = np.zeros((len(window), n))
    for k, frame in enumerate(window):
        if not isinstance(frame, _WindowFrame):
            frame = _WindowFrame(frame)
        frame.score(bank, params, lo, hi, ahead)
        table[k, lo:hi] = frame.row[lo:hi]
    return table


def fixed_lag_infer(table, cfg, min_label=1):
    """MAP label and score of the lagged frame of a window.

    The lagged frame is `cfg.lag_l` rows before the newest row (the
    oldest row during warm-up when fewer rows exist). Products are
    evaluated as sums of logarithms; the start label carries a uniform
    prior over all labels, each step a factor beta, and the whole table a
    monotone label constraint. Ties break toward the smallest label.
    Labels below `min_label` are excluded from the final argmax.

    Raises SyncLossError when no feasible monotone labeling remains.
    """
    table = np.asarray(table, dtype=np.float64)
    if table.ndim != 2 or table.shape[0] == 0:
        raise ValueError("table must be a non-empty 2-d array")
    if np.any(table < 0) or not np.all(np.isfinite(table)):
        raise ValueError("table entries must be finite and non-negative")
    rows, n = table.shape
    lag_index = max(0, rows - 1 - cfg.lag_l)
    with np.errstate(divide="ignore"):
        lt = np.log(table)
    log_beta = math.log(cfg.beta)
    # max-product messages into the lagged row from both ends
    fwd = lt[0] - math.log(n)
    for k in range(1, lag_index + 1):
        fwd = lt[k] + log_beta + np.maximum.accumulate(fwd)
    bwd = np.zeros(n)
    for k in range(rows - 2, lag_index - 1, -1):
        t = lt[k + 1] + log_beta + bwd
        bwd = np.maximum.accumulate(t[::-1])[::-1]
    scores = fwd + bwd
    if min_label > 1:
        scores[: min_label - 1] = -np.inf
    best = scores.max()
    if best == -np.inf:
        raise SyncLossError("no feasible monotone labeling for this window")
    label = int(np.argmax(scores)) + 1
    return label, float(np.exp(best))


def map_sequence(table, cfg):
    """Whole-window MAP label sequence (offline decode).

    Same chain model as `fixed_lag_infer` but decodes every row at once
    by backtracking; used when the label window spans the full sequence.
    Ties prefer smaller labels at each step.
    """
    table = np.asarray(table, dtype=np.float64)
    rows, n = table.shape
    with np.errstate(divide="ignore"):
        lt = np.log(table)
    log_beta = math.log(cfg.beta)
    fwd = lt[0] - math.log(n)
    pointers = []
    columns = np.arange(n)
    for k in range(1, rows):
        # prefix argmax: the first column that reaches the running
        # maximum, column 0 while every value so far is -inf
        new_max = np.concatenate(
            ([False], fwd[1:] > np.maximum.accumulate(fwd)[:-1]))
        prefix_idx = np.maximum.accumulate(np.where(new_max, columns, 0))
        pointers.append(prefix_idx)
        fwd = lt[k] + log_beta + fwd[prefix_idx]
    if fwd.max() == -np.inf:
        raise SyncLossError("no feasible monotone labeling for this window")
    labels = np.empty(rows, dtype=np.int64)
    labels[-1] = int(np.argmax(fwd))
    for k in range(rows - 2, -1, -1):
        labels[k] = pointers[k][labels[k + 1]]
    return labels + 1


@dataclass(frozen=True)
class SyncEmission:
    observed_index: int
    label: int
    score: float


class OnlineSynchronizer:
    """Incremental fixed-lag synchronizer.

    Push descriptors in frame order; once at least lag_l + 1 frames have
    arrived, each push emits the label of the frame lag_l steps back.
    Labels never decrease across emissions: the previous emission both
    floors the final argmax and, when a candidate band is configured,
    centers it.
    """

    def __init__(self, bank, cfg, params=DescriptorParams()):
        self._bank = bank
        self._cfg = cfg
        self._params = params
        self._window = deque(maxlen=cfg.window_L + 1)
        self._next_index = 0
        self._last_label = None

    def push(self, descriptor):
        index = self._next_index
        self._next_index += 1
        self._window.append(_WindowFrame(descriptor))
        if index < self._cfg.lag_l:
            return None
        table = build_likelihood_table(
            self._window, self._bank, self._cfg, self._params,
            center=self._last_label,
        )
        label, score = fixed_lag_infer(
            table, self._cfg, min_label=self._last_label or 1
        )
        # the cached rows only grow to the right, so a band center that
        # moved back would read unscored columns
        if self._last_label is not None and label < self._last_label:
            raise ValueError("emitted labels must be non-decreasing")
        self._last_label = label
        return SyncEmission(index - self._cfg.lag_l, label, score)
