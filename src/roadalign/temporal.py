"""On-line temporal synchronization by fixed-lag smoothing.

Observed frames are matched to reference frame labels with a hidden
chain model: the label of frame k+1 is never smaller than the label of
frame k (the vehicle does not drive backward), and each frame scores
its label with the observation term -(1 - s)**2, s being its
descriptor similarity to the labeled reference frame. Inference is
max-sum over these terms: a density's normalisation and width, a
uniform prior and a per-step transition weight would shift or scale
every labeling's sum alike, so none of them appears. It runs over a
sliding window of the most recent frames and commits the label of the
frame `lag_l` steps in the past, so every frame's answer arrives with a
fixed small latency.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from .descriptor import MAX_SHIFT, similarity_to_bank

# the similarity the observation term is centred on: a perfect match
MU_Y = 1.0


@dataclass(frozen=True)
class SyncConfig:
    lag_l: int = 5
    window_L: int = 10
    candidate_band: int | None = None

    def __post_init__(self):
        if self.lag_l < 0:
            raise ValueError("lag_l must be non-negative")
        if self.window_L < self.lag_l:
            raise ValueError("window_L must be at least lag_l")
        if self.candidate_band is not None and self.candidate_band < 0:
            raise ValueError("candidate_band must be non-negative")


class _WindowFrame:
    """One window entry: the frame's row of observation terms, on demand.

    `row` has one entry per reference label. The columns from the left
    edge of the first band it was scored for up to `hi` hold scored
    terms, the rest are -inf. A row only grows to the right: its band
    center is the last emitted label, which never decreases.
    """

    __slots__ = ("descriptor", "row", "hi")

    def __init__(self, descriptor):
        self.descriptor = descriptor
        self.row = None
        self.hi = 0

    def score(self, bank, lo, hi, ahead):
        """Make the cached row cover [lo, hi), scoring only what it lacks.

        A row short on the right is extended up to `ahead`, so that a
        band center moving forward finds its next columns already there.
        """
        if self.row is None:
            self.row = np.full(len(bank), -np.inf)
            self.hi = lo
        if hi > self.hi:
            sim = similarity_to_bank(self.descriptor, bank, MAX_SHIFT,
                                     self.hi, ahead)
            self.row[self.hi:ahead] = -(sim - MU_Y) ** 2
            self.hi = ahead


def build_likelihood_table(window, bank, cfg, center=None):
    """Observation term of every window frame against every label.

    Row k scores window frame k, column j scores reference label j+1 of
    the DescriptorBank `bank`: -(1 - s)**2 for the similarity s of
    the two, 0 at a perfect match. When `cfg.candidate_band` is set and
    a band center label is given, entries outside
    [center - band, center + band] are -inf, and only the columns inside
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
    table = np.full((len(window), n), -np.inf)
    for k, frame in enumerate(window):
        if not isinstance(frame, _WindowFrame):
            frame = _WindowFrame(frame)
        frame.score(bank, lo, hi, ahead)
        table[k, lo:hi] = frame.row[lo:hi]
    return table


def _checked(table):
    """`table` as float64, checked: 2-d, non-empty, no NaN and no +inf."""
    table = np.asarray(table, dtype=np.float64)
    if table.ndim != 2 or table.size == 0:
        raise ValueError("table must be a non-empty 2-d array")
    if not np.all(table < np.inf):
        raise ValueError("table entries must be finite or -inf")
    return table


def fixed_lag_infer(table, cfg, min_label=1):
    """MAP label of the lagged frame of a window, and its own term.

    The lagged frame is `cfg.lag_l` rows before the newest row (the
    oldest row during warm-up when fewer rows exist). A labeling scores
    the sum of its rows' terms under a monotone label constraint; -inf
    marks a label a row may not take. Ties break toward the smallest
    label. Labels below `min_label` are excluded from the final argmax.
    The score returned is the lagged row's term at its label, 0 for a
    perfect match.

    Only the columns from the table's first to its last scored (finite)
    column are visited, so a banded table costs its band, not its width.
    The result is that of the full width: outside that span every
    message is -inf, which can neither win nor raise a prefix or suffix
    max.

    Raises ValueError when no monotone labeling whose lagged label is at
    least `min_label` has a finite sum. A synchronizer's table always has
    one: all its rows hold finite terms over the same band, and the band
    holds the last emitted label, which is its `min_label`.
    """
    table = _checked(table)
    rows = table.shape[0]
    scored = np.flatnonzero(np.isfinite(table).any(axis=0))
    if len(scored) == 0:
        raise ValueError("no feasible monotone labeling for this window")
    lo, hi = int(scored[0]), int(scored[-1]) + 1
    span = table[:, lo:hi]
    lag_index = max(0, rows - 1 - cfg.lag_l)
    # max-sum messages into the lagged row from both ends
    fwd = span[0]
    for k in range(1, lag_index + 1):
        fwd = span[k] + np.maximum.accumulate(fwd)
    bwd = np.zeros(hi - lo)
    for k in range(rows - 2, lag_index - 1, -1):
        t = span[k + 1] + bwd
        bwd = np.maximum.accumulate(t[::-1])[::-1]
    scores = fwd + bwd
    if min_label - 1 > lo:
        scores[: min_label - 1 - lo] = -np.inf
    if scores.max() == -np.inf:
        raise ValueError("no feasible monotone labeling for this window")
    label = int(np.argmax(scores)) + 1 + lo
    return label, float(table[lag_index, label - 1])


def map_sequence(table):
    """Whole-window MAP label sequence (offline decode).

    Same chain model as `fixed_lag_infer` but decodes every row at once
    by backtracking; used when the label window spans the full sequence.
    Ties prefer smaller labels at each step. Raises ValueError when no
    feasible monotone labeling exists.
    """
    table = _checked(table)
    rows, n = table.shape
    fwd = table[0]
    pointers = []
    columns = np.arange(n)
    for k in range(1, rows):
        # prefix argmax: the first column that reaches the running
        # maximum, column 0 while every value so far is -inf
        new_max = np.concatenate(
            ([False], fwd[1:] > np.maximum.accumulate(fwd)[:-1]))
        prefix_idx = np.maximum.accumulate(np.where(new_max, columns, 0))
        pointers.append(prefix_idx)
        fwd = table[k] + fwd[prefix_idx]
    if fwd.max() == -np.inf:
        raise ValueError("no feasible monotone labeling for this window")
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

    def __init__(self, bank, cfg):
        self._bank = bank
        self._cfg = cfg
        self._window = deque(maxlen=cfg.window_L + 1)
        self._next_index = 0
        self._last_label = None

    def push(self, descriptor):
        index = self._next_index
        self._next_index += 1
        self._window.append(_WindowFrame(descriptor))
        if index < self._cfg.lag_l:
            return None
        table = build_likelihood_table(self._window, self._bank, self._cfg,
                                       center=self._last_label)
        label, score = fixed_lag_infer(
            table, self._cfg, min_label=self._last_label or 1
        )
        # the cached rows only grow to the right, so a band center that
        # moved back would read unscored columns
        if self._last_label is not None and label < self._last_label:
            raise ValueError("emitted labels must be non-decreasing")
        self._last_label = label
        return SyncEmission(index - self._cfg.lag_l, label, score)
