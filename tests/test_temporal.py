import helpers
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import (RebuildingSynchronizer, brute_force_map,
                     full_width_fixed_lag_infer, loop_map_sequence,
                     naive_monotone_best, textured_image)

from roadalign import temporal
from roadalign.descriptor import DescriptorBank, compute_descriptor
from roadalign.temporal import (OnlineSynchronizer, SyncConfig,
                                build_likelihood_table, fixed_lag_infer,
                                map_sequence)

SMOOTH_SIGMA, DOWNSAMPLE_FACTOR = 1.5, 8


def _frames(count, start=0, step=1, shape=(60, 80)):
    """Distinct textured frames; frame i is deterministic in i alone."""
    return [textured_image(1000 + start + step * i, shape) for i in range(count)]


def _descriptors(frames):
    return [compute_descriptor(f, SMOOTH_SIGMA, DOWNSAMPLE_FACTOR)
            for f in frames]


def _bank(frames):
    return DescriptorBank(_descriptors(frames))


# --- config -----------------------------------------------------------------

def test_sync_config_validation():
    SyncConfig(lag_l=0, window_L=0)
    with pytest.raises(ValueError):
        SyncConfig(lag_l=-1)
    with pytest.raises(ValueError):
        SyncConfig(lag_l=6, window_L=5)
    with pytest.raises(ValueError):
        SyncConfig(candidate_band=-2)


# --- table of observation terms ---------------------------------------------

def _table_of_similarities(monkeypatch, sims):
    """The one-row table of a descriptor whose similarity to label j+1
    is sims[j]."""
    sims = np.asarray(sims, dtype=np.float64)
    monkeypatch.setattr(temporal, "similarity_to_bank",
                        lambda d, bank, max_shift, start, stop: sims[start:stop])
    descs = _descriptors(_frames(len(sims)))
    return build_likelihood_table(descs[:1], DescriptorBank(descs),
                                  SyncConfig(lag_l=0, window_L=0))[0]


def test_table_frozen_values(monkeypatch):
    # -(1 - s)**2: 0 at a perfect match, -0.25 at s = 0.5, -4 at s = -1
    assert list(_table_of_similarities(monkeypatch, [1.0, 0.5, -1.0])) == \
        [0.0, -0.25, -4.0]


def test_table_term_monotone_in_similarity(monkeypatch):
    row = _table_of_similarities(monkeypatch, np.linspace(-1.0, 1.0, 21))
    assert np.all(np.diff(row) > 0)
    assert np.all(np.isfinite(row)) and np.all(row <= 0)


def test_table_diagonal_dominates_for_self_sync():
    frames = _frames(4)
    descs = _descriptors(frames)
    cfg = SyncConfig(lag_l=1, window_L=3)
    table = build_likelihood_table(descs, DescriptorBank(descs), cfg)
    assert table.shape == (4, 4)
    assert np.all(np.isfinite(table)) and np.all(table <= 0)
    for k in range(4):
        assert np.argmax(table[k]) == k


def test_table_constant_frames_score_equally():
    flat = [np.full((60, 80), 0.5)] * 3
    ref = _bank(_frames(4))
    cfg = SyncConfig(lag_l=1, window_L=3)
    table = build_likelihood_table(_descriptors(flat), ref, cfg)
    # a constant frame has the zero descriptor: same similarity (0) everywhere
    assert np.allclose(table, table[0, 0])


def test_table_candidate_band_zeroes_far_labels():
    descs = _descriptors(_frames(2))
    ref = _bank(_frames(9))
    cfg = SyncConfig(lag_l=1, window_L=3, candidate_band=2)
    table = build_likelihood_table(descs, ref, cfg, center=5)
    labels = np.arange(1, 10)
    assert np.all(table[:, np.abs(labels - 5) > 2] == -np.inf)
    assert np.all(np.isfinite(table[:, np.abs(labels - 5) <= 2]))
    # without a center the band is inactive
    full = build_likelihood_table(descs, ref, cfg)
    assert np.all(np.isfinite(full))


def test_window_table_matches_fresh_band_zeroed_table():
    bank = _bank(_frames(12))
    descs = _descriptors(_frames(5, start=3))
    cfg = SyncConfig(lag_l=1, window_L=4, candidate_band=2)
    full = build_likelihood_table(
        descs, bank, SyncConfig(lag_l=1, window_L=4))
    labels = np.arange(1, 13)

    def band_limited(center):
        want = full.copy()
        if center is not None:
            want[:, np.abs(labels - center) > 2] = -np.inf
        return want

    # bare descriptors: centers that move back, leave the bank, or are unset
    for center in [7, 9, 3, 12, None, 1, 20]:
        assert np.array_equal(
            build_likelihood_table(descs, bank, cfg, center=center),
            band_limited(center))
    # cached frames: centers that never decrease, and jump past the
    # columns already scored
    window = [temporal._WindowFrame(d) for d in descs]
    for center in [1, 3, 7, 9, 12]:
        assert np.array_equal(
            build_likelihood_table(window, bank, cfg, center=center),
            band_limited(center))


def test_table_rejects_an_empty_window():
    with pytest.raises(ValueError):
        build_likelihood_table([], _bank(_frames(5)),
                               SyncConfig(lag_l=1, window_L=3))


# --- fixed-lag inference ----------------------------------------------------

def test_fixed_lag_three_frame_case():
    table = np.array([[-0.01, -3.0, -3.0],
                      [-3.0, -0.02, -3.0],
                      [-3.0, -3.0, -0.03]])
    cfg = SyncConfig(lag_l=1, window_L=2)
    label, score = fixed_lag_infer(table, cfg)
    assert label == 2
    best_labels, best_score = naive_monotone_best(table)
    assert best_labels == [1, 2, 3]
    assert best_score == pytest.approx(-0.06, abs=1e-15)
    assert score == -0.02  # the lagged row's own term


def test_fixed_lag_warm_up_uses_oldest_row():
    table = np.array([[-2.0, -0.2, -2.0]])
    cfg = SyncConfig(lag_l=2, window_L=4)
    label, score = fixed_lag_infer(table, cfg)
    assert label == 2
    assert score == -0.2


def test_fixed_lag_matches_enumeration_on_random_tables():
    rng = np.random.default_rng(20)
    for _ in range(150):
        rows = int(rng.integers(1, 5))
        n = int(rng.integers(1, 6))
        lag = int(rng.integers(0, 4))
        table = rng.uniform(-3.0, 0.0, size=(rows, n))
        cfg = SyncConfig(lag_l=lag, window_L=max(lag, 4))
        label, score = fixed_lag_infer(table, cfg)
        best_labels, _ = naive_monotone_best(table)
        lag_index = max(0, rows - 1 - lag)
        assert label == best_labels[lag_index]
        assert score == table[lag_index, label - 1]


def test_fixed_lag_tie_breaks_to_smallest_label():
    table = np.zeros((2, 4))
    cfg = SyncConfig(lag_l=1, window_L=2)
    label, _ = fixed_lag_infer(table, cfg)
    assert label == 1
    label, _ = fixed_lag_infer(table, cfg, min_label=3)
    assert label == 3


def _random_log_table(rng, rows, n, exact):
    """Log terms, some of them -inf: eighths, which tie often and sum
    exactly, or continuous values, which do not tie."""
    if exact:
        table = rng.integers(-16, 1, size=(rows, n)) / 8.0
    else:
        table = rng.uniform(-2.0, 0.0, size=(rows, n))
    table[rng.random((rows, n)) < 0.15] = -np.inf
    return table


def _shifted_and_scaled(rng, table, exact):
    """`table` plus a constant per row, and `table` times a positive
    constant: eighths and powers of two when `exact`, so that every path
    sum stays exact and a tie stays a tie."""
    rows = table.shape[0]
    if exact:
        shift = rng.integers(-400, 401, size=(rows, 1)) / 8.0
        scale = 2.0 ** int(rng.integers(-6, 7))
    else:
        shift = rng.uniform(-50.0, 50.0, size=(rows, 1))
        scale = rng.uniform(0.01, 100.0)
    return table + shift, table * scale


def _label(table, cfg, min_label):
    got = _outcome(fixed_lag_infer, table, cfg, min_label)
    return got if got == "loss" else got[0]


def test_fixed_lag_scale_invariance():
    # a per-row constant (a density's normalisation, a uniform prior, a
    # per-step transition weight) and a common positive factor (a
    # density's width) move no label, which is why the model has neither
    rng = np.random.default_rng(21)
    labels = 0
    for trial in range(200):
        exact = trial % 2 == 0
        rows = int(rng.integers(1, 6))
        n = int(rng.integers(1, 9))
        table = _random_log_table(rng, rows, n, exact)
        others = _shifted_and_scaled(rng, table, exact)
        for lag in range(rows + 1):
            cfg = SyncConfig(lag_l=lag, window_L=max(lag, 1))
            for min_label in range(1, n + 2):
                want = _label(table, cfg, min_label)
                assert all(_label(other, cfg, min_label) == want
                           for other in others)
                labels += want != "loss"
    assert labels > 1000


def test_map_sequence_scale_invariance():
    rng = np.random.default_rng(26)
    decoded = 0
    for trial in range(300):
        exact = trial % 2 == 0
        table = _random_log_table(rng, int(rng.integers(1, 9)),
                                  int(rng.integers(1, 12)), exact)
        others = _shifted_and_scaled(rng, table, exact)
        try:
            want = map_sequence(table)
        except ValueError as exc:
            assert "no feasible" in str(exc)
            for other in others:
                with pytest.raises(ValueError, match="no feasible"):
                    map_sequence(other)
            continue
        for other in others:
            assert np.array_equal(map_sequence(other), want)
        decoded += 1
    assert decoded > 100


def test_fixed_lag_signals_sync_loss():
    cfg = SyncConfig(lag_l=1, window_L=2)
    with pytest.raises(ValueError, match="no feasible"):
        fixed_lag_infer(np.full((3, 3), -np.inf), cfg)
    # feasible labelings exist but the monotone constraint kills them all
    with pytest.raises(ValueError, match="no feasible"):
        fixed_lag_infer(np.array([[-np.inf, 0.0], [0.0, -np.inf]]),
                        SyncConfig(lag_l=1, window_L=2))
    # min_label floor can exclude every feasible label
    with pytest.raises(ValueError, match="no feasible"):
        fixed_lag_infer(np.array([[0.0, -np.inf]]),
                        SyncConfig(lag_l=0, window_L=2),
                        min_label=2)


def test_fixed_lag_input_validation():
    cfg = SyncConfig(lag_l=1, window_L=2)
    with pytest.raises(ValueError):
        fixed_lag_infer(np.ones((0, 3)), cfg)
    for bad in (np.nan, np.inf):
        for table in ([[-0.5, bad, -0.2]], [[-0.5, -0.1], [-np.inf, bad]],
                      [[-np.inf, -np.inf], [bad, -np.inf]]):
            with pytest.raises(ValueError, match="finite or -inf"):
                fixed_lag_infer(np.array(table), cfg)
            with pytest.raises(ValueError, match="finite or -inf"):
                map_sequence(np.array(table))
    # -inf marks a label a row may not take, and is valid input
    assert fixed_lag_infer(np.array([[-0.5, -np.inf, -0.2]]), cfg) == (3, -0.2)


def _outcome(infer, table, cfg, min_label):
    try:
        return infer(table, cfg, min_label=min_label)
    except ValueError as exc:
        assert "no feasible" in str(exc)
        return "loss"


def test_fixed_lag_over_the_span_matches_full_width():
    rng = np.random.default_rng(23)
    kinds = ("band", "scattered", "-inf columns", "ties", "all -inf")
    losses = checks = 0
    for trial in range(1500):
        kind = kinds[trial % len(kinds)]
        rows = int(rng.integers(1, 8))
        n = int(rng.integers(1, 25))
        if kind == "ties":
            table = rng.choice([-np.inf, -1.0, -0.5], size=(rows, n))
        else:
            table = rng.uniform(-3.0, 0.0, size=(rows, n))
        if kind == "band":
            lo = int(rng.integers(0, n))
            hi = int(rng.integers(lo, n + 1))
            table[:, :lo] = -np.inf
            table[:, hi:] = -np.inf
        elif kind == "scattered":
            table[rng.random((rows, n)) < 0.6] = -np.inf
        elif kind == "-inf columns":
            table[:, rng.random(n) < 0.5] = -np.inf
        elif kind == "all -inf":
            table[:] = -np.inf
        # min_label from below the scored span to beyond it
        min_label = int(rng.integers(1, n + 3))
        for lag in range(rows + 1):
            cfg = SyncConfig(lag_l=lag, window_L=max(lag, 1))
            got = _outcome(fixed_lag_infer, table, cfg, min_label)
            want = _outcome(full_width_fixed_lag_infer, table, cfg, min_label)
            assert got == want, (kind, table, lag, min_label)
            losses += got == "loss"
            checks += 1
    # both branches are exercised
    assert 0 < losses < checks


# --- offline decodes --------------------------------------------------------

def test_brute_force_matches_enumeration():
    rng = np.random.default_rng(22)
    for _ in range(60):
        rows = int(rng.integers(1, 5))
        n = int(rng.integers(1, 6))
        table = rng.uniform(-3.0, 0.0, size=(rows, n))
        table[table < -2.55] = -np.inf  # exercise infeasible entries
        if not np.all(np.isfinite(table).any(axis=1)):
            continue
        assert brute_force_map(table) == naive_monotone_best(table)[0]


def test_brute_force_rejects_large_instances():
    with pytest.raises(ValueError):
        brute_force_map(np.zeros((3, 9)))
    with pytest.raises(ValueError):
        brute_force_map(np.zeros((7, 5)))


def test_map_sequence_matches_brute_force():
    rng = np.random.default_rng(23)
    for _ in range(80):
        rows = int(rng.integers(1, 6))
        n = int(rng.integers(1, 7))
        table = rng.uniform(-3.0, 0.0, size=(rows, n))
        got = map_sequence(table)
        assert list(got) == brute_force_map(table)
        assert np.all(np.diff(got) >= 0)


def test_map_sequence_matches_loop_on_ties_and_zero_columns():
    rng = np.random.default_rng(25)
    losses = 0
    for _ in range(300):
        rows = int(rng.integers(1, 6))
        n = int(rng.integers(1, 8))
        # few distinct values make ties common; -inf makes infeasible
        # entries and columns
        table = rng.choice([-np.inf, -1.0, -0.5, 0.0], size=(rows, n))
        table[:, rng.random(n) < 0.3] = -np.inf
        try:
            want = loop_map_sequence(table)
        except ValueError as exc:
            assert "no feasible" in str(exc)
            losses += 1
            with pytest.raises(ValueError, match="no feasible"):
                map_sequence(table)
            continue
        got = map_sequence(table)
        assert np.array_equal(got, want)
        assert list(got) == brute_force_map(table)
    assert 0 < losses < 300


def test_map_sequence_uniform_table_returns_ones():
    assert list(map_sequence(np.zeros((5, 4)))) == [1, 1, 1, 1, 1]
    assert brute_force_map(np.zeros((4, 4))) == [1, 1, 1, 1]


def test_map_sequence_signals_sync_loss():
    with pytest.raises(ValueError, match="no feasible"):
        map_sequence(np.full((3, 3), -np.inf))
    with pytest.raises(ValueError, match="no feasible"):
        map_sequence(np.array([[-np.inf, 0.0], [0.0, -np.inf]]))


# --- emission bookkeeping ---------------------------------------------------

def test_sync_result_invariants(monkeypatch):
    # push refuses to emit a label below the last one, which the cached
    # rows rely on; fixed_lag_infer's floor keeps this from happening
    ref = _descriptors(_frames(6))
    sync = OnlineSynchronizer(DescriptorBank(ref),
                              SyncConfig(lag_l=0, window_L=2))
    labels = iter([1, 3, 3, 2])
    monkeypatch.setattr(temporal, "fixed_lag_infer",
                        lambda table, cfg, min_label: (next(labels), 0.5))
    assert [sync.push(d).label for d in ref[:3]] == [1, 3, 3]
    with pytest.raises(ValueError, match="non-decreasing"):
        sync.push(ref[3])


# --- online synchronizer ----------------------------------------------------

def _emissions(ref, obs, cfg):
    """The emissions of an OnlineSynchronizer pushed every descriptor of obs."""
    sync = OnlineSynchronizer(DescriptorBank(ref), cfg)
    return [e for e in map(sync.push, obs) if e is not None]


def test_online_self_sync_recovers_identity():
    frames = _frames(10)
    ref = _descriptors(frames)
    cfg = SyncConfig(lag_l=2, window_L=4)
    sync = OnlineSynchronizer(DescriptorBank(ref), cfg)
    emitted = []
    for i, d in enumerate(ref):
        e = sync.push(d)
        if i < 2:
            assert e is None
        else:
            emitted.append(e)
    assert [e.observed_index for e in emitted] == list(range(8))
    assert [e.label for e in emitted] == list(range(1, 9))


def test_online_half_speed_tracks_slow_ride():
    frames = _frames(12)
    ref = _descriptors(frames)
    # observed ride revisits each reference frame twice
    obs = [ref[t // 2] for t in range(20)]
    emitted = _emissions(ref, obs, SyncConfig(lag_l=2, window_L=4))
    for e in emitted:
        assert abs(e.label - (e.observed_index // 2 + 1)) <= 1
    assert np.all(np.diff([e.label for e in emitted]) >= 0)


def test_online_double_speed_advances_two_per_frame():
    frames = _frames(20)
    ref = _descriptors(frames)
    obs = [ref[2 * t] for t in range(10)]
    emitted = _emissions(ref, obs, SyncConfig(lag_l=2, window_L=4))
    increments = np.diff([e.label for e in emitted])
    assert increments.mean() == pytest.approx(2.0, abs=0.4)


def test_online_labels_never_decrease_under_noise():
    rng = np.random.default_rng(24)
    frames = _frames(15)
    ref = _descriptors(frames)
    obs_frames = [np.clip(f + rng.normal(0, 0.08, f.shape), 0, 1)
                  for f in frames]
    cfg = SyncConfig(lag_l=2, window_L=4, candidate_band=4)
    labels = [e.label for e in _emissions(ref, _descriptors(obs_frames), cfg)]
    assert len(labels) == 13
    assert np.all(np.diff(labels) >= 0)


def _push_both(ref, obs, cfg, monkeypatch):
    """Outcome of each push (emission or "loss") from the cached
    synchronizer and from the rebuilding oracle, plus the cached one's
    similarity_to_bank call count."""
    calls = []
    scored = temporal.similarity_to_bank

    def counting(*args, **kwargs):
        calls.append(args)
        return scored(*args, **kwargs)

    monkeypatch.setattr(temporal, "similarity_to_bank", counting)
    bank = DescriptorBank(ref)
    outcomes = []
    for sync in (OnlineSynchronizer(bank, cfg),
                 RebuildingSynchronizer(bank, cfg)):
        got = []
        for d in obs:
            try:
                got.append(sync.push(d))
            except ValueError as exc:
                assert "no feasible" in str(exc)
                got.append("loss")
        outcomes.append(got)
    return outcomes[0], outcomes[1], len(calls)


def test_cached_rows_match_rebuilt_tables_without_band(monkeypatch):
    ref = _descriptors(_frames(12))
    obs = [ref[t // 2] for t in range(20)]
    cfg = SyncConfig(lag_l=2, window_L=4)
    cached, rebuilt, calls = _push_both(ref, obs, cfg, monkeypatch)
    assert cached == rebuilt
    assert sum(e is not None for e in cached) == 18
    assert calls == len(obs)  # each frame scored once


def test_cached_rows_match_rebuilt_tables_when_center_outruns_lookahead(
        monkeypatch):
    ref = _descriptors(_frames(40))
    obs = [ref[2 * t] for t in range(20)]
    cfg = SyncConfig(lag_l=2, window_L=4, candidate_band=2)
    cached, rebuilt, calls = _push_both(ref, obs, cfg, monkeypatch)
    assert cached == rebuilt
    assert [e.label for e in cached[2:]] == list(range(1, 37, 2))
    # the center gains 2 labels a push, so cached rows get extended
    assert len(obs) < calls < 3 * len(obs)


def test_cached_rows_match_rebuilt_tables_through_sync_losses(monkeypatch):
    # every scored term is finite, so the last emitted label stays
    # feasible and a window cannot lose sync by itself; both inferences
    # are made to lose it while a blank frame (zero descriptor, similarity
    # 0 to every label) is in the window
    blank_term = -1.0

    def losing(infer):
        def wrapped(table, cfg, min_label=1):
            for row in table:
                if np.all(row[np.isfinite(row)] == blank_term):
                    raise ValueError("no feasible labeling: a blank frame")
            return infer(table, cfg, min_label=min_label)
        return wrapped

    monkeypatch.setattr(temporal, "fixed_lag_infer",
                        losing(temporal.fixed_lag_infer))
    monkeypatch.setattr(helpers, "full_width_fixed_lag_infer",
                        losing(helpers.full_width_fixed_lag_infer))
    frames = _frames(20)
    ref = _descriptors(frames)
    obs = ref[:16]
    obs[7] = compute_descriptor(np.full((60, 80), 0.5), SMOOTH_SIGMA,
                                DOWNSAMPLE_FACTOR)
    cfg = SyncConfig(lag_l=2, window_L=4, candidate_band=3)
    cached, rebuilt, _ = _push_both(ref, obs, cfg, monkeypatch)
    assert cached == rebuilt
    assert "loss" in cached
    assert cached[-1] != "loss"


@st.composite
def _random_descriptors(draw, count):
    """`count` random 3x4 descriptors, some of them zero."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    zero = draw(st.lists(st.booleans(), min_size=count, max_size=count))
    return [helpers.descriptor(*(np.zeros((2, 3, 4)) if z
                                 else rng.normal(size=(2, 3, 4))))
            for z in zero]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), members=st.integers(1, 8), pushes=st.integers(1, 14),
       band=st.sampled_from([None, 0, 1, 2, 4]), lag=st.integers(0, 3),
       extra=st.integers(0, 3))
def test_online_synchronizer_emits_once_per_push_after_the_lag(
        data, members, pushes, band, lag, extra):
    # every term is finite, so the last emitted label always stays
    # feasible: no bank, probe (zero descriptors included), band or
    # lag/window pair can make a push lose sync
    bank = DescriptorBank(data.draw(_random_descriptors(members)))
    probes = data.draw(_random_descriptors(pushes))
    cfg = SyncConfig(lag_l=lag, window_L=lag + extra, candidate_band=band)
    sync = OnlineSynchronizer(bank, cfg)
    labels = []
    for i, d in enumerate(probes):
        emission = sync.push(d)
        if i < lag:
            assert emission is None
            continue
        assert emission.observed_index == i - lag
        assert 1 <= emission.label <= members
        assert np.isfinite(emission.score)
        labels.append(emission.label)
    assert len(labels) == max(pushes - lag, 0)
    assert labels == sorted(labels)


def test_synchronize_online_stream():
    ref = _descriptors(_frames(8))
    cfg = SyncConfig(lag_l=2, window_L=4)
    emitted = _emissions(ref, ref, cfg)
    assert [e.observed_index for e in emitted] == list(range(6))
    assert [e.label for e in emitted] == list(range(1, 7))
    assert _emissions(ref, ref[:2], cfg) == []
