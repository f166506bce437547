import numpy as np
import pytest
from helpers import (RebuildingSynchronizer, brute_force_map,
                     loop_map_sequence, naive_monotone_best, textured_image)

from roadalign import temporal
from roadalign.descriptor import (DescriptorBank, DescriptorParams,
                                  compute_descriptor)
from roadalign.errors import SyncLossError
from roadalign.temporal import (OnlineSynchronizer, SyncConfig,
                                build_likelihood_table, fixed_lag_infer,
                                map_sequence)

PARAMS = DescriptorParams(smooth_sigma=1.5, downsample_factor=8, max_shift=2)


def _frames(count, start=0, step=1, shape=(60, 80)):
    """Distinct textured frames; frame i is deterministic in i alone."""
    return [textured_image(1000 + start + step * i, shape) for i in range(count)]


def _descriptors(frames):
    return [compute_descriptor(f, PARAMS) for f in frames]


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
        SyncConfig(beta=0.0)
    with pytest.raises(ValueError):
        SyncConfig(candidate_band=-2)


# --- likelihood table -------------------------------------------------------

def test_table_diagonal_dominates_for_self_sync():
    frames = _frames(4)
    descs = _descriptors(frames)
    cfg = SyncConfig(lag_l=1, window_L=3)
    table = build_likelihood_table(descs, DescriptorBank(descs), cfg, PARAMS)
    assert table.shape == (4, 4)
    assert np.all(table > 0)
    for k in range(4):
        assert np.argmax(table[k]) == k


def test_table_constant_frames_score_equally():
    flat = [np.full((60, 80), 0.5)] * 3
    ref = _bank(_frames(4))
    cfg = SyncConfig(lag_l=1, window_L=3)
    table = build_likelihood_table(_descriptors(flat), ref, cfg, PARAMS)
    # a constant frame has the zero descriptor: same similarity (0) everywhere
    assert np.allclose(table, table[0, 0])


def test_table_candidate_band_zeroes_far_labels():
    descs = _descriptors(_frames(2))
    ref = _bank(_frames(9))
    cfg = SyncConfig(lag_l=1, window_L=3, candidate_band=2)
    table = build_likelihood_table(descs, ref, cfg, PARAMS, center=5)
    labels = np.arange(1, 10)
    assert np.all(table[:, np.abs(labels - 5) > 2] == 0.0)
    assert np.all(table[:, np.abs(labels - 5) <= 2] > 0.0)
    # without a center the band is inactive
    full = build_likelihood_table(descs, ref, cfg, PARAMS)
    assert np.all(full > 0)


def test_window_table_matches_fresh_band_zeroed_table():
    bank = _bank(_frames(12))
    descs = _descriptors(_frames(5, start=3))
    cfg = SyncConfig(lag_l=1, window_L=4, candidate_band=2)
    full = build_likelihood_table(
        descs, bank, SyncConfig(lag_l=1, window_L=4), PARAMS)
    labels = np.arange(1, 13)

    def band_zeroed(center):
        want = full.copy()
        if center is not None:
            want[:, np.abs(labels - center) > 2] = 0.0
        return want

    # bare descriptors: centers that move back, leave the bank, or are unset
    for center in [7, 9, 3, 12, None, 1, 20]:
        assert np.array_equal(
            build_likelihood_table(descs, bank, cfg, PARAMS, center=center),
            band_zeroed(center))
    # cached frames: centers that never decrease, and jump past the
    # columns already scored
    window = [temporal._WindowFrame(d) for d in descs]
    for center in [1, 3, 7, 9, 12]:
        assert np.array_equal(
            build_likelihood_table(window, bank, cfg, PARAMS, center=center),
            band_zeroed(center))


def test_table_rejects_an_empty_window():
    with pytest.raises(ValueError):
        build_likelihood_table([], _bank(_frames(5)),
                               SyncConfig(lag_l=1, window_L=3), PARAMS)


# --- fixed-lag inference ----------------------------------------------------

def test_fixed_lag_three_frame_case():
    table = np.array([[0.9, 0.05, 0.05],
                      [0.05, 0.9, 0.05],
                      [0.05, 0.05, 0.9]])
    cfg = SyncConfig(lag_l=1, window_L=2)
    label, score = fixed_lag_infer(table, cfg)
    assert label == 2
    best_labels, best_score = naive_monotone_best(table, 1.0)
    assert best_labels == [1, 2, 3]
    assert score == pytest.approx(best_score, rel=1e-12)


def test_fixed_lag_warm_up_uses_oldest_row():
    table = np.array([[0.1, 0.8, 0.1]])
    cfg = SyncConfig(lag_l=2, window_L=4)
    label, score = fixed_lag_infer(table, cfg)
    assert label == 2
    assert score == pytest.approx(0.8 / 3)


def test_fixed_lag_matches_enumeration_on_random_tables():
    rng = np.random.default_rng(20)
    for _ in range(150):
        rows = int(rng.integers(1, 5))
        n = int(rng.integers(1, 6))
        lag = int(rng.integers(0, 4))
        beta = float(rng.uniform(0.5, 2.0))
        table = rng.uniform(0.05, 1.0, size=(rows, n))
        cfg = SyncConfig(lag_l=lag, window_L=max(lag, 4),
                         beta=beta)
        label, score = fixed_lag_infer(table, cfg)
        best_labels, best_score = naive_monotone_best(table, beta)
        lag_index = max(0, rows - 1 - lag)
        assert label == best_labels[lag_index]
        assert score == pytest.approx(best_score, rel=1e-9)


def test_fixed_lag_tie_breaks_to_smallest_label():
    table = np.ones((2, 4))
    cfg = SyncConfig(lag_l=1, window_L=2)
    label, _ = fixed_lag_infer(table, cfg)
    assert label == 1
    label, _ = fixed_lag_infer(table, cfg, min_label=3)
    assert label == 3


def test_fixed_lag_scale_invariance():
    rng = np.random.default_rng(21)
    table = rng.uniform(0.05, 1.0, size=(4, 5))
    cfg = SyncConfig(lag_l=2, window_L=4)
    label, score = fixed_lag_infer(table, cfg)
    label2, score2 = fixed_lag_infer(table * 137.0, cfg)
    assert label2 == label
    assert score2 == pytest.approx(score * 137.0 ** 4, rel=1e-9)


def test_fixed_lag_signals_sync_loss():
    cfg = SyncConfig(lag_l=1, window_L=2)
    with pytest.raises(SyncLossError):
        fixed_lag_infer(np.zeros((3, 3)), cfg)
    # feasible labelings exist but the monotone constraint kills them all
    with pytest.raises(SyncLossError):
        fixed_lag_infer(np.array([[0.0, 1.0], [1.0, 0.0]]),
                        SyncConfig(lag_l=1, window_L=2))
    # min_label floor can exclude every feasible label
    with pytest.raises(SyncLossError):
        fixed_lag_infer(np.array([[1.0, 0.0]]),
                        SyncConfig(lag_l=0, window_L=2),
                        min_label=2)


def test_fixed_lag_input_validation():
    cfg = SyncConfig(lag_l=1, window_L=2)
    with pytest.raises(ValueError):
        fixed_lag_infer(np.ones((0, 3)), cfg)
    with pytest.raises(ValueError):
        fixed_lag_infer(np.array([[0.5, -0.1, 0.2]]), cfg)
    with pytest.raises(ValueError):
        fixed_lag_infer(np.array([[0.5, np.inf, 0.2]]), cfg)


# --- offline decodes --------------------------------------------------------

def test_brute_force_matches_enumeration():
    rng = np.random.default_rng(22)
    for _ in range(60):
        rows = int(rng.integers(1, 5))
        n = int(rng.integers(1, 6))
        beta = float(rng.uniform(0.5, 2.0))
        table = rng.uniform(0.0, 1.0, size=(rows, n))
        table[table < 0.15] = 0.0  # exercise infeasible entries
        if not np.all(table.max(axis=1) > 0):
            continue
        cfg = SyncConfig(lag_l=1, window_L=4, beta=beta)
        assert brute_force_map(table, cfg) == naive_monotone_best(table, beta)[0]


def test_brute_force_rejects_large_instances():
    cfg = SyncConfig(lag_l=1, window_L=10)
    with pytest.raises(ValueError):
        brute_force_map(np.ones((3, 9)), cfg)
    with pytest.raises(ValueError):
        brute_force_map(np.ones((7, 5)),
                        SyncConfig(lag_l=1, window_L=10))


def test_map_sequence_matches_brute_force():
    rng = np.random.default_rng(23)
    for _ in range(80):
        rows = int(rng.integers(1, 6))
        n = int(rng.integers(1, 7))
        beta = float(rng.uniform(0.5, 2.0))
        table = rng.uniform(0.05, 1.0, size=(rows, n))
        cfg = SyncConfig(lag_l=1, window_L=8, beta=beta)
        got = map_sequence(table, cfg)
        assert list(got) == brute_force_map(table, cfg)
        assert np.all(np.diff(got) >= 0)


def test_map_sequence_matches_loop_on_ties_and_zero_columns():
    rng = np.random.default_rng(25)
    losses = 0
    for _ in range(300):
        rows = int(rng.integers(1, 6))
        n = int(rng.integers(1, 8))
        beta = float(rng.choice([0.5, 1.0, 2.0]))
        # few distinct values make ties common; zeros make -inf entries
        table = rng.choice([0.0, 0.25, 0.5, 1.0], size=(rows, n))
        table[:, rng.random(n) < 0.3] = 0.0
        cfg = SyncConfig(lag_l=1, window_L=8, beta=beta)
        try:
            want = loop_map_sequence(table, cfg)
        except SyncLossError:
            losses += 1
            with pytest.raises(SyncLossError):
                map_sequence(table, cfg)
            continue
        got = map_sequence(table, cfg)
        assert np.array_equal(got, want)
        assert list(got) == brute_force_map(table, cfg)
    assert 0 < losses < 300


def test_map_sequence_uniform_table_returns_ones():
    cfg = SyncConfig(lag_l=1, window_L=6)
    assert list(map_sequence(np.ones((5, 4)), cfg)) == [1, 1, 1, 1, 1]
    assert brute_force_map(np.ones((4, 4)), cfg) == [1, 1, 1, 1]


def test_map_sequence_signals_sync_loss():
    cfg = SyncConfig(lag_l=1, window_L=4)
    with pytest.raises(SyncLossError):
        map_sequence(np.array([[0.0, 1.0], [1.0, 0.0]]), cfg)


# --- emission bookkeeping ---------------------------------------------------

def test_sync_result_invariants(monkeypatch):
    # push refuses to emit a label below the last one, which the cached
    # rows rely on; fixed_lag_infer's floor keeps this from happening
    ref = _descriptors(_frames(6))
    sync = OnlineSynchronizer(DescriptorBank(ref),
                              SyncConfig(lag_l=0, window_L=2), PARAMS)
    labels = iter([1, 3, 3, 2])
    monkeypatch.setattr(temporal, "fixed_lag_infer",
                        lambda table, cfg, min_label: (next(labels), 0.5))
    assert [sync.push(d).label for d in ref[:3]] == [1, 3, 3]
    with pytest.raises(ValueError, match="non-decreasing"):
        sync.push(ref[3])


# --- online synchronizer ----------------------------------------------------

def _emissions(ref, obs, cfg):
    """The emissions of an OnlineSynchronizer pushed every descriptor of obs."""
    sync = OnlineSynchronizer(DescriptorBank(ref), cfg, PARAMS)
    return [e for e in map(sync.push, obs) if e is not None]


def test_online_self_sync_recovers_identity():
    frames = _frames(10)
    ref = _descriptors(frames)
    cfg = SyncConfig(lag_l=2, window_L=4)
    sync = OnlineSynchronizer(DescriptorBank(ref), cfg, PARAMS)
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


def _push_both(ref, obs, cfg, params, monkeypatch):
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
    for sync in (OnlineSynchronizer(bank, cfg, params),
                 RebuildingSynchronizer(bank, cfg, params)):
        got = []
        for d in obs:
            try:
                got.append(sync.push(d))
            except SyncLossError:
                got.append("loss")
        outcomes.append(got)
    return outcomes[0], outcomes[1], len(calls)


def test_cached_rows_match_rebuilt_tables_without_band(monkeypatch):
    ref = _descriptors(_frames(12))
    obs = [ref[t // 2] for t in range(20)]
    cfg = SyncConfig(lag_l=2, window_L=4)
    cached, rebuilt, calls = _push_both(ref, obs, cfg, PARAMS, monkeypatch)
    assert cached == rebuilt
    assert sum(e is not None for e in cached) == 18
    assert calls == len(obs)  # each frame scored once


def test_cached_rows_match_rebuilt_tables_when_center_outruns_lookahead(
        monkeypatch):
    ref = _descriptors(_frames(40))
    obs = [ref[2 * t] for t in range(20)]
    cfg = SyncConfig(lag_l=2, window_L=4, candidate_band=2)
    cached, rebuilt, calls = _push_both(ref, obs, cfg, PARAMS, monkeypatch)
    assert cached == rebuilt
    assert [e.label for e in cached[2:]] == list(range(1, 37, 2))
    # the center gains 2 labels a push, so cached rows get extended
    assert len(obs) < calls < 3 * len(obs)


def test_cached_rows_match_rebuilt_tables_through_sync_losses(monkeypatch):
    # a narrow density underflows to 0 at similarity 0, so a blank frame
    # (zero descriptor) leaves no feasible labeling while in the window
    params = DescriptorParams(smooth_sigma=1.5, downsample_factor=8,
                              max_shift=2, sigma_y=0.02)
    frames = _frames(20)
    ref = [compute_descriptor(f, params) for f in frames]
    obs = ref[:16]
    obs[7] = compute_descriptor(np.full((60, 80), 0.5), params)
    cfg = SyncConfig(lag_l=2, window_L=4, candidate_band=3)
    cached, rebuilt, _ = _push_both(ref, obs, cfg, params, monkeypatch)
    assert cached == rebuilt
    assert "loss" in cached
    assert cached[-1] != "loss"


def test_synchronize_online_stream():
    ref = _descriptors(_frames(8))
    cfg = SyncConfig(lag_l=2, window_L=4)
    emitted = _emissions(ref, ref, cfg)
    assert [e.observed_index for e in emitted] == list(range(6))
    assert [e.label for e in emitted] == list(range(1, 7))
    assert _emissions(ref, ref[:2], cfg) == []
