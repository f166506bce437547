import numpy as np
import pytest
from helpers import (descriptor, naive_similarity, observation_likelihood,
                     similarity, smoothed_grid, textured_image)

from roadalign.descriptor import (GRADIENT_FLOOR_RATIO, DescriptorBank,
                                  compute_descriptor, similarity_to_bank)
from roadalign.imagecore import smooth_and_average
from roadalign.temporal import SyncConfig, build_likelihood_table


def _random_descriptor(rng, shape=(5, 7), zero=False):
    if zero:
        return descriptor(np.zeros(shape), np.zeros(shape))
    return descriptor(rng.standard_normal(shape), rng.standard_normal(shape))


def test_from_gradients_normalizes():
    # the oracle's normalisation, which the package's descriptors share
    d = descriptor([[3.0, 0.0]], [[0.0, 4.0]])
    assert np.array_equal(d, [[[0.6, 0.0]], [[0.0, 0.8]]])
    assert not descriptor(np.zeros((2, 2)), np.zeros((2, 2))).any()


def test_compute_descriptor_unit_norm_and_floor():
    img = textured_image(1)
    # the left half keeps 2% of its contrast, below the floor
    img[:, :80] = 0.5 + 0.02 * (img[:, :80] - 0.5)
    d = compute_descriptor(img, 2.0, 16)
    # dx and dy, stacked, in the format the bank stores
    assert d.shape == (2, 120 // 16 + 1, 160 // 16)
    assert d.dtype == np.float64 and not d.flags.writeable
    assert (d ** 2).sum() == pytest.approx(1.0)
    mag = np.hypot(d[0], d[1])
    assert not mag[:, :4].any()
    nonzero = mag[mag > 0]
    # every surviving cell clears the floor relative to the strongest cell
    assert nonzero.min() >= GRADIENT_FLOOR_RATIO * mag.max() - 1e-12


def _floored_descriptor(small):
    """Gradients of a downsampled frame, floored and normalized."""
    dy, dx = np.gradient(small)
    mag = np.hypot(dx, dy)
    weak = mag < GRADIENT_FLOOR_RATIO * mag.max()
    dx[weak] = 0.0
    dy[weak] = 0.0
    return descriptor(dx, dy)


@pytest.mark.parametrize("shape", [(61, 83), (60, 80), (120, 160)])
@pytest.mark.parametrize("factor", [1, 8, 16])
@pytest.mark.parametrize("sigma", [1.5, 2.0])
def test_operator_matches_smoothing_then_block_means(shape, factor, sigma):
    img = textured_image(sum(shape) + factor, shape)
    rows = smooth_and_average(shape[0], sigma, factor)
    cols = smooth_and_average(shape[1], sigma, factor)
    want = smoothed_grid(img, sigma, factor)
    assert rows.shape == (want.shape[0], shape[0])
    assert cols.shape == (want.shape[1], shape[1])
    assert np.allclose(rows @ img @ cols.T, want, rtol=0, atol=1e-12)
    got = compute_descriptor(img, sigma, factor)
    oracle = _floored_descriptor(want)
    assert np.allclose(got, oracle, rtol=0, atol=1e-12)


def test_operator_is_cached_and_read_only():
    op = smooth_and_average(60, 2.0, 8)
    assert smooth_and_average(60, 2.0, 8) is op
    with pytest.raises(ValueError):
        op[0, 0] = 1.0


def test_flat_and_row_constant_frames():
    assert not compute_descriptor(np.full((60, 80), 0.37), 1.5, 8).any()
    # every row constant: the gradient along the rows is rounding alone.
    # Not exactly zero: the border rows of the column operator hold other
    # weights than the inner ones, so their products round differently.
    ramp = np.repeat(np.linspace(0.1, 0.9, 60)[:, None] ** 2, 80, axis=1)
    d = compute_descriptor(ramp, 1.5, 8)
    assert np.abs(d[0]).max() < 1e-15
    assert np.sum(d[1] ** 2) == pytest.approx(1.0)


def test_compute_descriptor_rejects_tiny_images():
    with pytest.raises(ValueError, match="image too small"):
        compute_descriptor(np.zeros((16, 40)), 2.0, 16)


def test_similarity_matches_naive_enumeration():
    rng = np.random.default_rng(10)
    for trial in range(15):
        a = _random_descriptor(rng)
        b = _random_descriptor(rng, zero=(trial == 7))
        for max_shift in (0, 1, 2):
            got = similarity(a, b, max_shift)
            want = naive_similarity(a, b, max_shift)
            assert got == pytest.approx(want, abs=1e-12)


def test_similarity_basic_properties():
    rng = np.random.default_rng(11)
    a = _random_descriptor(rng)
    z = _random_descriptor(rng, zero=True)
    assert similarity(a, a, 2) == pytest.approx(1.0)
    assert similarity(a, z, 2) == 0.0
    assert -1.0 <= similarity(a, _random_descriptor(rng), 2) <= 1.0
    with pytest.raises(ValueError):
        similarity(a, _random_descriptor(rng, shape=(4, 4)), 1)


def test_similarity_recovers_integer_shifts():
    img = textured_image(2, (160, 200))
    base = compute_descriptor(img, 2.0, 8)
    shifted = np.roll(base, (1, 2), axis=(1, 2))
    assert similarity(base, shifted, 2) > 0.93
    assert similarity(base, shifted, 0) < similarity(base, shifted, 2)


def _corner_probe(shape):
    """A descriptor with one non-zero cell, its top-left one: its overlap
    is all zeros for every shift that leaves that cell out."""
    dx = np.zeros(shape)
    dx[0, 0] = -1.0
    return descriptor(dx, np.zeros(shape))


def test_bank_matches_scalar_similarity():
    rng = np.random.default_rng(12)
    for shape, max_shifts in [((5, 7), (0, 2, 4)),
                              # shifts at or beyond the grid's side leave
                              # some overlaps empty
                              ((2, 2), (0, 4)), ((2, 3), (0, 4)),
                              ((1, 4), (0, 4))]:
        _check_bank_against_scalar(rng, shape, max_shifts)
    with pytest.raises(ValueError):
        DescriptorBank([])


def _check_bank_against_scalar(rng, shape, max_shifts):
    members = [_random_descriptor(rng, shape) for _ in range(6)]
    members[3] = _random_descriptor(rng, shape, zero=True)
    members[5] = _random_descriptor(rng, shape, zero=True)
    banks = [members, [_random_descriptor(rng, shape, zero=True)] * 3]
    probes = [_random_descriptor(rng, shape), _corner_probe(shape)]
    for descriptors in banks:
        bank = DescriptorBank(descriptors)
        assert len(bank) == len(descriptors)
        assert bank.grid_shape == shape
        # dx and dy are the stacked grids, as views of the one matrix
        assert np.array_equal(bank.dx, np.stack([d[0] for d in descriptors]))
        assert np.array_equal(bank.dy, np.stack([d[1] for d in descriptors]))
        assert np.shares_memory(bank.dx, bank.matrix)
        assert np.shares_memory(bank.dy, bank.matrix)
        for probe in probes:
            for max_shift in max_shifts:
                got = similarity_to_bank(probe, bank, max_shift=max_shift)
                want = np.array([similarity(probe, m, max_shift)
                                 for m in descriptors])
                assert np.allclose(got, want, atol=1e-12)
        # a zero probe scores 0 everywhere
        assert np.array_equal(
            similarity_to_bank(_random_descriptor(rng, shape, zero=True), bank),
            np.zeros(len(descriptors)))


@pytest.mark.parametrize("shape", [(4, 5), (8, 10)])
def test_bank_column_range_is_bit_identical_to_full(shape):
    rng = np.random.default_rng(13)
    bank = DescriptorBank([_random_descriptor(rng, shape) for _ in range(40)])
    for probe in [_random_descriptor(rng, shape) for _ in range(3)]:
        full = similarity_to_bank(probe, bank, 2)
        for start, stop in [(0, 40), (0, 1), (39, 40), (7, 8), (5, 23),
                            (17, 40), (0, 31), (12, 12)]:
            part = similarity_to_bank(probe, bank, 2, start, stop)
            assert part.shape == (stop - start,)
            assert np.array_equal(part, full[start:stop])
    zero = _random_descriptor(rng, shape, zero=True)
    assert np.array_equal(similarity_to_bank(zero, bank, 2, 3, 9), np.zeros(6))
    for start, stop in [(-1, 4), (5, 4), (0, 41)]:
        with pytest.raises(ValueError, match="column range"):
            similarity_to_bank(probe, bank, 2, start, stop)


def test_bank_and_similarity_refuse_other_shapes():
    rng = np.random.default_rng(14)
    d = _random_descriptor(rng, (4, 5))
    bank = DescriptorBank([d, _random_descriptor(rng, (4, 5))])
    # a grid alone, a third plane or another grid is not misread
    for probe in (d[0], np.concatenate((d, d[:1])), d[:, :3]):
        with pytest.raises(ValueError, match=r"is not \(2, 4, 5\)"):
            similarity_to_bank(probe, bank)
    for members in ([d[0], d[1]], [d, _random_descriptor(rng, (4, 4))]):
        with pytest.raises(ValueError, match="one shape"):
            DescriptorBank(members)


def test_observation_likelihood_composes():
    # the table's term is the oracle's: -(1 - similarity)**2
    rng = np.random.default_rng(13)
    a = _random_descriptor(rng)
    b = _random_descriptor(rng)
    want = -(1.0 - similarity(a, b, 2)) ** 2
    assert observation_likelihood(a, b) == pytest.approx(want, abs=1e-15)
    table = build_likelihood_table([a], DescriptorBank([b]),
                                   SyncConfig(lag_l=0, window_L=0))
    assert table[0, 0] == pytest.approx(want, abs=1e-12)
