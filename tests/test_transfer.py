import numpy as np
import pytest
from helpers import (naive_otsu, scipy_fill_holes,
                     scipy_remove_small_components, textured_image)
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from roadalign.spatial import CameraIntrinsics, RotationParams, warp_mask
from roadalign.transfer import (_histogram, detect_foreground, fill_holes,
                                otsu_threshold, remove_small_components,
                                transfer_and_refine)


def test_otsu_matches_naive_enumeration():
    rng = np.random.default_rng(50)
    for trial in range(40):
        if trial % 3 == 0:
            vals = rng.random(500)
        elif trial % 3 == 1:
            vals = np.concatenate([rng.normal(0.25, 0.05, 300),
                                   rng.normal(0.75, 0.05, 200)])
            vals = np.clip(vals, 0.0, 1.0)
        else:
            vals = rng.random(64).reshape(8, 8)
        bins = int(rng.choice([16, 64, 256]))
        assert otsu_threshold(vals, bins) == naive_otsu(np.asarray(vals).ravel(), bins)


def test_otsu_separates_ideal_bimodal_input():
    vals = np.array([0.1] * 50 + [0.9] * 50)
    t = otsu_threshold(vals)
    assert 0.1 <= t < 0.9
    fg = vals > t
    assert fg.sum() == 50
    assert np.all(vals[fg] == 0.9)


@pytest.mark.parametrize("bins", [2, 16, 256])
def test_otsu_histogram_counts_what_np_histogram_counts(bins):
    # every edge k/bins, both ends, values one ulp to either side of each,
    # just past 1 (as a float32 warp may round) and below 0, and outside
    edges = np.arange(bins + 1) / bins
    near = np.concatenate([edges, np.nextafter(edges, -1.0),
                           np.nextafter(edges, 2.0)])
    rng = np.random.default_rng(52)
    cases = [near, edges, edges[1:-1], np.array([0.0, 1.0]),
             np.array([-0.0, 0.5, 1.0 + 2.0 ** -23, -1e-300, 7.0, -3.0]),
             np.full(9, 0.25), np.full(9, 1.0),
             np.float32(rng.random(300)).astype(np.float64) * 1.001]
    for values in cases:
        want, _ = np.histogram(values, bins=bins, range=(0.0, 1.0))
        got = _histogram(values, bins)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_otsu_refuses_bins_that_are_not_a_power_of_two():
    for bins in (0, 1, 3, 100):
        with pytest.raises(ValueError, match="power of two"):
            otsu_threshold(np.array([0.1, 0.9]), bins)


def test_otsu_constant_and_empty_inputs():
    assert otsu_threshold(np.full(10, 0.42)) == 0.42
    # a constant image yields an empty strictly-above foreground
    assert not np.any(np.full(10, 0.42) > otsu_threshold(np.full(10, 0.42)))
    with pytest.raises(ValueError):
        otsu_threshold(np.array([]))


def test_fill_holes_connectivity():
    donut = np.zeros((7, 7), dtype=bool)
    donut[1:6, 1:6] = True
    donut[3, 3] = False
    filled = fill_holes(donut)
    assert filled[3, 3]
    assert filled.sum() == donut.sum() + 1
    # a diagonal channel: 4-connected background cannot escape through it
    leaky = np.ones((5, 5), dtype=bool)
    leaky[2, 2] = False
    leaky[1, 1] = False
    leaky[0, 0] = False
    assert fill_holes(leaky)[2, 2]


def test_remove_small_components():
    mask = np.zeros((10, 10), dtype=bool)
    mask[0:2, 0:3] = True      # 6 px blob
    mask[5, 5] = True          # 1 px blob
    mask[8:10, 8:10] = True    # 4 px blob
    out = remove_small_components(mask, 4)
    assert out.sum() == 10
    assert not out[5, 5]
    # min_px <= 1 keeps everything and copies
    same = remove_small_components(mask, 1)
    assert np.array_equal(same, mask)
    assert same is not mask


def _spiral(h, w):
    """A one-pixel wall winding inwards clockwise, one pixel between turns."""
    mask = np.zeros((h, w), dtype=bool)

    def is_set(r, c):
        return 0 <= r < h and 0 <= c < w and mask[r, c]

    y, x, dy, dx = 0, 0, 0, 1
    mask[0, 0] = True
    while True:
        for _ in range(2):  # straight on, else turn right once
            ny, nx = y + dy, x + dx
            if (0 <= ny < h and 0 <= nx < w and not mask[ny, nx]
                    and not is_set(ny + dy, nx + dx)):
                y, x = ny, nx
                mask[y, x] = True
                break
            dy, dx = dx, -dy
        else:
            return mask


_SIDE = st.integers(1, 40)


@st.composite
def _masks(draw):
    """Random masks, all-True, all-False, checkerboards and spirals."""
    h, w = draw(_SIDE), draw(_SIDE)
    kind = draw(st.sampled_from(["random", "full", "empty", "checker", "spiral"]))
    if kind == "random":
        mask = draw(arrays(np.bool_, (h, w)))
    elif kind == "checker":
        cell = draw(st.integers(1, 3))
        mask = (np.add.outer(np.arange(h) // cell, np.arange(w) // cell) % 2) == 1
    elif kind == "spiral":
        mask = _spiral(h, w)
    else:
        mask = np.full((h, w), kind == "full")
    return ~mask if draw(st.booleans()) else mask


@settings(max_examples=300, deadline=None)
@given(mask=_masks())
def test_fill_holes_equals_scipy(mask):
    assert np.array_equal(fill_holes(mask), scipy_fill_holes(mask))


@settings(max_examples=300, deadline=None)
@given(mask=_masks(), min_px=st.sampled_from([0, 1, 2, 25]))
def test_remove_small_components_equals_scipy(mask, min_px):
    assert np.array_equal(remove_small_components(mask, min_px),
                          scipy_remove_small_components(mask, min_px))


def test_labeling_equals_scipy_on_frame_sized_masks():
    rng = np.random.default_rng(56)
    for density in (0.05, 0.3, 0.5, 0.7):
        mask = rng.random((120, 160)) < density
        assert np.array_equal(fill_holes(mask), scipy_fill_holes(mask))
        for min_px in (2, 25):
            assert np.array_equal(remove_small_components(mask, min_px),
                                  scipy_remove_small_components(mask, min_px))


def test_detect_foreground_finds_inserted_object():
    ref = textured_image(51, (60, 80))
    obs = ref.copy()
    box = np.zeros(ref.shape, dtype=bool)
    box[20:30, 30:45] = True
    # displace by exactly 0.5 everywhere in the box: an ideal bimodal diff
    obs[box] = np.where(ref[box] < 0.5, ref[box] + 0.5, ref[box] - 0.5)
    fg = detect_foreground(ref, obs, np.ones(ref.shape, dtype=bool))
    assert np.array_equal(fg, box)


def test_detect_foreground_without_valid_pixels():
    img = textured_image(52, (20, 20))
    fg = detect_foreground(img, img, np.zeros(img.shape, dtype=bool))
    assert not fg.any()
    with pytest.raises(ValueError):
        detect_foreground(img, img[:10], np.ones(img.shape, dtype=bool))


def test_invalid_pixels_never_become_foreground():
    ref = textured_image(53, (40, 40))
    obs = np.clip(ref + 0.4, 0, 1)
    valid = np.zeros(ref.shape, dtype=bool)
    valid[:, :20] = True
    fg = detect_foreground(ref, obs, valid)
    assert not fg[:, 20:].any()


def test_transfer_identity_returns_reference_mask():
    frame = textured_image(54, (60, 80))
    mask = np.zeros(frame.shape, dtype=bool)
    mask[30:, :] = True
    k = CameraIntrinsics(120.0, 39.5, 29.5)
    out = transfer_and_refine(mask, frame, frame, RotationParams(), k)
    assert np.array_equal(out, mask)


def test_refined_mask_is_subset_of_transferred():
    frame = textured_image(55, (60, 80))
    obs = frame.copy()
    obs[35:45, 20:40] = 0.05  # vehicle-like blob on the road
    mask = np.zeros(frame.shape, dtype=bool)
    mask[30:, :] = True
    k = CameraIntrinsics(120.0, 39.5, 29.5)
    omega = RotationParams(0.002, -0.003, 0.001)
    out = transfer_and_refine(mask, frame, obs, omega, k)
    transferred = warp_mask(mask, omega, k)
    assert np.all(~out | transferred)  # out implies transferred
    blob = np.zeros_like(mask)
    blob[36:44, 21:39] = True
    assert (out & blob).sum() < 0.2 * blob.sum()
