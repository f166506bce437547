import math

import numpy as np
import pytest
from helpers import (float_load_image, naive_downsample,
                     scipy_gaussian_smooth, textured_image)
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from roadalign.errors import (ImageFormatError, MalformedHeaderError,
                              TruncatedPayloadError, UnsupportedMaxvalError)
from roadalign import imagecore
from roadalign.imagecore import (RGB_FLOOR, _halving_operator,
                                 _parse_pnm_header, build_pyramid,
                                 gaussian_kernel, load_image, load_mask,
                                 pyramid_depth, read_image_shape, rgb_to_gray,
                                 save_image_rgb, save_mask, smooth_and_average)


def test_load_gray_maps_by_255(tmp_path):
    p = tmp_path / "a.pgm"
    p.write_bytes(b"P5\n3 2\n255\n" + bytes([0, 51, 102, 153, 204, 255]))
    img = load_image(p)
    assert img.shape == (2, 3)
    assert np.allclose(img.ravel(), [0.0, 0.2, 0.4, 0.6, 0.8, 1.0])


def test_load_rgb_clamps_black_pixels(tmp_path):
    p = tmp_path / "a.ppm"
    p.write_bytes(b"P6\n2 1\n255\n" + bytes([0, 0, 0, 255, 128, 0]))
    img = load_image(p)
    assert img.shape == (1, 2, 3)
    assert np.all(img[0, 0] == RGB_FLOOR)
    assert img[0, 1, 0] == 1.0
    assert img[0, 1, 2] == RGB_FLOOR


def test_header_comments_tolerated(tmp_path):
    p = tmp_path / "a.pgm"
    p.write_bytes(b"P5 # magic\n# a comment line\n2 # width\n1\n255\n" + bytes([7, 9]))
    img = load_image(p)
    assert img.shape == (1, 2)
    assert np.allclose(img.ravel(), [7 / 255, 9 / 255])


def test_read_image_size_reads_the_header_only(tmp_path):
    p = tmp_path / "a.ppm"
    # a comment longer than several reads
    header = b"P6\n# " + b"x" * 100_000 + b"\n640 480\n255\n"
    p.write_bytes(header + bytes(640 * 480 * 3))
    assert read_image_shape(p) == (480, 640, 3)
    # a payload one byte short, or missing, fails as load_image does
    for payload in (bytes(640 * 480 * 3 - 1), b""):
        p.write_bytes(header + payload)
        with pytest.raises(TruncatedPayloadError,
                           match=f"found {len(payload)}$"):
            read_image_shape(p)
        with pytest.raises(TruncatedPayloadError,
                           match=f"found {len(payload)}$"):
            load_image(p)
    # a gray frame has no channel axis, as load_image gives it
    p.write_bytes(b"P5\n4 2\n255\n" + bytes(8))
    assert read_image_shape(p) == load_image(p).shape == (2, 4)
    p.write_bytes(b"P6\n640 480\n255")
    with pytest.raises(MalformedHeaderError):
        read_image_shape(p)


@pytest.mark.parametrize("header", [b"P4\n2 2\n255\n", b"P7\n2 2\n255\n",
                                    b"Px\n2 2\n255\n"])
def test_unsupported_magic(tmp_path, header):
    p = tmp_path / "a.pgm"
    p.write_bytes(header + bytes(4))
    with pytest.raises(MalformedHeaderError):
        load_image(p)


def test_unsupported_maxval(tmp_path):
    p = tmp_path / "a.pgm"
    p.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(UnsupportedMaxvalError):
        load_image(p)


def test_truncated_payload(tmp_path):
    p = tmp_path / "a.pgm"
    p.write_bytes(b"P5\n4 4\n255\n" + bytes(9))
    with pytest.raises(TruncatedPayloadError):
        load_image(p)
    with pytest.raises(TruncatedPayloadError):
        load_mask(p)


def test_header_must_end_with_whitespace(tmp_path):
    p = tmp_path / "a.pgm"
    p.write_bytes(b"P5\n2 2\n255")  # payload byte missing after maxval
    with pytest.raises(MalformedHeaderError):
        load_image(p)


def test_non_numeric_header_field(tmp_path):
    p = tmp_path / "a.pgm"
    p.write_bytes(b"P5\ntwo 2\n255\n" + bytes(4))
    with pytest.raises(MalformedHeaderError):
        load_image(p)


@pytest.mark.parametrize("header", [
    b"P5 8_0 60 255\n", b"P5 +80 60 255\n", b"P5 80 60 25_5\n",
    b"P5 80 -60 255\n", b"P5 80 6.0 255\n", b"P5 0x50 60 255\n",
    b"P5 " + b"9" * 5000 + b" 60 255\n",
])
def test_header_integers_are_plain_ascii_digits(header):
    with pytest.raises(MalformedHeaderError):
        _parse_pnm_header(header + bytes(8))


_HEADER_BYTES = st.lists(
    st.sampled_from([b"P5", b"P6", b"P4", b"0", b"1", b"80", b"255", b"-",
                     b"+", b"_", b"#", b"x", b" ", b"\n", b"\r", b"\t",
                     b"\x00", b"\xff"]),
    max_size=24).map(b"".join)


@settings(max_examples=1000)
@given(st.one_of(st.binary(max_size=40), _HEADER_BYTES))
def test_header_parser_fuzz(data):
    """Any bytes parse to a usable header or raise an ImageFormatError."""
    try:
        magic, width, height, maxval, offset = _parse_pnm_header(data)
    except ImageFormatError:
        return
    assert magic in ("P5", "P6") and maxval == 255
    assert width > 0 and height > 0
    assert offset <= len(data)


_SPACE = st.text(" \t\n\r\x0b\x0c", min_size=1, max_size=3).map(str.encode)
_COMMENT = st.text("abc 01#", max_size=6).map(lambda t: b"#" + t.encode() + b"\n")


@given(magic=st.sampled_from(["P5", "P6"]),
       width=st.integers(1, 10 ** 6), height=st.integers(1, 10 ** 6),
       gaps=st.lists(st.tuples(_SPACE, st.lists(_COMMENT, max_size=2), _SPACE),
                     min_size=3, max_size=3),
       last=st.sampled_from([b" ", b"\t", b"\n", b"\r"]))
def test_valid_headers_round_trip(magic, width, height, gaps, last):
    fields = [str(width).encode(), str(height).encode(), b"255"]
    header = magic.encode()
    for (before, comments, after), field in zip(gaps, fields):
        header += before + b"".join(comments) + after + field
    header += last
    assert (_parse_pnm_header(header + b"\x07\x09")
            == (magic, width, height, 255, len(header)))


def test_non_positive_dimensions(tmp_path):
    p = tmp_path / "a.pgm"
    p.write_bytes(b"P5\n0 2\n255\n")
    with pytest.raises(MalformedHeaderError):
        load_image(p)


def test_mask_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    mask = rng.random((11, 13)) > 0.4
    save_mask(mask, tmp_path / "m.pgm")
    assert np.array_equal(load_mask(tmp_path / "m.pgm"), mask)


def test_mask_is_the_image_above_one_half(tmp_path):
    p = tmp_path / "m.pgm"
    p.write_bytes(b"P5\n16 16\n255\n" + bytes(range(256)))
    mask = load_mask(p)
    assert mask.dtype == bool
    assert np.array_equal(mask, load_image(p) > 0.5)
    assert mask.sum() == 128


@pytest.mark.parametrize("magic,channels", [(b"P5", 1), (b"P6", 3)])
def test_load_image_is_the_float_formula_bit_for_bit(tmp_path, magic,
                                                    channels):
    # every byte value in every channel
    p = tmp_path / "a.pnm"
    p.write_bytes(magic + b"\n16 16\n255\n" + bytes(range(256)) * channels)
    got = load_image(p)
    want = float_load_image(p)
    assert got.dtype == np.float64 and got.flags.writeable
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_mask_rejects_color(tmp_path):
    p = tmp_path / "m.ppm"
    p.write_bytes(b"P6\n1 1\n255\n" + bytes(3))
    with pytest.raises(MalformedHeaderError):
        load_mask(p)


def test_gray_round_trip_within_quantization(tmp_path):
    rng = np.random.default_rng(4)
    img = rng.random((9, 7))
    payload = np.rint(img * 255.0).astype(np.uint8)
    (tmp_path / "g.pgm").write_bytes(b"P5\n7 9\n255\n" + payload.tobytes())
    back = load_image(tmp_path / "g.pgm")
    assert np.abs(back - img).max() <= 0.5 / 255 + 1e-12


def test_rgb_round_trip_within_quantization(tmp_path):
    rng = np.random.default_rng(5)
    img = 0.02 + 0.96 * rng.random((6, 8, 3))
    save_image_rgb(img, tmp_path / "c.ppm")
    back = load_image(tmp_path / "c.ppm")
    assert back.shape == img.shape
    assert np.abs(back - img).max() <= 0.5 / 255 + 1e-12


def test_save_rgb_requires_three_channels(tmp_path):
    with pytest.raises(ValueError):
        save_image_rgb(np.zeros((4, 4)), tmp_path / "c.ppm")


def test_rgb_to_gray_weights():
    img = np.zeros((1, 3, 3))
    img[0, 0, 0] = 1.0
    img[0, 1, 1] = 1.0
    img[0, 2, 2] = 1.0
    assert np.allclose(rgb_to_gray(img)[0], [0.299, 0.587, 0.114])
    with pytest.raises(ValueError):
        rgb_to_gray(np.zeros((4, 4)))


def test_gaussian_kernel_shape_and_weights():
    k = gaussian_kernel(1.5)
    radius = math.ceil(4.5)
    assert len(k) == 2 * radius + 1
    assert k.sum() == pytest.approx(1.0)
    assert np.allclose(k, k[::-1])
    # successive weight ratio follows exp(-(2i+1) / (2 sigma^2))
    assert k[radius + 1] / k[radius] == pytest.approx(math.exp(-1 / (2 * 1.5 ** 2)))
    with pytest.raises(ValueError):
        gaussian_kernel(0.0)


def _smooth(img, sigma, factor=1):
    """`img` through the smooth-and-average operator of each axis."""
    rows = smooth_and_average(img.shape[0], sigma, factor)
    cols = smooth_and_average(img.shape[1], sigma, factor)
    return rows @ img @ cols.T


def test_gaussian_smooth_preserves_constants():
    img = np.full((10, 12), 0.37)
    assert np.allclose(_smooth(img, 2.0), 0.37)
    assert np.allclose(smooth_and_average(12, 2.0, 1).sum(axis=1), 1.0)


def test_gaussian_smooth_matches_direct_convolution():
    rng = np.random.default_rng(6)
    row = rng.random(9)
    sigma = 0.8
    k = gaussian_kernel(sigma)
    r = len(k) // 2
    padded = np.concatenate([np.full(r, row[0]), row, np.full(r, row[-1])])
    expected = np.array([(padded[i:i + len(k)] * k).sum() for i in range(9)])
    got = _smooth(row.reshape(1, -1), sigma)[0]
    assert np.allclose(got, expected, atol=1e-12)


@pytest.mark.parametrize("sigma", [0.8, 1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("shape", [(1, 23), (23, 1), (1, 1), (2, 3), (5, 40),
                                   (40, 5), (60, 80), (120, 160), (7, 11, 3)])
def test_gaussian_smooth_equals_scipy_bit_for_bit(shape, sigma):
    # at factor 1 the operator of each axis is the smoothing matrix:
    # column j is a unit impulse at j smoothed by scipy, to the bit,
    # lines shorter than the kernel radius included
    for n in shape[:2]:
        want = ndimage.convolve1d(np.eye(n), gaussian_kernel(sigma), axis=0,
                                  mode="nearest")
        assert np.array_equal(smooth_and_average(n, sigma, 1), want)


@pytest.mark.parametrize("shape,factor", [((7, 10), 3), ((8, 8), 4),
                                          ((12, 5), 2), ((3, 3), 5)])
def test_downsample_matches_naive(shape, factor):
    # block means with partial border blocks, after smoothing
    rng = np.random.default_rng(hash(shape) % 1000)
    img = rng.random(shape)
    want = naive_downsample(scipy_gaussian_smooth(img, 1.0), factor)
    assert np.allclose(_smooth(img, 1.0, factor), want, rtol=0, atol=1e-12)


def test_build_pyramid_halves_until_min_side(caplog):
    img = textured_image(7, (64, 64))
    pyr = build_pyramid(img, 3)
    assert [p.shape for p in pyr] == [(64, 64), (32, 32), (16, 16)]
    # the pyramid is shorter than asked for; reporting that is the caller's
    with caplog.at_level("DEBUG"):
        clamped = build_pyramid(img, 5)
    assert [p.shape for p in clamped] == [(64, 64), (32, 32), (16, 16)]
    assert not caplog.records
    with pytest.raises(ValueError):
        build_pyramid(img, 0)


def test_build_pyramid_ceil_dimensions():
    pyr = build_pyramid(np.zeros((33, 47)), 2)
    assert pyr[1].shape == (17, 24)


def _pyramid_oracle(img, depth):
    """Each level smoothed by scipy (sigma 1), then halved by block means."""
    levels = [img]
    while len(levels) < depth:
        levels.append(naive_downsample(scipy_gaussian_smooth(levels[-1], 1.0),
                                       2))
    return levels


@pytest.mark.parametrize("shape", [(33, 47), (61, 83), (120, 160)])
def test_build_pyramid_matches_smoothing_then_block_means(shape):
    img = textured_image(sum(shape), shape)
    pyr = build_pyramid(img, 3)
    want = _pyramid_oracle(img, pyramid_depth(shape, 3))
    assert [p.shape for p in pyr] == [w.shape for w in want]
    assert np.array_equal(pyr[0], img)
    for got, oracle in zip(pyr[1:], want[1:]):
        assert np.allclose(got, oracle, rtol=0, atol=1e-12)


@pytest.mark.parametrize("shape", [(60, 80), (120, 160)])
def test_build_pyramid_float32_levels_equal_the_oracle(shape):
    # registration reads the levels as float32; the operator's rounding
    # stays below float32's on textured frames
    for seed in range(10):
        img = textured_image(500 + seed, shape)
        for got, want in zip(build_pyramid(img, 3), _pyramid_oracle(img, 3)):
            assert np.array_equal(got.astype(np.float32),
                                  want.astype(np.float32))


@pytest.mark.parametrize("shape", [(33, 47), (60, 80), (120, 160)])
def test_build_pyramid_follows_a_float32_frame(shape):
    # registration builds its pyramids from float32 frames, through the
    # operators cast to float32 once
    img = textured_image(sum(shape) + 1, shape)
    got = build_pyramid(img.astype(np.float32), 3)
    want = build_pyramid(img, 3)
    assert [p.dtype for p in got] == [np.dtype(np.float32)] * len(want)
    assert np.array_equal(got[0], img.astype(np.float32))
    for level, oracle in zip(got[1:], want[1:]):
        assert np.allclose(level, oracle, rtol=0, atol=1e-6)
    op = _halving_operator(shape[0], np.dtype(np.float32))
    assert op is _halving_operator(shape[0], np.dtype(np.float32))
    assert op.dtype == np.float32 and not op.flags.writeable
    assert np.array_equal(op, smooth_and_average(shape[0], 1.0, 2)
                          .astype(np.float32))


def test_build_pyramid_keeps_a_flat_frame_exactly_flat():
    for dtype in (np.float64, np.float32):
        for shape in [(33, 47), (120, 160)]:
            flat = np.full(shape, 0.37, dtype=dtype)
            for level in build_pyramid(flat, 3):
                assert level.dtype == dtype and np.all(level == flat[0, 0])


@pytest.mark.parametrize("header", [b"P7\n640 480\n255\n", b"P6 640 -480 255\n",
                                    b"P6\n640 480\n65535\n"])
def test_read_image_shape_stops_at_a_malformed_header(tmp_path, monkeypatch,
                                                      header):
    # a header that is wrong in the first read stays wrong however much
    # more of the file is read; each read is parsed once
    p = tmp_path / "frame_000000.ppm"
    p.write_bytes(header + bytes(4 << 20))
    parsed = []
    parse = imagecore._parse_pnm_header

    def counted(data):
        parsed.append(len(data))
        return parse(data)

    monkeypatch.setattr(imagecore, "_parse_pnm_header", counted)
    with pytest.raises(ImageFormatError):
        read_image_shape(p)
    assert len(parsed) <= 2 and parsed[-1] <= 2048
