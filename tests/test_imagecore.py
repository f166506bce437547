import math

import numpy as np
import pytest
from helpers import naive_downsample, textured_image

from roadalign.errors import (MalformedHeaderError, TruncatedPayloadError,
                              UnsupportedMaxvalError)
from roadalign.imagecore import (RGB_FLOOR, build_pyramid, downsample,
                                 gaussian_kernel, gaussian_smooth, gradient,
                                 load_image, load_mask, read_image_shape,
                                 rgb_to_gray, save_image_rgb, save_mask)


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
    # a comment longer than one read, and no payload at all
    p.write_bytes(b"P6\n# " + b"x" * 2000 + b"\n640 480\n255\n")
    assert read_image_shape(p) == (480, 640, 3)
    with pytest.raises(TruncatedPayloadError):
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


def test_gaussian_smooth_preserves_constants():
    img = np.full((10, 12), 0.37)
    assert np.allclose(gaussian_smooth(img, 2.0), 0.37)


def test_gaussian_smooth_matches_direct_convolution():
    rng = np.random.default_rng(6)
    row = rng.random(9)
    sigma = 0.8
    k = gaussian_kernel(sigma)
    r = len(k) // 2
    padded = np.concatenate([np.full(r, row[0]), row, np.full(r, row[-1])])
    expected = np.array([(padded[i:i + len(k)] * k).sum() for i in range(9)])
    got = gaussian_smooth(row.reshape(1, -1), sigma)[0]
    assert np.allclose(got, expected, atol=1e-12)


@pytest.mark.parametrize("shape,factor", [((7, 10), 3), ((8, 8), 4),
                                          ((12, 5), 2), ((3, 3), 5)])
def test_downsample_matches_naive(shape, factor):
    rng = np.random.default_rng(hash(shape) % 1000)
    img = rng.random(shape)
    assert np.allclose(downsample(img, factor), naive_downsample(img, factor),
                       atol=1e-12)


def test_downsample_factor_one_copies():
    img = np.arange(12.0).reshape(3, 4)
    out = downsample(img, 1)
    assert np.array_equal(out, img)
    assert out is not img


def test_downsample_validates_factor():
    with pytest.raises(ValueError):
        downsample(np.zeros((4, 4)), 0)
    with pytest.raises(ValueError):
        downsample(np.zeros((4, 4)), 2.5)


def test_gradient_on_linear_ramp():
    y, x = np.mgrid[0:6, 0:8]
    dx, dy = gradient(x + 2.0 * y)
    assert np.allclose(dx, 1.0)
    assert np.allclose(dy, 2.0)


def test_gradient_needs_two_by_two():
    with pytest.raises(ValueError):
        gradient(np.zeros((1, 5)))


def test_build_pyramid_halves_until_min_side(caplog):
    img = textured_image(7, (64, 64))
    pyr = build_pyramid(img, 3)
    assert [p.shape for p in pyr] == [(64, 64), (32, 32), (16, 16)]
    with caplog.at_level("WARNING"):
        clamped = build_pyramid(img, 5)
    assert len(clamped) == 3
    assert "clamped" in caplog.text
    with pytest.raises(ValueError):
        build_pyramid(img, 0)


def test_build_pyramid_ceil_dimensions():
    pyr = build_pyramid(np.zeros((33, 47)), 2)
    assert pyr[1].shape == (17, 24)
