import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from placevision.image import (
    GrayImage,
    Image,
    PnmError,
    downsample2,
    gaussian_blur,
    gaussian_kernel1d,
    load_pnm,
    rgb_to_hsv_planes,
    to_grayscale,
    write_pnm,
    _convolve_axis,
)


def test_load_ascii_ppm_single_red_pixel(tmp_path):
    p = tmp_path / "red.ppm"
    p.write_text("P3\n1 1\n255\n255 0 0\n")
    img = load_pnm(p)
    assert img.width == 1 and img.height == 1
    assert np.allclose(img.pixels[0, 0], [1.0, 0.0, 0.0])


def test_load_binary_pgm_replicates_channels(tmp_path):
    p = tmp_path / "g.pgm"
    p.write_bytes(b"P5\n2 1\n255\n" + bytes([128, 0]))
    img = load_pnm(p)
    assert np.allclose(img.pixels[0, 0], [128 / 255] * 3)
    assert np.allclose(img.pixels[0, 1], [0, 0, 0])


def test_load_pnm_comments_and_16bit(tmp_path):
    p = tmp_path / "c.ppm"
    p.write_text("P3\n# a comment\n1 1\n# another\n65535\n65535 0 32768\n")
    img = load_pnm(p)
    assert np.allclose(img.pixels[0, 0], [1.0, 0.0, 32768 / 65535])


@pytest.mark.parametrize(
    "payload,message",
    [
        (b"P9\n1 1\n255\n\x00", "unsupported magic"),
        (b"P5\n1 ?\n255\n\x00", "malformed header"),
        (b"P5\n2 2\n255\nab", "truncated payload"),
        (b"P6\n1 1\n", "malformed header"),
    ],
)
def test_load_pnm_distinct_diagnostics(tmp_path, payload, message):
    p = tmp_path / "bad.pnm"
    p.write_bytes(payload)
    with pytest.raises(PnmError, match=message):
        load_pnm(p)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_pnm_round_trip_identity(tmp_path_factory, seed):
    rng = np.random.default_rng(seed)
    h, w = int(rng.integers(1, 9)), int(rng.integers(1, 9))
    raster = rng.integers(0, 256, size=(h, w, 3)).astype(np.float64) / 255.0
    img = Image(raster)
    p = tmp_path_factory.mktemp("rt") / "x.ppm"
    write_pnm(img, p)
    back = load_pnm(p)
    assert np.array_equal(back.pixels, img.pixels)


def test_gray_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    g = GrayImage(rng.integers(0, 256, size=(5, 7)).astype(np.float64) / 255.0)
    p = tmp_path / "g.pgm"
    write_pnm(g, p)
    back = load_pnm(p)
    assert np.array_equal(back.pixels[..., 0], g.intensities)


def test_to_grayscale_is_channel_mean():
    img = Image(np.array([[[1.0, 1.0, 1.0], [1.0, 0.0, 0.0]]]))
    g = to_grayscale(img)
    assert g.intensities[0, 0] == 1.0
    assert abs(g.intensities[0, 1] - 1 / 3) < 1e-15


def test_to_grayscale_constant_image():
    img = Image(np.full((4, 4, 3), 0.25))
    assert np.allclose(to_grayscale(img).intensities, 0.25)


@pytest.mark.parametrize(
    "rgb,expected",
    [
        ((1.0, 0.0, 0.0), (0.0, 1.0, 1.0)),
        ((0.0, 0.0, 1.0), (240.0, 1.0, 1.0)),
        ((0.5, 0.5, 0.5), (0.0, 0.0, 0.5)),
        ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
        ((0.0, 1.0, 0.0), (120.0, 1.0, 1.0)),
    ],
)
def test_rgb_to_hsv_reference_points(rgb, expected):
    got = tuple(float(c) for c in rgb_to_hsv_planes(np.array(rgb)))
    assert got == pytest.approx(expected, abs=1e-12)


def test_rgb_to_hsv_negative_hue_wraps():
    # max = r with g < b gives a negative hue prime; must wrap into [0, 360)
    h, s, v = rgb_to_hsv_planes(np.array([1.0, 0.0, 0.5]))
    assert 0.0 <= h < 360.0
    assert h == pytest.approx(330.0)


def _hsv_to_rgb(h, s, v):
    # standard hexcone inverse, used only as a test oracle
    c = v * s
    hp = h / 60.0
    x = c * (1 - abs(hp % 2 - 1))
    r, g, b = [(c, x, 0), (x, c, 0), (0, c, x), (0, x, c), (x, 0, c), (c, 0, x)][int(hp) % 6]
    m = v - c
    return r + m, g + m, b + m


@given(st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)))
@settings(max_examples=200)
def test_hsv_inverse_reconstructs_chromatic_pixels(rgb):
    r, g, b = rgb
    if max(rgb) - min(rgb) <= 1e-6:
        return
    h, s, v = rgb_to_hsv_planes(np.array([r, g, b]))
    assert np.allclose(_hsv_to_rgb(h, s, v), rgb, atol=1e-9)


def _hsv_by_reduction(pixels):
    """The reference: rgb_to_hsv_planes with max and min taken as reductions
    over the channel axis."""
    r, g, b = pixels[..., 0], pixels[..., 1], pixels[..., 2]
    mx = pixels.max(axis=-1)
    delta = mx - pixels.min(axis=-1)
    safe_delta = np.where(delta > 0, delta, 1.0)
    hp = np.where(
        r >= mx,
        (g - b) / safe_delta,
        np.where(g >= mx, 2.0 + (b - r) / safe_delta, 4.0 + (r - g) / safe_delta),
    )
    h = np.where(delta > 0, (hp * 60.0) % 360.0, 0.0)
    s = np.where(mx > 0, delta / np.where(mx > 0, mx, 1.0), 0.0)
    return h, s, mx


@pytest.mark.parametrize("lead", [(), (7,), (6, 5)])
def test_hsv_planes_are_the_bytes_of_the_channel_reduction(lead):
    rng = np.random.default_rng(len(lead))
    n = int(np.prod(lead, dtype=int))
    pixels = rng.integers(0, 256, (max(n, 1) * 8, 3)) / 255.0  # 8-bit levels, so ties occur
    special = [[0, 0, 0], [0.5, 0.5, 0.5], [1, 1, 1], [0.75, 0.75, 0.25],
               [0.25, 0.75, 0.75], [0.75, 0.25, 0.75], [1, 0, 0], [0, 0.5, 1]]
    pixels[: len(special)] = special
    pixels = rng.permutation(pixels)
    for start in range(0, len(pixels), max(n, 1)):
        block = pixels[start : start + max(n, 1)].reshape(*lead, 3)
        got, want = rgb_to_hsv_planes(block), _hsv_by_reduction(block)
        for a, b in zip(got, want):
            assert a.shape == b.shape == lead
            assert a.tobytes() == b.tobytes()


def test_gaussian_kernel_sums_to_one():
    for sigma in (0.4, 1.0, 1.6, 3.7):
        assert abs(gaussian_kernel1d(sigma).sum() - 1.0) < 1e-12


def test_gaussian_blur_keeps_constant_image():
    g = GrayImage(np.full((9, 11), 0.7))
    out = gaussian_blur(g, 2.3)
    assert np.allclose(out.intensities, 0.7, atol=1e-12)


def test_gaussian_blur_rejects_bad_sigma():
    g = GrayImage(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        gaussian_blur(g, 0.0)


def test_blur_impulse_proportional_to_gaussian():
    # response to a centered impulse must be proportional to the sampled
    # 2-D Gaussian over the truncated support
    sigma = 1.6
    size = 21
    c = size // 2
    img = np.zeros((size, size))
    img[c, c] = 1.0
    out = gaussian_blur(GrayImage(img), sigma).intensities
    radius = int(np.ceil(3 * sigma))
    ys, xs = np.mgrid[-radius : radius + 1, -radius : radius + 1]
    ref = np.exp(-(xs**2 + ys**2) / (2 * sigma**2))
    win = out[c - radius : c + radius + 1, c - radius : c + radius + 1]
    scale = win[radius, radius] / ref[radius, radius]
    rel = np.abs(win - scale * ref) / (scale * ref)
    assert rel.max() < 1e-6


def pad_convolve_axis(a, kernel, axis):
    """Reference: edge-pad with np.pad, then add the taps into zeros."""
    radius = len(kernel) // 2
    pad = [(0, 0), (0, 0)]
    pad[axis] = (radius, radius)
    padded = np.pad(a, pad, mode="edge")
    out = np.zeros_like(a)
    for t, w in enumerate(kernel):
        if axis == 0:
            out += w * padded[t : t + a.shape[0], :]
        else:
            out += w * padded[:, t : t + a.shape[1]]
    return out


@pytest.mark.parametrize("shape", [(96, 96), (48, 37), (1, 9), (5, 40), (37, 2)])
@pytest.mark.parametrize("sigma", [0.3, 1.2, 1.6, 2.9, 6.0])
def test_convolve_axis_matches_the_pad_reference(shape, sigma):
    # kernels wider than the image clamp every tap; exact zeros keep their
    # sign; the bytes must agree, not just the values
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    a = rng.random(shape)
    a[a < 0.3] = 0.0
    kernel = gaussian_kernel1d(sigma)
    for axis in (0, 1):
        assert _convolve_axis(a, kernel, axis).tobytes() == pad_convolve_axis(a, kernel, axis).tobytes()


def test_blur_semigroup_property():
    rng = np.random.default_rng(11)
    img = GrayImage(rng.random((48, 48)))
    s1, s2 = 1.4, 2.0
    twice = gaussian_blur(gaussian_blur(img, s1), s2).intensities
    once = gaussian_blur(img, np.hypot(s1, s2)).intensities
    inner = (slice(12, -12),) * 2
    assert np.abs(twice[inner] - once[inner]).max() < 1e-3


def test_downsample_dims_and_phase():
    g = GrayImage(np.arange(16).reshape(4, 4) / 15.0)
    d = downsample2(g)
    assert (d.height, d.width) == (2, 2)
    assert np.array_equal(d.intensities, g.intensities[::2, ::2])


def test_downsample_checkerboard_collapses_to_sampled_phase():
    tile = np.array([[1.0, 0.0], [0.0, 1.0]])
    board = np.tile(tile, (3, 3))
    d = downsample2(GrayImage(board))
    assert np.all(d.intensities == 1.0)


def test_downsample_odd_dims_floor():
    g = GrayImage(np.zeros((5, 7)))
    d = downsample2(g)
    assert (d.height, d.width) == (2, 3)


def test_downsample_too_small():
    with pytest.raises(ValueError):
        downsample2(GrayImage(np.zeros((1, 4))))
