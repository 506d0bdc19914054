from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from placevision.histograms import (
    FeatureHistogram,
    hsv_histogram,
    normalize_l1,
    read_histogram_csv,
    rgb_histogram,
    write_histogram_csv,
)
from placevision.distances import pairwise_distances
from placevision.image import Image


def _img(raster):
    return Image(np.asarray(raster, dtype=np.float64))


def test_default_rgb_grid_has_1000_bins():
    img = _img(np.zeros((2, 2, 3)))
    assert rgb_histogram(img).bins.size == 1000


def test_64_bin_rgb_grid():
    img = _img(np.zeros((2, 2, 3)))
    assert rgb_histogram(img, 4, 4, 4).bins.size == 64


def test_rgb_flat_index_arithmetic():
    # bins (1, 2, 3) on a 4x4x4 grid land at 1 + 4*2 + 16*3 = 57
    px = np.array([[[1.5 / 4, 2.5 / 4, 3.5 / 4]]])
    h = rgb_histogram(_img(px), 4, 4, 4)
    assert h.bins[57] == 1.0
    assert h.bins.sum() == 1.0


def test_rgb_histogram_rejects_zero_axis():
    with pytest.raises(ValueError):
        rgb_histogram(_img(np.zeros((1, 1, 3))), 0, 4, 4)


def test_default_hsv_grid_has_1800_bins():
    img = _img(np.zeros((2, 2, 3)))
    assert hsv_histogram(img).bins.size == 1800


def test_hsv_black_image_fills_origin_bin():
    img = _img(np.zeros((3, 4, 3)))
    h = hsv_histogram(img)
    assert h.bins[0] == 12.0
    assert h.bins.sum() == 12.0


def test_hsv_top_hue_clamps_into_last_bin():
    # hue 359.9deg: r max, b slightly above g
    px = np.array([[[1.0, 0.0, 0.001]]])
    h = hsv_histogram(_img(px), 18, 1, 1)
    assert h.bins[17] == 1.0


def test_histogram_sum_equals_pixel_count():
    rng = np.random.default_rng(0)
    img = _img(rng.random((13, 7, 3)))
    assert rgb_histogram(img).total == 13 * 7
    assert hsv_histogram(img).total == 13 * 7


def test_histogram_invariant_to_pixel_permutation():
    rng = np.random.default_rng(1)
    raster = rng.random((6, 8, 3))
    flat = raster.reshape(-1, 3)
    perm = flat[rng.permutation(len(flat))].reshape(raster.shape)
    a = rgb_histogram(_img(raster))
    b = rgb_histogram(_img(perm))
    assert np.array_equal(a.bins, b.bins)


def test_brightness_scaling_keeps_saturated_hue_marginal():
    rng = np.random.default_rng(2)
    hues = rng.random((5, 5)) * 360.0
    # fully saturated pixels: v = 1, s = 1; scaling v leaves hue untouched
    def raster(v):
        h = hues / 60.0
        x = 1 - np.abs(h % 2 - 1)
        sector = h.astype(int) % 6
        r = np.choose(sector, [1, x, np.zeros_like(x), np.zeros_like(x), x, 1])
        g = np.choose(sector, [x, 1, 1, x, np.zeros_like(x), np.zeros_like(x)])
        b = np.choose(sector, [np.zeros_like(x), np.zeros_like(x), x, 1, 1, x])
        return np.stack([r, g, b], axis=-1) * v

    n_h = 18
    full = hsv_histogram(_img(raster(1.0)), n_h, 1, 10)
    dim = hsv_histogram(_img(raster(0.5)), n_h, 1, 10)
    marg_full = full.bins.reshape(10, n_h).sum(axis=0)
    marg_dim = dim.bins.reshape(10, n_h).sum(axis=0)
    assert np.array_equal(marg_full, marg_dim)
    # while the RGB histogram shifts with brightness
    assert not np.array_equal(
        rgb_histogram(_img(raster(1.0))).bins, rgb_histogram(_img(raster(0.5))).bins
    )


def test_normalize_l1_basic_and_idempotent():
    h = FeatureHistogram(np.array([2.0, 2.0]), "generic:2")
    n = normalize_l1(h)
    assert np.allclose(n.bins, [0.5, 0.5])
    assert n.normalized
    again = normalize_l1(n)
    assert np.abs(again.bins - n.bins).max() < 1e-12


def test_normalize_l1_rejects_all_zero():
    h = FeatureHistogram(np.zeros(3), "generic:3")
    with pytest.raises(ValueError):
        normalize_l1(h)


@given(arrays(np.float64, st.integers(1, 50), elements=st.floats(0, 1e6)))
@settings(max_examples=100)
def test_normalize_l1_sums_to_one(bins):
    if bins.sum() <= 0:
        return
    h = FeatureHistogram(bins, f"generic:{bins.size}")
    assert abs(normalize_l1(h).bins.sum() - 1.0) < 1e-12


# cumulative histograms are the running sums over the flat bin order that
# the match distance compares in L1


def test_cumulative_running_sum():
    h = FeatureHistogram(np.array([1.0, 2.0, 3.0]), "generic:3")
    # running sums [1, 3, 6] against [6, 6, 6], all the mass in bin 0
    assert pairwise_distances("match", h.bins, [6.0, 0.0, 0.0])[0, 0] == 5.0 + 3.0 + 0.0


def test_cumulative_zeros_and_total():
    z = FeatureHistogram(np.zeros(4), "generic:4")
    assert pairwise_distances("match", z.bins, z.bins)[0, 0] == 0.0
    rng = np.random.default_rng(5)
    h = FeatureHistogram(rng.random(9), "generic:9")
    # the last running sum is the total, so all of it in the last bin leaves
    # only the other running sums
    last = np.zeros(9)
    last[-1] = h.total
    assert pairwise_distances("match", h.bins, last)[0, 0] == pytest.approx(np.cumsum(h.bins)[:-1].sum())


def test_csv_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(9)
    h = normalize_l1(FeatureHistogram(rng.random(27), "3x3x3"))
    path = tmp_path / "h.csv"
    write_histogram_csv(h, path)
    back = read_histogram_csv(path)
    assert back.binning == h.binning
    assert back.normalized == h.normalized
    assert np.array_equal(back.bins, h.bins)
    header = path.read_text().splitlines()[0]
    assert header == "axes=3x3x3,normalized=1"


def test_csv_round_trip_bovw_binning(tmp_path):
    h = FeatureHistogram(np.array([0.25, 0.75]), "bovw:2", normalized=True)
    path = tmp_path / "b.csv"
    write_histogram_csv(h, path)
    assert np.array_equal(read_histogram_csv(path).bins, h.bins)


def write_every_bin(h, path):
    """Reference: format every bin with 17 significant digits."""
    lines = [f"axes={h.binning},normalized={1 if h.normalized else 0}"]
    lines.extend(f"{v:.17g}" for v in h.bins)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _sparse(n, nonzero, seed):
    rng = np.random.default_rng(seed)
    bins = np.zeros(n)
    bins[rng.choice(n, nonzero, replace=False)] = rng.random(nonzero)
    return bins


SPARSE_CASES = [
    normalize_l1(FeatureHistogram(_sparse(1000, 30, 1), "10x10x10")),
    normalize_l1(FeatureHistogram(_sparse(1800, 50, 2), "18x10x10")),
    FeatureHistogram(_sparse(1000, 30, 3), "10x10x10"),
    normalize_l1(FeatureHistogram(np.random.default_rng(4).random(27), "3x3x3")),
    FeatureHistogram(np.array([0.0, -0.0, 1e-300, 5e-324, 1e300, 0.1, -0.0]), "generic:7"),
    FeatureHistogram(np.array([-0.0, 0.0, 2.0]), "bovw:3", normalized=False),
    FeatureHistogram(np.zeros(4), "generic:4"),
    FeatureHistogram(np.full(4, -0.0), "generic:4"),
]


@pytest.mark.parametrize("h", SPARSE_CASES)
def test_csv_writer_matches_the_every_bin_reference(tmp_path, h):
    write_histogram_csv(h, tmp_path / "got.csv")
    write_every_bin(h, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def read_every_line(path):
    """Reference: parse every non-empty value line with float()."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return np.array([float(v) for v in lines[1:] if v], dtype=np.float64)


@pytest.mark.parametrize("h", SPARSE_CASES)
def test_csv_reader_matches_the_every_line_reference(tmp_path, h):
    write_histogram_csv(h, tmp_path / "h.csv")
    got = read_histogram_csv(tmp_path / "h.csv")
    assert got.bins.tobytes() == read_every_line(tmp_path / "h.csv").tobytes() == h.bins.tobytes()


@pytest.mark.parametrize(
    "body",
    [
        "0\n\n-0\n1.5\n\n0\n",
        "\n0\n0\n-0\n2.5e-320\n",
        "0.0\n-0.0\n00\n 1\n",
        "1e308\n0\n-0\n0\n\n\n",
    ],
)
def test_csv_reader_skips_blank_lines_as_the_reference_does(tmp_path, body):
    path = tmp_path / "h.csv"
    path.write_text("axes=generic:4,normalized=0\n" + body, encoding="utf-8")
    assert read_histogram_csv(path).bins.tobytes() == read_every_line(path).tobytes()


@pytest.mark.parametrize("bad", ["zero", "0,5", "--0", "0x1"])
def test_csv_reader_rejects_a_malformed_value(tmp_path, bad):
    path = tmp_path / "h.csv"
    path.write_text(f"axes=generic:3,normalized=0\n0\n{bad}\n-0\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_every_line(path)
    with pytest.raises(ValueError):
        read_histogram_csv(path)
