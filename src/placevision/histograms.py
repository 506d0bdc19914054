"""Global color-histogram features with configurable quantization.

A color image maps onto a flattened joint histogram over three quantized
axes; the flat index of a pixel with per-axis bins (i, j, k) and axis
sizes (na, nb, nc) is i + na*j + na*nb*k.  Default grids are 10x10x10
for RGB and 18x10x10 for HSV.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .image import Image, rgb_to_hsv_planes
from .rules import NON_NEGATIVE

DEFAULT_RGB_BINS = (10, 10, 10)
DEFAULT_HSV_BINS = (18, 10, 10)

# How far the bin sum of a unit-mass histogram may stray from 1.
MASS_TOLERANCE = 1e-9


@dataclass(frozen=True)
class FeatureHistogram:
    """Fixed-length non-negative vector plus its binning descriptor.

    ``binning`` is either "<a>x<b>x<c>" for a 3-axis color grid,
    "bovw:<k>" for a visual-word histogram, or "generic:<n>".
    """

    bins: np.ndarray
    binning: str
    normalized: bool = False

    def __post_init__(self):
        b = np.ascontiguousarray(self.bins, dtype=np.float64)
        if b.ndim != 1 or b.size < 1:
            raise ValueError("bins must be a non-empty 1-D vector")
        if not np.isfinite(b).all() or b.min() < 0.0:
            raise ValueError("bins must be finite and non-negative")
        if b.size != _binning_size(self.binning):
            raise ValueError(
                f"binning {self.binning!r} implies {_binning_size(self.binning)} "
                f"bins, got {b.size}"
            )
        if self.normalized and abs(b.sum() - 1.0) > MASS_TOLERANCE:
            raise ValueError(f"normalized histogram sums to {float(b.sum())}, not 1")
        b.flags.writeable = False
        object.__setattr__(self, "bins", b)

    @property
    def total(self) -> float:
        return float(self.bins.sum())


def _binning_size(binning: str) -> int:
    if binning.startswith(("bovw:", "generic:")):
        return int(binning.split(":", 1)[1])
    parts = binning.split("x")
    if len(parts) != 3:
        raise ValueError(f"unrecognized binning descriptor {binning!r}")
    return int(parts[0]) * int(parts[1]) * int(parts[2])


def _quantize01(values: np.ndarray, n: int) -> np.ndarray:
    """Half-open bins [i/n, (i+1)/n); the top value clamps into the last bin."""
    return np.minimum((values * n).astype(np.intp), n - 1)


def _joint_histogram(planes, sizes) -> FeatureHistogram:
    """Pixel counts over the flat joint bins i + na*j + na*nb*k of three
    planes of values in [0, 1], quantized into (na, nb, nc) bins."""
    (a, b, c), (na, nb, nc) = planes, sizes
    t = _quantize01(a, na) + na * _quantize01(b, nb) + na * nb * _quantize01(c, nc)
    counts = np.bincount(t, minlength=na * nb * nc).astype(np.float64)
    return FeatureHistogram(counts, f"{na}x{nb}x{nc}")


def rgb_histogram(img: Image, n_r: int = 10, n_g: int = 10, n_b: int = 10) -> FeatureHistogram:
    """Joint RGB histogram with n_r*n_g*n_b bins; bin sum = pixel count."""
    if min(n_r, n_g, n_b) < 1:
        raise ValueError("all axis sizes must be >= 1")
    p = img.pixels.reshape(-1, 3)
    return _joint_histogram(p.T, (n_r, n_g, n_b))


def hsv_histogram(img: Image, n_h: int = 18, n_s: int = 10, n_v: int = 10) -> FeatureHistogram:
    """Joint HSV histogram; hue axis spans [0, 360), s and v span [0, 1]."""
    if min(n_h, n_s, n_v) < 1:
        raise ValueError("all axis sizes must be >= 1")
    h, s, v = rgb_to_hsv_planes(img.pixels.reshape(-1, 3))
    return _joint_histogram((h / 360.0, s, v), (n_h, n_s, n_v))


def normalize_l1(h: FeatureHistogram) -> FeatureHistogram:
    """Scale bins to sum 1."""
    total = h.bins.sum()
    if total <= 0:
        raise ValueError("cannot normalize an all-zero histogram")
    return FeatureHistogram(h.bins / total, h.binning, normalized=True)


# ---------------------------------------------------------------------------
# CSV serialization: one header line, then one bin value per line.
# Values are written with 17 significant digits so the decimal round trip
# is bit-exact for float64.
# ---------------------------------------------------------------------------

def write_histogram_csv(h: FeatureHistogram, path) -> None:
    # most bins are zero, and the 17-digit text of a zero is "0" or "-0":
    # only the non-zero bins need formatting
    lines = np.where(np.signbit(h.bins), "-0", "0").astype(object)
    nonzero = np.flatnonzero(h.bins)
    lines[nonzero] = [f"{v:.17g}" for v in h.bins[nonzero].tolist()]
    header = f"axes={h.binning},normalized={1 if h.normalized else 0}"
    Path(path).write_text("\n".join([header, *lines.tolist()]) + "\n", encoding="utf-8")


def read_histogram_csv(path) -> FeatureHistogram:
    """The histogram of a CSV file; a ValueError names the file, and the line
    of a bad bin."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not lines or not lines[0].startswith("axes="):
        raise ValueError(f"{path}: missing histogram header")
    head = lines[0][len("axes=") :]
    binning, _, norm = head.partition(",normalized=")
    if norm not in ("0", "1"):
        raise ValueError(f"{path}: malformed header {lines[0]!r}")
    values = lines[1:]
    if "" in values:
        values = [v for v in values if v]
    # most bins are written as "0", the +0.0 that np.zeros already holds
    bins = np.zeros(len(values))
    for i, v in enumerate(values):
        if v != "0":
            try:
                bins[i] = NON_NEGATIVE.parse(v)
            except ValueError:
                line = [n for n, text in enumerate(lines[1:], start=2) if text][i]
                raise ValueError(f"{path}:{line}: bin must be {NON_NEGATIVE.text}, got {v!r}") from None
    try:
        return FeatureHistogram(bins, binning, normalized=(norm == "1"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
