"""Image ingestion, color conversion and Gaussian filtering.

Images are stored as numpy rasters with all channels in [0, 1].  Every
operation here is a pure function; the wrapped arrays are marked
read-only so values can be shared freely between threads/processes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class PnmError(ValueError):
    """Raised for malformed, truncated or unsupported PNM files."""


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Image:
    """RGB raster, shape (height, width, 3), channels in [0, 1]."""

    pixels: np.ndarray

    def __post_init__(self):
        p = self.pixels
        if p.ndim != 3 or p.shape[2] != 3 or p.shape[0] < 1 or p.shape[1] < 1:
            raise ValueError(f"expected (h, w, 3) raster, got shape {p.shape}")
        if not np.isfinite(p).all() or p.min() < 0.0 or p.max() > 1.0:
            raise ValueError("channel values must be finite and in [0, 1]")
        object.__setattr__(self, "pixels", _freeze(p))

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


@dataclass(frozen=True)
class GrayImage:
    """Single-channel raster, shape (height, width), values in [0, 1]."""

    intensities: np.ndarray

    def __post_init__(self):
        a = self.intensities
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError(f"expected (h, w) raster, got shape {a.shape}")
        if not np.isfinite(a).all() or a.min() < 0.0 or a.max() > 1.0:
            raise ValueError("intensities must be finite and in [0, 1]")
        object.__setattr__(self, "intensities", _freeze(a))

    @property
    def width(self) -> int:
        return self.intensities.shape[1]

    @property
    def height(self) -> int:
        return self.intensities.shape[0]


# ---------------------------------------------------------------------------
# PNM (PGM/PPM) decoding and encoding
# ---------------------------------------------------------------------------

_MAGIC_CHANNELS = {b"P2": 1, b"P3": 3, b"P5": 1, b"P6": 3}
_BINARY_MAGIC = (b"P5", b"P6")


def _parse_header(data: bytes):
    """Return (magic, width, height, maxval, payload_offset)."""
    if len(data) < 2:
        raise PnmError("malformed header: file shorter than a magic number")
    magic = data[:2]
    if magic not in _MAGIC_CHANNELS:
        raise PnmError(f"unsupported magic number {magic!r} (expected P2/P3/P5/P6)")

    # Tokenize width/height/maxval, skipping comments that run to end-of-line.
    fields = []
    pos = 2
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos >= len(data):
            raise PnmError("malformed header: missing width/height/maxval")
        if data[pos : pos + 1] == b"#":
            eol = data.find(b"\n", pos)
            if eol < 0:
                raise PnmError("malformed header: unterminated comment")
            pos = eol + 1
            continue
        m = re.match(rb"[0-9]+", data[pos:])
        if m is None:
            raise PnmError(f"malformed header: expected integer at byte {pos}")
        fields.append(int(m.group(0)))
        pos += m.end()
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise PnmError("malformed header: non-positive dimensions")
    if not 1 <= maxval <= 65535:
        raise PnmError(f"malformed header: maxval {maxval} outside [1, 65535]")
    if magic in _BINARY_MAGIC:
        # exactly one whitespace byte separates the header from the payload
        if pos >= len(data) or not data[pos : pos + 1].isspace():
            raise PnmError("malformed header: missing separator before payload")
        pos += 1
    return magic, width, height, maxval, pos


def load_pnm(path) -> Image:
    """Read a PGM (P2/P5) or PPM (P3/P6) file into an Image.

    Channels are scaled by 1/maxval; grayscale files are replicated to
    three identical channels.
    """
    data = Path(path).read_bytes()
    magic, width, height, maxval, pos = _parse_header(data)
    channels = _MAGIC_CHANNELS[magic]
    n_samples = width * height * channels

    if magic in _BINARY_MAGIC:
        bytes_per = 2 if maxval > 255 else 1
        payload = data[pos : pos + n_samples * bytes_per]
        if len(payload) < n_samples * bytes_per:
            raise PnmError(
                f"truncated payload: expected {n_samples * bytes_per} bytes, "
                f"got {len(payload)}"
            )
        dtype = ">u2" if bytes_per == 2 else np.uint8
        samples = np.frombuffer(payload, dtype=dtype).astype(np.float64)
    else:
        tokens = data[pos:].split()
        if len(tokens) < n_samples:
            raise PnmError(
                f"truncated payload: expected {n_samples} samples, got {len(tokens)}"
            )
        try:
            samples = np.array([int(t) for t in tokens[:n_samples]], dtype=np.float64)
        except ValueError as exc:
            raise PnmError(f"truncated payload: non-numeric sample ({exc})") from exc

    if samples.max(initial=0) > maxval:
        raise PnmError("truncated payload: sample value exceeds maxval")
    samples /= maxval
    if channels == 1:
        gray = samples.reshape(height, width)
        return Image(np.repeat(gray[:, :, None], 3, axis=2))
    return Image(samples.reshape(height, width, 3))


def write_pnm(img, path, maxval: int = 255) -> None:
    """Write an Image as binary PPM (P6) or a GrayImage as binary PGM (P5).

    With 8-bit maxval the encode/decode round trip is bit-exact.
    """
    if not 1 <= maxval <= 65535:
        raise ValueError(f"maxval {maxval} outside [1, 65535]")
    if isinstance(img, Image):
        magic, raster = b"P6", img.pixels
    elif isinstance(img, GrayImage):
        magic, raster = b"P5", img.intensities
    else:
        raise TypeError(f"expected Image or GrayImage, got {type(img).__name__}")
    quant = np.rint(raster * maxval).astype(">u2" if maxval > 255 else np.uint8)
    header = b"%s\n%d %d\n%d\n" % (magic, raster.shape[1], raster.shape[0], maxval)
    Path(path).write_bytes(header + quant.tobytes())


# ---------------------------------------------------------------------------
# Color conversion
# ---------------------------------------------------------------------------

def to_grayscale(img: Image) -> GrayImage:
    """Unweighted channel mean (r+g+b)/3, keeping R/G/B symmetric."""
    return GrayImage(img.pixels.mean(axis=2))


def rgb_to_hsv_planes(pixels: np.ndarray):
    """Vectorized hexcone RGB->HSV over an (..., 3) array in [0, 1].

    Returns (h, s, v) arrays with h in degrees [0, 360).  Achromatic
    pixels (max == min) get h = 0 and s = 0; black additionally v = 0.
    """
    r, g, b = pixels[..., 0], pixels[..., 1], pixels[..., 2]
    # pairwise over the channel views: a reduction over a length-3 axis is slow
    mx = np.maximum(np.maximum(r, g), b)
    mn = np.minimum(np.minimum(r, g), b)
    delta = mx - mn

    safe_delta = np.where(delta > 0, delta, 1.0)
    hp = np.where(
        r >= mx,
        (g - b) / safe_delta,
        np.where(g >= mx, 2.0 + (b - r) / safe_delta, 4.0 + (r - g) / safe_delta),
    )
    h = np.where(delta > 0, (hp * 60.0) % 360.0, 0.0)
    s = np.where(mx > 0, delta / np.where(mx > 0, mx, 1.0), 0.0)
    return h, s, mx


# ---------------------------------------------------------------------------
# Filtering and resampling
# ---------------------------------------------------------------------------

def gaussian_kernel1d(sigma: float) -> np.ndarray:
    """Discretized Gaussian, truncated at radius ceil(3*sigma), renormalized."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    radius = int(np.ceil(3.0 * sigma))
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-(x * x) / (2.0 * sigma * sigma))
    return k / k.sum()


def _convolve_axis(a: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    radius = len(kernel) // 2
    n = a.shape[axis]
    # clamp-to-border replication
    padded = np.take(a, np.clip(np.arange(-radius, n + radius), 0, n - 1), axis=axis)
    taps = [padded[t : t + n] if axis == 0 else padded[:, t : t + n] for t in range(len(kernel))]
    # tap by tap from the first, the same sums as from zero
    out = kernel[0] * taps[0]
    term = np.empty_like(out)
    for w, tap in zip(kernel[1:], taps[1:]):
        out += np.multiply(tap, w, out=term)
    return out


def gaussian_blur(img: GrayImage, sigma: float) -> GrayImage:
    """Separable Gaussian convolution with clamped borders."""
    kernel = gaussian_kernel1d(sigma)
    out = _convolve_axis(_convolve_axis(img.intensities, kernel, 0), kernel, 1)
    # kernel is normalized, so the output stays in [0, 1] up to roundoff
    return GrayImage(np.clip(out, 0.0, 1.0))


def downsample2(img: GrayImage) -> GrayImage:
    """Decimate by 2: output (x, y) takes the source pixel at (2x, 2y)."""
    if img.width < 2 or img.height < 2:
        raise ValueError(f"image {img.width}x{img.height} too small to halve")
    h, w = img.height // 2, img.width // 2
    return GrayImage(img.intensities[: 2 * h : 2, : 2 * w : 2])
