"""Scale-invariant keypoint detection and description.

The detector builds a Gaussian scale-space pyramid, takes differences of
adjacent blur levels, finds strict 26-neighbor extrema, refines them to
sub-pixel accuracy with a 3-D quadratic fit, rejects low-contrast and
edge responses, assigns gradient orientations, and samples a 4x4x8
gradient-orientation descriptor (128 values).  The color variant
computes the 128-vector independently per R/G/B plane and concatenates
to 384.

Refinement runs batched over all candidates of an octave, orientation
assignment and description over all keypoints of one blur level; every
batch is processed in chunks whose largest temporary array stays within
``_CHUNK_BYTES``.  The per-keypoint public functions are one-element
calls into the same kernels.

Coordinates: x is the column, y is the row, both in the base-image
frame; ``sigma`` is the absolute scale in that frame.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, replace
from itertools import groupby
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .binfile import Reader, write_atomic
from .image import GrayImage, Image, downsample2, gaussian_blur, to_grayscale

DESCRIPTOR_CELLS = 4
DESCRIPTOR_ORI_BINS = 8
DESCRIPTOR_SIZE = DESCRIPTOR_CELLS * DESCRIPTOR_CELLS * DESCRIPTOR_ORI_BINS  # 128
DESCRIPTOR_CLAMP = 0.2
ORI_HIST_BINS = 36
ORI_PEAK_RATIO = 0.8
MIN_OCTAVE_DIM = 8
# Byte budget of the largest temporary array a batched keypoint kernel
# builds; each batch is cut into chunks that stay within it.
_CHUNK_BYTES = 256 * 1024


@dataclass(frozen=True)
class SiftParams:
    octaves: int = 4
    scales_per_octave: int = 2  # 5 blur levels per octave
    sigma0: float = 1.6
    contrast_threshold: float = 0.03
    edge_ratio: float = 10.0
    # the source text says 1.6x the keypoint scale here; 1.5 is the
    # canonical value, so it is exposed as a parameter
    orientation_sigma_factor: float = 1.5


@dataclass(frozen=True)
class Keypoint:
    x: float
    y: float
    sigma: float
    orientation: float  # radians in [0, 2*pi)
    octave: int
    layer: int

    def sort_key(self):
        return (self.octave, self.layer, self.y, self.x, self.orientation)


@dataclass(frozen=True)
class Descriptor:
    values: np.ndarray
    keypoint: Keypoint

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


@dataclass
class ScaleSpace:
    """Per octave, scales_per_octave+3 blurred images at sigma0*k^i."""

    octaves: List[List[GrayImage]]
    sigma0: float
    scales_per_octave: int
    _gradients: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def k(self) -> float:
        return 2.0 ** (1.0 / self.scales_per_octave)

    def sigma_within(self, layer: float) -> float:
        return self.sigma0 * self.k**layer

    def sigma_abs(self, octave: int, layer: float) -> float:
        return self.sigma_within(layer) * (2.0**octave)

    def gradients(self, octave: int, layer: int):
        """Cached central-difference gradients (dx, dy) of a blur level."""
        key = (octave, layer)
        if key not in self._gradients:
            a = self.octaves[octave][layer].intensities
            dy, dx = np.gradient(a)
            self._gradients[key] = (dx, dy)
        return self._gradients[key]


@dataclass
class DoGPyramid:
    """Per octave, an (levels-1, h, w) stack of adjacent blur differences."""

    octaves: List[np.ndarray]
    sigma0: float
    scales_per_octave: int

    @property
    def k(self) -> float:
        return 2.0 ** (1.0 / self.scales_per_octave)


Candidate = Tuple[int, int, int, int]  # (octave, layer, y, x)


# ---------------------------------------------------------------------------
# pyramid construction
# ---------------------------------------------------------------------------

def build_scale_space(
    img: GrayImage, octaves: int = 4, scales_per_octave: int = 2, sigma0: float = 1.6
) -> ScaleSpace:
    """Gaussian pyramid: each octave halves resolution and doubles sigma.

    The base image is used at native resolution and treated as unblurred;
    the next octave is seeded by decimating the level at 2*sigma0.
    """
    if octaves < 1 or scales_per_octave < 1:
        raise ValueError("octaves and scales_per_octave must be >= 1")
    if sigma0 <= 0:
        raise ValueError("sigma0 must be positive")
    if min(img.width, img.height) // (2 ** (octaves - 1)) < MIN_OCTAVE_DIM:
        raise ValueError(
            f"image {img.width}x{img.height} too small for {octaves} octaves"
        )
    k = 2.0 ** (1.0 / scales_per_octave)
    levels = scales_per_octave + 3
    pyramid: List[List[GrayImage]] = []
    base = img
    for _ in range(octaves):
        level_imgs = [gaussian_blur(base, sigma0)]
        for i in range(1, levels):
            s_prev = sigma0 * k ** (i - 1)
            s_next = sigma0 * k**i
            inc = math.sqrt(s_next**2 - s_prev**2)
            level_imgs.append(gaussian_blur(level_imgs[-1], inc))
        pyramid.append(level_imgs)
        # the level at 2*sigma0 seeds the next octave
        base = downsample2(level_imgs[scales_per_octave])
    return ScaleSpace(pyramid, sigma0, scales_per_octave)


def build_dog(ss: ScaleSpace) -> DoGPyramid:
    """Difference of adjacent blur levels, sign preserved."""
    stacks = []
    for levels in ss.octaves:
        arr = np.stack([im.intensities for im in levels])
        stacks.append(arr[1:] - arr[:-1])
    return DoGPyramid(stacks, ss.sigma0, ss.scales_per_octave)


# ---------------------------------------------------------------------------
# extrema detection and refinement
# ---------------------------------------------------------------------------

def detect_extrema(dog: DoGPyramid) -> List[Candidate]:
    """Strict extrema over the 3x3x3 neighborhood spanning adjacent layers.

    Plateaus produce nothing; border pixels and the first/last layer of
    each octave are excluded.
    """
    out: List[Candidate] = []
    for o, stack in enumerate(dog.octaves):
        n_layers, h, w = stack.shape
        if n_layers < 3 or h < 3 or w < 3:
            continue
        for l in range(1, n_layers - 1):
            center = stack[l, 1 : h - 1, 1 : w - 1]
            is_max = np.ones(center.shape, dtype=bool)
            is_min = np.ones(center.shape, dtype=bool)
            for dl in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        if dl == 0 and dy == 0 and dx == 0:
                            continue
                        nb = stack[l + dl, 1 + dy : h - 1 + dy, 1 + dx : w - 1 + dx]
                        is_max &= center > nb
                        is_min &= center < nb
                        if not is_max.any() and not is_min.any():
                            break
            ys, xs = np.nonzero(is_max | is_min)
            out.extend((o, l, int(y) + 1, int(x) + 1) for y, x in zip(ys, xs))
    out.sort()
    return out


def _chunks(item_bytes: np.ndarray):
    """(start, stop) bounds of consecutive chunks over items whose byte cost
    is nondecreasing: a chunk's item count times its largest item cost
    stays within _CHUNK_BYTES, and every chunk holds at least one item."""
    n = len(item_bytes)
    start = 0
    while start < n:
        padded = np.arange(1, n - start + 1) * item_bytes[start:]
        stop = start + max(1, int(np.searchsorted(padded, _CHUNK_BYTES, side="right")))
        yield start, stop
        start = stop


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products, each computed as the 1-D ``a[i] @ b[i]``."""
    a = np.ascontiguousarray(a)
    b = np.ascontiguousarray(b)
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _keypoints(x, y, sigma, orientation, octave: int, layer) -> List[Keypoint]:
    layer = np.broadcast_to(layer, np.shape(x))
    return [
        Keypoint(*vals, octave=octave, layer=l)
        for *vals, l in zip(x.tolist(), y.tolist(), sigma.tolist(), orientation.tolist(), layer.tolist())
    ]


def _columns(kps: Sequence[Keypoint]):
    """x, y, sigma and orientation of keypoints as float arrays."""
    return np.array([(k.x, k.y, k.sigma, k.orientation) for k in kps], dtype=np.float64).reshape(-1, 4).T


def _dog_derivatives(stack: np.ndarray, l: np.ndarray, y: np.ndarray, x: np.ndarray):
    """Gradients (n, 3) and Hessians (n, 3, 3) of the DoG at lattice points."""
    d = stack
    g = 0.5 * np.stack(
        [
            d[l, y, x + 1] - d[l, y, x - 1],
            d[l, y + 1, x] - d[l, y - 1, x],
            d[l + 1, y, x] - d[l - 1, y, x],
        ],
        axis=-1,
    )
    c = d[l, y, x]
    dxx = d[l, y, x + 1] - 2 * c + d[l, y, x - 1]
    dyy = d[l, y + 1, x] - 2 * c + d[l, y - 1, x]
    dll = d[l + 1, y, x] - 2 * c + d[l - 1, y, x]
    dxy = 0.25 * (d[l, y + 1, x + 1] - d[l, y + 1, x - 1] - d[l, y - 1, x + 1] + d[l, y - 1, x - 1])
    dxl = 0.25 * (d[l + 1, y, x + 1] - d[l + 1, y, x - 1] - d[l - 1, y, x + 1] + d[l - 1, y, x - 1])
    dyl = 0.25 * (d[l + 1, y + 1, x] - d[l + 1, y - 1, x] - d[l - 1, y + 1, x] + d[l - 1, y - 1, x])
    hess = np.stack([dxx, dxy, dxl, dxy, dyy, dyl, dxl, dyl, dll], axis=-1).reshape(-1, 3, 3)
    return g, hess


def _refine_chunk(stack, pos, contrast_threshold, edge_ratio, max_steps):
    """Batched sub-pixel refinement of lattice points pos (n, 3) of
    (layer, y, x); returns the accepted mask, final lattice points and
    offsets."""
    n_layers, h, w = stack.shape
    pos = pos.copy()
    n = len(pos)
    grad = np.zeros((n, 3))
    hess = np.zeros((n, 3, 3))
    offset = np.zeros((n, 3))
    converged = np.zeros(n, dtype=bool)
    active = np.arange(n)
    for _ in range(max_steps):
        if not active.size:
            break
        g, hs = _dog_derivatives(stack, *pos[active].T)
        # a singular Hessian rejects only its own candidate
        solvable = np.linalg.det(hs) != 0
        active, g, hs = active[solvable], g[solvable], hs[solvable]
        off = np.linalg.solve(hs, -g[:, :, None])[:, :, 0]
        done = np.all(np.abs(off) < 0.5, axis=1)
        idx = active[done]
        converged[idx] = True
        grad[idx], hess[idx], offset[idx] = g[done], hs[done], off[done]
        active = active[~done]
        # offsets are (x, y, layer); lattice points are (layer, y, x)
        moved = pos[active] + np.rint(off[~done])[:, ::-1]
        l, y, x = moved.T
        inside = (1 <= l) & (l < n_layers - 1) & (1 <= y) & (y < h - 1) & (1 <= x) & (x < w - 1)
        active = active[inside]
        pos[active] = moved[inside].astype(np.intp)

    keep = np.flatnonzero(converged)
    g, hs, off = grad[keep], hess[keep], offset[keep]
    l, y, x = pos[keep].T
    value = stack[l, y, x] + 0.5 * _rowdot(g, off)
    # principal-curvature ratio test on the 2x2 spatial Hessian
    dxx, dyy, dxy = hs[:, 0, 0], hs[:, 1, 1], hs[:, 0, 1]
    tr = dxx + dyy
    det = dxx * dyy - dxy * dxy
    r = edge_ratio
    converged[keep] = ~(np.abs(value) < contrast_threshold) & ~(
        (det <= 0) | (tr * tr * r >= (r + 1) ** 2 * det)
    )
    return converged, pos, offset


def _refine_octave(
    dog: DoGPyramid,
    octave: int,
    cands: np.ndarray,
    contrast_threshold: float,
    edge_ratio: float,
    max_steps: int = 5,
):
    """Sub-pixel localization of one octave's candidates (n, 3) of
    (layer, y, x), with contrast and edge-response rejection.

    Returns x, y, sigma (base-image frame) and layer of the accepted
    candidates, in candidate order.
    """
    stack = dog.octaves[octave]
    n_layers = stack.shape[0]
    n = len(cands)
    accepted = np.zeros(n, dtype=bool)
    pos = np.zeros((n, 3), dtype=np.intp)
    off = np.zeros((n, 3))
    # the largest per-candidate temporary is its (3, 3) float64 Hessian
    for start, stop in _chunks(np.full(n, 9 * 8)):
        accepted[start:stop], pos[start:stop], off[start:stop] = _refine_chunk(
            stack, cands[start:stop], contrast_threshold, edge_ratio, max_steps
        )
    pos, off = pos[accepted], off[accepted]

    scale_factor = 2.0**octave
    layer_ref = np.clip(pos[:, 0] + off[:, 2], 0.0, n_layers)
    # float_power is libm pow, as Python's float ** is; np.power's SIMD
    # loop can differ in the last bit
    sigma = dog.sigma0 * np.float_power(dog.k, layer_ref) * scale_factor
    x = (pos[:, 2] + off[:, 0]) * scale_factor
    y = (pos[:, 1] + off[:, 1]) * scale_factor
    layer = np.clip(np.rint(layer_ref).astype(np.intp), 1, n_layers - 1)
    return x, y, sigma, layer


def refine_keypoint(
    candidate: Candidate,
    dog: DoGPyramid,
    contrast_threshold: float = 0.03,
    edge_ratio: float = 10.0,
    max_steps: int = 5,
) -> Optional[Keypoint]:
    """Sub-pixel localization with contrast and edge-response rejection.

    Returns None for rejected candidates (rejection is not an error).
    """
    o, l, y, x = candidate
    xs, ys, sigma, layer = _refine_octave(
        dog, o, np.array([[l, y, x]], dtype=np.intp), contrast_threshold, edge_ratio, max_steps
    )
    kps = _keypoints(xs, ys, sigma, np.zeros(len(xs)), o, layer)
    return kps[0] if kps else None


# ---------------------------------------------------------------------------
# orientation assignment
# ---------------------------------------------------------------------------

def _orientation_histograms(dx_img, dy_img, cx, cy, sigma_w, radius):
    """36-bin magnitude-weighted histograms (n, 36) of Gaussian windows;
    every window is padded to the largest radius and masked back."""
    h, w = dx_img.shape
    n = len(cx)
    big = int(radius.max())
    d = np.arange(-big, big + 1)
    yy = (np.rint(cy).astype(np.intp)[:, None] + d)[:, :, None]
    xx = (np.rint(cx).astype(np.intp)[:, None] + d)[:, None, :]
    rad = radius[:, None, None]
    valid = (
        (np.abs(d)[:, None] <= rad)
        & (np.abs(d) <= rad)
        & (yy >= 1)
        & (yy <= h - 2)
        & (xx >= 1)
        & (xx <= w - 2)
    )
    yc = np.clip(yy, 0, h - 1)
    xc = np.clip(xx, 0, w - 1)
    win_dx = dx_img[yc, xc][valid]
    win_dy = dy_img[yc, xc][valid]
    dist2 = ((xx - cx[:, None, None]) ** 2 + (yy - cy[:, None, None]) ** 2)[valid]
    two_var = np.broadcast_to(2.0 * np.float_power(sigma_w, 2)[:, None, None], valid.shape)[valid]
    weights = np.exp(-dist2 / two_var) * np.hypot(win_dx, win_dy)
    angles = np.arctan2(win_dy, win_dx) % (2.0 * math.pi)
    # nearest-bin voting: bin i is centered on angle i * (2pi/36)
    bins = np.rint(angles / (2.0 * math.pi) * ORI_HIST_BINS).astype(np.intp) % ORI_HIST_BINS
    item = np.broadcast_to(np.arange(n)[:, None, None], valid.shape)[valid]
    hist = np.bincount(item * ORI_HIST_BINS + bins, weights=weights, minlength=n * ORI_HIST_BINS)
    return hist.reshape(n, ORI_HIST_BINS)


def _orientation_peaks(ss: ScaleSpace, octave: int, layer: int, x, y, sigma, sigma_factor: float):
    """Dominant orientations of keypoints sharing one blur level.

    Returns (item, angle): per emitted orientation the index of its
    keypoint and the angle, keypoint-major with angles ascending.
    """
    scale_factor = 2.0**octave
    dx_img, dy_img = ss.gradients(octave, layer)
    cx = x / scale_factor
    cy = y / scale_factor
    sigma_w = sigma_factor * (sigma / scale_factor)
    radius = np.maximum(1, np.rint(3.0 * sigma_w).astype(np.intp))
    # windows grow with sigma: sorting keeps each chunk's padding small
    order = np.argsort(sigma_w, kind="stable")
    hist = np.zeros((len(x), ORI_HIST_BINS))
    for start, stop in _chunks((2 * radius[order] + 1) ** 2 * 8):
        sel = order[start:stop]
        hist[sel] = _orientation_histograms(dx_img, dy_img, cx[sel], cy[sel], sigma_w[sel], radius[sel])

    smooth = (
        6 * hist
        + 4 * (np.roll(hist, 1, axis=1) + np.roll(hist, -1, axis=1))
        + np.roll(hist, 2, axis=1)
        + np.roll(hist, -2, axis=1)
    ) / 16.0
    left = np.roll(smooth, 1, axis=1)
    right = np.roll(smooth, -1, axis=1)
    peak = (smooth > left) & (smooth > right) & (smooth >= ORI_PEAK_RATIO * smooth.max(axis=1, keepdims=True))
    item, b = np.nonzero(peak)
    left, centre, right = left[item, b], smooth[item, b], right[item, b]
    denom = left - 2 * centre + right
    # parabolic interpolation of the peak position
    shift = np.divide(0.5 * (left - right), denom, out=np.zeros_like(denom), where=denom != 0)
    angle = ((b + shift) * (2.0 * math.pi / ORI_HIST_BINS)) % (2.0 * math.pi)
    order = np.lexsort((angle, item))
    return item[order], angle[order]


def assign_orientations(
    kp: Keypoint, ss: ScaleSpace, sigma_factor: float = 1.5
) -> List[Keypoint]:
    """Dominant gradient directions around a refined keypoint.

    Builds a 36-bin magnitude-weighted orientation histogram in a
    Gaussian window of sigma_factor times the keypoint scale, then emits
    one oriented keypoint per smoothed peak within 80% of the maximum,
    with parabolic peak interpolation.
    """
    x, y, sigma, _ = _columns([kp])
    _, angles = _orientation_peaks(ss, kp.octave, kp.layer, x, y, sigma, sigma_factor)
    return [replace(kp, orientation=a) for a in angles.tolist()]


# ---------------------------------------------------------------------------
# descriptor
# ---------------------------------------------------------------------------

_SAMPLES = DESCRIPTOR_CELLS * 4  # 16x16 sample grid per keypoint
_SAMPLE_OFFSETS = np.arange(_SAMPLES) - (_SAMPLES - 1) / 2.0
_TENSOR_SIDE = DESCRIPTOR_CELLS + 2
_TENSOR_SIZE = _TENSOR_SIDE * _TENSOR_SIDE * DESCRIPTOR_ORI_BINS


def _bilinear(arr: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    y0 = np.floor(ys).astype(np.intp)
    x0 = np.floor(xs).astype(np.intp)
    fy = ys - y0
    fx = xs - x0
    y1 = y0 + 1
    x1 = x0 + 1
    return (
        arr[y0, x0] * (1 - fy) * (1 - fx)
        + arr[y0, x1] * (1 - fy) * fx
        + arr[y1, x0] * fy * (1 - fx)
        + arr[y1, x1] * fy * fx
    )


def _normalize_rows(raw: np.ndarray):
    """Per row: L2-normalize, clamp entries at 0.2, renormalize.  Rows
    without energy stay zero; returns (values, has_energy)."""
    norm = np.sqrt(_rowdot(raw, raw))
    ok = norm > 0
    v = np.minimum(raw[ok] / norm[ok, None], DESCRIPTOR_CLAMP)
    out = np.zeros_like(raw)
    out[ok] = v / np.sqrt(_rowdot(v, v))[:, None]
    return out, ok


def finalize_descriptor(raw: np.ndarray) -> Optional[np.ndarray]:
    """L2-normalize, clamp entries at 0.2, renormalize."""
    values, ok = _normalize_rows(np.asarray(raw, dtype=np.float64)[None, :])
    return values[0] if ok[0] else None


def _descriptor_histograms(dx_img, dy_img, cx, cy, spacing, theta) -> np.ndarray:
    """Raw 128-bin gradient histograms (n, 128) of in-image windows."""
    n = len(cx)
    grid = _SAMPLE_OFFSETS * spacing[:, None]
    su = grid[:, None, :]
    sv = grid[:, :, None]
    cos_t = np.cos(theta)[:, None, None]
    sin_t = np.sin(theta)[:, None, None]
    xs = cx[:, None, None] + su * cos_t - sv * sin_t
    ys = cy[:, None, None] + su * sin_t + sv * cos_t

    gdx = _bilinear(dx_img, ys, xs)
    gdy = _bilinear(dy_img, ys, xs)
    mag = np.hypot(gdx, gdy)
    rel_angle = (np.arctan2(gdy, gdx) - theta[:, None, None]) % (2.0 * math.pi)

    # cell coordinates in [-0.5+..., 3.5-...]; trilinear scatter over a
    # (cells+2)^2 x bins tensor absorbs the border spill
    cu = su / (spacing[:, None, None] * 4.0) + (DESCRIPTOR_CELLS - 1) / 2.0
    cv = sv / (spacing[:, None, None] * 4.0) + (DESCRIPTOR_CELLS - 1) / 2.0
    gauss = np.exp(
        -(
            (cu - (DESCRIPTOR_CELLS - 1) / 2.0) ** 2
            + (cv - (DESCRIPTOR_CELLS - 1) / 2.0) ** 2
        )
        / (2.0 * (0.5 * DESCRIPTOR_CELLS) ** 2)
    )
    shape = (n, _SAMPLES * _SAMPLES)
    contrib = (mag * gauss).reshape(shape)
    obin = rel_angle.reshape(shape) / (2.0 * math.pi) * DESCRIPTOR_ORI_BINS

    r = np.broadcast_to(cv, mag.shape).reshape(shape)
    c = np.broadcast_to(cu, mag.shape).reshape(shape)
    r0 = np.floor(r).astype(np.intp)
    c0 = np.floor(c).astype(np.intp)
    o0 = np.floor(obin).astype(np.intp)
    fr = r - r0
    fc = c - c0
    fo = obin - o0
    o0 %= DESCRIPTOR_ORI_BINS

    # one scatter over all keypoints; a bin sums its votes corner-major,
    # then sample by sample
    base = np.arange(n)[:, None] * _TENSOR_SIZE
    index, weight = [], []
    for dr, wr in ((0, 1 - fr), (1, fr)):
        for dc, wc in ((0, 1 - fc), (1, fc)):
            for do, wo in ((0, 1 - fo), (1, fo)):
                index.append(
                    base
                    + ((r0 + 1 + dr) * _TENSOR_SIDE + (c0 + 1 + dc)) * DESCRIPTOR_ORI_BINS
                    + (o0 + do) % DESCRIPTOR_ORI_BINS
                )
                weight.append(contrib * wr * wc * wo)
    tensor = np.bincount(
        np.concatenate(index, axis=None),
        weights=np.concatenate(weight, axis=None),
        minlength=n * _TENSOR_SIZE,
    ).reshape(n, _TENSOR_SIDE, _TENSOR_SIDE, DESCRIPTOR_ORI_BINS)
    return tensor[:, 1:-1, 1:-1, :].reshape(n, DESCRIPTOR_SIZE)


def _raw_descriptors(ss: ScaleSpace, octave: int, layer: int, x, y, sigma, orientation):
    """Raw 128-bin histograms (n, 128) for one image plane of keypoints
    sharing one blur level, and the mask of those whose sampling window
    stays inside the image (the other rows are zero)."""
    scale_factor = 2.0**octave
    dx_img, dy_img = ss.gradients(octave, layer)
    h, w = dx_img.shape
    cx = x / scale_factor
    cy = y / scale_factor
    spacing = 3.0 * (sigma / scale_factor) / 4.0
    half_extent = spacing * (_SAMPLES - 1) / 2.0 * math.sqrt(2.0) + 1.0
    inside = ~(
        (cx - half_extent < 0)
        | (cx + half_extent > w - 1)
        | (cy - half_extent < 0)
        | (cy + half_extent > h - 1)
    )
    raw = np.zeros((len(x), DESCRIPTOR_SIZE))
    idx = np.flatnonzero(inside)
    # the largest per-keypoint temporary: 8 corner votes per sample
    for start, stop in _chunks(np.full(len(idx), 8 * _SAMPLES * _SAMPLES * 8)):
        sel = idx[start:stop]
        raw[sel] = _descriptor_histograms(dx_img, dy_img, cx[sel], cy[sel], spacing[sel], orientation[sel])
    return raw, inside


def _describe(ss: ScaleSpace, octave: int, layer: int, kps: Sequence[Keypoint]):
    """(keypoint, descriptor) pairs of keypoints sharing one blur level,
    without those whose window leaves the image or carries no gradient
    energy."""
    raw, inside = _raw_descriptors(ss, octave, layer, *_columns(kps))
    values, ok = _normalize_rows(raw)
    return [(kp, Descriptor(v, kp)) for kp, v, keep in zip(kps, values, inside & ok) if keep]


def compute_descriptor(kp: Keypoint, ss: ScaleSpace) -> Optional[Descriptor]:
    """128-value descriptor; None when the window leaves the image or the
    window carries no gradient energy."""
    described = _describe(ss, kp.octave, kp.layer, [kp])
    return described[0][1] if described else None


# ---------------------------------------------------------------------------
# end-to-end extraction
# ---------------------------------------------------------------------------

def _detect_oriented_keypoints(gray: GrayImage, params: SiftParams):
    ss = build_scale_space(gray, params.octaves, params.scales_per_octave, params.sigma0)
    dog = build_dog(ss)
    cands = np.array(detect_extrema(dog), dtype=np.intp).reshape(-1, 4)
    keypoints = []
    for o in range(len(dog.octaves)):
        x, y, sigma, layer = _refine_octave(
            dog, o, cands[cands[:, 0] == o, 1:], params.contrast_threshold, params.edge_ratio
        )
        for l in np.unique(layer).tolist():
            m = layer == l
            item, angle = _orientation_peaks(
                ss, o, l, x[m], y[m], sigma[m], params.orientation_sigma_factor
            )
            keypoints += _keypoints(x[m][item], y[m][item], sigma[m][item], angle, o, l)
    # refinement can converge two candidates onto the same point
    seen = set()
    unique = []
    for kp in sorted(keypoints, key=Keypoint.sort_key):
        key = (kp.octave, round(kp.x, 3), round(kp.y, 3), round(kp.sigma, 4), round(kp.orientation, 5))
        if key not in seen:
            seen.add(key)
            unique.append(kp)
    return ss, unique


def _blur_level_groups(keypoints: Sequence[Keypoint]):
    """(octave, layer, keypoints) runs of a keypoint list sorted by sort_key."""
    for (o, l), group in groupby(keypoints, key=lambda kp: (kp.octave, kp.layer)):
        yield o, l, list(group)


def extract_sift(
    gray: GrayImage, params: SiftParams = SiftParams()
) -> List[Tuple[Keypoint, Descriptor]]:
    """Detect keypoints and compute descriptors; deterministic output order
    sorted by (octave, layer, y, x, orientation)."""
    ss, keypoints = _detect_oriented_keypoints(gray, params)
    out = []
    for o, l, group in _blur_level_groups(keypoints):
        out += _describe(ss, o, l, group)
    return out


def extract_rgb_sift(
    img: Image, params: SiftParams = SiftParams()
) -> List[Tuple[Keypoint, Descriptor]]:
    """Keypoints from the grayscale plane; per keypoint one 128-vector per
    R/G/B channel, normalized separately and concatenated to 384."""
    gray = to_grayscale(img)
    ss_gray, keypoints = _detect_oriented_keypoints(gray, params)
    channel_spaces = [
        build_scale_space(
            GrayImage(img.pixels[:, :, c]),
            params.octaves,
            params.scales_per_octave,
            params.sigma0,
        )
        for c in range(3)
    ]
    out = []
    for o, l, group in _blur_level_groups(keypoints):
        cols = _columns(group)
        blocks = []
        for ss_c in channel_spaces:
            raw, inside = _raw_descriptors(ss_c, o, l, *cols)
            # a flat channel has no gradients; its block stays zero
            blocks.append(_normalize_rows(raw)[0])
        full = np.concatenate(blocks, axis=1)
        norm = np.sqrt(_rowdot(full, full))
        keep = inside & (norm > 0)
        full[keep] /= norm[keep, None]
        out.extend((kp, Descriptor(v, kp)) for kp, v, k in zip(group, full, keep) if k)
    return out


# ---------------------------------------------------------------------------
# descriptor file format: little-endian binary + CSV debug dump
# ---------------------------------------------------------------------------

_DESC_HEADER = b"PVSD" + struct.pack("<I", 1)  # tag, format version


def write_descriptors(items: Sequence[Tuple[Keypoint, Descriptor]], path) -> None:
    """One record per item: x, y, sigma, orientation, then the descriptor
    values, all ``<f4``."""
    dim = len(items[0][1].values) if items else DESCRIPTOR_SIZE
    records = np.empty((len(items), 4 + dim), dtype="<f4")
    records[:, :4] = _columns([kp for kp, _ in items]).T
    records[:, 4:] = np.array([desc.values for _, desc in items]).reshape(len(items), dim)
    write_atomic(path, [_DESC_HEADER, struct.pack("<II", len(items), dim), records.tobytes()])


def read_descriptors(path) -> Tuple[np.ndarray, np.ndarray]:
    """(keypoints (n, 4) as x, y, sigma, orientation; values (n, dim)), float64."""
    r = Reader(path, _DESC_HEADER, "descriptor")
    count, dim = r.unpack("<II")
    records = r.array("<f4", count * (4 + dim)).reshape(count, 4 + dim).astype(np.float64)
    r.end()
    return records[:, :4], records[:, 4:]


def write_descriptors_csv(items: Sequence[Tuple[Keypoint, Descriptor]], path) -> None:
    lines = ["x,y,sigma,orientation," + ",".join(f"d{i}" for i in range(len(items[0][1].values)))] if items else ["x,y,sigma,orientation"]
    for kp, desc in items:
        head = f"{kp.x:.6f},{kp.y:.6f},{kp.sigma:.6f},{kp.orientation:.6f}"
        lines.append(head + "," + ",".join(f"{v:.9g}" for v in desc.values))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
