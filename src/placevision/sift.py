"""Scale-invariant keypoint detection and description.

The detector builds a Gaussian scale-space pyramid, takes differences of
adjacent blur levels, finds strict 26-neighbor extrema, refines them to
sub-pixel accuracy with a 3-D quadratic fit, rejects low-contrast and
edge responses, assigns gradient orientations, and samples a 4x4x8
gradient-orientation descriptor (128 values).  The color variant
computes the 128-vector independently per R/G/B plane and concatenates
to 384.

Keypoints and descriptors stay arrays from detection to the ``.desc``
file: keypoints are an (n, 4) float64 array of x, y, sigma and
orientation, descriptor values an (n, d) array with one row per
keypoint; each keypoint's octave and blur layer ride along internally
as an (n, 2) array.  Refinement runs batched over all candidates of an
octave, orientation assignment and description over all keypoints of
one blur level; every batch is processed in chunks whose largest
temporary array stays within ``_CHUNK_BYTES``.  ``refine_keypoint``,
``assign_orientations`` and ``compute_descriptor`` are one-keypoint
calls into the same kernels; extraction does not use them.

Extraction skips work whose result it would throw away, and its output
is the same as without the shortcuts:

- It builds, differences and searches only the leading octaves whose
  plane can hold the smallest descriptor window.  A keypoint's scale
  within its octave is never below ``sigma0``, so no keypoint of a
  skipped octave could have kept its descriptor, and the octaves that
  are built do not depend on the ones after them.  The image must still
  be large enough for the configured number of octaves.
- Right after refinement it drops the keypoints whose descriptor window
  leaves the plane, by the same test the descriptor applies, so only
  describable keypoints get orientations.  Window, orientation and
  descriptor of one keypoint do not depend on the others.  The one
  interaction is the duplicate rule: among keypoints with the same
  rounded key the first in output order stays, and a dropped keypoint
  could have shadowed a describable one.  So an outside keypoint whose
  rounded (x, y, sigma) matches an inside one of its octave is kept.

Coordinates: x is the column, y is the row, both in the base-image
frame; ``sigma`` is the absolute scale in that frame; orientation is in
radians in [0, 2*pi).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .binfile import Reader, write_atomic
from .image import GrayImage, Image, downsample2, gaussian_blur, to_grayscale
from .rules import COUNT, NON_NEGATIVE, POSITIVE, Rule, check_fields

DESCRIPTOR_CELLS = 4
DESCRIPTOR_ORI_BINS = 8
DESCRIPTOR_SIZE = DESCRIPTOR_CELLS * DESCRIPTOR_CELLS * DESCRIPTOR_ORI_BINS  # 128
DESCRIPTOR_CLAMP = 0.2
ORI_HIST_BINS = 36
ORI_PEAK_RATIO = 0.8
MIN_OCTAVE_DIM = 8
_REFINE_STEPS = 5  # interpolation moves before a candidate is dropped
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

    def check(self) -> None:
        """Raise ValueError naming the first field outside its rule."""
        check_fields(self, SIFT_RULES)


# the rule of each SiftParams field, also the rule of its sift.* config key
SIFT_RULES = {
    "octaves": COUNT,
    "scales_per_octave": COUNT,
    "sigma0": POSITIVE,
    "contrast_threshold": NON_NEGATIVE,
    "edge_ratio": Rule(float, "a finite number >= 1", lambda v: 1 <= v < math.inf),
    "orientation_sigma_factor": POSITIVE,
}


@dataclass
class ScaleSpace:
    """Per octave, scales_per_octave+3 blurred images at sigma0*k^i."""

    octaves: List[List[GrayImage]]
    sigma0: float
    scales_per_octave: int
    _gradients: dict = field(default_factory=dict, repr=False, compare=False)

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


# ---------------------------------------------------------------------------
# pyramid construction
# ---------------------------------------------------------------------------

def _holds_octaves(img: GrayImage, octaves: int) -> bool:
    """Whether the smallest plane of an ``octaves``-deep pyramid (octaves >= 1)
    keeps MIN_OCTAVE_DIM pixels a side."""
    return min(img.width, img.height) // (2 ** (octaves - 1)) >= MIN_OCTAVE_DIM


def _check_pyramid(img: GrayImage, octaves: int, scales_per_octave: int, sigma0: float) -> None:
    """Raise ValueError unless the pyramid parameters suit the image."""
    if octaves < 1 or scales_per_octave < 1:
        raise ValueError("octaves and scales_per_octave must be >= 1")
    if sigma0 <= 0:
        raise ValueError("sigma0 must be positive")
    if not _holds_octaves(img, octaves):
        raise ValueError(
            f"image {img.width}x{img.height} too small for {octaves} octaves"
        )


def build_scale_space(
    img: GrayImage, octaves: int = 4, scales_per_octave: int = 2, sigma0: float = 1.6
) -> ScaleSpace:
    """Gaussian pyramid: each octave halves resolution and doubles sigma.

    The base image is used at native resolution and treated as unblurred;
    the next octave is seeded by decimating the level at 2*sigma0.
    """
    _check_pyramid(img, octaves, scales_per_octave, sigma0)
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

def _run3(a: np.ndarray, reduce, axis: int) -> np.ndarray:
    """``reduce`` over each run of 3 pixels along axis 0 or 1 of a plane."""
    if axis == 1:
        return reduce(reduce(a[:, :-2], a[:, 1:-1]), a[:, 2:])
    return reduce(reduce(a[:-2], a[1:-1]), a[2:])


def _neighbour_bound(slab: np.ndarray, reduce) -> np.ndarray:
    """Max (``reduce=np.maximum``) or min over the 26 neighbours of each
    interior pixel of the middle plane of a (3, h, w) slab."""
    box = _run3(_run3(reduce(slab[0], slab[2]), reduce, 1), reduce, 0)
    mid = slab[1]
    rows = _run3(mid, reduce, 1)
    # the three pixels above and the three below, then left and right
    ring = reduce(reduce(rows[:-2], rows[2:]), reduce(mid[1:-1, :-2], mid[1:-1, 2:]))
    return reduce(box, ring)


def detect_extrema(dog: DoGPyramid) -> np.ndarray:
    """Strict extrema over the 3x3x3 neighborhood spanning adjacent layers,
    as an (n, 4) intp array of (octave, layer, y, x) rows in sorted order.

    Plateaus produce nothing; border pixels and the first/last layer of
    each octave are excluded.  A pixel is compared with the max and the
    min of its 26 neighbours, which max/min keep exactly.
    """
    out = [np.empty((0, 4), dtype=np.intp)]
    for o, stack in enumerate(dog.octaves):
        n_layers, h, w = stack.shape
        if n_layers < 3 or h < 3 or w < 3:
            continue
        for l in range(1, n_layers - 1):
            center = stack[l, 1 : h - 1, 1 : w - 1]
            slab = stack[l - 1 : l + 2]
            extremum = center > _neighbour_bound(slab, np.maximum)
            extremum |= center < _neighbour_bound(slab, np.minimum)
            # nonzero walks row-major, so rows come out sorted by (y, x)
            ys, xs = np.nonzero(extremum)
            out.append(np.column_stack([np.full_like(ys, o), np.full_like(ys, l), ys + 1, xs + 1]))
    return np.concatenate(out)


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


def _refine_chunk(stack, pos, contrast_threshold, edge_ratio):
    """Batched sub-pixel refinement of lattice points pos (n, 3) of
    (layer, y, x), at most _REFINE_STEPS moves each; returns the accepted
    mask, final lattice points and offsets."""
    n_layers, h, w = stack.shape
    pos = pos.copy()
    n = len(pos)
    grad = np.zeros((n, 3))
    hess = np.zeros((n, 3, 3))
    offset = np.zeros((n, 3))
    converged = np.zeros(n, dtype=bool)
    active = np.arange(n)
    for _ in range(_REFINE_STEPS):
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
            stack, cands[start:stop], contrast_threshold, edge_ratio
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
    candidate,
    dog: DoGPyramid,
    contrast_threshold: float = 0.03,
    edge_ratio: float = 10.0,
) -> Optional[Tuple[np.ndarray, int]]:
    """Sub-pixel localization of one (octave, layer, y, x) candidate row
    with contrast and edge-response rejection.

    Returns the keypoint (x, y, sigma, orientation 0) and its blur layer,
    or None for a rejected candidate (rejection is not an error).
    """
    o, l, y, x = candidate
    xs, ys, sigma, layer = _refine_octave(
        dog, o, np.array([[l, y, x]], dtype=np.intp), contrast_threshold, edge_ratio
    )
    if not len(xs):
        return None
    return np.array([xs[0], ys[0], sigma[0], 0.0]), int(layer[0])


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
    kp: np.ndarray, ss: ScaleSpace, octave: int, layer: int, sigma_factor: float = 1.5
) -> np.ndarray:
    """Dominant gradient directions around a refined keypoint (x, y, sigma,
    orientation) of the given blur level.

    Builds a 36-bin magnitude-weighted orientation histogram in a
    Gaussian window of sigma_factor times the keypoint scale, then emits
    one oriented keypoint row (m, 4) per smoothed peak within 80% of the
    maximum, with parabolic peak interpolation.
    """
    kp = np.asarray(kp, dtype=np.float64)
    _, angles = _orientation_peaks(ss, octave, layer, *kp[:3, None], sigma_factor)
    return np.column_stack([np.tile(kp[:3], (len(angles), 1)), angles])


# ---------------------------------------------------------------------------
# descriptor
# ---------------------------------------------------------------------------

_SAMPLES = DESCRIPTOR_CELLS * 4  # 16x16 sample grid per keypoint
_SAMPLE_OFFSETS = np.arange(_SAMPLES) - (_SAMPLES - 1) / 2.0
_TENSOR_SIDE = DESCRIPTOR_CELLS + 2
_TENSOR_SIZE = _TENSOR_SIDE * _TENSOR_SIDE * DESCRIPTOR_ORI_BINS


def _bilinear(planes, ys: np.ndarray, xs: np.ndarray):
    """Bilinear samples at (ys, xs) of each of a sequence of same-shape planes."""
    y0 = np.floor(ys).astype(np.intp)
    x0 = np.floor(xs).astype(np.intp)
    fy = ys - y0
    fx = xs - x0
    gy = 1 - fy
    gx = 1 - fx
    w = planes[0].shape[1]
    at = y0 * w + x0
    corners = ((at, gy, gx), (at + 1, gy, fx), (at + w, fy, gx), (at + w + 1, fy, fx))
    samples = []
    for plane in planes:
        flat = plane.ravel()
        t00, t01, t10, t11 = (flat[i] * a * b for i, a, b in corners)
        samples.append(t00 + t01 + t10 + t11)
    return samples


def _normalize_rows(raw: np.ndarray):
    """Per row: L2-normalize, clamp entries at 0.2, renormalize.  Rows
    without energy stay zero; returns (values, has_energy)."""
    norm = np.sqrt(_rowdot(raw, raw))
    ok = norm > 0
    v = np.minimum(raw[ok] / norm[ok, None], DESCRIPTOR_CLAMP)
    out = np.zeros_like(raw)
    out[ok] = v / np.sqrt(_rowdot(v, v))[:, None]
    return out, ok


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

    gdx, gdy = _bilinear((dx_img, dy_img), ys, xs)
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
    contrib = mag * gauss
    obin = rel_angle / (2.0 * math.pi) * DESCRIPTOR_ORI_BINS

    # rows and columns of the cell grid: (n, 16, 1) and (n, 1, 16)
    r0 = np.floor(cv).astype(np.intp)
    c0 = np.floor(cu).astype(np.intp)
    o0 = np.floor(obin).astype(np.intp)
    fr = cv - r0
    fc = cu - c0
    fo = obin - o0
    o0 %= DESCRIPTOR_ORI_BINS

    # one scatter over all keypoints of the 8 trilinear corner votes, laid
    # out (row corner, column corner, orientation corner, n, 16, 16) and
    # weighted ((contrib * wr) * wc) * wo; a bin sums its votes
    # corner-major, then sample by sample
    cell = ((r0 + 1) * _TENSOR_SIDE + c0 + 1) * DESCRIPTOR_ORI_BINS
    cell += np.arange(n)[:, None, None] * _TENSOR_SIZE
    corner = (np.arange(2)[:, None] * _TENSOR_SIDE + np.arange(2)) * DESCRIPTOR_ORI_BINS
    index = corner[:, :, None, None, None, None] + (cell + np.stack([o0, (o0 + 1) % DESCRIPTOR_ORI_BINS]))
    by_row = contrib * np.stack([1 - fr, fr])
    weight = (by_row[:, None] * np.stack([1 - fc, fc]))[:, :, None] * np.stack([1 - fo, fo])
    tensor = np.bincount(
        index.ravel(), weights=weight.ravel(), minlength=n * _TENSOR_SIZE
    ).reshape(n, _TENSOR_SIDE, _TENSOR_SIDE, DESCRIPTOR_ORI_BINS)
    return tensor[:, 1:-1, 1:-1, :].reshape(n, DESCRIPTOR_SIZE)


def _half_extent(sigma):
    """Sample spacing and half-extent, in plane pixels, of the descriptor
    window of plane-frame scale sigma, with one pixel of interpolation
    margin."""
    spacing = 3.0 * sigma / 4.0
    return spacing, spacing * (_SAMPLES - 1) / 2.0 * math.sqrt(2.0) + 1.0


def _descriptor_window(x, y, sigma, octave: int, shape):
    """Plane-frame centres (cx, cy) and sample spacing of the descriptor
    windows of keypoints of one octave, and the mask of the windows that
    stay inside a plane of the given (h, w) shape."""
    scale_factor = 2.0**octave
    cx = x / scale_factor
    cy = y / scale_factor
    spacing, half_extent = _half_extent(sigma / scale_factor)
    h, w = shape
    inside = ~(
        (cx - half_extent < 0)
        | (cx + half_extent > w - 1)
        | (cy - half_extent < 0)
        | (cy + half_extent > h - 1)
    )
    return cx, cy, spacing, inside


def _raw_descriptors(ss: ScaleSpace, kp: np.ndarray, level: np.ndarray):
    """Raw 128-bin histograms (n, 128) on one image plane of keypoints
    (n, 4) with their (octave, layer) blur levels (n, 2), and the mask of
    those whose sampling window stays inside the image (the other rows are
    zero)."""
    raw = np.zeros((len(kp), DESCRIPTOR_SIZE))
    inside = np.zeros(len(kp), dtype=bool)
    for octave, layer in np.unique(level, axis=0).tolist():
        at = np.flatnonzero((level == (octave, layer)).all(axis=1))
        dx_img, dy_img = ss.gradients(octave, layer)
        cx, cy, spacing, inside[at] = _descriptor_window(*kp[at, :3].T, octave, dx_img.shape)
        idx = np.flatnonzero(inside[at])
        # the largest per-keypoint temporary: 8 corner votes per sample
        for start, stop in _chunks(np.full(len(idx), 8 * _SAMPLES * _SAMPLES * 8)):
            sel = idx[start:stop]
            raw[at[sel]] = _descriptor_histograms(
                dx_img, dy_img, cx[sel], cy[sel], spacing[sel], kp[at[sel], 3]
            )
    return raw, inside


def compute_descriptor(kp: np.ndarray, ss: ScaleSpace, octave: int, layer: int) -> Optional[np.ndarray]:
    """128-value descriptor of one keypoint (x, y, sigma, orientation) of the
    given blur level; None when the window leaves the image or carries no
    gradient energy."""
    raw, inside = _raw_descriptors(ss, np.asarray(kp, dtype=np.float64)[None, :], np.array([[octave, layer]]))
    values, ok = _normalize_rows(raw)
    return values[0] if inside[0] and ok[0] else None


# ---------------------------------------------------------------------------
# end-to-end extraction
# ---------------------------------------------------------------------------

def _output_order(kp: np.ndarray, level: np.ndarray) -> np.ndarray:
    """Stable sort order of keypoints by (octave, layer, y, x, orientation)."""
    return np.lexsort((kp[:, 3], kp[:, 0], kp[:, 1], level[:, 1], level[:, 0]))


# digits of x, y, sigma and orientation in the duplicate key
_KEY_DIGITS = (3, 3, 4, 5)


def _rounded(columns, digits=_KEY_DIGITS):
    """Rows of rounded column values.  Python's round rounds the exact
    decimal value, which np.round does not."""
    return list(zip(*([round(v, d) for v in col] for col, d in zip(columns, digits))))


def _descriptor_octaves(gray: GrayImage, params: SiftParams) -> int:
    """How many leading octaves extraction builds: the configured ones,
    checked as for the full pyramid (and every field against its rule),
    less the trailing octaves whose plane cannot hold a descriptor window.

    A keypoint's scale within its octave is at least sigma0 (refinement
    clips its layer at 0), so no window is smaller than sigma0's.  A
    window fits only if twice its half-extent is at most the plane side
    less one; requiring it to be below the side leaves a pixel of slack.
    """
    _check_pyramid(gray, params.octaves, params.scales_per_octave, params.sigma0)
    params.check()
    smallest = 2 * _half_extent(params.sigma0)[1]
    side = min(gray.width, gray.height)
    return max(1, sum(side // 2**o > smallest for o in range(params.octaves)))


def _describable(x, y, sigma, octave: int, shape) -> np.ndarray:
    """Mask of the refined keypoints of one octave worth orienting: those
    whose descriptor window stays inside the plane, and each outside one
    whose rounded (x, y, sigma) equals that of an inside one, since after
    orientation it can share that keypoint's duplicate key and, coming
    first, shadow it.  Every other keypoint would be dropped unseen."""
    inside = _descriptor_window(x, y, sigma, octave, shape)[3]
    keys = _rounded([x.tolist(), y.tolist(), sigma.tolist()])
    kept = {key for key, ok in zip(keys, inside.tolist()) if ok}
    return inside | np.array([key in kept for key in keys], dtype=bool)


def _detect_oriented_keypoints(gray: GrayImage, params: SiftParams):
    """Scale space of an image, its oriented keypoints (n, 4) and their
    (octave, layer) blur levels (n, 2), in output order.

    Only keypoints that can yield a descriptor, or shadow one that can,
    are kept; the scale space holds only the octaves that can yield one.
    """
    depth = _descriptor_octaves(gray, params)
    ss = build_scale_space(gray, depth, params.scales_per_octave, params.sigma0)
    dog = build_dog(ss)
    cands = detect_extrema(dog)
    kps, levels = [np.empty((0, 4))], [np.empty((0, 2), dtype=np.intp)]
    for o in range(depth):
        x, y, sigma, layer = _refine_octave(
            dog, o, cands[cands[:, 0] == o, 1:], params.contrast_threshold, params.edge_ratio
        )
        keep = _describable(x, y, sigma, o, dog.octaves[o].shape[1:])
        x, y, sigma, layer = x[keep], y[keep], sigma[keep], layer[keep]
        for l in np.unique(layer).tolist():
            m = layer == l
            item, angle = _orientation_peaks(
                ss, o, l, x[m], y[m], sigma[m], params.orientation_sigma_factor
            )
            kps.append(np.column_stack([x[m][item], y[m][item], sigma[m][item], angle]))
            levels.append(np.tile(np.array([o, l], dtype=np.intp), (len(item), 1)))
    kp, level = np.concatenate(kps), np.concatenate(levels)
    order = _output_order(kp, level)
    kp, level = kp[order], level[order]
    # refinement can converge two candidates onto the same point: the first
    # in output order stays
    first = {}
    for i, key in enumerate(zip(level[:, 0].tolist(), _rounded(kp.T.tolist()))):
        first.setdefault(key, i)
    keep = list(first.values())
    return ss, kp[keep], level[keep]


def _sift_features(gray: GrayImage, params: SiftParams):
    """``extract_sift``'s keypoints and values, plus the keypoints' blur levels."""
    ss, kp, level = _detect_oriented_keypoints(gray, params)
    raw, inside = _raw_descriptors(ss, kp, level)
    values, ok = _normalize_rows(raw)
    keep = inside & ok
    return kp[keep], values[keep], level[keep]


def extract_sift(gray: GrayImage, params: SiftParams = SiftParams()) -> Tuple[np.ndarray, np.ndarray]:
    """Detect keypoints and compute descriptors: keypoints (n, 4) of x, y,
    sigma and orientation, and values (n, 128), in the deterministic order
    (octave, layer, y, x, orientation).  Keypoints whose window leaves the
    image or carries no gradient energy are dropped."""
    kp, values, _ = _sift_features(gray, params)
    return kp, values


def extract_rgb_sift(img: Image, params: SiftParams = SiftParams()) -> Tuple[np.ndarray, np.ndarray]:
    """Keypoints (n, 4) from the grayscale plane; per keypoint one 128-vector
    per R/G/B channel, normalized separately and concatenated to 384."""
    gray_ss, kp, level = _detect_oriented_keypoints(to_grayscale(img), params)
    blocks = []
    for c in range(3):
        ss = build_scale_space(
            GrayImage(img.pixels[:, :, c]), len(gray_ss.octaves), params.scales_per_octave, params.sigma0
        )
        raw, inside = _raw_descriptors(ss, kp, level)
        # a flat channel has no gradients; its block stays zero
        blocks.append(_normalize_rows(raw)[0])
    full = np.concatenate(blocks, axis=1)
    norm = np.sqrt(_rowdot(full, full))
    keep = inside & (norm > 0)
    return kp[keep], full[keep] / norm[keep, None]


# ---------------------------------------------------------------------------
# descriptor file format: little-endian binary
# ---------------------------------------------------------------------------

_DESC_HEADER = b"PVSD" + struct.pack("<I", 1)  # tag, format version


def write_descriptors(features: Tuple[np.ndarray, np.ndarray], path) -> None:
    """One record per keypoint of ``(keypoints (n, 4), values (n, dim))``:
    x, y, sigma, orientation, then the descriptor values, all ``<f4``."""
    keypoints, values = features
    records = np.empty((len(values), 4 + values.shape[1]), dtype="<f4")
    records[:, :4] = keypoints
    records[:, 4:] = values
    write_atomic(path, [_DESC_HEADER, struct.pack("<II", *values.shape), records.tobytes()])


def read_descriptor_shape(path) -> Tuple[int, int]:
    """(count, dim) of a descriptor file, from its header and its size alone:
    every check of `read_descriptors` but the finite-value one."""
    r = Reader(path, _DESC_HEADER, "descriptor", limit=len(_DESC_HEADER) + 8)
    count, dim = r.unpack("<II")
    r.end(4 * count * (4 + dim))
    return count, dim


def read_descriptors(path) -> Tuple[np.ndarray, np.ndarray]:
    """(keypoints (n, 4) as x, y, sigma, orientation; values (n, dim)), float64."""
    r = Reader(path, _DESC_HEADER, "descriptor")
    count, dim = r.unpack("<II")
    records = r.array("<f4", count * (4 + dim)).reshape(count, 4 + dim).astype(np.float64)
    r.end()
    r.finite(records)
    return records[:, :4], records[:, 4:]
