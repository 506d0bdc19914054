"""Affine view simulation on top of the scale-invariant extractor.

A camera latitude change is simulated by an anisotropic subsample
(tilt t = 1/cos(theta)) after an in-plane rotation by the longitude
angle phi.  Keypoints detected on each simulated view are mapped back
to the original frame through the recorded inverse affine map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .image import GrayImage, gaussian_kernel1d, _convolve_axis
from .sift import DESCRIPTOR_SIZE, SiftParams, _check_pyramid, _holds_octaves, _output_order, _sift_features

DEFAULT_TILTS = (1.0, math.sqrt(2.0), 2.0, 2.0 * math.sqrt(2.0), 4.0)
DEFAULT_PHI_STEP = 72.0
ANTIALIAS_FACTOR = 0.8


@dataclass(frozen=True)
class AffineView:
    tilt: float
    phi_deg: float
    image: GrayImage
    inverse: np.ndarray  # 2x3, view coords -> original coords


def _warp_affine(src: np.ndarray, inverse: np.ndarray, out_shape) -> np.ndarray:
    """Inverse-mapped affine warp with bilinear sampling, clamped borders."""
    h, w = out_shape
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    sx = inverse[0, 0] * xs + inverse[0, 1] * ys + inverse[0, 2]
    sy = inverse[1, 0] * xs + inverse[1, 1] * ys + inverse[1, 2]
    sh, sw = src.shape
    sx = np.clip(sx, 0.0, sw - 1.0)
    sy = np.clip(sy, 0.0, sh - 1.0)
    x0 = np.minimum(np.floor(sx).astype(np.intp), sw - 2) if sw > 1 else np.zeros_like(sx, np.intp)
    y0 = np.minimum(np.floor(sy).astype(np.intp), sh - 2) if sh > 1 else np.zeros_like(sy, np.intp)
    fx = sx - x0
    fy = sy - y0
    x1 = np.minimum(x0 + 1, sw - 1)
    y1 = np.minimum(y0 + 1, sh - 1)
    return (
        src[y0, x0] * (1 - fy) * (1 - fx)
        + src[y0, x1] * (1 - fy) * fx
        + src[y1, x0] * fy * (1 - fx)
        + src[y1, x1] * fy * fx
    )


def _invert_affine(a: np.ndarray) -> np.ndarray:
    lin = np.linalg.inv(a[:, :2])
    return np.hstack([lin, -(lin @ a[:, 2])[:, None]])


def make_view(img: GrayImage, tilt: float, phi_deg: float) -> AffineView:
    """Rotate by phi, blur along x, then compress x by the tilt factor."""
    if tilt < 1.0:
        raise ValueError(f"tilt must be >= 1, got {tilt}")
    src = img.intensities
    identity = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    if tilt == 1.0:
        return AffineView(1.0, 0.0, img, identity)

    h, w = src.shape
    phi = math.radians(phi_deg)
    c, s = math.cos(phi), math.sin(phi)
    rot = np.array([[c, -s], [s, c]])
    corners = np.array([[0, 0], [w - 1, 0], [w - 1, h - 1], [0, h - 1]], dtype=float)
    tc = corners @ rot.T
    x0, y0 = tc[:, 0].min(), tc[:, 1].min()
    rot_w = int(math.ceil(tc[:, 0].max() - x0)) + 1
    rot_h = int(math.ceil(tc[:, 1].max() - y0)) + 1
    forward_rot = np.hstack([rot, [[-x0], [-y0]]])
    rotated = _warp_affine(src, _invert_affine(forward_rot), (rot_h, rot_w))

    # anti-alias along the axis about to be subsampled
    sigma = ANTIALIAS_FACTOR * math.sqrt(tilt * tilt - 1.0)
    rotated = _convolve_axis(rotated, gaussian_kernel1d(sigma), axis=1)

    out_w = max(2, int(round(rot_w / tilt)))
    compress = np.array([[1.0 / tilt, 0.0, 0.0], [0.0, 1.0, 0.0]])
    full_forward = compress.copy()
    full_forward[:, :2] = compress[:, :2] @ forward_rot[:, :2]
    full_forward[:, 2] = compress[:, :2] @ forward_rot[:, 2]
    view = _warp_affine(rotated, np.array([[tilt, 0.0, 0.0], [0.0, 1.0, 0.0]]), (rot_h, out_w))
    return AffineView(tilt, phi_deg, GrayImage(np.clip(view, 0.0, 1.0)), _invert_affine(full_forward))


def asift_views(
    img: GrayImage,
    tilt_levels: Sequence[float] = DEFAULT_TILTS,
    phi_step_deg: float = DEFAULT_PHI_STEP,
) -> List[AffineView]:
    """One identity view plus phi-sampled views per tilt > 1.

    Longitude sampling gets denser with tilt: phi runs over [0, 180)
    with step phi_step/t.
    """
    if phi_step_deg <= 0:
        raise ValueError("phi_step_deg must be positive")
    tilts = sorted(set(float(t) for t in tilt_levels))
    if not tilts or not math.isclose(tilts[0], 1.0):
        raise ValueError("tilt levels must include t=1")
    if tilts[0] < 1.0:
        raise ValueError(f"degenerate tilt {tilts[0]} < 1")
    views = [make_view(img, 1.0, 0.0)]
    for t in tilts[1:]:
        for phi in np.arange(0.0, 180.0, phi_step_deg / t):
            views.append(make_view(img, t, float(phi)))
    return views


def extract_asift(
    img: GrayImage,
    params: SiftParams = SiftParams(),
    tilt_levels: Sequence[float] = DEFAULT_TILTS,
    phi_step_deg: float = DEFAULT_PHI_STEP,
) -> Tuple[np.ndarray, np.ndarray]:
    """Union of SIFT features over all simulated views, with keypoint
    coordinates mapped back to the original frame; descriptors unchanged.
    Returns keypoints (n, 4) and values (n, 128) in the order of
    ``extract_sift``, views in turn on ties."""
    kps, values = [np.empty((0, 4))], [np.empty((0, DESCRIPTOR_SIZE))]
    levels = [np.empty((0, 2), dtype=np.intp)]
    w, h = img.width, img.height
    # the input itself must hold the pyramid, as for extract_sift
    _check_pyramid(img, params.octaves, params.scales_per_octave, params.sigma0)
    params.check()
    for view in asift_views(img, tilt_levels, phi_step_deg):
        if not _holds_octaves(view.image, params.octaves):
            continue  # strongly compressed views can be too small to pyramid
        kp, v, level = _sift_features(view.image, params)
        inv = view.inverse
        x = inv[0, 0] * kp[:, 0] + inv[0, 1] * kp[:, 1] + inv[0, 2]
        y = inv[1, 0] * kp[:, 0] + inv[1, 1] * kp[:, 1] + inv[1, 2]
        inside = (0.0 <= x) & (x <= w - 1) & (0.0 <= y) & (y <= h - 1)
        kps.append(np.column_stack([x, y, kp[:, 2:]])[inside])
        values.append(v[inside])
        levels.append(level[inside])
    kp, level = np.concatenate(kps), np.concatenate(levels)
    order = _output_order(kp, level)
    return kp[order], np.concatenate(values)[order]
