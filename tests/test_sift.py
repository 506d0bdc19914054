import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from placevision import sift
from placevision.asift import asift_views, extract_asift
from placevision.image import GrayImage, Image, gaussian_blur, to_grayscale
from placevision.sift import (
    DESCRIPTOR_CLAMP,
    DoGPyramid,
    SiftParams,
    assign_orientations,
    build_dog,
    build_scale_space,
    compute_descriptor,
    detect_extrema,
    extract_rgb_sift,
    extract_sift,
    read_descriptors,
    refine_keypoint,
    write_descriptors,
)
from placevision.synth import render_room_image


def keyed(features):
    """Descriptor values by keypoint position and orientation."""
    keypoints, values = features
    return {(round(x, 3), round(y, 3), round(o, 4)): v for (x, y, _, o), v in zip(keypoints.tolist(), values)}


def render_blob(size: int, cx: float, cy: float, sigma_b: float, amp: float = 0.55) -> GrayImage:
    ys, xs = np.mgrid[0:size, 0:size]
    return GrayImage(amp * np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2 * sigma_b**2)))


# ---------------------------------------------------------------------------
# scale space and DoG
# ---------------------------------------------------------------------------

def test_default_pyramid_shape():
    # 4 octaves, 5 blur levels (scales_per_octave + 3), sigma0 = 1.6
    params = SiftParams()
    assert (params.octaves, params.scales_per_octave + 3, params.sigma0) == (4, 5, 1.6)
    g = GrayImage(np.random.default_rng(0).random((96, 96)))
    ss = build_scale_space(g, params.octaves, params.scales_per_octave, params.sigma0)
    assert len(ss.octaves) == 4
    assert all(len(o) == 5 for o in ss.octaves)
    assert ss.octaves[1][0].width == 48
    assert ss.sigma0 * 2**1 == pytest.approx(2 * 1.6)
    dog = build_dog(ss)
    assert all(stack.shape[0] == 4 for stack in dog.octaves)


def test_scale_space_too_small_image():
    with pytest.raises(ValueError):
        build_scale_space(GrayImage(np.zeros((16, 16))), octaves=4)


def test_constant_image_gives_zero_dog_and_no_features():
    g = GrayImage(np.full((64, 64), 0.4))
    dog = build_dog(build_scale_space(g, 3))
    for stack in dog.octaves:
        assert np.abs(stack).max() < 1e-12
    keypoints, values = extract_sift(g, SiftParams(octaves=3))
    assert keypoints.shape == (0, 4) and values.shape == (0, 128)


def test_dog_matches_scale_normalized_laplacian_on_blob():
    # response at the blob center vs (k-1) sigma^2 Lap(G) * blob, evaluated
    # analytically; blur of a Gaussian blob stays Gaussian
    size, sigma_b, amp = 96, 3.2, 0.55
    blob = render_blob(size, 48.0, 48.0, sigma_b, amp)
    ss = build_scale_space(blob, 2)
    dog = build_dog(ss)
    k = dog.k
    sigma = 1.6
    measured = dog.octaves[0][0, 48, 48]
    s0sq, s1sq = sigma_b**2 + sigma**2, sigma_b**2 + (k * sigma) ** 2
    expected_dog = amp * sigma_b**2 * (1.0 / s1sq - 1.0 / s0sq)
    expected_log = (k - 1) * sigma**2 * (-2.0) * amp * sigma_b**2 / s0sq**2
    assert measured == pytest.approx(expected_dog, rel=0.02)
    assert abs(measured - expected_log) / abs(expected_log) < 0.10


# ---------------------------------------------------------------------------
# extrema detection
# ---------------------------------------------------------------------------

def test_flat_and_plateau_dog_give_no_candidates():
    g = GrayImage(np.full((48, 48), 0.3))
    assert detect_extrema(build_dog(build_scale_space(g, 2))).shape == (0, 4)
    # hand-built stack: a 3x3 plateau of equal maxima must yield nothing
    # under the strict comparison, while a lone spike is kept
    stack = np.zeros((3, 16, 16))
    stack[1, 6:9, 6:9] = 1.0
    assert detect_extrema(DoGPyramid([stack.copy()], 1.6, 2)).shape == (0, 4)
    spike = np.zeros((3, 16, 16))
    spike[1, 7, 7] = 1.0
    assert detect_extrema(DoGPyramid([spike], 1.6, 2)).tolist() == [[0, 1, 7, 7]]


def test_single_blob_detected_at_predicted_location_and_scale():
    # oracle: exhaustive scan of the rendered pyramid; the globally
    # strongest extremum must sit at the analytically predicted (x, y, s)
    size, sigma_b = 96, 4.0
    cx, cy = 47.6, 50.3
    blob = render_blob(size, cx, cy, sigma_b)
    ss = build_scale_space(blob, 3)
    dog = build_dog(ss)
    cands = detect_extrema(dog)
    assert len(cands), "blob produced no extrema"
    assert cands.tolist() == sorted(cands.tolist())

    # predicted layer: strongest center response over the pyramid layers
    def center_response(o, l):
        sigma = 1.6 * dog.k**l * 2**o
        ksig = 1.6 * dog.k ** (l + 1) * 2**o
        s2 = sigma_b**2
        return 0.55 * s2 * (1.0 / (s2 + ksig**2) - 1.0 / (s2 + sigma**2))

    pred_o, pred_l = max(
        ((o, l) for o in range(3) for l in range(1, 3)),
        key=lambda ol: abs(center_response(*ol)),
    )
    o, l, y, x = max(cands, key=lambda c: abs(dog.octaves[c[0]][c[1], c[2], c[3]]))
    scale = 2**o
    assert abs(x * scale - cx) <= max(1.0, scale)
    assert abs(y * scale - cy) <= max(1.0, scale)
    assert o == pred_o and abs(l - pred_l) <= 1
    # and it is the only candidate this strong anywhere in the pyramid
    strongest = abs(dog.octaves[o][l, y, x])
    ties = [
        c for c in cands if abs(dog.octaves[c[0]][c[1], c[2], c[3]]) > 0.99 * strongest
    ]
    assert len(ties) == 1


def _extrema_by_neighbour_loop(dog):
    """Reference: compare each pixel with its 26 neighbours one shifted view
    at a time, as (octave, layer, y, x) rows."""
    rows = []
    for o, stack in enumerate(dog.octaves):
        n_layers, h, w = stack.shape
        if n_layers < 3 or h < 3 or w < 3:
            continue
        for l in range(1, n_layers - 1):
            center = stack[l, 1 : h - 1, 1 : w - 1]
            is_max = np.ones(center.shape, dtype=bool)
            is_min = np.ones(center.shape, dtype=bool)
            for dl, dy, dx in itertools.product((-1, 0, 1), repeat=3):
                if dl == dy == dx == 0:
                    continue
                nb = stack[l + dl, 1 + dy : h - 1 + dy, 1 + dx : w - 1 + dx]
                is_max &= center > nb
                is_min &= center < nb
            ys, xs = np.nonzero(is_max | is_min)
            rows += [[o, l, y + 1, x + 1] for y, x in zip(ys.tolist(), xs.tolist())]
    return rows


@pytest.mark.parametrize("seed", range(12))
def test_extrema_match_the_neighbour_loop_on_tied_stacks(seed):
    # coarsely quantized values leave many ties and plateaus; a sign-flipped
    # copy exercises maxima and minima alike, and tiny stacks the shape guard
    rng = np.random.default_rng(seed)
    stacks = []
    for _ in range(3):
        shape = (rng.integers(1, 6), rng.integers(1, 14), rng.integers(1, 14))
        levels = int(rng.integers(1, 5))
        stacks.append(np.round(rng.normal(size=shape) * levels) / levels)
    stacks.append(-stacks[0])
    stacks.append(np.round(rng.normal(size=(4, 24, 20)) * 2) / 2)
    # plateaus: flat blocks, one a notch above its surroundings
    plateau = np.zeros((3, 12, 12))
    plateau[:, 3:7, 3:7] = 1.0
    plateau[1, 4:6, 4:6] = 2.0
    plateau[1, 9, 9] = -1.0
    stacks += [plateau, -plateau]
    dog = DoGPyramid(stacks, 1.6, 2)
    got = detect_extrema(dog)
    assert got.dtype == np.intp and got.shape[1] == 4
    assert got.tolist() == _extrema_by_neighbour_loop(dog)


def test_extrema_match_the_neighbour_loop_on_an_image_pyramid(texture):
    dog = build_dog(build_scale_space(texture, 3))
    want = _extrema_by_neighbour_loop(dog)
    assert len(want) > 100
    assert detect_extrema(dog).tolist() == want


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------

def test_step_edge_rejected_by_edge_test():
    size = 64
    ramp = np.zeros((size, size))
    ramp[:, size // 2 :] = 0.6
    img = gaussian_blur(GrayImage(ramp), 1.0)
    dog = build_dog(build_scale_space(img, 2))
    # the DoG crest along the edge: locally extremal across x, tied along y
    crest_x = int(np.abs(dog.octaves[0][1, 32, :]).argmax())
    candidate = (0, 1, 32, crest_x)
    assert abs(dog.octaves[0][1, 32, crest_x]) > 0.03  # survives the contrast test
    assert refine_keypoint(candidate, dog, contrast_threshold=1e-4) is None


def test_flat_candidate_rejected_by_contrast():
    blob = render_blob(96, 48.0, 48.0, 4.0, amp=0.004)  # far below 0.03
    dog = build_dog(build_scale_space(blob, 2))
    for cand in detect_extrema(dog):
        assert refine_keypoint(cand, dog) is None


def test_strong_blob_subpixel_accuracy():
    cx, cy = 47.6, 50.3
    blob = render_blob(96, cx, cy, 4.0)
    ss = build_scale_space(blob, 3)
    dog = build_dog(ss)
    kps = [r[0] for c in detect_extrema(dog) if (r := refine_keypoint(c, dog))]
    assert kps
    best = min(kps, key=lambda k: (k[0] - cx) ** 2 + (k[1] - cy) ** 2)
    assert math.hypot(best[0] - cx, best[1] - cy) < 0.5
    assert best[2] > 0


def test_batched_refinement_rejects_only_the_singular_candidate():
    # a blob peaking at layer 1 inside an otherwise exactly flat DoG: the
    # flat candidate's Hessian is all zero, so a plain batched solve of
    # both candidates would raise
    ys, xs = np.mgrid[0:32, 0:32]
    blob = 0.1 * np.exp(-((xs - 20.3) ** 2 + (ys - 19.8) ** 2) / 8.0)
    stack = np.zeros((3, 32, 32))
    stack[:, 12:29, 12:29] = (np.array([0.6, 1.0, 0.7])[:, None, None] * blob)[:, 12:29, 12:29]
    dog = DoGPyramid([stack], 1.6, 2)
    flat, peak = (1, 5, 5), (1, 20, 20)
    x, y, sigma, layer = sift._refine_octave(dog, 0, np.array([flat, peak]), 0.03, 10.0)
    assert refine_keypoint((0, *flat), dog) is None
    alone = refine_keypoint((0, *peak), dog)
    assert alone is not None
    kp, alone_layer = alone
    assert (x.tolist(), y.tolist(), sigma.tolist(), layer.tolist()) == (
        [kp[0]], [kp[1]], [kp[2]], [alone_layer]
    )


# ---------------------------------------------------------------------------
# orientation assignment
# ---------------------------------------------------------------------------

def _ramp_image(angle_deg: float, size: int = 64) -> GrayImage:
    a = math.radians(angle_deg)
    ys, xs = np.mgrid[0:size, 0:size]
    ramp = math.cos(a) * xs + math.sin(a) * ys
    ramp = (ramp - ramp.min()) / (ramp.max() - ramp.min() + 1e-12) * 0.6
    return GrayImage(ramp)


@pytest.mark.parametrize("angle", [0.0, 30.0, 90.0, 215.0])
def test_ramp_orientation_matches_gradient_direction(angle):
    ss = build_scale_space(_ramp_image(angle), 2)
    kp = np.array([32.0, 32.0, 1.6 * 2**0.25, 0.0])
    oriented = assign_orientations(kp, ss, octave=0, layer=1)
    assert len(oriented) == 1
    got = math.degrees(oriented[0, 3]) % 360.0
    err = min(abs(got - angle), 360 - abs(got - angle))
    assert err < 5.0


def test_two_equal_gradient_populations_give_two_keypoints():
    # f = min(x, y): gradient is (1,0) below the diagonal and (0,1) above,
    # two equal histogram peaks -> two oriented keypoints
    size = 96
    ys, xs = np.mgrid[0:size, 0:size]
    img = GrayImage(np.minimum(xs, ys) / (size - 1) * 0.6)
    ss = build_scale_space(img, 2)
    kp = np.array([48.0, 48.0, 4.8, 0.0])
    oriented = assign_orientations(kp, ss, octave=0, layer=1)
    assert len(oriented) == 2
    angles = sorted(math.degrees(a) % 360 for a in oriented[:, 3])
    assert angles[0] == pytest.approx(0.0, abs=6.0) or angles[0] > 354.0
    assert angles[1] == pytest.approx(90.0, abs=6.0)


def test_rotating_input_rotates_orientations(texture):
    # rot90(A)[y, x] = A[x, W-1-y]: gradients map (gx, gy) -> (gy, -gx),
    # so every assigned orientation shifts by -90 degrees
    rot = GrayImage(np.rot90(texture.intensities, 1).copy())
    k1, _ = extract_sift(texture)
    k2, _ = extract_sift(rot)
    w = texture.width
    by_pos = {}
    for x, y, _, ori in k2.tolist():
        by_pos.setdefault((round(x, 1), round(y, 1)), []).append(ori)
    matched = consistent = 0
    for x, y, _, ori in k1.tolist():
        angles = by_pos.get((round(y, 1), round(w - 1 - x, 1)))
        if not angles:
            continue
        matched += 1
        for a in angles:
            got = math.degrees(a - ori) % 360.0
            if min(abs(got - 270.0), abs(got + 90.0), abs(got - 630.0)) < 5.0:
                consistent += 1
                break
    assert matched > 100
    assert consistent >= 0.8 * matched


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------

def test_descriptor_length_and_norm(texture):
    keypoints, values = extract_sift(texture)
    assert len(keypoints)
    for (x, y, sigma, ori), v in zip(keypoints[:50], values[:50]):
        assert len(v) == 128
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-6)
        assert 0.0 <= x <= texture.width - 1
        assert 0.0 <= y <= texture.height - 1
        assert sigma > 0
        assert 0.0 <= ori < 2 * math.pi


def test_descriptor_clamp_applied_before_renormalization():
    rng = np.random.default_rng(3)
    raw = rng.random(128) * np.array([50.0] + [1.0] * 127)
    out = sift._normalize_rows(raw[None, :])[0][0]
    v1 = raw / np.linalg.norm(raw)
    clamped = np.minimum(v1, DESCRIPTOR_CLAMP)
    assert clamped.max() <= DESCRIPTOR_CLAMP + 1e-6
    assert np.allclose(out, clamped / np.linalg.norm(clamped))
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)


def test_contrast_scaling_leaves_descriptors_unchanged(texture):
    half = GrayImage(texture.intensities * 0.5)
    base = keyed(extract_sift(texture))
    got = keyed(extract_sift(half))
    common = set(base) & set(got)
    assert len(common) > 100
    worst = max(np.linalg.norm(base[c] - got[c]) for c in common)
    assert worst < 1e-6


def test_brightness_shift_leaves_descriptors_unchanged(texture):
    shifted = GrayImage(np.clip(texture.intensities + 0.2, 0.0, 1.0))
    base = keyed(extract_sift(texture))
    got = keyed(extract_sift(shifted))
    common = set(base) & set(got)
    assert len(common) > 100
    worst = max(np.linalg.norm(base[c] - got[c]) for c in common)
    assert worst < 1e-6


def test_descriptor_window_leaving_image_drops_keypoint(texture):
    ss = build_scale_space(texture, 2)
    edge_kp = np.array([2.0, 2.0, 8.0, 0.0])
    assert compute_descriptor(edge_kp, ss, octave=0, layer=1) is None


# ---------------------------------------------------------------------------
# end-to-end extraction
# ---------------------------------------------------------------------------

def test_extract_is_deterministic(small_texture):
    ka, va = extract_sift(small_texture)
    kb, vb = extract_sift(small_texture)
    assert np.array_equal(ka, kb)
    assert np.array_equal(va, vb)


def test_extraction_order_is_sorted(small_texture):
    keypoints, _, level = sift._sift_features(small_texture, SiftParams())
    keys = list(zip(level[:, 0].tolist(), level[:, 1].tolist(), keypoints[:, 1].tolist(),
                    keypoints[:, 0].tolist(), keypoints[:, 3].tolist()))
    assert keys == sorted(keys)


def test_no_two_keypoints_share_a_duplicate_key(small_texture):
    # refinement converges some candidates onto the same point; without the
    # duplicate rule this image repeats 2 of its 150 keys
    _, keypoints, level = sift._detect_oriented_keypoints(small_texture, SiftParams())
    keys = [
        (o, round(x, 3), round(y, 3), round(s, 4), round(a, 5))
        for o, (x, y, s, a) in zip(level[:, 0].tolist(), keypoints.tolist())
    ]
    assert len(keys) == len(set(keys))


# ---------------------------------------------------------------------------
# reference: extraction without skipped work.  Every configured octave is
# built and searched (by the neighbour loop above), every refined keypoint is
# oriented, duplicates are dropped, and only then are windows tested and
# descriptors scattered one corner vote at a time.
# ---------------------------------------------------------------------------

def _reference_bilinear(arr, ys, xs):
    y0 = np.floor(ys).astype(np.intp)
    x0 = np.floor(xs).astype(np.intp)
    fy = ys - y0
    fx = xs - x0
    return (
        arr[y0, x0] * (1 - fy) * (1 - fx)
        + arr[y0, x0 + 1] * (1 - fy) * fx
        + arr[y0 + 1, x0] * fy * (1 - fx)
        + arr[y0 + 1, x0 + 1] * fy * fx
    )


def _reference_descriptor_histograms(dx_img, dy_img, cx, cy, spacing, theta):
    n = len(cx)
    cells, bins, side = sift.DESCRIPTOR_CELLS, sift.DESCRIPTOR_ORI_BINS, sift._TENSOR_SIDE
    grid = sift._SAMPLE_OFFSETS * spacing[:, None]
    su = grid[:, None, :]
    sv = grid[:, :, None]
    cos_t = np.cos(theta)[:, None, None]
    sin_t = np.sin(theta)[:, None, None]
    xs = cx[:, None, None] + su * cos_t - sv * sin_t
    ys = cy[:, None, None] + su * sin_t + sv * cos_t
    gdx = _reference_bilinear(dx_img, ys, xs)
    gdy = _reference_bilinear(dy_img, ys, xs)
    mag = np.hypot(gdx, gdy)
    rel_angle = (np.arctan2(gdy, gdx) - theta[:, None, None]) % (2.0 * math.pi)
    cu = su / (spacing[:, None, None] * 4.0) + (cells - 1) / 2.0
    cv = sv / (spacing[:, None, None] * 4.0) + (cells - 1) / 2.0
    gauss = np.exp(-((cu - (cells - 1) / 2.0) ** 2 + (cv - (cells - 1) / 2.0) ** 2) / (2.0 * (0.5 * cells) ** 2))
    shape = (n, sift._SAMPLES * sift._SAMPLES)
    contrib = (mag * gauss).reshape(shape)
    obin = rel_angle.reshape(shape) / (2.0 * math.pi) * bins
    r = np.broadcast_to(cv, mag.shape).reshape(shape)
    c = np.broadcast_to(cu, mag.shape).reshape(shape)
    r0 = np.floor(r).astype(np.intp)
    c0 = np.floor(c).astype(np.intp)
    o0 = np.floor(obin).astype(np.intp)
    fr, fc, fo = r - r0, c - c0, obin - o0
    o0 %= bins
    base = np.arange(n)[:, None] * sift._TENSOR_SIZE
    index, weight = [], []
    for dr, wr in ((0, 1 - fr), (1, fr)):
        for dc, wc in ((0, 1 - fc), (1, fc)):
            for do, wo in ((0, 1 - fo), (1, fo)):
                index.append(base + ((r0 + 1 + dr) * side + (c0 + 1 + dc)) * bins + (o0 + do) % bins)
                weight.append(contrib * wr * wc * wo)
    tensor = np.bincount(
        np.concatenate(index, axis=None), weights=np.concatenate(weight, axis=None), minlength=n * sift._TENSOR_SIZE
    ).reshape(n, side, side, bins)
    return tensor[:, 1:-1, 1:-1, :].reshape(n, sift.DESCRIPTOR_SIZE)


def _reference_raw_descriptors(ss, kp, level):
    raw = np.zeros((len(kp), sift.DESCRIPTOR_SIZE))
    inside = np.zeros(len(kp), dtype=bool)
    for octave, layer in np.unique(level, axis=0).tolist():
        at = np.flatnonzero((level == (octave, layer)).all(axis=1))
        scale_factor = 2.0**octave
        dx_img, dy_img = ss.gradients(octave, layer)
        h, w = dx_img.shape
        cx = kp[at, 0] / scale_factor
        cy = kp[at, 1] / scale_factor
        spacing = 3.0 * (kp[at, 2] / scale_factor) / 4.0
        half_extent = spacing * (sift._SAMPLES - 1) / 2.0 * math.sqrt(2.0) + 1.0
        inside[at] = ~(
            (cx - half_extent < 0) | (cx + half_extent > w - 1) | (cy - half_extent < 0) | (cy + half_extent > h - 1)
        )
        idx = np.flatnonzero(inside[at])
        raw[at[idx]] = _reference_descriptor_histograms(dx_img, dy_img, cx[idx], cy[idx], spacing[idx], kp[at[idx], 3])
    return raw, inside


def _reference_keypoints(gray, params):
    ss = build_scale_space(gray, params.octaves, params.scales_per_octave, params.sigma0)
    dog = build_dog(ss)
    cands = np.array(_extrema_by_neighbour_loop(dog), dtype=np.intp).reshape(-1, 4)
    kps, levels = [np.empty((0, 4))], [np.empty((0, 2), dtype=np.intp)]
    for o in range(params.octaves):
        x, y, sigma, layer = sift._refine_octave(
            dog, o, cands[cands[:, 0] == o, 1:], params.contrast_threshold, params.edge_ratio
        )
        for l in np.unique(layer).tolist():
            m = layer == l
            item, angle = sift._orientation_peaks(ss, o, l, x[m], y[m], sigma[m], params.orientation_sigma_factor)
            kps.append(np.column_stack([x[m][item], y[m][item], sigma[m][item], angle]))
            levels.append(np.tile(np.array([o, l], dtype=np.intp), (len(item), 1)))
    kp, level = np.concatenate(kps), np.concatenate(levels)
    order = sift._output_order(kp, level)
    kp, level = kp[order], level[order]
    first = {}
    for i, (o, (x, y, s, a)) in enumerate(zip(level[:, 0].tolist(), kp.tolist())):
        first.setdefault((o, round(x, 3), round(y, 3), round(s, 4), round(a, 5)), i)
    keep = list(first.values())
    return ss, kp[keep], level[keep]


def reference_sift(gray, params=SiftParams()):
    """(keypoints, values, levels) of extraction without skipped work."""
    ss, kp, level = _reference_keypoints(gray, params)
    raw, inside = _reference_raw_descriptors(ss, kp, level)
    values, ok = sift._normalize_rows(raw)
    keep = inside & ok
    return kp[keep], values[keep], level[keep]


def reference_rgb_sift(img, params=SiftParams()):
    _, kp, level = _reference_keypoints(to_grayscale(img), params)
    blocks = []
    for c in range(3):
        ss = build_scale_space(GrayImage(img.pixels[:, :, c]), params.octaves, params.scales_per_octave, params.sigma0)
        raw, inside = _reference_raw_descriptors(ss, kp, level)
        blocks.append(sift._normalize_rows(raw)[0])
    full = np.concatenate(blocks, axis=1)
    norm = np.sqrt(sift._rowdot(full, full))
    keep = inside & (norm > 0)
    return kp[keep], full[keep] / norm[keep, None]


def reference_asift(gray, params=SiftParams()):
    kps, values = [np.empty((0, 4))], [np.empty((0, sift.DESCRIPTOR_SIZE))]
    levels = [np.empty((0, 2), dtype=np.intp)]
    w, h = gray.width, gray.height
    for view in asift_views(gray):
        try:
            kp, v, level = reference_sift(view.image, params)
        except ValueError:
            continue
        inv = view.inverse
        x = inv[0, 0] * kp[:, 0] + inv[0, 1] * kp[:, 1] + inv[0, 2]
        y = inv[1, 0] * kp[:, 0] + inv[1, 1] * kp[:, 1] + inv[1, 2]
        inside = (0.0 <= x) & (x <= w - 1) & (0.0 <= y) & (y <= h - 1)
        kps.append(np.column_stack([x, y, kp[:, 2:]])[inside])
        values.append(v[inside])
        levels.append(level[inside])
    kp, level = np.concatenate(kps), np.concatenate(levels)
    order = sift._output_order(kp, level)
    return kp[order], np.concatenate(values)[order]


def _test_image(name):
    """(gray plane, colour image) of a named test image."""
    from tests.conftest import blob_texture

    if name.startswith("synth"):
        img = render_room_image(4, 2, 1, size=int(name[5:]), seed=5)
        return to_grayscale(img), img
    seed, size = {"texture": (42, 256), "small_texture": (7, 128)}[name]
    gray = blob_texture(seed=seed, size=size)
    a = gray.intensities
    return gray, Image(np.stack([a, a * a, 0.5 * a + 0.25], axis=2))


def _assert_same_features(got, want):
    assert len(want[0])
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("name", ["synth96", "synth160", "synth320", "texture", "small_texture"])
def test_extraction_equals_the_reference_without_skipped_work(name):
    gray, rgb = _test_image(name)
    _assert_same_features(extract_sift(gray), reference_sift(gray)[:2])
    _assert_same_features(extract_rgb_sift(rgb), reference_rgb_sift(rgb))
    _assert_same_features(extract_asift(gray), reference_asift(gray))


@pytest.mark.parametrize(
    "side,params",
    [
        (110, SiftParams()),
        (112, SiftParams()),
        (96, SiftParams(sigma0=1.2, octaves=3)),
        (128, SiftParams(scales_per_octave=3, octaves=3)),
        (72, SiftParams(sigma0=2.4, octaves=2)),
        (96, SiftParams(contrast_threshold=0.01, orientation_sigma_factor=2.0)),
    ],
)
def test_extraction_equals_the_reference_across_parameters(side, params):
    from tests.conftest import blob_texture

    a = blob_texture(seed=side, size=side).intensities
    gray, rgb = GrayImage(a), Image(np.stack([a, a * a, 0.5 * a + 0.25], axis=2))
    _assert_same_features(extract_sift(gray, params), reference_sift(gray, params)[:2])
    _assert_same_features(extract_rgb_sift(rgb, params), reference_rgb_sift(rgb, params))


def test_descriptor_octaves_stop_where_no_window_fits():
    # the smallest window (sigma0 = 1.6) spans 2 * 13.73 px: a 96-px image
    # has 96- and 48-px planes that hold it, 24 and 12 px do not
    def depth(side, **kw):
        return sift._descriptor_octaves(GrayImage(np.zeros((side, side + 5))), SiftParams(**kw))

    assert [depth(s) for s in (64, 96, 111, 112, 160, 320)] == [2, 2, 2, 3, 3, 4]
    assert depth(96, octaves=1) == 1
    assert depth(96, sigma0=3.0) == 1
    assert depth(20, octaves=1) == 1  # nothing fits, one octave is still searched


def test_extraction_keeps_the_configured_octaves_size_error():
    # a 40-px image can only hold descriptors in octave 0, yet 4 configured
    # octaves need 64 px, and extraction says so
    a = np.random.default_rng(0).random((40, 40))
    rgb = Image(np.repeat(a[:, :, None], 3, axis=2))
    for extract, img in ((extract_sift, GrayImage(a)), (extract_rgb_sift, rgb)):
        with pytest.raises(ValueError, match="image 40x40 too small for 4 octaves"):
            extract(img)
        with pytest.raises(ValueError, match="octaves and scales_per_octave must be >= 1"):
            extract(img, SiftParams(octaves=0))
        with pytest.raises(ValueError, match="sigma0 must be positive"):
            extract(img, SiftParams(sigma0=0.0))
        keypoints, _ = extract(img, SiftParams(octaves=3))  # 3 octaves fit
        assert keypoints.shape[1] == 4


@pytest.mark.parametrize("field, value", [
    ("orientation_sigma_factor", 0.0),
    ("edge_ratio", 0.5),
    ("contrast_threshold", -1.0),
    ("contrast_threshold", math.inf),
    ("sigma0", math.nan),
    ("octaves", 2.5),
    ("scales_per_octave", 1.5),
])
def test_bad_sift_parameter_is_an_error_naming_its_field(field, value):
    # before the check, orientation_sigma_factor = 0 returned no features
    # with a divide-by-zero warning instead of failing
    a = np.random.default_rng(0).random((96, 96))
    rgb = Image(np.repeat(a[:, :, None], 3, axis=2))
    params = SiftParams(**{field: value})
    for extract, img in ((extract_sift, GrayImage(a)), (extract_rgb_sift, rgb),
                         (lambda i, p: extract_asift(i, p, (1.0,), 90.0), GrayImage(a))):
        with pytest.raises(ValueError, match=f"^{field} must be "):
            extract(img, params)


def test_describable_keeps_only_inside_keypoints_and_their_shadows():
    # a window of scale 19 / (0.75 * 7.5 * sqrt 2) has a half-extent of
    # 20 px (19 px of samples plus one of interpolation), so on a 64-px
    # plane its centre must lie in [20, 43]
    sigma_in = 19.0 / (0.75 * 7.5 * math.sqrt(2.0))
    assert sift._half_extent(sigma_in)[1] == pytest.approx(20.0, abs=1e-12)
    octave, shape = 1, (64, 64)
    # (x, y, sigma) in the base frame, i.e. twice the plane coordinates
    rows = np.array(
        [
            [2 * 32.0, 2 * 32.0, 2 * sigma_in],  # inside
            [2 * 20.0002, 2 * 32.0, 2 * sigma_in],  # inside, on the left edge
            [2 * 19.9999, 2 * 32.0, 2 * sigma_in],  # outside; rounds like the previous
            [2 * 19.9999, 2 * 32.0, 2 * sigma_in + 0.01],  # outside; its sigma rounds apart
            [2 * 3.0, 2 * 3.0, 2 * sigma_in],  # outside
            [2 * 32.0, 2 * 43.5, 2 * sigma_in],  # outside, below
        ]
    )
    x, y, sigma = rows.T
    inside = sift._descriptor_window(x, y, sigma, octave, shape)[3]
    assert inside.tolist() == [True, True, False, False, False, False]
    assert sift._describable(x, y, sigma, octave, shape).tolist() == [True, True, True, False, False, False]
    # the same plane coordinates in octave 0
    in_octave_0 = sift._describable(x / 2, y / 2, sigma / 2, 0, shape)
    assert in_octave_0.tolist() == [True, True, True, False, False, False]
    assert not sift._describable(x, y, sigma, octave, (32, 32)).any()


def test_500px_texture_keypoint_count_order_of_magnitude():
    from tests.conftest import blob_texture

    tex = blob_texture(seed=3, size=500)
    n = len(extract_sift(tex)[0])
    assert 300 <= n <= 30000


def test_rgb_sift_dimensions_and_gray_blocks(texture):
    gray_rgb = Image(np.repeat(texture.intensities[:, :, None], 3, axis=2))
    _, values = extract_rgb_sift(gray_rgb)
    assert len(values)
    for v in values[:20]:
        assert len(v) == 384
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-6)
        assert np.allclose(v[:128], v[128:256], atol=1e-9)
        assert np.allclose(v[128:256], v[256:], atol=1e-9)


def test_rgb_sift_channel_scaling_changes_only_that_block(texture):
    # r=g=b content: halving one channel scales the grayscale plane
    # uniformly, so shared keypoints exist; per-block normalization then
    # cancels the channel factor entirely
    base = np.repeat(texture.intensities[:, :, None], 3, axis=2)
    img1 = Image(base)
    img2 = Image(base * np.array([1.0, 0.5, 1.0])[None, None, :])
    f1 = keyed(extract_rgb_sift(img1))
    f2 = keyed(extract_rgb_sift(img2))
    common = set(f1) & set(f2)
    assert len(common) > 20
    for c in list(common)[:50]:
        assert np.abs(f1[c] - f2[c]).max() < 1e-6


@pytest.mark.parametrize("name", ["texture", "small_texture"])
def test_chunk_budget_does_not_change_features(name, request, monkeypatch):
    gray = request.getfixturevalue(name)
    a = gray.intensities
    rgb = Image(np.stack([a, a * a, 0.5 * a + 0.25], axis=2))
    default = [extract_sift(gray), extract_rgb_sift(rgb)]
    monkeypatch.setattr(sift, "_CHUNK_BYTES", 1)  # every chunk holds one keypoint
    single = [extract_sift(gray), extract_rgb_sift(rgb)]
    for (got_kp, got_values), (want_kp, want_values) in zip(single, default):
        assert len(want_kp)
        assert np.array_equal(got_kp, want_kp)
        assert np.array_equal(got_values, want_values)


def test_extraction_peak_memory_is_bounded():
    from tests.conftest import blob_texture

    tex = blob_texture(seed=3, size=320)
    tracemalloc.start()
    try:
        extract_sift(tex)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one unchunked batch per blur level peaks near 38 MiB here
    assert peak < 24 * 2**20, f"peak {peak / 2**20:.1f} MiB"


# ---------------------------------------------------------------------------
# descriptor files
# ---------------------------------------------------------------------------

def test_descriptor_file_round_trip(tmp_path, small_texture):
    ka, va = (a[:17] for a in extract_sift(small_texture))
    path = tmp_path / "kp.desc"
    write_descriptors((ka, va), path)
    keypoints, values = read_descriptors(path)
    assert keypoints.shape == (17, 4) and values.shape == (17, 128)
    for (xa, _, sigma_a, _), da, (x, _, sigma, _), vb in zip(ka, va, keypoints, values):
        assert x == pytest.approx(xa, abs=1e-4)
        assert sigma == pytest.approx(sigma_a, rel=1e-6)
        assert np.abs(da - vb).max() < 1e-6


def test_descriptor_file_rejects_garbage(tmp_path):
    p = tmp_path / "bad.desc"
    p.write_bytes(b"NOPE")
    with pytest.raises(ValueError):
        read_descriptors(p)


@given(count=st.integers(0, 3), dim=st.sampled_from([1, 128, 384]), cut=st.floats(0.0, 1.0, exclude_max=True))
@settings(max_examples=200, deadline=None)
def test_truncated_descriptor_file_is_value_error(tmp_path_factory, count, dim, cut):
    rng = np.random.default_rng(count * 1000 + dim)
    rows = [(rng.random(4), rng.random(dim)) for _ in range(count)]
    keypoints = np.array([kp for kp, _ in rows]).reshape(count, 4)
    values = np.array([v for _, v in rows]).reshape(count, dim)
    path = tmp_path_factory.mktemp("desc") / "kp.desc"
    write_descriptors((keypoints, values), path)
    data = path.read_bytes()
    path.write_bytes(data[: int(cut * len(data))])
    with pytest.raises(ValueError):
        read_descriptors(path)
