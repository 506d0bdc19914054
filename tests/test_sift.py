import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from placevision import sift
from placevision.image import GrayImage, Image, gaussian_blur
from placevision.sift import (
    DESCRIPTOR_CLAMP,
    DoGPyramid,
    Keypoint,
    SiftParams,
    assign_orientations,
    build_dog,
    build_scale_space,
    compute_descriptor,
    detect_extrema,
    extract_rgb_sift,
    extract_sift,
    finalize_descriptor,
    read_descriptors,
    refine_keypoint,
    write_descriptors,
    write_descriptors_csv,
)


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
    assert ss.sigma_abs(1, 0) == pytest.approx(2 * 1.6)
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
    assert extract_sift(g, SiftParams(octaves=3)) == []


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
    assert detect_extrema(build_dog(build_scale_space(g, 2))) == []
    # hand-built stack: a 3x3 plateau of equal maxima must yield nothing
    # under the strict comparison, while a lone spike is kept
    stack = np.zeros((3, 16, 16))
    stack[1, 6:9, 6:9] = 1.0
    assert detect_extrema(DoGPyramid([stack.copy()], 1.6, 2)) == []
    spike = np.zeros((3, 16, 16))
    spike[1, 7, 7] = 1.0
    assert detect_extrema(DoGPyramid([spike], 1.6, 2)) == [(0, 1, 7, 7)]


def test_single_blob_detected_at_predicted_location_and_scale():
    # oracle: exhaustive scan of the rendered pyramid; the globally
    # strongest extremum must sit at the analytically predicted (x, y, s)
    size, sigma_b = 96, 4.0
    cx, cy = 47.6, 50.3
    blob = render_blob(size, cx, cy, sigma_b)
    ss = build_scale_space(blob, 3)
    dog = build_dog(ss)
    cands = detect_extrema(dog)
    assert cands, "blob produced no extrema"

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
    kps = [kp for c in detect_extrema(dog) if (kp := refine_keypoint(c, dog))]
    assert kps
    best = min(kps, key=lambda k: (k.x - cx) ** 2 + (k.y - cy) ** 2)
    assert math.hypot(best.x - cx, best.y - cy) < 0.5
    assert best.sigma > 0


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
    assert (x.tolist(), y.tolist(), sigma.tolist(), layer.tolist()) == (
        [alone.x], [alone.y], [alone.sigma], [alone.layer]
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
    kp = Keypoint(32.0, 32.0, 1.6 * 2**0.25, 0.0, octave=0, layer=1)
    oriented = assign_orientations(kp, ss)
    assert len(oriented) == 1
    got = math.degrees(oriented[0].orientation) % 360.0
    err = min(abs(got - angle), 360 - abs(got - angle))
    assert err < 5.0


def test_two_equal_gradient_populations_give_two_keypoints():
    # f = min(x, y): gradient is (1,0) below the diagonal and (0,1) above,
    # two equal histogram peaks -> two oriented keypoints
    size = 96
    ys, xs = np.mgrid[0:size, 0:size]
    img = GrayImage(np.minimum(xs, ys) / (size - 1) * 0.6)
    ss = build_scale_space(img, 2)
    kp = Keypoint(48.0, 48.0, 4.8, 0.0, octave=0, layer=1)
    oriented = assign_orientations(kp, ss)
    assert len(oriented) == 2
    angles = sorted(math.degrees(o.orientation) % 360 for o in oriented)
    assert angles[0] == pytest.approx(0.0, abs=6.0) or angles[0] > 354.0
    assert angles[1] == pytest.approx(90.0, abs=6.0)


def test_rotating_input_rotates_orientations(texture):
    # rot90(A)[y, x] = A[x, W-1-y]: gradients map (gx, gy) -> (gy, -gx),
    # so every assigned orientation shifts by -90 degrees
    rot = GrayImage(np.rot90(texture.intensities, 1).copy())
    f1 = extract_sift(texture)
    f2 = extract_sift(rot)
    w = texture.width
    by_pos = {}
    for k, _ in f2:
        by_pos.setdefault((round(k.x, 1), round(k.y, 1)), []).append(k.orientation)
    matched = consistent = 0
    for kp, _ in f1:
        angles = by_pos.get((round(kp.y, 1), round(w - 1 - kp.x, 1)))
        if not angles:
            continue
        matched += 1
        for a in angles:
            got = math.degrees(a - kp.orientation) % 360.0
            if min(abs(got - 270.0), abs(got + 90.0), abs(got - 630.0)) < 5.0:
                consistent += 1
                break
    assert matched > 100
    assert consistent >= 0.8 * matched


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------

def test_descriptor_length_and_norm(texture):
    feats = extract_sift(texture)
    assert feats
    for kp, desc in feats[:50]:
        assert len(desc.values) == 128
        assert np.linalg.norm(desc.values) == pytest.approx(1.0, abs=1e-6)
        assert 0.0 <= kp.x <= texture.width - 1
        assert 0.0 <= kp.y <= texture.height - 1
        assert kp.sigma > 0
        assert 0.0 <= kp.orientation < 2 * math.pi


def test_descriptor_clamp_applied_before_renormalization():
    rng = np.random.default_rng(3)
    raw = rng.random(128) * np.array([50.0] + [1.0] * 127)
    out = finalize_descriptor(raw)
    v1 = raw / np.linalg.norm(raw)
    clamped = np.minimum(v1, DESCRIPTOR_CLAMP)
    assert clamped.max() <= DESCRIPTOR_CLAMP + 1e-6
    assert np.allclose(out, clamped / np.linalg.norm(clamped))
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)


def test_contrast_scaling_leaves_descriptors_unchanged(texture):
    half = GrayImage(texture.intensities * 0.5)
    base = {(round(k.x, 3), round(k.y, 3), round(k.orientation, 4)): d.values for k, d in extract_sift(texture)}
    got = {(round(k.x, 3), round(k.y, 3), round(k.orientation, 4)): d.values for k, d in extract_sift(half)}
    common = set(base) & set(got)
    assert len(common) > 100
    worst = max(np.linalg.norm(base[c] - got[c]) for c in common)
    assert worst < 1e-6


def test_brightness_shift_leaves_descriptors_unchanged(texture):
    shifted = GrayImage(np.clip(texture.intensities + 0.2, 0.0, 1.0))
    base = {(round(k.x, 3), round(k.y, 3), round(k.orientation, 4)): d.values for k, d in extract_sift(texture)}
    got = {(round(k.x, 3), round(k.y, 3), round(k.orientation, 4)): d.values for k, d in extract_sift(shifted)}
    common = set(base) & set(got)
    assert len(common) > 100
    worst = max(np.linalg.norm(base[c] - got[c]) for c in common)
    assert worst < 1e-6


def test_descriptor_window_leaving_image_drops_keypoint(texture):
    ss = build_scale_space(texture, 2)
    edge_kp = Keypoint(2.0, 2.0, 8.0, 0.0, octave=0, layer=1)
    assert compute_descriptor(edge_kp, ss) is None


# ---------------------------------------------------------------------------
# end-to-end extraction
# ---------------------------------------------------------------------------

def test_extract_is_deterministic(small_texture):
    a = extract_sift(small_texture)
    b = extract_sift(small_texture)
    assert len(a) == len(b)
    for (ka, da), (kb, db) in zip(a, b):
        assert ka == kb
        assert np.array_equal(da.values, db.values)


def test_extraction_order_is_sorted(small_texture):
    feats = extract_sift(small_texture)
    keys = [kp.sort_key() for kp, _ in feats]
    assert keys == sorted(keys)


def test_500px_texture_keypoint_count_order_of_magnitude():
    from tests.conftest import blob_texture

    tex = blob_texture(seed=3, size=500)
    n = len(extract_sift(tex))
    assert 300 <= n <= 30000


def test_rgb_sift_dimensions_and_gray_blocks(texture):
    gray_rgb = Image(np.repeat(texture.intensities[:, :, None], 3, axis=2))
    feats = extract_rgb_sift(gray_rgb)
    assert feats
    for kp, desc in feats[:20]:
        v = desc.values
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
    f1 = {(round(k.x, 3), round(k.y, 3), round(k.orientation, 4)): d.values for k, d in extract_rgb_sift(img1)}
    f2 = {(round(k.x, 3), round(k.y, 3), round(k.orientation, 4)): d.values for k, d in extract_rgb_sift(img2)}
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
    for got, want in zip(single, default):
        assert want
        assert [kp for kp, _ in got] == [kp for kp, _ in want]
        assert all(np.array_equal(d.values, e.values) for (_, d), (_, e) in zip(got, want))


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
    feats = extract_sift(small_texture)[:17]
    path = tmp_path / "kp.desc"
    write_descriptors(feats, path)
    keypoints, values = read_descriptors(path)
    assert keypoints.shape == (17, 4) and values.shape == (17, 128)
    for (ka, da), (x, _, sigma, _), vb in zip(feats, keypoints, values):
        assert x == pytest.approx(ka.x, abs=1e-4)
        assert sigma == pytest.approx(ka.sigma, rel=1e-6)
        assert np.abs(da.values - vb).max() < 1e-6
    write_descriptors_csv(feats, tmp_path / "kp.csv")
    lines = (tmp_path / "kp.csv").read_text().splitlines()
    assert lines[0].startswith("x,y,sigma,orientation,d0")
    assert len(lines) == 18


def test_descriptor_file_rejects_garbage(tmp_path):
    p = tmp_path / "bad.desc"
    p.write_bytes(b"NOPE")
    with pytest.raises(ValueError):
        read_descriptors(p)


@given(count=st.integers(0, 3), dim=st.sampled_from([1, 128, 384]), cut=st.floats(0.0, 1.0, exclude_max=True))
@settings(max_examples=200, deadline=None)
def test_truncated_descriptor_file_is_value_error(tmp_path_factory, count, dim, cut):
    rng = np.random.default_rng(count * 1000 + dim)
    items = []
    for _ in range(count):
        kp = Keypoint(*rng.random(4), octave=0, layer=1)
        items.append((kp, sift.Descriptor(rng.random(dim), kp)))
    path = tmp_path_factory.mktemp("desc") / "kp.desc"
    write_descriptors(items, path)
    data = path.read_bytes()
    path.write_bytes(data[: int(cut * len(data))])
    with pytest.raises(ValueError):
        read_descriptors(path)
