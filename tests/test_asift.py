import math

import numpy as np
import pytest

from placevision.asift import asift_views, extract_asift, make_view
from placevision.image import GrayImage
from placevision.sift import SiftParams, extract_sift
from tests.conftest import blob_texture


@pytest.fixture(scope="module")
def tex():
    return blob_texture(seed=9, size=160)


def test_identity_view_is_the_input(tex):
    v = make_view(tex, 1.0, 0.0)
    assert v.image is tex
    assert np.array_equal(v.inverse, [[1, 0, 0], [0, 1, 0]])


def test_tilt_latitude_relation():
    v = make_view(blob_texture(seed=1, size=64), math.sqrt(2.0), 0.0)
    assert math.degrees(math.acos(1.0 / v.tilt)) == pytest.approx(45.0)


def test_view_count_follows_phi_sampling_rule(tex):
    views = asift_views(tex, (1.0, math.sqrt(2.0), 2.0), 72.0)
    expected = 1 + math.ceil(180 / (72 / math.sqrt(2))) + math.ceil(180 / (72 / 2))
    assert len(views) == expected == 10


def test_degenerate_tilt_rejected(tex):
    with pytest.raises(ValueError):
        make_view(tex, 0.9, 0.0)
    with pytest.raises(ValueError):
        asift_views(tex, (0.5, 1.0), 72.0)
    with pytest.raises(ValueError):
        asift_views(tex, (math.sqrt(2.0),), 72.0)  # missing t=1
    with pytest.raises(ValueError):
        asift_views(tex, (1.0,), 0.0)


def test_tilt_compresses_width(tex):
    v = make_view(tex, 2.0, 0.0)
    assert v.image.width == pytest.approx(tex.width / 2, abs=2)
    assert v.image.height == tex.height


def test_inverse_map_round_trips_coordinates(tex):
    tilt, phi_deg = math.sqrt(2.0), 36.0
    v = make_view(tex, tilt, phi_deg)
    # rebuild the forward map the view is defined by: rotate by phi about
    # the origin, shift into the bounding box, compress x by the tilt
    phi = math.radians(phi_deg)
    c, s = math.cos(phi), math.sin(phi)
    h, w = tex.height, tex.width
    corners = np.array([[0, 0], [w - 1, 0], [w - 1, h - 1], [0, h - 1]], float)
    rot = np.array([[c, -s], [s, c]])
    shifted = corners @ rot.T
    x0, y0 = shifted[:, 0].min(), shifted[:, 1].min()
    rng = np.random.default_rng(0)
    inv = v.inverse
    for _ in range(20):
        xo = rng.uniform(0, w - 1)
        yo = rng.uniform(0, h - 1)
        xr, yr = rot @ (xo, yo) - (x0, y0)
        xv, yv = xr / tilt, yr
        back_x = inv[0, 0] * xv + inv[0, 1] * yv + inv[0, 2]
        back_y = inv[1, 0] * xv + inv[1, 1] * yv + inv[1, 2]
        assert (back_x, back_y) == pytest.approx((xo, yo), abs=1e-9)


def test_t1_only_equals_plain_sift(tex):
    params = SiftParams(octaves=3)
    ka, va = extract_sift(tex, params)
    kb, vb = extract_asift(tex, params, (1.0,), 72.0)
    assert np.array_equal(ka, kb)
    assert np.array_equal(va, vb)


def test_asift_superset_of_plain_keypoints(tex):
    params = SiftParams(octaves=3)
    plain, _ = extract_sift(tex, params)
    full, _ = extract_asift(tex, params, (1.0, math.sqrt(2.0)), 90.0)
    assert len(full) >= len(plain)


def test_tilted_copy_matches_with_more_asift_correspondences(tex):
    # 30-degree latitude tilt of a planar texture: ASIFT must recover at
    # least twice the mutual-NN correspondences of plain SIFT
    theta = math.radians(30.0)
    gt = make_view(tex, 1.0 / math.cos(theta), 0.0)
    tilted, inv = gt.image, gt.inverse

    def correspondences(fa, fb):
        (pa, da), (pb, db) = fa, fb
        if not len(da) or not len(db):
            return 0
        d2 = ((da[:, None, :] - db[None, :, :]) ** 2).sum(-1)
        nn12 = d2.argmin(1)
        nn21 = d2.argmin(0)
        good = 0
        for i in range(len(da)):
            j = nn12[i]
            if nn21[j] != i:
                continue
            bx = inv[0, 0] * pb[j, 0] + inv[0, 1] * pb[j, 1] + inv[0, 2]
            by = inv[1, 0] * pb[j, 0] + inv[1, 1] * pb[j, 1] + inv[1, 2]
            if math.hypot(pa[i, 0] - bx, pa[i, 1] - by) <= 3.0:
                good += 1
        return good

    params = SiftParams(octaves=3)
    plain = correspondences(extract_sift(tex, params), extract_sift(tilted, params))
    tilts = (1.0, math.sqrt(2.0), 2.0)
    asift = correspondences(
        extract_asift(tex, params, tilts, 90.0), extract_asift(tilted, params, tilts, 90.0)
    )
    assert asift >= 2 * max(plain, 1)


@pytest.mark.parametrize(
    "params, message",
    [
        (SiftParams(sigma0=-1.0), "sigma0 must be positive"),
        (SiftParams(octaves=0), "octaves and scales_per_octave must be >= 1"),
        (SiftParams(scales_per_octave=0), "octaves and scales_per_octave must be >= 1"),
    ],
)
def test_bad_sift_parameters_raise_instead_of_emptying_every_view(tex, params, message):
    with pytest.raises(ValueError, match=message):
        extract_asift(tex, params, (1.0, 4.0), 90.0)


def test_input_too_small_for_the_octaves_raises_as_for_plain_sift():
    small = GrayImage(np.random.default_rng(0).random((40, 40)))
    for extract in (extract_sift, extract_asift):
        with pytest.raises(ValueError, match="image 40x40 too small for 4 octaves"):
            extract(small)


def test_only_views_too_small_for_the_octaves_are_skipped(tex):
    # at tilt 4 the 160-px texture's views are ~40 px wide, too narrow for 4
    # octaves (40 // 8 < 8); the identity view alone is extracted
    narrow = [v for v in asift_views(tex, (1.0, 4.0), 90.0) if v.tilt == 4.0]
    assert narrow and all(v.image.width // 8 < 8 for v in narrow)
    ka, va = extract_asift(tex, SiftParams(), (1.0, 4.0), 90.0)
    kb, vb = extract_sift(tex, SiftParams())
    assert len(ka) and np.array_equal(ka, kb) and np.array_equal(va, vb)
