import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fishid import synthgen
from fishid.errors import InconsistentInputs
from fishid.features import (
    _dorsum_ventral_means,
    _hull_area,
    COLOR_SLICE,
    FEATURE_COUNT,
    GEOMETRY_SLICE,
    SHAPE_SLICE,
    SIZE_SLICE,
    extract_features,
    extreme_triangles,
    find_head_side,
    triangle_area,
    write_features_csv,
)
from fishid.imageio import RgbImage, to_indexed
from fishid.pipeline import PipelineConfig, analyze_image
from fishid.preprocess import central_moments
from fishid.segment import ColorGroups, FishMask, extract_mask, group_by_color, trace_contour


def shape_inputs(px, bg=(0, 0, 255), tol=50.0, eps=30.0):
    img = RgbImage(px)
    mask = extract_mask(img, bg, tol)
    return img, to_indexed(img), mask, trace_contour(mask), group_by_color(mask, img, eps)


def rect_image(w=24, h=12, color=(180, 40, 40)):
    px = np.empty((h + 10, w + 10, 3), dtype=np.uint8)
    px[:] = (0, 0, 255)
    px[5 : 5 + h, 5 : 5 + w] = color
    return px


class TestLayout:
    def test_group_boundaries_frozen(self):
        assert FEATURE_COUNT == 47
        assert (SIZE_SLICE.start, SIZE_SLICE.stop) == (0, 6)
        assert (SHAPE_SLICE.start, SHAPE_SLICE.stop) == (6, 24)
        assert (COLOR_SLICE.start, COLOR_SLICE.stop) == (24, 36)
        assert (GEOMETRY_SLICE.start, GEOMETRY_SLICE.stop) == (36, 47)

    def test_vector_length(self):
        f = extract_features(*shape_inputs(rect_image()))
        assert f.shape == (FEATURE_COUNT,)


class TestAnalyticCases:
    def test_rectangle_extent_and_contrast(self):
        f = extract_features(*shape_inputs(rect_image()))
        assert f[15] == 1.0  # extent fills the bbox
        assert np.allclose(f[30:33], 0.5)  # uniform color: zero contrast

    def test_disk_compactness(self):
        side = 120
        yy, xx = np.mgrid[0:side, 0:side]
        px = np.empty((side, side, 3), dtype=np.uint8)
        px[:] = (0, 0, 255)
        px[(xx - 60) ** 2 + (yy - 60) ** 2 <= 50 * 50] = (200, 200, 40)
        f = extract_features(*shape_inputs(px))
        assert f[5] >= 0.85

    def test_triangle_area_shoelace(self):
        assert triangle_area((0, 5), (10, 5), (5, 0)) == 25.0

    def test_extreme_triangle_on_diamond(self):
        pts = np.array([(0, 5), (5, 0), (10, 5), (5, 10)], dtype=np.int64)
        tri = extreme_triangles(pts)
        assert tri.p_xmin == (0, 5)
        assert tri.p_xmax == (10, 5)
        assert tri.p_ymin == (5, 0)
        assert tri.p_ymax == (5, 10)
        assert tri.area_up == 25.0
        assert tri.area_down == 25.0

    def test_upper_triangle_feature_on_diamond_mask(self):
        # diamond occupying an 11x11 bbox: triangles take a quarter each
        side = 21
        yy, xx = np.mgrid[0:side, 0:side]
        px = np.empty((side, side, 3), dtype=np.uint8)
        px[:] = (0, 0, 255)
        px[np.abs(xx - 10) + np.abs(yy - 10) <= 5] = (200, 40, 40)
        f = extract_features(*shape_inputs(px))
        assert f[38] == pytest.approx(25.0 / 121.0)
        assert f[42] == 1.0  # symmetric diamond: identical triangles

    def test_inconsistent_inputs(self):
        img, idx, mask, contour, groups = shape_inputs(rect_image())
        other = RgbImage(np.zeros((3, 3, 3), dtype=np.uint8))
        with pytest.raises(InconsistentInputs):
            extract_features(other, idx, mask, contour, groups)


def monotone_chain_area(points) -> float:
    """Reference hull area: Andrew's monotone chain, then the shoelace, all
    in Python integers."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return 0.0

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def half(seq):
        chain = []
        for p in seq:
            while len(chain) >= 2 and cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        return chain[:-1]

    hull = half(pts) + half(pts[::-1])
    twice = sum(
        x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(hull, hull[1:] + hull[:1])
    )
    return abs(twice) / 2.0


@st.composite
def point_sets(draw):
    """Small integer point sets: scattered (with duplicates on a small
    grid), or all on one line; coordinates up to a 1600x820 frame's."""
    bound = draw(st.sampled_from([3, 12, 1600]))
    coord = st.integers(0, bound)
    if draw(st.booleans()):
        return draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=40))
    x0, y0 = draw(coord), draw(coord)
    dx, dy = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
    steps = draw(st.lists(st.integers(-50, 50), min_size=1, max_size=20))
    return [(x0 + t * dx, y0 + t * dy) for t in steps]


class TestHullArea:
    @given(point_sets())
    @example([(5, 5)])
    @example([(0, 0), (7, 3)])
    @example([(2, 2), (2, 2), (2, 2)])
    @example([(0, 0), (1, 1), (2, 2), (1, 1), (3, 3)])
    @example([(0, 0), (4, 0), (0, 3), (0, 3), (4, 0), (1, 1), (2, 0)])
    def test_matches_monotone_chain(self, points):
        pts = np.array(points, dtype=np.int64)
        assert _hull_area(pts) == monotone_chain_area(points)

    @pytest.mark.parametrize("points, area", [
        ([(4, 7)], 0.0),
        ([(0, 0), (9, 4)], 0.0),
        ([(0, 0), (2, 1), (4, 2), (6, 3), (2, 1)], 0.0),
        ([(5, 0), (5, 9), (5, 2), (5, 9)], 0.0),
        ([(0, 6), (8, 6), (3, 6), (1, 6)], 0.0),
        ([(0, 9), (1, 8), (2, 7), (3, 6)], 0.0),
        ([(0, 0), (0, 3), (4, 0), (4, 3), (2, 1), (2, 2), (1, 0), (3, 3)], 12.0),
        ([(0, 0), (2, 0), (1, 1)], 1.0),
        ([(0, 5), (1, 0), (1, 9), (2, 5)], 9.0),
    ], ids=["one-point", "two-points", "collinear", "single-column", "single-row",
            "diagonal", "rectangle", "one-pixel-columns", "diamond"])
    def test_known_areas(self, points, area):
        """Sets with no 2-D hull, on which Qhull raised QhullError, have area
        0; small hulls have their exact area."""
        assert _hull_area(np.array(points, dtype=np.int64)) == area == monotone_chain_area(points)


class TestDorsumVentralMeans:
    @settings(deadline=None, max_examples=300)
    @example(h=1, w=7, seed=3, integer_cy=False)  # one row: the dorsum is empty
    @given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**32 - 1), st.booleans())
    def test_matches_float_gather(self, h, w, seed, integer_cy):
        """Oracle: the float64 gather of the masked pixels, split at
        ``ly < cy``; ``cy`` is the mask's centroid row or a whole row number."""
        rng = np.random.default_rng(seed)
        px = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
        bits = rng.random((h, w)) < rng.uniform(0.05, 1.0)
        bits[rng.integers(h), rng.integers(w)] = True
        ly, _ = np.nonzero(bits)
        cy = float(rng.integers(h)) if integer_cy else ly.sum() / ly.size
        rgb = px[bits].astype(np.float64)
        dorsum = ly < cy
        expected = [
            rgb[sel].mean(axis=0) / 255.0 if sel.any() else np.zeros(3)
            for sel in (dorsum, ~dorsum)
        ]
        got = _dorsum_ventral_means(px, bits, cy)
        assert [m.tobytes() for m in got] == [m.tobytes() for m in expected]


def gathered_region_features(bits, ib, cpts):
    """Reference for f6-13, f17-22, f33-34 and f43-45: the former formulas,
    which gather over every foreground coordinate, take float64 index
    values, mask each sector, quadrant and band, and count the boundary
    through a crop-sized interior mask. Inputs: a bbox crop ``bits``, its
    index values ``ib`` and bbox-local contour points."""
    h, w = bits.shape
    f = np.zeros(FEATURE_COUNT, dtype=np.float64)
    ly, lx = np.nonzero(bits)  # row-major, bbox-local
    cxl, cyl, _, _, _ = central_moments(ly, lx)

    dxc = cpts[:, 0] - cxl
    dyc = cpts[:, 1] - cyl
    radii = np.hypot(dxc, dyc)
    rmax = float(radii.max()) if radii.size else 0.0
    if rmax > 0:
        ang = np.arctan2(dyc, dxc)
        ang = np.mod(ang + 2.0 * math.pi, 2.0 * math.pi)
        sector = np.minimum((ang // (math.pi / 4.0)).astype(np.int64), 7)
        for s in range(8):
            sel = sector == s
            if sel.any():
                f[6 + s] = float(radii[sel].max()) / rmax

    rear_cols = max(1, (2 * w + 5) // 10)  # round(w / 5)
    f[17] = float(np.count_nonzero(lx >= w - rear_cols)) / (rear_cols * h)

    inner = np.zeros_like(bits)
    inner[1:-1, 1:-1] = (
        bits[:-2, 1:-1] & bits[2:, 1:-1] & bits[1:-1, :-2] & bits[1:-1, 2:]
    )
    f[18] = int(np.count_nonzero(bits & ~inner)) / ly.size

    iv = ib[bits].astype(np.float64)  # row-major, like ly, lx
    top = ly < h / 2.0
    left_half = lx < w / 2.0
    for qi, sel in enumerate(
        (top & left_half, top & ~left_half, ~top & left_half, ~top & ~left_half)
    ):
        if sel.any():
            f[19 + qi] = min(1.0, float(iv[sel].std()) / 128.0)
    f[33] = float(iv.sum() / ly.size) / 255.0
    f[34] = min(1.0, float(iv.std()) / 128.0)

    head_cols = max(1, (w + 2) // 4)  # round(w / 4)
    head_sel = lx < head_cols
    n_dark = max(1, int(np.count_nonzero(head_sel)) // 10)
    order = np.argsort(iv[head_sel], kind="stable")[:n_dark]
    f[43] = float(lx[head_sel][order].sum() / n_dark) / w
    f[44] = float(ly[head_sel][order].sum() / n_dark) / h

    mouth_cols = max(1, (w + 10) // 20)  # round(w / 20)
    my = ly[lx < mouth_cols]
    f[45] = float(my.max() - my.min() + 1) / h
    return np.clip(f, 0.0, 1.0)


REGION_FEATURES = [*range(6, 14), *range(17, 23), 33, 34, 43, 44, 45]


@st.composite
def region_inputs(draw):
    """A random mask in a frame with a margin, of 1 row, 1 column or up to
    48x48, often in several blobs; index values of 256 or of 2-4 levels, so
    that the darkest head pixels tie."""
    h = draw(st.sampled_from([1, draw(st.integers(1, 48))]))
    w = draw(st.sampled_from([1, draw(st.integers(1, 48))]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    bits = rng.random((h, w)) < draw(st.sampled_from([0.3, 0.7, 1.0]))
    bits[0, 0] |= not bits.any()
    top, left, bottom, right = (draw(st.integers(0, 3)) for _ in range(4))
    frame = np.zeros((top + h + bottom, left + w + right), bool)
    frame[top : top + h, left : left + w] = bits
    levels = draw(st.sampled_from([2, 3, 4, 256]))
    idx = (rng.integers(0, levels, frame.shape) * (255 // (levels - 1))).astype(np.uint8)
    return frame, idx


class TestRegionFeatures:
    @settings(deadline=None, max_examples=400)
    @example((np.ones((1, 7), bool), np.arange(7, dtype=np.uint8).reshape(1, 7)))
    @example((np.ones((5, 1), bool), np.zeros((5, 1), np.uint8)))
    @given(region_inputs())
    def test_bbox_slices_match_gathers(self, inputs):
        """The bands, quadrants, sectors, boundary count and intensity
        statistics read from bbox slices and uint8 values give the bytes of
        the per-pixel gathers, float64 copies and masks they replace."""
        frame, idx = inputs
        mask = FishMask.from_bits(frame)
        contour = trace_contour(mask)
        img = RgbImage(np.zeros((*frame.shape, 3), dtype=np.uint8))
        got = extract_features(img, idx, mask, contour, ColorGroups(1, mask.area))
        x0, y0, _, _ = mask.bbox
        cpts = contour.points - np.array([x0, y0], dtype=np.int64)
        expected = gathered_region_features(mask.crop(frame), mask.crop(idx), cpts)
        assert got[REGION_FEATURES].tobytes() == expected[REGION_FEATURES].tobytes()


class TestHeadSide:
    def test_denser_left(self):
        bits = np.zeros((10, 20), dtype=bool)
        bits[2:8, 2:10] = True  # bulky left block
        bits[4:6, 10:18] = True  # thin right tail
        assert find_head_side(FishMask.from_bits(bits)) == "left"

    def test_symmetric_tie_goes_left(self):
        bits = np.zeros((6, 10), dtype=bool)
        bits[2:4, 2:8] = True
        assert find_head_side(FishMask.from_bits(bits)) == "left"


class TestInvariants:
    @pytest.mark.parametrize("seed", range(0, 60, 7))
    def test_values_in_unit_interval(self, seed):
        cfg = synthgen.SynthConfig()
        spec = synthgen.default_families()[seed % 7]
        f = analyze_image(synthgen.render_fish(spec, seed, cfg), PipelineConfig()).features
        assert f.shape == (FEATURE_COUNT,)
        assert np.isfinite(f).all()
        assert (f >= 0.0).all() and (f <= 1.0).all()

    @pytest.mark.parametrize("seed", [1, 6, 13])
    def test_translation_leaves_features_bit_identical(self, seed):
        cfg = synthgen.SynthConfig()
        pcfg = PipelineConfig()
        spec = synthgen.default_families()[seed % 7]
        img = synthgen.render_fish(spec, seed, cfg)
        bg = np.array(cfg.background, dtype=np.uint8)
        fg = np.any(img.pixels != bg, axis=2)
        ys, xs = np.nonzero(fg)
        dx = 13 if xs.max() + 13 < img.width - 1 else -13
        dy = 7 if ys.max() + 7 < img.height - 1 else -7
        shifted = np.empty_like(img.pixels)
        shifted[:] = bg
        shifted[ys + dy, xs + dx] = img.pixels[ys, xs]
        f1 = analyze_image(img, pcfg).features
        f2 = analyze_image(RgbImage(shifted), pcfg).features
        assert np.array_equal(f1, f2)


# seeds 0 and 1 draw the head on the left, 4 and 6 on the right, for every class
FACING_SEEDS = (0, 1, 4, 6)

# sha256 over the analyze_image descriptors of FACING_SEEDS at scales 1.0 and
# 0.5 on the default 320x240 canvas, in that order
DESCRIPTOR_SHA256 = {
    "Istiophoridae": "628a94d540428ba376e57a693d1b754915898ae35c2be02f517e8feb219ad2fe",
    "leiognathidae": "e5ae5aa8a95eee57c604b35f050e2cbb4ac7401a68f5e6d7bb51c85182aa1160",
    "Acropomaatidae": "a69bdc5e868a6c1437c473bea4971cc8122bc47e155780dd6e50519bc3601088",
    "Scombridae": "c47787b901fed68174a56a677dc408793334695fc0438071debc9b48ac1a1b0f",
    "Stromateidae": "b6bc71b2d6042ba16d1af6b5be800824a8821b0e6bf2dcbf596d3de57040237e",
    "Triacanthidae": "eb0b0e5672631008b7a37fe6caa913a35a2cde93328de9c881aef916d63110b9",
    "Poison fish": "5a5b300bd782b0a00ca3718627bf97940839d135d9fa09c315b5a75971b41f58",
}


@pytest.mark.parametrize("spec", synthgen.default_families(), ids=lambda s: s.name)
class TestCanonicalFish:
    def test_seeds_cover_both_facings(self, spec):
        sides = [synthgen.render_params(spec, seed).head_side for seed in FACING_SEEDS]
        assert sides == ["left", "left", "right", "right"]

    def test_descriptor_digest_pinned(self, spec):
        cfg, pcfg = synthgen.SynthConfig(), PipelineConfig()
        digest = hashlib.sha256()
        for seed in FACING_SEEDS:
            for scale in (1.0, 0.5):
                img = synthgen.render_fish(spec, seed, cfg, scale)
                digest.update(analyze_image(img, pcfg).features.tobytes())
        assert digest.hexdigest() == DESCRIPTOR_SHA256[spec.name]

    def test_analyzed_fish_faces_left(self, spec):
        cfg, pcfg = synthgen.SynthConfig(), PipelineConfig()
        for seed in FACING_SEEDS:
            img = synthgen.render_fish(spec, seed, cfg)
            assert find_head_side(analyze_image(img, pcfg).mask) == "left"


class TestCsvExport:
    def test_header_and_formatting(self, tmp_path):
        values = np.linspace(0.0, 1.0, FEATURE_COUNT)
        path = tmp_path / "features.csv"
        write_features_csv(
            path,
            [(values, "Scombridae", False, "elongate", "train"),
             (values, "Poison fish", True, "poison", "test")],
        )
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        assert header[:3] == ["f0", "f1", "f2"]
        assert header[46] == "f46"
        assert header[47:] == ["family", "poison", "cluster", "split"]
        row = lines[1].split(",")
        assert len(row) == FEATURE_COUNT + 4
        assert row[-4:] == ["Scombridae", "0", "elongate", "train"]
        assert lines[2].split(",")[-4:] == ["Poison fish", "1", "poison", "test"]
        # 9 significant digits
        third = float(row[2])
        assert abs(third - values[2]) < 1e-9
