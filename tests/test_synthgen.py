import itertools
import math
import os
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fishid.errors import CanvasTooSmall, EmptyManifest, InvalidConfig, ToolkitError
from fishid.features import find_head_side
from fishid.imageio import RgbImage, filled, load_manifest
from fishid.segment import extract_mask
from fishid.synthgen import (
    _MARGIN,
    FamilySpec,
    SynthConfig,
    _triangle,
    default_families,
    generate_corpus,
    render_fish,
    render_params,
)

TABLE_NAMES = {
    "Istiophoridae", "leiognathidae", "Acropomaatidae", "Scombridae",
    "Stromateidae", "Triacanthidae", "Poison fish",
}


def reference_render(spec, seed, cfg, scale=1.0):
    """The grid renderer: every part is tested over float64 coordinate grids
    of the whole window, and the halves and marks are painted by window-sized
    masks."""
    p = render_params(spec, seed)
    jx, jy = p.jitter

    unit_len = p.body_frac * cfg.width
    a_u = unit_len / 2.0
    b_u = p.aspect * unit_len / 2.0

    def _even(v):
        return 2.0 * round(v / 2.0)

    snout_off = _even(a_u + 0.10 * unit_len) * scale
    tail_off = _even(a_u + p.tail_frac * unit_len) * scale
    up_h = _even(b_u + p.fin_frac * 2.0 * b_u) * scale
    dn_h = _even(b_u + 0.45 * p.fin_frac * 2.0 * b_u) * scale
    apex_dx = _even(0.05 * a_u) * scale
    a = a_u * scale
    b = b_u * scale
    eye_r = 3.0 * scale

    total_w = snout_off + tail_off
    total_h = up_h + dn_h
    free_x = cfg.width - total_w - 2.0 * _MARGIN
    free_y = cfg.height - total_h - 2.0 * _MARGIN
    if free_x < 0 or free_y < 0:
        raise CanvasTooSmall("fish exceeds canvas")
    hdir = -1.0 if p.head_left else 1.0
    left_edge = _MARGIN + jx * free_x
    cx = float(round(left_edge + (snout_off if p.head_left else tail_off)))
    cy = float(round(_MARGIN + jy * free_y + up_h))

    x_lo = max(0, int(cx - max(snout_off, tail_off)) - 2)
    x_hi = min(cfg.width, int(cx + max(snout_off, tail_off)) + 3)
    y_lo = max(0, int(cy - up_h) - 2)
    y_hi = min(cfg.height, int(cy + dn_h) + 3)
    yg, xg = np.mgrid[y_lo:y_hi, x_lo:x_hi].astype(np.float64)
    body = ((xg - cx) / a) ** 2 + ((yg - cy) / b) ** 2 <= 1.0

    snout_base = cx + hdir * 0.78 * a
    snout = _triangle(
        xg, yg, (cx + hdir * snout_off, cy),
        (snout_base, cy - 0.45 * b), (snout_base, cy + 0.45 * b),
    )
    tail_base = cx - hdir * 0.78 * a
    tail = _triangle(
        xg, yg, (cx - hdir * tail_off, cy),
        (tail_base, cy - 0.58 * b), (tail_base, cy + 0.58 * b),
    )
    dfin = _triangle(
        xg, yg, (cx + hdir * 0.32 * a, cy), (cx - hdir * 0.22 * a, cy),
        (cx + hdir * apex_dx, cy - up_h),
    )
    vfin = _triangle(
        xg, yg, (cx + hdir * 0.28 * a, cy), (cx - hdir * 0.18 * a, cy),
        (cx - hdir * apex_dx, cy + dn_h),
    )
    fish = body | snout | tail | dfin | vfin

    px = filled(cfg.height, cfg.width, cfg.background)
    window = px[y_lo:y_hi, x_lo:x_hi]
    window[fish & (yg < cy)] = p.dorsum
    window[fish & (yg >= cy)] = p.ventral

    for ux, uy, ur in p.spots:
        sx = cx + (2.0 * ux - 1.0) * 0.65 * a
        sy = cy + (2.0 * uy - 1.0) * 0.45 * b
        sr = (1.6 + 1.4 * ur) * scale
        spot = (xg - sx) ** 2 + (yg - sy) ** 2 <= sr * sr
        window[spot & fish] = (70, 52, 40)

    ex = cx + hdir * 0.62 * a
    ey = cy - 0.30 * b
    eye = (xg - ex) ** 2 + (yg - ey) ** 2 <= eye_r * eye_r
    window[eye & fish] = (25, 25, 28)
    return RgbImage(px)


def outcome(render, *args):
    """A render's pixel bytes, or the class of the toolkit error it raised."""
    try:
        return render(*args).pixels.tobytes()
    except ToolkitError as exc:
        return type(exc)


@st.composite
def family_specs(draw):
    """A FamilySpec with aspect, tail and fin ranges wider than the default
    families', spotted or not. Below an aspect of about 0.087 a 64-pixel-wide
    canvas rounds a fin's height to 0; the grid renderer then draws that
    fin's base line across the whole window, and the box renderer only the
    base itself."""
    def span(lo, hi):
        low = draw(st.floats(lo, hi))
        return low, draw(st.floats(low, hi))

    def color():
        low = draw(st.tuples(*[st.integers(0, 255)] * 3))
        return low, tuple(draw(st.integers(v, 255)) for v in low)

    return FamilySpec(
        "drawn", "drawn", draw(st.booleans()), aspect=span(0.1, 1.0),
        dorsum_color=color(), ventral_color=color(), tail_fraction=span(0.0, 0.6),
        fin_fraction=span(0.0, 0.8), counts=(1, 1),
    )


class TestDefaultFamilies:
    def test_seven_table_rows(self):
        specs = default_families()
        assert len(specs) == 7
        assert {s.name for s in specs} == TABLE_NAMES

    def test_spot_color_marks_only_poison(self):
        assert sum(s.poison for s in default_families()) == 1
        cfg = SynthConfig()
        for spec in default_families():
            for seed in range(10):
                px = render_fish(spec, seed, cfg).pixels
                spotted = bool(np.all(px == (70, 52, 40), axis=2).any())
                assert spotted == spec.poison, (spec.name, seed)

    def test_specs_differ_in_at_least_two_parameters(self):
        specs = default_families()
        params = [f.name for f in fields(specs[0]) if f.name not in ("name", "cluster", "counts")]
        for i, a in enumerate(specs):
            for b in specs[i + 1 :]:
                differing = sum(getattr(a, p) != getattr(b, p) for p in params)
                assert differing >= 2, (a.name, b.name)

    def test_default_split_counts(self):
        specs = default_families()
        assert sum(s.counts[0] for s in specs) == 100
        assert sum(s.counts[1] for s in specs) == 85
        assert next(s.counts for s in specs if s.poison) == (25, 25)


class TestRenderFish:
    def test_deterministic(self):
        cfg = SynthConfig(seed=0)
        spec = default_families()[3]
        a = render_fish(spec, 99, cfg)
        b = render_fish(spec, 99, cfg)
        assert np.array_equal(a.pixels, b.pixels)

    def test_canvas_too_small(self):
        cfg = SynthConfig(width=64, height=64)
        with pytest.raises(CanvasTooSmall):
            render_fish(default_families()[0], 1, cfg, scale=3.0)

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
    def test_scale_must_be_positive_and_finite(self, scale):
        with pytest.raises(InvalidConfig, match="scale"):
            render_fish(default_families()[0], 1, SynthConfig(), scale=scale)

    @settings(deadline=None, max_examples=300)
    @given(
        family_specs(),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["left", "right"]),
        st.floats(0.25, 2.0),
        st.integers(64, 1600),
        st.integers(64, 820),
    )
    def test_matches_reference_render(self, spec, seed, side, scale, width, height):
        """Each part tested over its own box, from one row and one column of
        coordinates, draws the grid renderer's bytes or raises its error."""
        seed = next(s for s in itertools.count(seed) if render_params(spec, s).head_side == side)
        cfg = SynthConfig(width=width, height=height)
        want = outcome(reference_render, spec, seed, cfg, scale)
        assert outcome(render_fish, spec, seed, cfg, scale) == want

    def test_peak_memory_is_the_canvas_and_the_parts(self):
        """No window-sized float64 array: a 1600x820 render's tracemalloc peak
        stays within 2.5 MiB of its canvas for three seeds of every family."""
        cfg = SynthConfig(width=1600, height=820)
        for spec in default_families():
            for seed in range(3):
                tracemalloc.start()
                try:
                    img = render_fish(spec, seed, cfg)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak <= img.pixels.nbytes + 2.5 * 2**20, (spec.name, seed)

    @pytest.mark.parametrize("seed", range(0, 40, 5))
    def test_mask_extraction_smoke(self, seed):
        cfg = SynthConfig()
        spec = default_families()[seed % 7]
        img = render_fish(spec, seed, cfg)
        mask = extract_mask(img, cfg.background, 40.0)
        assert mask.area > 100

    def test_margin_from_borders(self):
        cfg = SynthConfig()
        for seed in range(12):
            spec = default_families()[seed % 7]
            img = render_fish(spec, seed, cfg)
            bg = np.array(cfg.background, dtype=np.uint8)
            ys, xs = np.nonzero(np.any(img.pixels != bg, axis=2))
            assert xs.min() >= 5 and ys.min() >= 5
            assert xs.max() < img.width - 5 and ys.max() < img.height - 5

    def test_head_side_agreement(self):
        cfg = SynthConfig()
        specs = default_families()
        agree = 0
        for seed in range(200):
            spec = specs[seed % 7]
            img = render_fish(spec, seed, cfg)
            mask = extract_mask(img, cfg.background, 40.0)
            agree += find_head_side(mask) == render_params(spec, seed).head_side
        assert agree >= 190  # at least 95 percent


class TestGenerateCorpus:
    def test_default_counts(self, tmp_path):
        manifest, paths = generate_corpus(tmp_path / "c", SynthConfig(seed=2))
        entries = load_manifest(manifest)
        assert sum(e.split == "train" for e in entries) == 100
        assert sum(e.split == "test" for e in entries) == 85
        assert len(paths) == 185
        assert all(os.path.exists(p) for p in paths)

    def test_regeneration_is_byte_identical(self, tmp_path):
        cfg = SynthConfig(
            seed=5,
            train_counts={n: 1 for n in TABLE_NAMES},
            test_counts={n: 1 for n in TABLE_NAMES},
        )
        m1, p1 = generate_corpus(tmp_path / "a", cfg)
        m2, p2 = generate_corpus(tmp_path / "b", cfg)
        assert open(m1, "rb").read() == open(m2, "rb").read()
        for a, b in zip(sorted(p1), sorted(p2)):
            assert open(a, "rb").read() == open(b, "rb").read()

    def test_zero_counts_gives_header_only_manifest(self, tmp_path):
        cfg = SynthConfig(
            seed=1,
            train_counts={n: 0 for n in TABLE_NAMES},
            test_counts={n: 0 for n in TABLE_NAMES},
        )
        manifest, paths = generate_corpus(tmp_path / "c", cfg)
        assert paths == []
        assert open(manifest).read() == "path,family,poison,cluster,split\n"
        with pytest.raises(EmptyManifest):
            load_manifest(manifest)

    @pytest.mark.parametrize("counts", [
        {"train_counts": {"scombridae": 1}},
        {"test_counts": {"Scombridae": -1}},
    ], ids=["unknown-family", "negative-count"])
    def test_bad_counts_rejected(self, counts):
        with pytest.raises(InvalidConfig):
            SynthConfig(**counts)

    def test_hierarchy_is_consistent(self, tmp_path):
        cfg = SynthConfig(
            seed=3,
            train_counts={n: 1 for n in TABLE_NAMES},
            test_counts={n: 1 for n in TABLE_NAMES},
        )
        manifest, _ = generate_corpus(tmp_path / "c", cfg)
        entries = load_manifest(manifest)  # raises if inconsistent
        poison = {e.family for e in entries if e.poison}
        assert poison == {"Poison fish"}


def test_default_corpus_classes_are_separable(tmp_path):
    """Per class, the nearest other centroid sits at least three mean
    intra-class distances away (at least 6 of 7 classes)."""
    from fishid.pipeline import extract_manifest_features

    manifest, _ = generate_corpus(tmp_path / "c", SynthConfig(seed=0))
    entries, feats = extract_manifest_features(manifest)
    train = np.array([e.split == "train" for e in entries])
    families = sorted({e.family for e in entries})
    labels = np.array([families.index(e.family) for e in entries])
    centroids = [feats[train & (labels == c)].mean(axis=0) for c in range(len(families))]
    passed = 0
    for c in range(len(families)):
        block = feats[train & (labels == c)]
        intra = np.linalg.norm(block - centroids[c], axis=1).mean()
        nearest = min(
            np.linalg.norm(centroids[c] - centroids[o])
            for o in range(len(families))
            if o != c
        )
        passed += nearest >= 3.0 * intra
    assert passed >= 6
