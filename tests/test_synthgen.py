import os
from dataclasses import fields

import numpy as np
import pytest

from fishid.errors import CanvasTooSmall, EmptyManifest, InvalidConfig
from fishid.features import find_head_side
from fishid.imageio import load_manifest
from fishid.segment import extract_mask
from fishid.synthgen import (
    SynthConfig,
    default_families,
    generate_corpus,
    render_fish,
    render_params,
)

TABLE_NAMES = {
    "Istiophoridae", "leiognathidae", "Acropomaatidae", "Scombridae",
    "Stromateidae", "Triacanthidae", "Poison fish",
}


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
