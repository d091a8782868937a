import functools
import json
import operator
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fishid import dtree, mlp, pipeline, synthgen
from fishid.errors import (
    ClassMissing,
    CorruptModel,
    EmptyForeground,
    EmptyTestSet,
    EmptyTrainingSet,
    IoFailure,
    ToolkitError,
    VersionMismatch,
)
from fishid.features import FEATURE_COUNT, FEATURE_LAYOUT_VERSION, extract_features, find_head_side
from fishid.imageio import (
    RgbImage,
    encode_ppm,
    load_manifest,
    planes,
    sq_distance,
    to_indexed,
    write_manifest,
)
from fishid.mlp import TrainConfig
from fishid.preprocess import (
    _normalize_rotation,
    filter_and_unify,
    median_filter,
    normalize_rotation,
    unify_background,
)
from fishid.segment import FishMask, extract_mask, group_by_color, trace_contour
from fishid.pipeline import (
    evaluate,
    extract_manifest_features,
    format_report,
    load_bundle,
    run_pipeline,
    save_bundle,
    train_bundle,
)
from test_preprocess import framed


def write_blank_ppm(path, w=64, h=64, color=(200, 200, 200)):
    px = np.empty((h, w, 3), dtype=np.uint8)
    px[:] = color
    with open(path, "wb") as fh:
        fh.write(encode_ppm(RgbImage(px)))


class TestRunPipeline:
    def test_classifies_and_returns_intermediates(self, small_corpus, small_bundle):
        manifest, _ = small_corpus
        entries = load_manifest(manifest)
        entry = next(e for e in entries if e.split == "test")
        path = os.path.join(os.path.dirname(manifest), entry.path)
        result = run_pipeline(path, small_bundle)
        assert result.features.shape == (FEATURE_COUNT,)
        assert result.scores.shape == (len(small_bundle.registry),)
        assert result.label == small_bundle.registry.label(result.class_index)
        assert result.analysis.mask.area > 0

    def test_blank_image_fails_with_staged_empty_foreground(self, tmp_path, small_bundle):
        p = tmp_path / "blank.ppm"
        write_blank_ppm(p)
        with pytest.raises(EmptyForeground) as err:
            run_pipeline(p, small_bundle)
        assert err.value.stage is not None

    def test_missing_file(self, small_bundle):
        with pytest.raises(IoFailure):
            run_pipeline("/nonexistent/image.ppm", small_bundle)



class TestAnalyzeImage:
    @pytest.mark.parametrize("family", range(7))
    def test_mirrored_mask_bookkeeping(self, family):
        """A right-facing fish is mirrored; the mirrored mask's bbox and area
        are derived from the unmirrored ones and must equal a rescan's."""
        spec = synthgen.default_families()[family]
        seed = next(s for s in range(50) if not synthgen.render_params(spec, s).head_left)
        img = synthgen.render_fish(spec, seed, synthgen.SynthConfig())
        config = pipeline.PipelineConfig()
        mask = pipeline.analyze_image(img, config).mask
        unified, bg = unify_background(median_filter(img, 1), config.preprocess)
        unmirrored = extract_mask(normalize_rotation(unified, bg), bg, config.fg_tolerance)
        assert find_head_side(unmirrored) == "right"
        assert np.array_equal(mask.bits, unmirrored.bits[:, ::-1])
        rescanned = FishMask.from_bits(mask.bits)
        assert (mask.area, mask.bbox) == (rescanned.area, rescanned.bbox)

    @pytest.mark.parametrize("family", range(7))
    def test_mirrored_frames_are_contiguous_copies(self, family):
        """A right-facing fish's mask crop is a C-contiguous array the
        pipeline made, equal to the unmirrored mask's crop reversed; the
        caller's pixels are neither shared nor changed."""
        spec = synthgen.default_families()[family]
        seed = next(s for s in range(50) if not synthgen.render_params(spec, s).head_left)
        img = synthgen.render_fish(spec, seed, synthgen.SynthConfig())
        before = img.pixels.copy()
        config = pipeline.PipelineConfig()
        analysis = pipeline.analyze_image(img, config)
        unified, bg = unify_background(median_filter(img, 1), config.preprocess)
        mask = extract_mask(normalize_rotation(unified, bg), bg, config.fg_tolerance)
        assert find_head_side(mask) == "right"
        got = analysis.mask.box_bits
        assert got.flags.c_contiguous
        assert np.array_equal(got, mask.box_bits[:, ::-1])
        assert np.array_equal(analysis.mask.bits, mask.bits[:, ::-1])
        assert not np.shares_memory(got, img.pixels)
        assert np.array_equal(img.pixels, before)

    @pytest.mark.parametrize("family, seed", [(3, 0), (0, 4), (5, 4)])
    def test_no_frame_after_decode(self, family, seed):
        """A small fish on a 1600x820 frame, facing left, facing right and
        resampled. Each stage after decode holds only the pixels of its box,
        so the one frame-sized temporary left is ``differs_window``'s bool
        compare of the raw rows, as many bytes as the RGB frame. The bound
        leaves a quarter frame for the box-sized arrays; a filled frame
        beside the compare exceeds it."""
        cfg = synthgen.SynthConfig(width=1600, height=820)
        img = synthgen.render_fish(synthgen.default_families()[family], seed, cfg, 0.25)
        tracemalloc.start()
        try:
            pipeline.analyze_image(img, pipeline.PipelineConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * img.pixels.nbytes


@st.composite
def flat_scenes(draw):
    """A frame of one background color holding a textured ellipse (at an angle
    or axis-aligned, possibly cut by a frame edge), a patch whose color differs
    from the background in one channel only, an isolated pixel, or none."""
    h, w = draw(st.integers(12, 40)), draw(st.integers(12, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bg = rng.integers(0, 256, 3).astype(np.uint8)
    px = np.empty((h, w, 3), dtype=np.uint8)
    px[:] = bg
    if draw(st.booleans()):
        edge = draw(st.sampled_from([None, "top", "bottom", "left", "right"]))
        cy = {"top": 0, "bottom": h - 1}.get(edge, draw(st.integers(4, h - 5)))
        cx = {"left": 0, "right": w - 1}.get(edge, draw(st.integers(4, w - 5)))
        angle = draw(st.sampled_from([0.0, 0.4, -0.9, 1.3]))
        a, b = draw(st.floats(3.0, 12.0)), draw(st.floats(2.0, 3.0))
        ys, xs = np.mgrid[:h, :w]
        u = (xs - cx) * np.cos(angle) + (ys - cy) * np.sin(angle)
        v = (ys - cy) * np.cos(angle) - (xs - cx) * np.sin(angle)
        inside = (u / a) ** 2 + (v / b) ** 2 <= 1
        far = [bg ^ 0x80, bg ^ 0xC0, bg ^ 0xA0]  # each channel at least 64 from bg
        px[inside] = np.array(far)[rng.integers(0, 3, int(inside.sum()))]
    if draw(st.booleans()):
        c, delta = draw(st.integers(0, 2)), draw(st.sampled_from([1, 30, 60, 200]))
        y, x, n = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1)), draw(st.integers(1, 4))
        px[y : y + n, x : x + n, c] = (int(bg[c]) + delta) % 256
    return RgbImage(px)


def analysis_or_error(img):
    try:
        return pipeline.analyze_image(img, pipeline.PipelineConfig())
    except ToolkitError as exc:
        return type(exc), exc.stage


def whole_frame_analysis(img):
    """``analyze_image`` as the public stages, each scanning the whole frame,
    with reversed copies for a right-facing fish: ``(mask, features)``, or a
    ToolkitError's type and the stage ``analyze_image`` names."""
    config = pipeline.PipelineConfig()
    pre = config.preprocess
    stage = "background"
    try:
        unified, bg = unify_background(median_filter(img, pre.median_radius), pre)
        stage = "rotation"
        rotated = normalize_rotation(unified, bg)
        stage = "mask"
        mask = extract_mask(rotated, bg, config.fg_tolerance)
        if find_head_side(mask) == "right":
            rotated = RgbImage(rotated.pixels[:, ::-1].copy())
            mask = FishMask.from_bits(mask.bits[:, ::-1].copy())
        stage = "contour"
        contour = trace_contour(mask)
        stage = "color-groups"
        groups = group_by_color(mask, rotated, config.group_tolerance)
        stage = "features"
        features = extract_features(rotated, to_indexed(rotated), mask, contour, groups)
    except ToolkitError as exc:
        return type(exc), stage
    return mask, features


def assert_field(window, bg, dist):
    """``dist`` is int32, and where it is above 0 (the only pixels of
    ``window`` that count) it is their squared distance to ``bg``; returns
    that distance for the whole window."""
    assert dist.dtype == np.int32
    d = sq_distance(planes(window), bg)
    assert np.array_equal(dist[dist > 0], d[dist > 0])
    return d


def assert_stage_fields(img):
    """Each stage of ``analyze_image`` hands on the pixels of its box and
    their distance field, which painted by the rule that a pixel is
    background where its distance is 0 are the frame its public stage
    returns; returns whether the rotation resampled."""
    pre = pipeline.PipelineConfig().preprocess
    shape = img.pixels.shape[:2]
    unified, bg = unify_background(median_filter(img, pre.median_radius), pre)
    window, bg_window, box, dist = filter_and_unify(img, pre.median_radius, pre.background_tolerance)
    assert bg_window == bg
    assert framed(shape, window, bg, box, dist).tobytes() == unified.pixels.tobytes()
    if box is None:
        return False
    d = assert_field(window, bg, dist)
    d[d <= pre.background_tolerance**2] = 0
    assert np.array_equal(dist, d)
    if not dist.any():
        with pytest.raises(EmptyForeground):
            _normalize_rotation(shape, window, box, dist)
        return False
    rotated, box, dist = _normalize_rotation(shape, window, box, dist)
    assert_field(rotated, bg, dist)
    assert framed(shape, rotated, bg, box, dist).tobytes() == normalize_rotation(unified, bg).pixels.tobytes()
    return not np.shares_memory(rotated, window)


class TestBoundedScans:
    @settings(deadline=None, max_examples=200)
    @given(flat_scenes())
    def test_bounded_scans_equal_full_scans(self, img):
        """``analyze_image`` hands each stage's box and distance field to the
        next and mirrors bbox crops; the public stages, which scan the whole
        frame, and reversed copies must give the same result."""
        bounded = analysis_or_error(img)
        full = whole_frame_analysis(img)
        if isinstance(full[0], type):
            assert bounded == full
            return
        mask, features = full
        assert bounded.features.tobytes() == features.tobytes()
        assert np.array_equal(bounded.mask.bits, mask.bits)
        assert (bounded.mask.area, bounded.mask.bbox) == (mask.area, mask.bbox)

    def test_all_background_frame_fails_at_the_rotation(self):
        px = np.empty((20, 30, 3), dtype=np.uint8)
        px[:] = (10, 200, 30)
        assert analysis_or_error(RgbImage(px)) == (EmptyForeground, "rotation")


class TestDistanceField:
    @settings(deadline=None, max_examples=200)
    @given(flat_scenes())
    def test_each_stage_hands_on_the_field_of_its_frame(self, img):
        assert_stage_fields(img)

    @pytest.mark.parametrize("family", range(7))
    def test_synthgen_fish(self, family):
        """Families 1 and 5 are resampled, the others are not."""
        img = synthgen.render_fish(synthgen.default_families()[family], 4, synthgen.SynthConfig())
        assert assert_stage_fields(img) == (family in (1, 5))


def spiral(ys, xs):
    """A one-pixel-wide square spiral inside a two-pixel margin: the even
    rings r of the frame, each cut just below its top-left corner, where a
    pixel of odd ring r + 1 joins it to ring r + 2."""
    h, w = ys.shape
    r = np.minimum(np.minimum(ys, xs), np.minimum(h - 1 - ys, w - 1 - xs)) - 2
    return (r >= 0) & ((r % 2 == 0) != ((xs == r + 2) & (ys == xs + 1)))


# 1600x820 frames that stress the pixel passes, as the rows (ys) and columns
# (xs) drawn dark on white: concentric rings, a one-pixel checkerboard, 50%
# binary noise, one color everywhere, and a spiral whose contour walks both
# sides of a 650k-pixel path
ADVERSARIAL = {
    "rings": lambda ys, xs: np.hypot(ys - 410, xs - 800).astype(np.int64) // 8 % 2 == 1,
    "checkerboard": lambda ys, xs: (ys + xs) % 2 == 1,
    "noise": lambda ys, xs: np.random.default_rng(0).random(ys.shape) < 0.5,
    "all-foreground": lambda ys, xs: np.ones(ys.shape, dtype=bool),
    "spiral": spiral,
}


class TestAdversarialFrames:
    @pytest.mark.parametrize("name", ADVERSARIAL)
    def test_descriptor_or_staged_error(self, name):
        dark = ADVERSARIAL[name](*np.mgrid[:820, :1600])[..., np.newaxis]
        img = RgbImage(np.where(dark, np.uint8(40), np.uint8(255)).repeat(3, axis=2))
        try:
            features = pipeline.analyze_image(img, pipeline.PipelineConfig()).features
        except ToolkitError as exc:
            assert exc.stage is not None
        else:
            assert features.shape == (FEATURE_COUNT,)
            assert np.all((features >= 0.0) & (features <= 1.0))


class TestTrainBundle:
    def test_deterministic_model_bytes(self, small_corpus, tmp_path):
        manifest, _ = small_corpus
        cfg = TrainConfig(seed=5, max_epochs=60, init_scale=pipeline.PIPELINE_INIT_SCALE)
        b1 = train_bundle(manifest, train_cfg=cfg, hidden=8)
        b2 = train_bundle(manifest, train_cfg=cfg, hidden=8)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_bundle(b1, p1)
        save_bundle(b2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_class_missing(self, small_corpus, tmp_path):
        manifest, _ = small_corpus
        entries = load_manifest(manifest)
        pruned = [e for e in entries if not (e.family == "Scombridae" and e.split == "train")]
        with pytest.raises(ClassMissing):
            train_bundle(_relocated(manifest, pruned, tmp_path), hidden=4)

    def test_no_train_rows(self, small_corpus, tmp_path):
        manifest, _ = small_corpus
        entries = [e for e in load_manifest(manifest) if e.split == "test"]
        with pytest.raises(EmptyTrainingSet):
            train_bundle(_relocated(manifest, entries, tmp_path), hidden=4)


def _relocated(manifest, entries, tmp_path):
    """Write a manifest variant next to the original corpus images."""
    out = os.path.join(os.path.dirname(manifest), f"variant_{len(entries)}.csv")
    write_manifest(out, entries)
    return out


class TestTrainingFit:
    def test_cascade_fits_its_training_split(self, small_corpus, small_bundle):
        """Tree over trained network outputs reproduces the train labels."""
        manifest, _ = small_corpus
        base = os.path.dirname(manifest)
        entries = [e for e in load_manifest(manifest) if e.split == "train"]
        hits = 0
        for e in entries:
            result = run_pipeline(os.path.join(base, e.path), small_bundle)
            hits += result.class_index == small_bundle.registry.index_of(e.family)
        assert hits / len(entries) >= 0.99


class TestEvaluate:
    def test_report_consistency(self, small_corpus, small_bundle):
        manifest, _ = small_corpus
        report = evaluate(small_bundle, manifest)
        entries = [e for e in load_manifest(manifest) if e.split == "test"]
        assert report.total == len(entries)
        # confusion row sums equal per-class test counts
        for i, name in enumerate(report.classes):
            expected = sum(e.family == name for e in entries)
            assert int(report.confusion[i].sum()) == expected
        assert report.accuracy == np.trace(report.confusion) / report.total
        assert 0.0 <= report.poison_recall <= 1.0
        text = format_report(report)
        assert "accuracy" in text and "poison recall" in text

    def test_empty_sums_give_zero_ratios(self, small_corpus, small_bundle, monkeypatch):
        """Every test row predicted as class 0: each other class's column is
        empty (precision 0.0), and only class 0's row has a hit."""
        manifest, _ = small_corpus
        monkeypatch.setattr(pipeline, "_classify", lambda bundle, features: (None, 0))
        report = evaluate(small_bundle, manifest)
        rows = report.confusion.sum(axis=1)
        assert report.confusion[:, 1:].sum() == 0
        assert report.precision == [rows[0] / report.total] + [0.0] * (len(rows) - 1)
        assert report.recall == [1.0] + [0.0] * (len(rows) - 1)

    def test_report_to_dict(self):
        report = pipeline.EvalReport(("a", "b"), np.array([[2, 1], [0, 3]]), 5 / 6,
                                     [1.0, 0.75], [2 / 3, 1.0], 1.0, 6)
        assert pipeline.report_to_dict(report) == {
            "accuracy": 5 / 6, "classes": ["a", "b"], "confusion": [[2, 1], [0, 3]],
            "poison_recall": 1.0, "precision": [1.0, 0.75], "recall": [2 / 3, 1.0], "total": 6,
        }

    def test_empty_test_split(self, small_corpus, tmp_path):
        manifest, _ = small_corpus
        entries = [e for e in load_manifest(manifest) if e.split == "train"]
        m2 = _relocated(manifest, entries, tmp_path)
        bundle = train_bundle(m2, train_cfg=TrainConfig(seed=1, max_epochs=5,
                                                        init_scale=pipeline.PIPELINE_INIT_SCALE),
                              hidden=4)
        with pytest.raises(EmptyTestSet):
            evaluate(bundle, m2)


class TestPersistence:
    def test_round_trip_predicts_identically(self, small_bundle, tmp_path):
        p = tmp_path / "model.json"
        save_bundle(small_bundle, p)
        loaded = load_bundle(p)
        rng = np.random.default_rng(17)
        for _ in range(100):
            x = rng.uniform(0, 1, FEATURE_COUNT)
            s1 = mlp.forward(small_bundle.mlp, x)
            s2 = mlp.forward(loaded.mlp, x)
            assert np.array_equal(s1, s2)
            assert dtree.predict_class(small_bundle.tree, s1) == dtree.predict_class(loaded.tree, s2)

    def test_loaded_config_matches(self, small_bundle, tmp_path):
        p = tmp_path / "model.json"
        save_bundle(small_bundle, p)
        loaded = load_bundle(p)
        assert loaded.config == small_bundle.config
        assert loaded.registry == small_bundle.registry
        assert json.loads(p.read_text())["feature_layout_version"] == FEATURE_LAYOUT_VERSION

    def test_hierarchy_reloads_as_labels(self, small_bundle, tmp_path):
        p = tmp_path / "model.json"
        save_bundle(small_bundle, p)
        entries = load_bundle(p).registry.entries
        assert entries == small_bundle.registry.entries
        assert all(type(e) is dtree.HierarchicalLabel for e in entries)
        assert any(e.poison and e.family == "" for e in entries)

    def test_version_mismatch(self, small_bundle, tmp_path):
        p = tmp_path / "model.json"
        save_bundle(small_bundle, p)
        doc = json.loads(p.read_text())
        doc["version"] = 999
        p.write_text(json.dumps(doc))
        with pytest.raises(VersionMismatch):
            load_bundle(p)

    def test_truncated_file(self, small_bundle, tmp_path):
        p = tmp_path / "model.json"
        save_bundle(small_bundle, p)
        p.write_bytes(p.read_bytes()[:300])
        with pytest.raises(CorruptModel):
            load_bundle(p)

    def test_corrupt_shapes(self, small_bundle, tmp_path):
        p = tmp_path / "model.json"
        save_bundle(small_bundle, p)
        doc = json.loads(p.read_text())
        doc["mlp"]["weights"][0] = [[0.0, 1.0]]
        p.write_text(json.dumps(doc))
        with pytest.raises(CorruptModel):
            load_bundle(p)

    def test_non_finite_weights_rejected(self, small_bundle, tmp_path):
        p = tmp_path / "model.json"
        save_bundle(small_bundle, p)
        doc = json.loads(p.read_text())
        doc["mlp"]["weights"][0][0][0] = 1e400  # serializes as Infinity
        p.write_text(json.dumps(doc))
        with pytest.raises(CorruptModel):
            load_bundle(p)

    def test_missing_file(self):
        with pytest.raises(IoFailure):
            load_bundle("/nonexistent/model.json")

    def test_failed_save_leaves_no_temp_file(self, small_bundle, tmp_path):
        target = tmp_path / "model.json"
        target.mkdir()  # the temp file is written, the rename onto it fails
        with pytest.raises(IoFailure):
            save_bundle(small_bundle, target)
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    @pytest.mark.parametrize("nodes", [
        [{"f": 0, "t": 0.5, "l": 0, "r": 0}],  # node 0 is its own child
        [{"f": 0, "t": 0.5, "l": 1, "r": 2}, {"leaf": 0}, {"f": 0, "t": 0.5, "l": 0, "r": 1}],
        [],
    ], ids=["self-loop", "back-edge", "empty"])
    def test_tree_must_be_preorder(self, small_bundle, tmp_path, nodes):
        def edit(doc):
            doc["tree"]["nodes"] = nodes
        with pytest.raises(CorruptModel):
            load_bundle(_edited_model(small_bundle, tmp_path, edit))

    def test_orphan_node_rejected(self, small_bundle, tmp_path):
        def edit(doc):
            doc["tree"]["nodes"].append({"leaf": 0})
        with pytest.raises(CorruptModel, match="child of 0 nodes"):
            load_bundle(_edited_model(small_bundle, tmp_path, edit))

    def test_shared_child_rejected(self, small_bundle, tmp_path):
        def edit(doc):
            root = doc["tree"]["nodes"][0]
            assert "leaf" not in root
            root["r"] = root["l"]
        with pytest.raises(CorruptModel, match="child of 2 nodes"):
            load_bundle(_edited_model(small_bundle, tmp_path, edit))

    def test_input_width_must_be_the_descriptor(self, small_bundle, tmp_path):
        def edit(doc):  # 3 inputs, with the weights cut to match
            doc["mlp"]["layer_sizes"][0] = 3
            doc["mlp"]["weights"][0] = [row[:3] + row[-1:] for row in doc["mlp"]["weights"][0]]
        with pytest.raises(CorruptModel, match="input layer"):
            load_bundle(_edited_model(small_bundle, tmp_path, edit))

    @pytest.mark.parametrize("shape", ["hidden-0", "two-sizes", "four-sizes", "outputs-not-classes"])
    def test_network_shape_must_match(self, small_bundle, tmp_path, shape):
        def edit(doc):  # each with the weights cut to match
            net = doc["mlp"]
            sizes, (w0, w1) = net["layer_sizes"], net["weights"]
            if shape == "hidden-0":
                sizes[1] = 0
                net["weights"] = [[], [row[-1:] for row in w1]]
            elif shape == "two-sizes":
                net["layer_sizes"] = [sizes[0], sizes[2]]
                net["weights"] = [w0[: sizes[2]]]
            elif shape == "four-sizes":
                net["layer_sizes"] = [sizes[0], sizes[1], sizes[1], sizes[2]]
                net["weights"] = [w0, [[0.0] * (sizes[1] + 1)] * sizes[1], w1]
            else:
                sizes[2] -= 1
                net["weights"] = [w0, w1[:-1]]
        with pytest.raises(CorruptModel, match="layer sizes"):
            load_bundle(_edited_model(small_bundle, tmp_path, edit))

    def test_nan_background_tolerance(self, small_bundle, tmp_path):
        def edit(doc):
            doc["preprocess"]["background_tolerance"] = float("nan")
        with pytest.raises(CorruptModel):
            load_bundle(_edited_model(small_bundle, tmp_path, edit))

    @pytest.mark.parametrize("key, value", [
        ("poison", "no"), ("poison", 0), ("cluster", 3), ("family", None),
    ])
    def test_hierarchy_types(self, small_bundle, tmp_path, key, value):
        def edit(doc):
            doc["hierarchy"][doc["classes"][0]][key] = value
        with pytest.raises(CorruptModel, match="what save_bundle writes"):
            load_bundle(_edited_model(small_bundle, tmp_path, edit))

    def test_feature_layout_mismatch(self, small_bundle, tmp_path):
        def edit(doc):
            doc["feature_layout_version"] = 99
        with pytest.raises(VersionMismatch):
            load_bundle(_edited_model(small_bundle, tmp_path, edit))

    @pytest.mark.parametrize("key, value", [
        ("fg_tolerance", -1.0), ("fg_tolerance", 0.0), ("fg_tolerance", float("nan")),
        ("group_tolerance", -1.0), ("bands", 0),
    ])
    def test_invalid_pipeline_config(self, small_bundle, tmp_path, key, value):
        def edit(doc):
            doc["segment"][key] = value
        with pytest.raises(CorruptModel):
            load_bundle(_edited_model(small_bundle, tmp_path, edit))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_threshold_rejected(self, small_bundle, tmp_path, value):
        def edit(doc):  # json writes NaN and Infinity, and reads them back
            doc["tree"]["nodes"][0]["t"] = value
        with pytest.raises(CorruptModel, match="threshold"):
            load_bundle(_edited_model(small_bundle, tmp_path, edit))

    @pytest.mark.parametrize("field, value", [
        ("layer_sizes", 24.0), ("f", 0.5), ("f", True), ("l", 1.0), ("r", False),
        ("leaf", True), ("median_radius", 1.9), ("median_radius", True), ("bands", 4.5),
    ])
    def test_integer_fields_must_be_json_integers(self, small_bundle, tmp_path, field, value):
        def edit(doc):
            nodes = doc["tree"]["nodes"]
            if field == "layer_sizes":
                doc["mlp"]["layer_sizes"][1] = value
            elif field == "leaf":
                next(n for n in nodes if "leaf" in n)["leaf"] = value
            elif field == "median_radius":
                doc["preprocess"][field] = value
            elif field == "bands":
                doc["segment"][field] = value
            else:
                nodes[0][field] = value
        with pytest.raises(CorruptModel, match="what save_bundle writes"):
            load_bundle(_edited_model(small_bundle, tmp_path, edit))

    @pytest.mark.parametrize("keys, value", [
        (("tree", "nodes", 0, "t"), "0.5"),
        (("tree", "nodes", 0, "t"), True),
        (("version",), True),
        (("version",), 1.0),
        (("feature_layout_version",), 1.9),
        (("feature_layout_version",), "1"),
        (("preprocess", "background_tolerance"), "25"),
        (("segment", "fg_tolerance"), True),
        (("segment", "fg_tolerance"), 35.0),
        (("preprocess", "median_radius"), 0),
        (("preprocess", "median_radius"), 2),
        (("mlp", "weights", 0, 0, 0), "0.5"),
        (("comment",), "hand edited"),
        (("mlp", "activation"), "tanh"),
    ], ids=[
        "t-string", "t-true", "version-true", "version-float", "layout-float",
        "layout-string", "background-tolerance-string", "fg-tolerance-true",
        "fg-tolerance-other", "median-radius-0", "median-radius-2", "weight-string",
        "unknown-key", "activation-other",
    ])
    def test_only_what_save_bundle_writes_loads(self, small_bundle, tmp_path, keys, value):
        def edit(doc):
            *path, last = keys
            functools.reduce(operator.getitem, path, doc)[last] = value
        with pytest.raises((CorruptModel, VersionMismatch)):
            load_bundle(_edited_model(small_bundle, tmp_path, edit))

    def test_repeated_class_names_rejected(self, small_bundle, tmp_path):
        def edit(doc):  # the second class takes the first one's name
            first, second = doc["classes"][:2]
            doc["classes"][1] = first
            del doc["hierarchy"][second]
        with pytest.raises(CorruptModel, match="class names repeat"):
            load_bundle(_edited_model(small_bundle, tmp_path, edit))


def _edited_model(bundle, tmp_path, edit):
    """Save ``bundle``, apply ``edit`` to the JSON document, return the path."""
    p = tmp_path / "model.json"
    save_bundle(bundle, p)
    doc = json.loads(p.read_text())
    edit(doc)
    p.write_text(json.dumps(doc))
    return p


class TestExtractFeatures:
    def test_rows_match_manifest_order(self, small_corpus):
        manifest, _ = small_corpus
        entries, rows = extract_manifest_features(manifest)
        assert rows.shape == (len(entries), FEATURE_COUNT)
        assert np.isfinite(rows).all()
        assert (rows >= 0).all() and (rows <= 1).all()
