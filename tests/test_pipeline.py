import functools
import json
import operator
import os

import numpy as np
import pytest

from fishid import dtree, mlp, pipeline, synthgen
from fishid.errors import (
    ClassMissing,
    CorruptModel,
    EmptyForeground,
    EmptyTestSet,
    EmptyTrainingSet,
    IoFailure,
    VersionMismatch,
)
from fishid.features import FEATURE_COUNT, FEATURE_LAYOUT_VERSION, find_head_side
from fishid.imageio import RgbImage, encode_ppm, load_manifest, write_manifest
from fishid.mlp import TrainConfig
from fishid.preprocess import (
    PreprocessConfig,
    median_filter,
    normalize_rotation,
    unify_background,
)
from fishid.segment import FishMask, extract_mask
from fishid.pipeline import (
    evaluate,
    extract_manifest_features,
    format_report,
    load_bundle,
    run_pipeline,
    save_bundle,
    train_bundle,
)


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

    @pytest.mark.parametrize("radius", [0, 1])
    def test_mirrored_image_leaves_the_input_alone(self, radius):
        """A right-facing fish's image is a reversed view of a frame the
        pipeline made (with radius 0 the median filter returns its input)."""
        spec = synthgen.default_families()[0]
        seed = next(s for s in range(50) if not synthgen.render_params(spec, s).head_left)
        img = synthgen.render_fish(spec, seed, synthgen.SynthConfig())
        before = img.pixels.copy()
        config = pipeline.PipelineConfig(preprocess=PreprocessConfig(median_radius=radius))
        analysis = pipeline.analyze_image(img, config)
        unified, bg = unify_background(median_filter(img, radius), config.preprocess)
        rotated = normalize_rotation(unified, bg)
        assert find_head_side(extract_mask(rotated, bg, config.fg_tolerance)) == "right"
        assert np.array_equal(img.pixels, before)
        assert not np.shares_memory(img.pixels, analysis.image.pixels)
        assert np.array_equal(analysis.image.pixels, rotated.pixels[:, ::-1].copy())

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
        for i, name in enumerate(report.class_names):
            expected = sum(e.family == name for e in entries)
            assert int(report.confusion[i].sum()) == expected
        assert report.accuracy == np.trace(report.confusion) / report.total
        assert 0.0 <= report.poison_recall <= 1.0
        text = format_report(report)
        assert "accuracy" in text and "poison recall" in text

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
    ], ids=[
        "t-string", "t-true", "version-true", "version-float", "layout-float",
        "layout-string", "background-tolerance-string", "fg-tolerance-true",
        "fg-tolerance-other", "median-radius-0", "median-radius-2", "weight-string",
        "unknown-key",
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
