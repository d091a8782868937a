"""Spans recorded from outside the program, and the stage-by-stage replays
that produce them.

A span is one call into a layer: name, start, end, parent span, image id
and benchmark phase, plus any counts taken at that boundary. Spans stay in
memory and are written out once, when the run ends. The replays below call
the same public functions, in the same order, as ``pipeline.analyze_image``,
``pipeline.run_pipeline`` and the classifier half of
``pipeline.train_bundle``; callers check that a replay's descriptors and
model bytes equal the untraced call's, so a replay that drifts from the
program is reported, not silently timed.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
import json
import statistics
import time

import numpy as np

from fishid import dtree, features, imageio, mlp, pipeline, preprocess, segment
from fishid.imageio import RgbImage
from fishid.segment import FishMask

from ledger import check

# the analyze_image stages, in program order
ANALYZE_STAGES = (
    "preprocess.median_filter",
    "preprocess.unify_background",
    "preprocess.normalize_rotation",
    "segment.extract_mask",
    "features.find_head_side",
    "segment.trace_contour",
    "segment.group_by_color",
    "segment.divide_segments",
    "imageio.to_indexed",
    "features.extract_features",
)


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans: list[dict] = []
        self.phase = "setup"
        self.overhead_ms: list[float] = []  # traced minus untraced, per operation
        self.real_first = False  # alternates the real analyze_image call's turn
        self._open: list[int] = []

    @contextmanager
    def span(self, name, image=None):
        parent = self._open[-1] if self._open else None
        if image is None and parent is not None:
            image = self.spans[parent]["image"]
        rec = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": parent,
            "image": image,
            "phase": self.phase,
        }
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def call(self, name, fn, *args):
        with self.span(name):
            return fn(*args)

    def time_without(self, rec, name) -> float:
        """Seconds in span ``rec`` outside its descendants called ``name``."""
        inner = sum(
            s["end"] - s["start"]
            for s in self.spans[rec["id"] + 1:]
            if s["name"] == name and s["start"] < rec["end"]
        )
        return rec["end"] - rec["start"] - inner

    def real_analyze(self, img, config, image):
        """The program's own ``analyze_image``, timed for comparison with
        the replay; the two take turns going first, so neither gains from
        warm caches on average."""
        with self.span("pipeline.analyze_image", image):
            return pipeline.analyze_image(img, config).features

    def self_times(self) -> list[float]:
        """Seconds per span not covered by its direct children."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child[rec["parent"]] += rec["end"] - rec["start"]
        return [r["end"] - r["start"] - c for r, c in zip(self.spans, child)]

    def write(self, path) -> None:
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for rec, s in zip(self.spans, selfs):
                fh.write(json.dumps({**rec, "self": s}, sort_keys=True) + "\n")


def span(tr: Tracer | None, name):
    """A span when tracing; otherwise a throwaway record for the counts."""
    return nullcontext({}) if tr is None else tr.span(name)


def call(tr: Tracer | None, name, fn, *args):
    """``fn(*args)``, inside a span when tracing."""
    with span(tr, name):
        return fn(*args)


def read_decode(tr: Tracer, path) -> RgbImage:
    with tr.span("imageio.read_decode"):
        with open(path, "rb") as fh:
            data = fh.read()
        return imageio.decode_image(data)


def analyze(tr: Tracer, img: RgbImage, config: pipeline.PipelineConfig) -> np.ndarray:
    """Replay of ``pipeline.analyze_image``; returns the descriptor."""
    with tr.span("replay.analyze_image"):
        filtered = tr.call(
            "preprocess.median_filter",
            preprocess.median_filter, img, config.preprocess.median_radius,
        )
        unified, background = tr.call(
            "preprocess.unify_background",
            preprocess.unify_background, filtered, config.preprocess,
        )
        with tr.span("preprocess.normalize_rotation") as rec:
            rotated = preprocess.normalize_rotation(unified, background)
            rec["rotated"] = rotated is not unified
        mask = tr.call(
            "segment.extract_mask",
            segment.extract_mask, rotated, background, config.fg_tolerance,
        )
        if tr.call("features.find_head_side", features.find_head_side, mask) == "right":
            rotated = RgbImage(rotated.pixels[:, ::-1].copy())
            mask = FishMask.from_bits(mask.bits[:, ::-1].copy())
        with tr.span("segment.trace_contour") as rec:
            contour = segment.trace_contour(mask)
            rec["points"] = len(contour.points)
        with tr.span("segment.group_by_color") as rec:
            groups = segment.group_by_color(mask, rotated, config.group_tolerance)
            rec["groups"] = groups.group_count
        tr.call(
            "segment.divide_segments", segment.divide_segments, mask, rotated, config.bands
        )
        idx = tr.call("imageio.to_indexed", imageio.to_indexed, rotated)
        return tr.call(
            "features.extract_features",
            features.extract_features, rotated, idx, mask, contour, groups,
        )


def describe(tr: Tracer, path, config, image) -> np.ndarray:
    """Decode and replay one image, then time the real ``analyze_image`` on
    the same pixels; returns the replay's descriptor after checking that the
    real call gives the same bytes."""
    with tr.span("replay.describe", image):
        img = read_decode(tr, path)
        tr.real_first = not tr.real_first
        if tr.real_first:
            real = tr.real_analyze(img, config, image)
        feats = analyze(tr, img, config)
        if not tr.real_first:
            real = tr.real_analyze(img, config, image)
    check(real.tobytes() == feats.tobytes(), "replay",
          f"{image}: replayed descriptor differs from analyze_image")
    return feats


def classify(tr: Tracer, path, bundle: pipeline.TrainedBundle, image):
    """Replay of ``pipeline.run_pipeline``; returns (label, class index,
    descriptor, seconds in the ``pipeline.run_pipeline`` span).

    The real ``analyze_image`` runs outside the ``pipeline.run_pipeline``
    span, so that span stays comparable with an untraced ``run_pipeline``.
    """
    tr.real_first = not tr.real_first
    if tr.real_first:
        with open(path, "rb") as fh:
            real = tr.real_analyze(imageio.decode_image(fh.read()), bundle.config, image)
    with tr.span("pipeline.run_pipeline", image) as rec:
        img = read_decode(tr, path)
        feats = analyze(tr, img, bundle.config)
        scores = tr.call("mlp.forward", mlp.forward, bundle.mlp, feats)
        cls = tr.call("dtree.predict_class", dtree.predict_class, bundle.tree, scores)
        label = tr.call("dtree.label", bundle.registry.label, cls)
    if not tr.real_first:
        real = tr.real_analyze(img, bundle.config, image)
    check(real.tobytes() == feats.tobytes(), "replay",
          f"{image}: replayed descriptor differs from analyze_image")
    return label, cls, feats, rec["end"] - rec["start"]


def fit_classifier(tr: Tracer | None, X, targets, labels, cfg: mlp.TrainConfig):
    """The classifier half of ``train_bundle``: MLP init and training, one
    forward pass per training row, then the tree. Returns (model, tree,
    epochs trained)."""
    model = call(tr, "mlp.init", mlp.init, (X.shape[1], 24, targets.shape[1]), cfg)
    samples = [mlp.TrainingSample(x, d) for x, d in zip(X, targets)]
    with span(tr, "mlp.train") as rec:
        report = mlp.train(model, samples, cfg)
        rec["epochs"] = report.epochs
        rec["steps"] = report.epochs * len(samples)
    outputs = [call(tr, "mlp.forward", mlp.forward, model, x) for x in X]
    with span(tr, "dtree.fit") as rec:
        tree = dtree.fit(list(zip(outputs, labels)), max_depth=8, min_leaf=1)
        rec["nodes"] = len(tree.nodes)
    return model, tree, report.epochs


# per-layer metric -> (span name, how one span becomes a sample)
def _ms(rec, self_s):
    return self_s * 1e3


def _us(rec, self_s):
    return self_s * 1e6


def _s(rec, self_s):
    return self_s


_SPAN_METRICS = {
    "imageio.read_decode_ms": ("imageio.read_decode", _ms),
    "imageio.to_indexed_ms": ("imageio.to_indexed", _ms),
    "preprocess.median_filter_ms": ("preprocess.median_filter", _ms),
    "preprocess.unify_background_ms": ("preprocess.unify_background", _ms),
    "preprocess.normalize_rotation_ms": ("preprocess.normalize_rotation", _ms),
    "preprocess.rotated_share": ("preprocess.normalize_rotation", lambda r, s: float(r["rotated"])),
    "segment.extract_mask_ms": ("segment.extract_mask", _ms),
    "features.find_head_side_ms": ("features.find_head_side", _ms),
    "segment.trace_contour_ms": ("segment.trace_contour", _ms),
    "segment.contour_points": ("segment.trace_contour", lambda r, s: r["points"]),
    "segment.trace_contour_us_per_point": (
        "segment.trace_contour", lambda r, s: s * 1e6 / max(r["points"], 1)
    ),
    "segment.group_by_color_ms": ("segment.group_by_color", _ms),
    "segment.color_groups": ("segment.group_by_color", lambda r, s: r["groups"]),
    "segment.divide_segments_ms": ("segment.divide_segments", _ms),
    "features.extract_features_ms": ("features.extract_features", _ms),
    "pipeline.analyze_image_ms": ("pipeline.analyze_image", _ms),
    "mlp.train_s": ("mlp.train", _s),
    "mlp.epochs": ("mlp.train", lambda r, s: r["epochs"]),
    "mlp.sample_steps": ("mlp.train", lambda r, s: r["steps"]),
    "mlp.train_us_per_step": ("mlp.train", lambda r, s: s * 1e6 / r["steps"]),
    "mlp.forward_us": ("mlp.forward", _us),
    "dtree.fit_ms": ("dtree.fit", _ms),
    "dtree.nodes": ("dtree.fit", lambda r, s: r["nodes"]),
    "dtree.predict_us": ("dtree.predict_class", _us),
    "pipeline.save_bundle_ms": ("pipeline.save_bundle", _ms),
    "pipeline.load_bundle_ms": ("pipeline.load_bundle", _ms),
    "pipeline.model_bytes": ("pipeline.save_bundle", lambda r, s: r["bytes"]),
    "synthgen.render_ms": ("synthgen.render_fish", _ms),
    "synthgen.generate_corpus_s": ("synthgen.generate_corpus", _s),
}


def _phase_samples(tr: Tracer, selfs, name, fn):
    """Samples of one span name from the measured phase, or from set-up when
    the layer only runs there (e.g. model training in a classify workload)."""
    for phase in ("measure", "setup"):
        vals = [
            fn(rec, s)
            for rec, s in zip(tr.spans, selfs)
            if rec["name"] == name and rec["phase"] == phase
        ]
        if vals:
            return vals
    return []


def _unaccounted(tr: Tracer, selfs):
    """Per image: real ``analyze_image`` time minus the replayed stages."""
    for phase in ("measure", "setup"):
        real, staged = {}, {}
        for rec, s in zip(tr.spans, selfs):
            if rec["phase"] != phase:
                continue
            if rec["name"] == "pipeline.analyze_image":
                real[rec["image"]] = s
            elif rec["name"] in ANALYZE_STAGES:
                staged[rec["image"]] = staged.get(rec["image"], 0.0) + s
        vals = [(real[k] - staged[k]) * 1e3 for k in real if k in staged]
        if vals:
            return vals
    return []


def layer_metrics(tr: Tracer, names) -> dict[str, float]:
    """Median of each per-layer metric over the run's spans (for
    ``preprocess.rotated_share``, the mean). Every workload's traced run
    reaches every layer; one that did not would read 0."""
    selfs = tr.self_times()
    out = {}
    for name in names:
        if name == "pipeline.unaccounted_ms":
            vals = _unaccounted(tr, selfs)
        elif name == "trace.overhead_ms":
            vals = tr.overhead_ms
        elif name in _SPAN_METRICS:
            vals = _phase_samples(tr, selfs, *_SPAN_METRICS[name])
        else:
            continue  # filled in by the caller (e.g. failed_ratio)
        if name == "preprocess.rotated_share":
            out[name] = sum(vals) / len(vals) if vals else 0.0
        else:
            out[name] = float(statistics.median(vals)) if vals else 0.0
    return out


def self_time_table(tr: Tracer) -> list[tuple[str, int, float, float]]:
    """(span name, calls, total self ms, median self ms), largest first."""
    selfs = tr.self_times()
    by_name: dict[str, list[float]] = {}
    for rec, s in zip(tr.spans, selfs):
        by_name.setdefault(rec["name"], []).append(s * 1e3)
    rows = [(n, len(v), sum(v), statistics.median(v)) for n, v in by_name.items()]
    return sorted(rows, key=lambda r: -r[2])
