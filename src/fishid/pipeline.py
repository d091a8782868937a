"""End-to-end orchestration: image file -> preprocessing -> segmentation ->
features -> score network -> tree -> hierarchical label.

Also holds the training harness, the evaluation report, and model file
persistence. Model files are canonical JSON (sorted keys, shortest
round-trip floats), so identical bundles serialize to identical bytes.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
import json
import os

import numpy as np

from . import dtree, mlp
from .dtree import DecisionTree, HierarchicalLabel, LabelRegistry, TreeNode
from .errors import (
    ClassMissing,
    CorruptModel,
    EmptyTestSet,
    EmptyTrainingSet,
    IoFailure,
    ToolkitError,
    VersionMismatch,
)
from .features import FEATURE_COUNT, FEATURE_LAYOUT_VERSION, extract_features, find_head_side
from .imageio import RgbImage, decode_image, load_manifest, read_file, to_indexed
from .mlp import MlpModel, TrainConfig
from .preprocess import PreprocessConfig, filter_and_unify, normalize_rotation
from .segment import FishMask, extract_mask, group_by_color, trace_contour

MODEL_VERSION = 1

# small weights keep the online momentum updates out of early sigmoid
# saturation for the 47 -> hidden -> classes task; the TrainConfig default
# (0.5) is fine for tiny nets but diverges here
PIPELINE_INIT_SCALE = 0.05

# the training recipe of the README experiment and of ``fishid train``
DEFAULT_TRAIN = TrainConfig(seed=7, init_scale=PIPELINE_INIT_SCALE)
DEFAULT_HIDDEN = 24


@dataclass(frozen=True)
class PipelineConfig:
    """The pipeline's preprocessing and segmentation constants. No field can
    be set, so every bundle and every model file holds this configuration."""

    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig, init=False)
    fg_tolerance: float = field(default=40.0, init=False)
    group_tolerance: float = field(default=20.0, init=False)
    bands: int = field(default=4, init=False)


@dataclass
class ImageAnalysis:
    """Intermediates produced while turning an image into features. For a
    mirrored (right-facing) fish, ``image.pixels`` and ``mask.bits`` are
    reversed views of the unmirrored frames, not copies."""

    image: RgbImage  # after filtering, background unification, rotation
    background: tuple[int, int, int]
    mask: object
    contour: object
    groups: object
    features: np.ndarray


@dataclass
class PipelineResult:
    label: HierarchicalLabel
    scores: np.ndarray
    features: np.ndarray
    class_index: int
    analysis: ImageAnalysis


@dataclass
class TrainedBundle:
    mlp: MlpModel
    tree: DecisionTree
    registry: LabelRegistry
    config: PipelineConfig


@dataclass
class EvalReport:
    class_names: tuple[str, ...]
    confusion: np.ndarray  # rows true, cols predicted
    accuracy: float
    precision: list[float]
    recall: list[float]
    poison_recall: float
    total: int


def _staged(stage, fn, *args):
    try:
        return fn(*args)
    except ToolkitError as exc:
        if exc.stage is None:
            exc.stage = stage
        raise


def analyze_image(img: RgbImage, config: PipelineConfig) -> ImageAnalysis:
    """Run the preprocessing/segmentation/feature chain on a decoded image.

    After rotation normalization the image is mirrored if the head is on the
    right, so every downstream descriptor sees a fish facing left; facing is
    an irrelevant transformation for recognition and canonicalizing it keeps
    the descriptors unimodal per class. The flip is an exact index reversal.
    """
    pre = config.preprocess
    unified, background = _staged(
        "background", filter_and_unify, img, pre.median_radius, pre.background_tolerance
    )
    rotated = _staged("rotation", normalize_rotation, unified, background)
    mask = _staged("mask", extract_mask, rotated, background, config.fg_tolerance)
    if find_head_side(mask) == "right":
        rotated = RgbImage(rotated.pixels[:, ::-1])
        x0, y0, w, h = mask.bbox
        mirrored = (rotated.width - x0 - w, y0, w, h)
        mask = FishMask(mask.bits[:, ::-1], mask.area, mirrored)
    contour = _staged("contour", trace_contour, mask)
    groups = _staged("color-groups", group_by_color, mask, rotated, config.group_tolerance)
    idx = np.zeros(mask.bits.shape, dtype=np.uint8)
    mask.crop(idx)[:] = to_indexed(RgbImage(mask.crop(rotated.pixels)))
    feats = _staged("features", extract_features, rotated, idx, mask, contour, groups)
    return ImageAnalysis(rotated, background, mask, contour, groups, feats)


def _read_image(path) -> RgbImage:
    return _staged("decode", decode_image, _staged("read", read_file, path, "image"))


def _classify(bundle: TrainedBundle, features):
    """Score network then tree: ``(scores, class_index)`` for one descriptor."""
    scores = _staged("scores", mlp.forward, bundle.mlp, features)
    return scores, _staged("tree", dtree.predict_class, bundle.tree, scores)


def run_pipeline(path, bundle: TrainedBundle) -> PipelineResult:
    """Classify one image file, returning the label plus all intermediates."""
    analysis = analyze_image(_read_image(path), bundle.config)
    scores, class_index = _classify(bundle, analysis.features)
    label = _staged("registry", bundle.registry.label, class_index)
    return PipelineResult(label, scores, analysis.features, class_index, analysis)


def _featurize(entries, manifest_path, config: PipelineConfig) -> np.ndarray:
    """One descriptor row per entry, in order. Image paths are joined to the
    manifest's directory; ``os.path.join`` keeps an absolute path as is."""
    base = os.path.dirname(os.path.abspath(manifest_path))
    rows = np.empty((len(entries), FEATURE_COUNT), dtype=np.float64)
    for i, entry in enumerate(entries):
        rows[i] = analyze_image(_read_image(os.path.join(base, entry.path)), config).features
    return rows


def extract_manifest_features(manifest_path):
    """Features for every manifest row, in manifest order, under the default
    ``PipelineConfig``.

    Returns ``(entries, matrix)`` with one feature row per entry; image paths
    are resolved relative to the manifest's directory.
    """
    entries = load_manifest(manifest_path)
    return entries, _featurize(entries, manifest_path, PipelineConfig())


def train_bundle(
    manifest_path,
    train_cfg: TrainConfig = DEFAULT_TRAIN,
    hidden: int = DEFAULT_HIDDEN,
) -> TrainedBundle:
    """Train the score network on the manifest's train split, then fit the
    tree on the network's outputs, under the default ``PipelineConfig``.
    Deterministic given the config seed."""
    entries = load_manifest(manifest_path)
    registry = LabelRegistry.from_rows(
        (e.family, e.poison, e.cluster) for e in entries
    )
    train_entries = [e for e in entries if e.split == "train"]
    if not train_entries:
        raise EmptyTrainingSet("manifest has no train rows")
    seen = {e.family for e in train_entries}
    for name in registry.classes:
        if name not in seen:
            raise ClassMissing(f"class {name!r} has no train rows")

    # init draws from its own seeded generator, so a bad architecture
    # fails here, before any image is analyzed, without changing the weights
    model = mlp.init((FEATURE_COUNT, hidden, len(registry)), train_cfg)
    config = PipelineConfig()
    X = _featurize(train_entries, manifest_path, config)
    labels = [registry.index_of(e.family) for e in train_entries]
    targets = np.zeros((len(train_entries), len(registry)), dtype=np.float64)
    targets[np.arange(len(labels)), labels] = 1.0

    samples = [mlp.TrainingSample(x, d) for x, d in zip(X, targets)]
    mlp.train(model, samples, train_cfg)

    outputs = [mlp.forward(model, x) for x in X]
    tree = dtree.fit(list(zip(outputs, labels)))
    return TrainedBundle(model, tree, registry, config)


def evaluate(bundle: TrainedBundle, manifest_path) -> EvalReport:
    """Run the pipeline over the manifest's test split and tally results."""
    entries = [e for e in load_manifest(manifest_path) if e.split == "test"]
    if not entries:
        raise EmptyTestSet("manifest has no test rows")
    truth = [bundle.registry.index_of(e.family) for e in entries]
    n = len(bundle.registry)
    confusion = np.zeros((n, n), dtype=np.int64)
    for true_idx, features in zip(truth, _featurize(entries, manifest_path, bundle.config)):
        confusion[true_idx, _classify(bundle, features)[1]] += 1
    total = int(confusion.sum())
    accuracy = float(np.trace(confusion)) / total
    precision = []
    recall = []
    for c in range(n):
        col = confusion[:, c].sum()
        row = confusion[c, :].sum()
        precision.append(float(confusion[c, c] / col) if col else 0.0)
        recall.append(float(confusion[c, c] / row) if row else 0.0)
    poison_idx = [c for c in range(n) if bundle.registry.entries[c][1]]
    poison_total = int(confusion[poison_idx, :].sum()) if poison_idx else 0
    if poison_total:
        hit = int(confusion[np.ix_(poison_idx, poison_idx)].sum())
        poison_recall = hit / poison_total
    else:
        poison_recall = 1.0  # vacuous: no poison rows in the test split
    return EvalReport(
        bundle.registry.classes,
        confusion,
        accuracy,
        precision,
        recall,
        float(poison_recall),
        total,
    )


def format_report(report: EvalReport) -> str:
    """Human-readable accuracy / confusion / recall summary."""
    width = max(len(name) for name in report.class_names)
    lines = [
        f"accuracy: {report.accuracy:.4f}",
        f"poison recall: {report.poison_recall:.4f}",
        f"test rows: {report.total}",
        "confusion matrix (rows = true, cols = predicted):",
    ]
    head = " " * (width + 2) + " ".join(f"{i:>4d}" for i in range(len(report.class_names)))
    lines.append(head)
    for i, name in enumerate(report.class_names):
        cells = " ".join(f"{int(v):>4d}" for v in report.confusion[i])
        lines.append(f"{name:<{width}} [{i}] {cells}")
    for i, name in enumerate(report.class_names):
        lines.append(
            f"{name:<{width}} precision {report.precision[i]:.4f} "
            f"recall {report.recall[i]:.4f}"
        )
    return "\n".join(lines)


def report_to_dict(report: EvalReport) -> dict:
    return {
        "accuracy": report.accuracy,
        "poison_recall": report.poison_recall,
        "total": report.total,
        "classes": list(report.class_names),
        "confusion": report.confusion.tolist(),
        "precision": report.precision,
        "recall": report.recall,
    }


def _bundle_to_doc(bundle: TrainedBundle) -> dict:
    hierarchy = {}
    for name, (cluster, poison, family) in zip(
        bundle.registry.classes, bundle.registry.entries
    ):
        hierarchy[name] = {"cluster": cluster, "poison": poison, "family": family}
    nodes = []
    for node in bundle.tree.nodes:
        if node.is_leaf:
            nodes.append({"leaf": node.leaf})
        else:
            nodes.append(
                {"f": node.feature, "t": node.threshold, "l": node.left, "r": node.right}
            )
    return {
        "version": MODEL_VERSION,
        "feature_layout_version": FEATURE_LAYOUT_VERSION,
        "classes": list(bundle.registry.classes),
        "hierarchy": hierarchy,
        "mlp": {
            "layer_sizes": list(bundle.mlp.layer_sizes),
            "weights": [w.tolist() for w in bundle.mlp.weights],
            "activation": mlp.ACTIVATION,
        },
        "tree": {"nodes": nodes},
        "preprocess": {
            "background_tolerance": bundle.config.preprocess.background_tolerance,
            "median_radius": bundle.config.preprocess.median_radius,
        },
        "segment": {
            "fg_tolerance": bundle.config.fg_tolerance,
            "group_tolerance": bundle.config.group_tolerance,
            "bands": bundle.config.bands,
        },
    }


def save_bundle(bundle: TrainedBundle, path) -> None:
    """Write the canonical model file atomically (temp file + rename)."""
    text = json.dumps(_bundle_to_doc(bundle), sort_keys=True, indent=1) + "\n"
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):  # never created, or already gone
            os.remove(tmp)
        raise IoFailure(f"writing model to {path}: {exc}") from exc


def load_bundle(path) -> TrainedBundle:
    """Read and validate a model file written by :func:`save_bundle`.

    Each field is read as the type ``save_bundle`` writes, and the file is
    accepted only if the bundle built from it serializes back to the same
    document. So a wrong JSON type, an unknown key, another activation or
    another configuration is a ``CorruptModel``; the ``preprocess`` and
    ``segment`` sections are a checked echo of the pipeline's constants.
    """
    try:
        # ValueError covers bad UTF-8 and integers past Python's digit limit
        doc = json.loads(read_file(path, "model").decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise CorruptModel(f"model file is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CorruptModel("model document must be an object")
    version = doc.get("version")
    if version != MODEL_VERSION:
        raise VersionMismatch(f"model version {version!r}, supported {MODEL_VERSION}")
    try:
        classes = tuple(str(c) for c in doc["classes"])
        entries = tuple(
            (str(h["cluster"]), bool(h["poison"]), str(h["family"]))
            for h in (doc["hierarchy"][c] for c in classes)
        )
        layer_sizes = tuple(int(s) for s in doc["mlp"]["layer_sizes"])
        weights = [np.array(w, dtype=np.float64) for w in doc["mlp"]["weights"]]
        nodes = [
            TreeNode(leaf=int(n["leaf"])) if "leaf" in n
            else TreeNode(feature=int(n["f"]), threshold=float(n["t"]),
                          left=int(n["l"]), right=int(n["r"]))
            for n in doc["tree"]["nodes"]
        ]
        layout = int(doc["feature_layout_version"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CorruptModel(f"model file structure is invalid: {exc}") from exc
    if layout != FEATURE_LAYOUT_VERSION:
        raise VersionMismatch(
            f"feature layout version {layout}, supported {FEATURE_LAYOUT_VERSION}"
        )
    model = MlpModel(layer_sizes, weights, [np.zeros_like(w) for w in weights])
    registry = LabelRegistry(classes, entries)
    bundle = TrainedBundle(model, DecisionTree(tuple(nodes)), registry, PipelineConfig())
    if json.dumps(_bundle_to_doc(bundle), sort_keys=True) != json.dumps(doc, sort_keys=True):
        raise CorruptModel("model file is not what save_bundle writes")
    if len(set(classes)) != len(classes):  # index_of would find only the first
        raise CorruptModel("class names repeat")
    if len(layer_sizes) != 3 or any(s < 1 for s in layer_sizes):
        raise CorruptModel(f"bad layer sizes {layer_sizes}")
    n_in, n_hidden, n_out = layer_sizes
    if n_in != FEATURE_COUNT:
        raise CorruptModel(f"input layer size {n_in}, the descriptor has {FEATURE_COUNT}")
    expected = [(n_hidden, n_in + 1), (n_out, n_hidden + 1)]
    if [w.shape for w in weights] != expected:
        raise CorruptModel("weight shapes do not match the layer sizes")
    if any(not np.all(np.isfinite(w)) for w in weights):
        raise CorruptModel("weights contain non-finite values")
    if n_out != len(classes):
        raise CorruptModel("output layer size differs from the class count")
    if not nodes:
        raise CorruptModel("tree has no nodes")
    parents = [0] * len(nodes)
    for i, node in enumerate(nodes):
        if node.is_leaf:
            if not 0 <= node.leaf < len(classes):
                raise CorruptModel(f"node {i} leaf class out of range")
        else:
            # fit emits pre-order, so children follow their parent; this
            # also rules out cycles that would hang predict_class
            if not (i < node.left < len(nodes) and i < node.right < len(nodes)):
                raise CorruptModel(f"node {i} child index out of order or range")
            if not 0 <= node.feature < n_out:
                raise CorruptModel(f"node {i} feature index out of range")
            if not np.isfinite(node.threshold):
                raise CorruptModel(f"node {i} threshold is not finite")
            parents[node.left] += 1
            parents[node.right] += 1
    # with the order rule, one parent each makes the nodes exactly one tree
    for i, count in enumerate(parents[1:], start=1):
        if count != 1:
            raise CorruptModel(f"node {i} is the child of {count} nodes, not exactly one")
    return bundle
