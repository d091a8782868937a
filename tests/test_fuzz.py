"""Property tests for the readers of outside input: model files, manifests,
config files and image bytes. Every input either loads or raises a
ToolkitError, and each call returns quickly."""

import json
import os
import time
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fishid import dtree, mlp, pipeline
from fishid.cli import _merge_options, _read_config, build_parser
from fishid.dtree import LabelRegistry
from fishid.errors import CorruptModel, ToolkitError
from fishid.features import FEATURE_COUNT
from fishid.imageio import MANIFEST_HEADER, RgbImage, decode_image, encode_bmp, encode_ppm, load_manifest

FUZZ = settings(
    max_examples=150,
    deadline=timedelta(seconds=2),
    suppress_health_check=[HealthCheck.too_slow],
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=8,
)


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    """A small valid model file whose tree has split nodes."""
    registry = LabelRegistry.from_rows([("A", False, "c1"), ("B", False, "c2"), ("P", True, "c3")])
    net = mlp.init((FEATURE_COUNT, 2, 3), mlp.TrainConfig(seed=0))
    rows = [(np.eye(3)[c], c) for c in range(3)]
    bundle = pipeline.TrainedBundle(net, dtree.fit(rows), registry, pipeline.PipelineConfig())
    path = tmp_path_factory.mktemp("fuzz") / "model.json"
    pipeline.save_bundle(bundle, path)
    return path


def load_or_toolkit_error(path):
    """Load the model and classify a zero descriptor with it."""
    try:
        bundle = pipeline.load_bundle(path)
        pipeline._classify(bundle, np.zeros(FEATURE_COUNT))
    except ToolkitError:
        pass


@FUZZ
@given(data=st.data())
def test_load_bundle_structure_mutations(model_file, data):
    doc = json.loads(model_file.read_text())
    parent, key = None, None
    node = doc
    # walk down a random path, then replace or delete what is there
    while isinstance(node, (dict, list)) and node and not data.draw(st.booleans()):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, data.draw(st.sampled_from(keys))
        node = parent[key]
    if parent is None:
        doc = data.draw(json_values)
    elif data.draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = data.draw(json_values)
    out = model_file.with_name("mutated.json")
    out.write_text(json.dumps(doc))
    load_or_toolkit_error(out)


@FUZZ
@given(
    cut=st.just(0) | st.integers(1, 4000),
    edits=st.lists(st.tuples(st.integers(0, 10_000), st.integers(0, 255)), max_size=6),
)
def test_load_bundle_byte_mutations(model_file, cut, edits):
    raw = bytearray(model_file.read_bytes())
    for pos, value in edits:
        raw[pos % len(raw)] = value
    out = model_file.with_name("mutated.json")
    out.write_bytes(bytes(raw[: max(1, len(raw) - cut)]))
    load_or_toolkit_error(out)


@pytest.mark.parametrize(
    "text",
    ['{"version": ' + "9" * 5000 + "}", "[" * 100_000, '{"version": 1'],
    ids=["integer-past-digit-limit", "deep-nesting", "truncated"],
)
def test_load_bundle_undecodable_json(tmp_path, text):
    path = tmp_path / "model.json"
    path.write_text(text)
    with pytest.raises(CorruptModel):
        pipeline.load_bundle(path)


# finite floats, with the extremes and 17-significant-digit values drawn often
edge_floats = st.sampled_from(
    [-0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, 0.1 + 0.2, 1 / 3, -2 / 3]
) | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def bundles(draw):
    """A small random bundle that passes every load-time check."""
    n_out, n_hidden = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    names = draw(st.lists(st.text(min_size=1, max_size=5), min_size=n_out, max_size=n_out,
                          unique=True))
    entries = [(draw(st.text(max_size=4)), draw(st.booleans()), draw(st.text(max_size=4)))
               for _ in names]
    weights = [np.array(draw(st.lists(edge_floats, min_size=r * c, max_size=r * c)),
                        dtype=np.float64).reshape(r, c)
               for r, c in ((n_hidden, FEATURE_COUNT + 1), (n_out, n_hidden + 1))]
    nodes = []

    def grow(depth):  # pre-order, like dtree.fit
        i = len(nodes)
        nodes.append(None)
        if depth == 0 or draw(st.booleans()):
            nodes[i] = dtree.TreeNode(leaf=draw(st.integers(0, n_out - 1)))
        else:
            feature, threshold = draw(st.integers(0, n_out - 1)), draw(edge_floats)
            left, right = grow(depth - 1), grow(depth - 1)
            nodes[i] = dtree.TreeNode(feature=feature, threshold=threshold, left=left, right=right)
        return i

    grow(3)
    net = mlp.MlpModel((FEATURE_COUNT, n_hidden, n_out), weights,
                       [np.zeros_like(w) for w in weights])
    registry = LabelRegistry(tuple(names), tuple(entries))
    return pipeline.TrainedBundle(net, dtree.DecisionTree(tuple(nodes)), registry,
                                  pipeline.PipelineConfig())


@FUZZ
@given(bundle=bundles())
def test_save_load_save_is_byte_identical(tmp_path_factory, bundle):
    """Every file save_bundle writes passes load_bundle's comparison."""
    first = tmp_path_factory.getbasetemp() / "first.json"
    again = tmp_path_factory.getbasetemp() / "again.json"
    pipeline.save_bundle(bundle, first)
    pipeline.save_bundle(pipeline.load_bundle(first), again)
    assert again.read_bytes() == first.read_bytes()


manifest_bytes = st.one_of(
    st.binary(max_size=300),
    st.builds(
        lambda rows: (MANIFEST_HEADER + "\n" + "\n".join(rows)).encode(),
        st.lists(
            st.lists(st.sampled_from(["a.ppm", "Fam", "0", "1", "c", "train", "test", ""]),
                     min_size=3, max_size=6).map(",".join),
            max_size=6,
        ),
    ),
    st.builds(lambda tail: MANIFEST_HEADER.encode() + b"\n" + tail, st.binary(max_size=200)),
)


@FUZZ
@given(raw=manifest_bytes)
def test_load_manifest_arbitrary_bytes(tmp_path_factory, raw):
    path = tmp_path_factory.getbasetemp() / "fuzz_manifest.csv"
    path.write_bytes(raw)
    try:
        entries = load_manifest(path)
    except ToolkitError:
        return
    assert entries


config_bytes = st.one_of(
    st.binary(max_size=200),
    st.lists(
        st.tuples(
            st.sampled_from(["hidden", "eta", "max-epochs", "seed", "out", "manifest", "bogus"]),
            st.text(max_size=8),
        ).map(lambda kv: f"{kv[0]}={kv[1]}"),
        max_size=5,
    ).map(lambda lines: "\n".join(lines).encode("utf-8", "surrogatepass")),
)


@FUZZ
@given(raw=config_bytes)
def test_read_config_arbitrary_bytes(tmp_path_factory, raw):
    path = os.fspath(tmp_path_factory.getbasetemp() / "fuzz.cfg")
    with open(path, "wb") as fh:
        fh.write(raw)
    args = build_parser().parse_args(["train", "--config", path])
    try:
        assert isinstance(_read_config(path), dict)
        _merge_options("train", args)
    except ToolkitError:
        pass


def _mutants(data: bytes, rng, count):
    """Truncations, byte overwrites (half of them in the header) and
    single-byte insertions or deletions."""
    for i in range(count):
        raw = bytearray(data)
        kind = i % 4
        if kind == 0:
            del raw[int(rng.integers(0, len(raw))):]
        elif kind in (1, 2):
            span = 60 if kind == 1 else len(raw)
            for _ in range(int(rng.integers(1, 5))):
                raw[int(rng.integers(0, span))] = int(rng.integers(0, 256))
        else:
            pos = int(rng.integers(0, len(raw)))
            if rng.integers(0, 2):
                raw.insert(pos, int(rng.integers(0, 256)))
            else:
                del raw[pos]
        yield bytes(raw)


def test_decode_image_mutations():
    rng = np.random.default_rng(20)
    img = RgbImage(rng.integers(0, 256, (6, 7, 3), dtype=np.uint8))
    outcomes = {"decoded": 0, "rejected": 0}
    for data in (encode_ppm(img), encode_bmp(img)):
        for raw in _mutants(data, rng, 1000):
            start = time.perf_counter()
            try:
                decode_image(raw)
                outcomes["decoded"] += 1
            except ToolkitError:
                outcomes["rejected"] += 1
            assert time.perf_counter() - start < 1.0
    assert outcomes["decoded"] and outcomes["rejected"]
