import os

import pytest

from fishid import pipeline, synthgen
from fishid.mlp import TrainConfig


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory):
    """A reduced corpus (3 train / 2 test per family) for fast pipeline tests."""
    out = tmp_path_factory.mktemp("small_corpus")
    names = [spec.name for spec in synthgen.default_families()]
    counts_train = {name: 3 for name in names}
    counts_test = {name: 2 for name in names}
    cfg = synthgen.SynthConfig(seed=11, train_counts=counts_train, test_counts=counts_test)
    manifest, paths = synthgen.generate_corpus(os.fspath(out), cfg)
    return manifest, paths


@pytest.fixture(scope="session")
def small_bundle(small_corpus):
    manifest, _ = small_corpus
    cfg = TrainConfig(seed=3, max_epochs=300, init_scale=pipeline.PIPELINE_INIT_SCALE)
    return pipeline.train_bundle(manifest, train_cfg=cfg, hidden=12)
