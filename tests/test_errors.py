"""Every error the library raises derives from ToolkitError."""

import numpy as np
import pytest

from fishid import dtree
from fishid.dtree import LabelRegistry
from fishid.errors import InconsistentHierarchy, InvalidConfig
from fishid.imageio import RgbImage
from fishid.preprocess import filter_and_unify, median_filter
from fishid.segment import FishMask, divide_segments

IMG = RgbImage(np.zeros((3, 3, 3), dtype=np.uint8))
ROWS = [([0.0], 0), ([1.0], 1)]


@pytest.mark.parametrize("call, error", [
    (lambda: dtree.fit(ROWS, max_depth=0), InvalidConfig),
    (lambda: dtree.fit(ROWS, min_leaf=0), InvalidConfig),
    (lambda: dtree.fit([([0.0], -1)]), InvalidConfig),
    (lambda: divide_segments(FishMask.from_bits(np.ones((3, 3), bool)), IMG, 0), InvalidConfig),
    (lambda: RgbImage(np.zeros((3, 3), dtype=np.uint8)), InvalidConfig),
    (lambda: RgbImage(np.zeros((3, 3, 3), dtype=np.int16)), InvalidConfig),
    (lambda: RgbImage(np.zeros((0, 3, 3), dtype=np.uint8)), InvalidConfig),
    (lambda: median_filter(IMG, 2), InvalidConfig),
    (lambda: filter_and_unify(IMG, 0, -1.0), InvalidConfig),
    (lambda: filter_and_unify(IMG, 0, float("nan")), InvalidConfig),
    (lambda: LabelRegistry.from_rows([("A", False, "c1"), ("A", False, "c2")]),
     InconsistentHierarchy),
], ids=[
    "fit-max-depth", "fit-min-leaf", "fit-negative-class", "divide-segments-k",
    "image-shape", "image-dtype", "image-empty", "median-radius-2",
    "unify-tolerance-negative", "unify-tolerance-nan", "registry-conflict",
])
def test_library_errors_are_toolkit_errors(call, error):
    with pytest.raises(error):
        call()
