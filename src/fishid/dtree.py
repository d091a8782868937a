"""Binary decision tree over score vectors, plus the label registry that
expands a terminal class into its (cluster, poison, family) hierarchy.

Induction is greedy: at each node every midpoint between consecutive distinct
sorted feature values is a candidate threshold, and the (feature, threshold)
with the lowest weighted child Gini wins (ties: lower feature index, then
lower threshold). Splits that would leave a child below ``min_leaf`` rows are
skipped. Fitting identical rows yields an identical node array.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptySet,
    EmptyTrainingSet,
    InconsistentHierarchy,
    InvalidConfig,
    RaggedRows,
    UnknownClass,
)


@dataclass(frozen=True)
class TreeNode:
    feature: int = -1
    threshold: float = 0.0
    left: int = -1
    right: int = -1
    leaf: int = -1  # class index when >= 0

    @property
    def is_leaf(self) -> bool:
        return self.leaf >= 0


@dataclass(frozen=True)
class DecisionTree:
    nodes: tuple[TreeNode, ...]  # root is node 0


@dataclass(frozen=True)
class HierarchicalLabel:
    cluster: str
    poison: bool
    family: str  # empty string for poison classes


@dataclass(frozen=True)
class LabelRegistry:
    """Ordered terminal classes and their hierarchy entries."""

    classes: tuple[str, ...]
    entries: tuple[tuple[str, bool, str], ...]  # (cluster, poison, family)

    @classmethod
    def from_rows(cls, rows) -> "LabelRegistry":
        """Build from (family, poison, cluster) rows; classes are sorted by
        name so output-unit assignment is stable across runs."""
        seen: dict[str, tuple[str, bool, str]] = {}
        for family, poison, cluster in rows:
            entry = (cluster, bool(poison), "" if poison else family)
            prev = seen.get(family)
            if prev is None:
                seen[family] = entry
            elif prev != entry:
                raise InconsistentHierarchy(f"conflicting hierarchy for class {family!r}")
        names = tuple(sorted(seen))
        return cls(names, tuple(seen[n] for n in names))

    def __len__(self) -> int:
        return len(self.classes)

    def index_of(self, name: str) -> int:
        try:
            return self.classes.index(name)
        except ValueError:
            raise UnknownClass(f"class {name!r} is not in the registry") from None

    def label(self, class_index: int) -> HierarchicalLabel:
        if not 0 <= class_index < len(self.classes):
            raise UnknownClass(f"class index {class_index} outside the registry")
        cluster, poison, family = self.entries[class_index]
        return HierarchicalLabel(cluster, poison, family)


def gini(labels) -> float:
    """Impurity 1 - sum_c p_c^2 of a non-empty label multiset."""
    counts = Counter(labels)
    n = sum(counts.values())
    if n == 0:
        raise EmptySet("gini of an empty label set is undefined")
    return 1.0 - sum((c / n) ** 2 for c in counts.values())


def fit(rows, max_depth: int = 8, min_leaf: int = 1) -> DecisionTree:
    """Grow a tree from (vector, class index) rows."""
    rows = list(rows)
    if not rows:
        raise EmptyTrainingSet("no rows to fit")
    if max_depth < 1:
        raise InvalidConfig("max_depth must be >= 1")
    if min_leaf < 1:
        raise InvalidConfig("min_leaf must be >= 1")
    dim = len(rows[0][0])
    if any(len(v) != dim for v, _ in rows):
        raise RaggedRows("rows have differing vector lengths")
    X = np.array([v for v, _ in rows], dtype=np.float64)
    y = np.array([c for _, c in rows], dtype=np.int64)
    if (y < 0).any():
        raise InvalidConfig("class indices must be non-negative")
    n_classes = int(y.max()) + 1
    nodes: list[TreeNode] = []

    def majority(idx) -> int:
        return int(np.argmax(np.bincount(y[idx], minlength=n_classes)))

    def best_split(idx):
        best = None  # (weighted_gini, feature, threshold)
        n = idx.size
        for feat in range(dim):
            vals = X[idx, feat]
            order = np.argsort(vals, kind="stable")
            sv = vals[order]
            sy = y[idx][order]
            cut = np.nonzero(sv[:-1] < sv[1:])[0]  # split after these positions
            if cut.size == 0:
                continue
            n_left = cut + 1
            n_right = n - n_left
            ok = (n_left >= min_leaf) & (n_right >= min_leaf)
            if not ok.any():
                continue
            cut, n_left, n_right = cut[ok], n_left[ok], n_right[ok]
            one_hot = np.zeros((n, n_classes), dtype=np.float64)
            one_hot[np.arange(n), sy] = 1.0
            cum = np.cumsum(one_hot, axis=0)
            left_counts = cum[cut]
            right_counts = cum[-1] - left_counts
            gl = 1.0 - np.sum((left_counts / n_left[:, None]) ** 2, axis=1)
            gr = 1.0 - np.sum((right_counts / n_right[:, None]) ** 2, axis=1)
            weighted = (n_left * gl + n_right * gr) / n
            pos = int(np.argmin(weighted))  # first minimum: lowest threshold
            cand = (float(weighted[pos]), feat, float((sv[cut[pos]] + sv[cut[pos] + 1]) / 2.0))
            if best is None or cand[0] < best[0]:
                best = cand
        return best

    def build(idx, depth) -> int:
        node_id = len(nodes)
        nodes.append(TreeNode())  # placeholder
        labels = y[idx]
        if (labels == labels[0]).all() or depth >= max_depth or idx.size < 2 * min_leaf:
            nodes[node_id] = TreeNode(leaf=majority(idx))
            return node_id
        best = best_split(idx)
        if best is None:
            nodes[node_id] = TreeNode(leaf=majority(idx))
            return node_id
        _, feat, thr = best
        go_left = X[idx, feat] <= thr
        left_id = build(idx[go_left], depth + 1)
        right_id = build(idx[~go_left], depth + 1)
        nodes[node_id] = TreeNode(feature=feat, threshold=thr, left=left_id, right=right_id)
        return node_id

    build(np.arange(len(rows)), 0)
    return DecisionTree(tuple(nodes))


def predict_class(tree: DecisionTree, x) -> int:
    """Descend the tree (x[f] <= t goes left) to a leaf class index."""
    x = np.asarray(x, dtype=np.float64)
    node = tree.nodes[0]
    while not node.is_leaf:
        if node.feature >= x.size:
            raise DimensionMismatch(
                f"tree tests feature {node.feature} but input has {x.size}"
            )
        node = tree.nodes[node.left if x[node.feature] <= node.threshold else node.right]
    return node.leaf
