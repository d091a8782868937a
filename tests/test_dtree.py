import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fishid import dtree
from fishid.errors import (
    DimensionMismatch,
    EmptySet,
    EmptyTrainingSet,
    RaggedRows,
    UnknownClass,
)
from fishid.dtree import HierarchicalLabel, LabelRegistry, gini


class TestGini:
    def test_pure(self):
        assert gini(["A", "A", "A"]) == 0.0

    def test_balanced_pair(self):
        assert gini(["A", "A", "B", "B"]) == 0.5

    def test_three_one(self):
        assert gini(["A", "A", "A", "B"]) == 0.375

    def test_empty(self):
        with pytest.raises(EmptySet):
            gini([])

    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.integers(0, 5), min_size=1, max_size=40))
    def test_bounds_and_purity(self, labels):
        g = gini(labels)
        n_classes = len(set(labels))
        assert 0.0 <= g <= 1.0 - 1.0 / n_classes + 1e-12
        assert (g == 0.0) == (n_classes == 1)


class TestFit:
    def test_separable_pair_gives_depth_one(self):
        rows = [((0.9, 0.1), 0)] * 5 + [((0.1, 0.9), 1)] * 5
        tree = dtree.fit(rows)
        root = tree.nodes[0]
        assert not root.is_leaf
        assert tree.nodes[root.left].is_leaf and tree.nodes[root.right].is_leaf
        assert all(dtree.predict_class(tree, v) == c for v, c in rows)

    def test_pure_root_is_single_leaf(self):
        rows = [((0.5, 0.5), 2)] * 4
        tree = dtree.fit(rows)
        assert len(tree.nodes) == 1
        assert tree.nodes[0].leaf == 2

    def test_empty(self):
        with pytest.raises(EmptyTrainingSet):
            dtree.fit([])

    def test_ragged(self):
        with pytest.raises(RaggedRows):
            dtree.fit([((0.1, 0.2), 0), ((0.1,), 1)])

    def test_fully_grown_fits_duplicate_free_data(self):
        rng = np.random.default_rng(123)
        rows = [(tuple(rng.uniform(0, 1, 7)), int(rng.integers(0, 7))) for _ in range(200)]
        tree = dtree.fit(rows, max_depth=10**6, min_leaf=1)
        assert all(dtree.predict_class(tree, v) == c for v, c in rows)

    def test_split_never_increases_weighted_impurity(self):
        rng = np.random.default_rng(7)
        rows = [(tuple(rng.uniform(0, 1, 4)), int(rng.integers(0, 3))) for _ in range(120)]
        tree = dtree.fit(rows, max_depth=6, min_leaf=2)
        X = np.array([v for v, _ in rows])
        y = [c for _, c in rows]

        def check(node_id, idx):
            node = tree.nodes[node_id]
            if node.is_leaf or not idx:
                return
            labels = [y[i] for i in idx]
            parent = gini(labels)
            left_idx = [i for i in idx if X[i, node.feature] <= node.threshold]
            right_idx = [i for i in idx if X[i, node.feature] > node.threshold]
            assert left_idx and right_idx
            weighted = (
                len(left_idx) * gini([y[i] for i in left_idx])
                + len(right_idx) * gini([y[i] for i in right_idx])
            ) / len(idx)
            assert weighted <= parent + 1e-12
            check(node.left, left_idx)
            check(node.right, right_idx)

        check(0, list(range(len(rows))))

    def test_min_leaf_respected(self):
        rng = np.random.default_rng(11)
        rows = [(tuple(rng.uniform(0, 1, 3)), int(rng.integers(0, 2))) for _ in range(60)]
        tree = dtree.fit(rows, max_depth=12, min_leaf=5)
        X = np.array([v for v, _ in rows])

        def leaf_sizes(node_id, idx):
            node = tree.nodes[node_id]
            if node.is_leaf:
                yield len(idx)
                return
            yield from leaf_sizes(node.left, [i for i in idx if X[i, node.feature] <= node.threshold])
            yield from leaf_sizes(node.right, [i for i in idx if X[i, node.feature] > node.threshold])

        assert min(leaf_sizes(0, list(range(len(rows))))) >= 5

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        rows = [(tuple(rng.uniform(0, 1, 5)), int(rng.integers(0, 4))) for _ in range(80)]
        assert dtree.fit(rows) == dtree.fit(rows)

    def test_majority_tie_takes_lowest_class(self):
        rows = [((0.5,), 3), ((0.5,), 1), ((0.5,), 1), ((0.5,), 3)]
        tree = dtree.fit(rows)
        assert tree.nodes[0].leaf == 1


class TestPredict:
    def test_single_leaf(self):
        tree = dtree.fit([((0.0, 0.0), 4)] * 3)
        assert dtree.predict_class(tree, (9.9, -1.0)) == 4

    def test_boundary_goes_left(self):
        rows = [((0.0,), 0)] * 3 + [((1.0,), 1)] * 3
        tree = dtree.fit(rows)
        t = tree.nodes[0].threshold
        left_class = tree.nodes[tree.nodes[0].left].leaf
        assert dtree.predict_class(tree, (t,)) == left_class

    def test_dimension_mismatch(self):
        rows = [((0.0, 0.0), 0)] * 3 + [((1.0, 1.0), 1)] * 3
        tree = dtree.fit(rows)
        with pytest.raises(DimensionMismatch):
            dtree.predict_class(tree, ())


class TestRegistry:
    def rows(self):
        return [
            ("Scombridae", False, "elongate"),
            ("Poison fish", True, "poison"),
            ("Istiophoridae", False, "elongate"),
        ]

    def test_classes_sorted_by_name(self):
        reg = LabelRegistry.from_rows(self.rows())
        assert reg.classes == ("Istiophoridae", "Poison fish", "Scombridae")

    def test_family_label_expansion(self):
        reg = LabelRegistry.from_rows(self.rows())
        label = reg.label(reg.index_of("Scombridae"))
        assert label == HierarchicalLabel("elongate", False, "Scombridae")

    def test_poison_label_has_empty_family(self):
        reg = LabelRegistry.from_rows(self.rows())
        label = reg.label(reg.index_of("Poison fish"))
        assert label.poison is True
        assert label.family == ""
        assert label.cluster == "poison"

    def test_unknown_index(self):
        reg = LabelRegistry.from_rows(self.rows())
        with pytest.raises(UnknownClass):
            reg.label(17)

    def test_unknown_name(self):
        reg = LabelRegistry.from_rows(self.rows())
        with pytest.raises(UnknownClass):
            reg.index_of("Carangidae")

    def test_predict_hierarchical(self):
        reg = LabelRegistry.from_rows(self.rows())
        sco = reg.index_of("Scombridae")
        rows = [((0.9,), sco)] * 3
        tree = dtree.fit(rows)
        label = reg.label(dtree.predict_class(tree, (0.5,)))
        assert label.family == "Scombridae"

    def test_predict_hierarchical_unknown_class(self):
        reg = LabelRegistry.from_rows(self.rows())
        tree = dtree.fit([((0.5,), 5)] * 3)  # class index outside the registry
        with pytest.raises(UnknownClass):
            reg.label(dtree.predict_class(tree, (0.5,)))
