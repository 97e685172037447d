"""The split scans against one-cut-at-a-time pure-Python references.

Each reference tries every feature and every cut between adjacent distinct
values, in (feature, threshold) order, and keeps a candidate only when it is
strictly better, so the first of equally good candidates wins.  The data are
tie-heavy: iris columns rounded to integers, with random labels, so many
cuts share a cost.  A tree scans a small node in plain Python and a larger
one in one array pass; both scans are also checked against each other, and
the forest's one-feature draw against the ``Generator.choice`` it stands for.
"""

from __future__ import annotations

import numpy as np
import pytest

from ldmcap.classifiers import AdaBoostModel, DecisionTreeModel, RandomForestModel, tree


def _cuts(column):
    """Pairs (lo, hi) of adjacent distinct values of a column, ascending."""
    values = sorted(set(column))
    return list(zip(values, values[1:]))


def _threshold(lo, hi):
    mid = 0.5 * (lo + hi)
    return mid if mid < hi else lo


def gini_root_split(X, y, num_classes):
    """(feature, threshold) of the least-cost Gini split, or None for a leaf.

    The cost is (n_left * gini_left + n_right * gini_right) / n; a split must
    beat the parent's impurity by more than 1e-12.
    """
    n = len(y)
    counts = [y.count(c) for c in range(num_classes)]
    best = None
    for f in range(len(X[0])):
        column = [row[f] for row in X]
        for lo, hi in _cuts(column):
            left = [0] * num_classes
            for value, c in zip(column, y):
                if value <= lo:
                    left[c] += 1
            right = [t - l for t, l in zip(counts, left)]
            n_left = sum(left)
            n_right = n - n_left
            gini_left = 1.0 - sum(c * c for c in left) / n_left**2
            gini_right = 1.0 - sum(c * c for c in right) / n_right**2
            cost = (n_left * gini_left + n_right * gini_right) / n
            if best is None or cost < best[0]:
                best = (cost, f, _threshold(lo, hi))
    parent = 1.0 - sum((c / n) ** 2 for c in counts)
    if best is None or best[0] >= parent - 1e-12:
        return None
    return best[1], best[2]


def samme_first_stump(X, y, num_classes):
    """(error, feature, threshold, c_left, c_right) of SAMME's first stump.

    Every row weighs 1/n.  Within a feature the cut with the largest
    correctly classified weight wins; across features the lowest error
    1 - correct wins; the majority classes on either side break ties toward
    the lower class.  Feature -1 is the constant stump of no cut at all.
    """
    n = len(y)
    w = 1.0 / n
    total = [0.0] * num_classes
    for c in y:
        total[c] += w
    best = None
    for f in range(len(X[0])):
        column = [row[f] for row in X]
        feature_best = None
        for lo, hi in _cuts(column):
            left = [0.0] * num_classes
            for value, c in zip(column, y):
                if value <= lo:
                    left[c] += w
            right = [t - l for t, l in zip(total, left)]
            correct = max(left) + max(right)
            if feature_best is None or correct > feature_best[0]:
                feature_best = (correct, _threshold(lo, hi), left, right)
        if feature_best is not None:
            correct, threshold, left, right = feature_best
            err = 1.0 - correct
            if best is None or err < best[0]:
                best = (err, f, threshold, left.index(max(left)), right.index(max(right)))
    if best is None:
        c = total.index(max(total))
        return 1.0 - total[c], -1, 0.0, c, c
    return best


def _tie_heavy(seed, iris):
    rng = np.random.default_rng(seed)
    rows = rng.choice(iris.n_examples, size=int(rng.integers(20, iris.n_examples + 1)),
                      replace=False)
    num_classes = int(rng.integers(2, 4))
    X = np.round(iris.features[rows])
    return X, rng.integers(0, num_classes, rows.size), num_classes


def _assert_root_matches_exhaustive_gini_search(X, y, num_classes):
    model = DecisionTreeModel(X, y, num_classes, max_depth=1)
    expected = gini_root_split(X.tolist(), y.tolist(), num_classes)
    if expected is None:
        assert model._left[0] == 0  # the root is a leaf
    else:
        assert (int(model._feature[0]), float(model._threshold[0])) == expected


@pytest.mark.parametrize("seed", range(50))
def test_tree_root_matches_exhaustive_gini_search(seed, iris):
    _assert_root_matches_exhaustive_gini_search(*_tie_heavy(seed, iris))


@pytest.mark.parametrize("columns", ["all", "one"])
@pytest.mark.parametrize("seed", range(25))
def test_small_tree_root_matches_exhaustive_gini_search(seed, columns, iris):
    # 2-12 rows of four features, or of one, fit the plain-Python scan
    rng = np.random.default_rng(1000 + seed)
    rows = rng.choice(iris.n_examples, size=int(rng.integers(2, 13)), replace=False)
    num_classes = int(rng.integers(2, 4))
    X = np.round(iris.features[rows])
    if columns == "one":
        X = X[:, [int(rng.integers(X.shape[1]))]]
    assert X.size <= tree._SMALL_SCAN_CELLS
    _assert_root_matches_exhaustive_gini_search(X, rng.integers(0, num_classes, rows.size),
                                                num_classes)


def _node_table(rng):
    """A node's (features x rows) table, its labels and class counts; the
    table's cell count lies within a factor of two of the scan threshold."""
    n_features = int(rng.integers(1, 5))
    cells = int(rng.integers(2, 2 * tree._SMALL_SCAN_CELLS + 1))
    n = max(2, cells // n_features)
    kind = rng.integers(4)
    if kind == 0:  # few distinct values, many repeats
        values = rng.choice([-1.5, 0.25, 2.0, 7.0], size=(n_features, n))
    elif kind == 1:  # integer-rounded
        values = np.round(rng.normal(0.0, 2.0, (n_features, n)))
    elif kind == 2:  # both signed zeros beside their neighbours
        values = rng.choice([-0.0, 0.0, -5e-324, 5e-324, 1.0], size=(n_features, n))
    else:
        values = rng.normal(0.0, 1.0, (n_features, n))
    num_classes = int(rng.integers(2, 6))
    labels = rng.integers(0, max(2, num_classes - 1), n)  # the top class may be absent
    return values, labels, np.bincount(labels, minlength=num_classes)


@pytest.mark.parametrize("seed", range(20))
def test_small_scan_matches_table_scan(seed):
    rng = np.random.default_rng(seed)
    for _ in range(25):
        values, labels, counts = _node_table(rng)
        table = tree._table_scan(values, labels, counts)
        small = tree._small_scan(values.tolist(), labels.tolist(), counts.tolist())
        if table is None:
            assert small is None
            continue
        cost, row, threshold, child_counts = small
        assert (cost, row) == table[:2]
        assert np.float64(threshold).tobytes() == np.float64(table[2]).tobytes()
        assert np.array_equal(child_counts, table[3])


@pytest.mark.parametrize("max_features", [None, 2, 1])
def test_tree_is_the_same_whichever_scan_takes_each_node(max_features, iris, monkeypatch):
    y = np.random.default_rng(3).integers(0, 3, iris.n_examples)

    def grow():
        return DecisionTreeModel(iris.features, y, 3, max_features=max_features,
                                 rng=np.random.default_rng(8))

    mixed = grow()
    monkeypatch.setattr(tree, "_SMALL_SCAN_CELLS", 0)
    arrays = grow()
    monkeypatch.setattr(tree, "_SMALL_SCAN_CELLS", iris.features.size)
    plain = grow()
    for other in (arrays, plain):
        for name in ("_feature", "_threshold", "_left", "_right", "_probs"):
            assert np.array_equal(getattr(mixed, name), getattr(other, name))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7, 13, 1000])
def test_one_feature_draw_is_the_choice_it_replaces(d):
    # a one-feature node draws rng.integers(d) in place of
    # rng.choice(d, size=1, replace=False): the same feature and the same
    # generator state after it, between bootstrap-sized draws too
    for seed in range(5):
        chosen, drawn = np.random.default_rng(seed), np.random.default_rng(seed)
        for i in range(200):
            assert chosen.choice(d, size=1, replace=False)[0] == drawn.integers(d)
            if i % 7 == 0:
                chosen.integers(0, 150, size=150)
                drawn.integers(0, 150, size=150)
        assert chosen.bit_generator.state == drawn.bit_generator.state


@pytest.mark.parametrize("seed", range(50))
def test_adaboost_first_stump_matches_exhaustive_samme_search(seed, iris):
    X, y, num_classes = _tie_heavy(seed, iris)
    model = AdaBoostModel(X, y, num_classes, rounds=1)
    err, *stump = samme_first_stump(X.tolist(), y.tolist(), num_classes)
    if err >= 1.0 - 1.0 / num_classes - 1e-10:
        assert model._stumps == []  # no better than chance: nothing kept
    else:
        assert list(model._stumps[0][:4]) == stump


@pytest.mark.parametrize(
    "build",
    [
        lambda X, y: DecisionTreeModel(X, y, 3),
        lambda X, y: DecisionTreeModel(X, y, 3, max_depth=3),
        lambda X, y: RandomForestModel(X, y, 3, 5, 1, None, np.random.default_rng(2)),
    ],
    ids=["unpruned", "depth3", "forest"],
)
def test_batch_prediction_matches_row_by_row(build, iris):
    # rows reach leaves at different depths; walking them together must not
    # move any row past its leaf
    X = iris.features
    model = build(X, np.random.default_rng(9).integers(0, 3, X.shape[0]))
    batch = model.predict_proba_batch(X)
    assert np.array_equal(batch, np.array([model.predict_proba(x) for x in X]))


def test_adaboost_never_cuts_a_constant_column(iris):
    rng = np.random.default_rng(4)
    X = np.column_stack([
        np.full(iris.n_examples, 2.0), iris.features[:, 0],
        np.full(iris.n_examples, -1.0), np.round(iris.features[:, 2]),
    ])
    model = AdaBoostModel(X, rng.integers(0, 3, iris.n_examples), 3, rounds=30)
    assert len(model._stumps) > 1
    assert {f for f, *_ in model._stumps} <= {1, 3}


def test_subsampled_tree_on_constant_columns_is_one_leaf():
    y = np.array([0, 1, 1, 2, 2, 2, 1, 0])
    model = DecisionTreeModel(np.ones((y.size, 3)), y, 3, max_features=1,
                              rng=np.random.default_rng(0))
    assert model._left.size == 1
    probe = np.array([[1.0, 1.0, 1.0], [0.0, 5.0, -3.0]])
    assert np.array_equal(model.predict_proba_batch(probe), [[0.25, 0.375, 0.375]] * 2)
