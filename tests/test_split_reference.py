"""The tree's split scan and AdaBoost's stumps against one-cut-at-a-time
pure-Python references, and whole AdaBoost fits against a plain SAMME
reference.

Each reference tries every feature and every cut between adjacent distinct
values, in (feature, threshold) order, and keeps a candidate only when it is
strictly better, so the first of equally good candidates wins.  The data are
tie-heavy: iris columns rounded to integers, with random labels, so many
cuts share a cost.  The tree's split scan, with its impurity gate, is also
checked against the gated reference node by node, whole trees and forests
against pinned digests of their node tables, every tree of a level-wise
batch against a single fit, and the forest's one-feature draw
against the ``Generator.choice`` it stands for.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from ldmcap.classifiers import FAMILIES, AdaBoostModel, DecisionTreeModel, RandomForestModel, tree
from ldmcap.classifiers.base import log_softmax_rows
from ldmcap.dataset import LabeledDataset


def _cuts(column):
    """Pairs (lo, hi) of adjacent distinct values of a column, ascending."""
    values = sorted(set(column))
    return list(zip(values, values[1:]))


def _threshold(lo, hi):
    mid = 0.5 * (lo + hi)
    return mid if mid < hi else lo


def table_scan(columns, y, num_classes):
    """(cost, column index, threshold, [left counts, right counts]) of the
    first least-cost cut of a node's columns, or None when none has two
    distinct values.  The cost is (n_left * gini_left + n_right * gini_right) / n.
    """
    n = len(y)
    counts = [y.count(c) for c in range(num_classes)]
    best = None
    for f, column in enumerate(columns):
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
                best = (cost, f, _threshold(lo, hi), [left, right])
    return best


def gated_table_scan(columns, y, num_classes):
    """``table_scan``'s cut if it beats the parent's impurity, 1 minus the
    sum of the squared class fractions, by more than 1e-12; else None."""
    n = len(y)
    best = table_scan(columns, y, num_classes)
    parent = 1.0 - sum((y.count(c) / n) ** 2 for c in range(num_classes))
    if best is None or best[0] >= parent - 1e-12:
        return None
    return best


def gini_root_split(X, y, num_classes):
    """(feature, threshold) of the least-cost Gini split, or None for a leaf."""
    best = gated_table_scan([list(column) for column in zip(*X)], y, num_classes)
    return None if best is None else best[1:3]


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
    model = DecisionTreeModel(LabeledDataset(X, y, num_classes), max_depth=1)
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
    # 2-12 rows of four features, or of one
    rng = np.random.default_rng(1000 + seed)
    rows = rng.choice(iris.n_examples, size=int(rng.integers(2, 13)), replace=False)
    num_classes = int(rng.integers(2, 4))
    X = np.round(iris.features[rows])
    if columns == "one":
        X = X[:, [int(rng.integers(X.shape[1]))]]
    _assert_root_matches_exhaustive_gini_search(X, rng.integers(0, num_classes, rows.size),
                                                num_classes)


def _node_table(rng):
    """A node's (features x rows) table of 2-96 cells, its labels and class
    counts."""
    n_features = int(rng.integers(1, 5))
    cells = int(rng.integers(2, 97))
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
def test_split_scan_matches_table_scan(seed):
    # the tree's split scan, impurity gate included, against the exhaustive
    # gated reference, to the bit; the node's rows come in a shuffled order,
    # and its children must be exactly the rows on either side of the threshold
    rng, shuffle = np.random.default_rng(seed), np.random.default_rng(100 + seed)
    for _ in range(25):
        values, labels, counts = _node_table(rng)
        columns = values.tolist()
        expected = gated_table_scan(columns, labels.tolist(), counts.size)
        rows = shuffle.permutation(labels.size).tolist()
        found = tree._split_scan(rows, range(len(columns)), columns, labels.tolist(),
                                 counts.tolist())
        if expected is None:
            assert found is None
            continue
        cost, feature, threshold, child_counts, (left_rows, right_rows) = found
        assert (cost, feature) == expected[:2]
        assert np.float64(threshold).tobytes() == np.float64(expected[2]).tobytes()
        assert child_counts == expected[3]
        column = columns[feature]
        assert sorted(left_rows) == [r for r in range(labels.size) if column[r] <= threshold]
        assert sorted(right_rows) == [r for r in range(labels.size) if column[r] > threshold]


@pytest.mark.parametrize("moved_to", [None, 1, 2])
def test_gate_passes_the_least_gain_and_no_zero_gain(moved_to):
    # 500 values of one feature, each holding the class mix [0, 1, 1, 2, 2, 2]:
    # every cut gains exactly 0, so the root is a leaf.  Moving the middle
    # value's class-0 row to another class leaves the middle cut as the best,
    # with an exact gain of 2/9 * 1e-6; the 1e-12 gate must pass it, where a
    # margin of 1e-6 would not.
    X = np.repeat(np.arange(500.0), 6)[:, None]
    y = np.tile([0, 1, 1, 2, 2, 2], 500)
    if moved_to is not None:
        y[1500] = moved_to
    model = DecisionTreeModel(LabeledDataset(X, y, 3), max_depth=1)
    if moved_to is None:
        assert model._left[0] == 0  # the root is a leaf
    else:
        assert (int(model._feature[0]), float(model._threshold[0])) == (0, 249.5)


_TREE_ARRAYS = ("_feature", "_threshold", "_left", "_right", "_probs", "_depth", "_roots")


def _digest(model, *arrays):
    """sha256 of the model's node table and of ``arrays``: dtype, shape and bytes."""
    digest = hashlib.sha256()
    for value in [getattr(model, name) for name in _TREE_ARRAYS] + list(arrays):
        value = np.asarray(value)
        digest.update(f"{value.dtype.str}{value.shape}".encode())
        digest.update(value.tobytes())
    return digest.hexdigest()


# Recorded from the grower that scanned nodes of more than 48 cells in one
# numpy pass and smaller ones in plain Python, and that gated each split on
# a Gini impurity numpy summed in blocks for eight or more classes; the one
# scan with its own integer gate must give the same tables on every CPU.
# Keyed by (max_features, max_depth, num_classes).
_TREE_DIGESTS = {
    (None, None, 3): "2654e61295dcb4856d484297d9ab4daf801455b773510ce1e3f7d385f985dd52",
    (None, 5, 3): "32dfb1a28593d9fc14aa6fd8d97392b3c0f43e28263651dc22b3dc53db3fc6a9",
    (None, None, 9): "82914c7552e56cba255b1db376ea00f3d4e2cdcfddd49dc413310916e4d1c4c6",
    (None, 5, 9): "c4cc2d6142ff2dcd0886e981266c20a24e8a16793945a3ee4ec96eec0ca00572",
    (2, None, 3): "0ae76365ee581296dc7ee225df1fa0fa390d944cc856e113728f103f31f6c2e5",
    (2, 5, 3): "029ce63b73f2beafacbb711ea0385e05bea65265fa4366b34c8f117f5dbeeb19",
    (2, None, 9): "845427fab34844086d70fbeadcd6dbd9b97b19d28104b81c16c9f8c9bd1ce533",
    (2, 5, 9): "d4a68d482bf8cbde2d1dcd3e1605c0a3a12bc62e2259f9380f6a5231b0ad297a",
    (1, None, 3): "0ac4a2e4cfecc1c3ce51a56aa1cb7521c736a531c1023b4ca9408cf5b36e936a",
    (1, 5, 3): "c4e7b050b0a5d939fea0902b74bc20eb9ea2a7d632e16357bdcc1d6ffeab5c8d",
    (1, None, 9): "69e354543526e775e2c7a2b01df8750039961b265553165616f934d87e5d67d2",
    (1, 5, 9): "b5f718160c7f961abea33071c117c7560c81b1951289ef9d7469aafff9ec8bca",
}

# The same for a ten-tree forest with one feature per node, its predictions on
# the training rows included; keyed by (max_depth, num_classes).
_FOREST_DIGESTS = {
    (None, 3): "47b92e61613ebbc092a7162a6871c2f64cb69f760b05f0291b53eefa9554c653",
    (5, 3): "70445084ddb880233c088596230e54f64b622eb6d2322388bd20ba8c6ca161eb",
    (None, 9): "4969596fb4a4520ac8371753d5a757de922440053b80c542e2d8d68c3c6c5764",
    (5, 9): "4b8cced885b6e4e38c9b9fe07c94fb8d7dedb91252237b6e777f0544d4f1a61a",
}


@pytest.mark.parametrize("max_features", [None, 2, 1])
def test_tree_matches_its_pinned_digest(max_features, iris):
    for max_depth, num_classes in [(None, 3), (5, 3), (None, 9), (5, 9)]:
        y = np.random.default_rng(3).integers(0, num_classes, iris.n_examples)
        model = DecisionTreeModel(LabeledDataset(iris.features, y, num_classes),
                                  max_depth=max_depth, max_features=max_features,
                                  rng=np.random.default_rng(8))
        assert _digest(model) == _TREE_DIGESTS[max_features, max_depth, num_classes]


@pytest.mark.parametrize("num_classes", [3, 9])
@pytest.mark.parametrize("max_depth", [None, 5])
def test_forest_matches_its_pinned_digest(max_depth, num_classes, iris):
    y = np.random.default_rng(4).integers(0, num_classes, iris.n_examples)
    model = RandomForestModel(LabeledDataset(iris.features, y, num_classes), 10, 1, max_depth,
                              np.random.default_rng(6))
    digest = _digest(model, model.predict_proba_batch(iris.features))
    assert digest == _FOREST_DIGESTS[max_depth, num_classes]


@pytest.mark.parametrize("max_depth", [None, 5, 2, 1])
@pytest.mark.parametrize(
    "features",
    [lambda iris: iris.features, lambda iris: np.round(iris.features),
     lambda iris: _signed_zeros(iris)],
    ids=["iris", "rounded", "signed-zeros"],
)
def test_batched_trees_match_the_depth_first_grower(features, max_depth, iris):
    # the level-wise grower fits many labelings at once; each of its trees
    # must be bit for bit the tree a single fit grows depth first from the
    # same labels
    X = features(iris)
    for num_classes in (2, 3, 5):
        labels = np.random.default_rng(num_classes).integers(0, num_classes, (8, X.shape[0]))
        train = LabeledDataset(X, labels[0], num_classes)
        batch = FAMILIES["decision_tree"].batch(train, labels, {"max_depth": max_depth})
        for y, tree in zip(labels, batch):
            assert _digest(tree) == _digest(DecisionTreeModel(train.with_labels(y), max_depth))


def _signed_zeros(iris):
    rng = np.random.default_rng(11)
    return rng.choice([-0.0, 0.0, -5e-324, 5e-324, 1e-310], size=(iris.n_examples, 1))


@pytest.mark.parametrize("max_depth", [None, 5])
@pytest.mark.parametrize(
    "features",
    [lambda iris: iris.features, lambda iris: np.round(iris.features), _signed_zeros],
    ids=["iris", "rounded", "signed-zeros"],
)
def test_tree_ignores_the_order_of_its_rows(features, max_depth, iris):
    # the split scan hands each child its rows in the order of the parent's
    # sort, so the tree must not depend on the order its rows come in
    X = features(iris)
    y = np.random.default_rng(5).integers(0, 3, X.shape[0])
    shuffled = np.random.default_rng(7).permutation(X.shape[0])
    model = DecisionTreeModel(LabeledDataset(X, y, 3), max_depth=max_depth)
    permuted = DecisionTreeModel(LabeledDataset(X[shuffled], y[shuffled], 3), max_depth=max_depth)
    assert model._left.size > 1
    assert _digest(permuted) == _digest(model)


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
    model = AdaBoostModel(LabeledDataset(X, y, num_classes), rounds=1)
    err, *stump = samme_first_stump(X.tolist(), y.tolist(), num_classes)
    if err >= 1.0 - 1.0 / num_classes - 1e-10:
        assert model._stumps.tolist() == []  # no better than chance: nothing kept
    else:
        assert list(model._stumps.tolist()[0][:4]) == stump


def samme_reference(X, y, num_classes, rounds):
    """SAMME's stumps (feature, threshold, c_left, c_right, alpha) over
    ``rounds`` rounds, each round scanning one cumsum of every class's weight
    over every feature's sorted rows.

    A cut's correct weight is the largest class weight below it plus the
    largest above it; positions where the sorted value does not change are
    -inf.  Within a feature the first maximum wins, across features the first
    minimum of 1 - correct.  With no cut anywhere the stump is feature 0 with
    the weighted-majority class on both sides.
    """
    n, d = X.shape
    orders = np.argsort(X, axis=0, kind="stable").T
    sorted_values = np.take_along_axis(X.T, orders, axis=1)
    no_cut = sorted_values[:, 1:] <= sorted_values[:, :-1]
    weights = np.full(n, 1.0 / n)
    stumps = []
    for _ in range(rounds):
        total = np.bincount(y, weights, minlength=num_classes)
        if no_cut.all():
            c = int(np.argmax(total))
            err, f, threshold, c_left, c_right = 1.0 - float(total[c]), 0, 0.0, c, c
        else:
            below = np.array([
                [np.cumsum(np.where(y[order] == c, weights[order], 0.0))[:-1] for order in orders]
                for c in range(num_classes)
            ])
            above = total[:, None, None] - below
            correct = below.max(axis=0) + above.max(axis=0)
            correct[no_cut] = -np.inf
            cut = correct.argmax(axis=1)
            errors = 1.0 - correct[np.arange(d), cut]
            f = int(errors.argmin())
            j = int(cut[f])
            err = float(errors[f])
            threshold = _threshold(float(sorted_values[f, j]), float(sorted_values[f, j + 1]))
            c_left, c_right = int(np.argmax(below[:, f, j])), int(np.argmax(above[:, f, j]))
        if err >= 1.0 - 1.0 / num_classes - 1e-10:
            break
        clipped = max(err, 1e-10)
        alpha = float(np.log((1.0 - clipped) / clipped) + np.log(num_classes - 1))
        stumps.append((f, threshold, c_left, c_right, alpha))
        if err <= 1e-10:
            break
        pred = np.where(X[:, f] <= threshold, c_left, c_right)
        weights = weights * np.exp(alpha * (pred != y))
        weights /= weights.sum()
    return stumps


def samme_reference_proba(stumps, present, X):
    """Softmax of the vote scores, each stump voting by one mask per side."""
    scores = np.zeros((X.shape[0], present.size))
    scores[:, ~present] = -np.inf
    for f, threshold, c_left, c_right, alpha in stumps:
        left = X[:, f] <= threshold
        scores[left, c_left] += alpha
        scores[~left, c_right] += alpha
    return log_softmax_rows(scores)


def _boosting_data(seed, iris):
    """Features, labels and class count of one oracle fit; the kind cycles
    through iris's own labels, ``_tie_heavy`` data, rounded features with a
    constant column, raw features with a column of signed zeros, and only
    constant columns, with 2-5 classes of which the top one may be absent."""
    rng = np.random.default_rng(3000 + seed)
    kind = seed % 5
    if kind == 1:
        return _tie_heavy(seed, iris)
    rows = rng.choice(iris.n_examples, size=int(rng.integers(20, iris.n_examples + 1)),
                      replace=False)
    X = iris.features[rows]
    if kind == 0:
        return X, iris.labels[rows], 3
    num_classes = int(rng.integers(2, 6))
    drawn = num_classes - int(rng.integers(2))  # the top class may be absent
    y = rng.integers(0, drawn, rows.size)
    if kind == 2:
        X = np.round(X)
        X = np.insert(X, int(rng.integers(X.shape[1] + 1)), float(rng.integers(-2, 3)), axis=1)
    elif kind == 3:
        X = X.copy()
        X[:, int(rng.integers(X.shape[1]))] = rng.choice([-0.0, 0.0, 5e-324, 1.0], rows.size)
    elif kind == 4:
        X = np.broadcast_to(X[0], X.shape).copy()
    return X, y, num_classes


def _probes(X, stumps, rng):
    """Off-training rows: jittered and rescaled training rows, every stump's
    threshold and its neighbours planted in its feature, and NaN."""
    n, d = X.shape
    probes = [X[rng.integers(n, size=12)] + rng.normal(0.0, 0.5, (12, d)),
              X[rng.integers(n, size=4)] * 1.5, np.full((1, d), np.nan)]
    for f, threshold, *_ in stumps[:8]:
        planted = X[rng.integers(n, size=3)].copy()
        planted[:, f] = [threshold, np.nextafter(threshold, -np.inf),
                         np.nextafter(threshold, np.inf)]
        probes.append(planted)
    return np.vstack(probes)


@pytest.mark.parametrize("seed", range(70))
def test_adaboost_matches_the_samme_reference(seed, iris):
    # 210 fits at 1, 3 and 50 rounds: every stump and alpha equal, and the
    # probabilities' bytes equal on training rows, off-training rows and no rows
    X, y, num_classes = _boosting_data(seed, iris)
    train = LabeledDataset(X, y, num_classes)
    present = np.bincount(y, minlength=num_classes) > 0
    for rounds in (1, 3, 50):
        model = AdaBoostModel(train, rounds=rounds)
        stumps = samme_reference(X, y, num_classes, rounds)
        assert model._stumps.tolist() == stumps
        probes = _probes(X, stumps, np.random.default_rng(seed))
        for rows in (X, probes, np.empty((0, X.shape[1]))):
            found = model.predict_proba_batch(rows)
            expected = samme_reference_proba(stumps, present, rows)
            assert found.shape == expected.shape == (rows.shape[0], num_classes)
            assert found.tobytes() == expected.tobytes()


@pytest.mark.parametrize("seed", range(10))
def test_adaboost_batch_matches_the_samme_reference_fit_by_fit(seed, iris):
    # the fits of one batch run their rounds in lockstep and leave it one by
    # one; each must still be the reference's fit on its own labels
    X, _, num_classes = _boosting_data(seed, iris)
    labels = np.random.default_rng(seed).integers(0, num_classes, (6, X.shape[0]))
    labels[1] = 0  # one class only: a perfect first stump ends the fit
    labels[2] %= 2  # classes absent
    train = LabeledDataset(X, labels[0], num_classes)
    for rounds in (3, 50):
        for y, model in zip(labels, FAMILIES["adaboost"].batch(train, labels, {"rounds": rounds})):
            assert model._stumps.tolist() == samme_reference(X, y, num_classes, rounds)
            assert np.array_equal(model._present, np.bincount(y, minlength=num_classes) > 0)


def test_adaboost_batch_fits_that_stop_at_different_rounds_match_lone_fits():
    # on 40 rows of 3 binary features the fits of one batch stop at many
    # different rounds; each must still be its lone fit and the reference's,
    # whichever row of the batch it is
    train = LabeledDataset(np.random.default_rng(0).integers(0, 2, (40, 3)), np.zeros(40, int), 2)
    labels, rounds = np.random.default_rng(1).integers(0, 2, (36, 40)), 50
    for batch in (labels, labels[::-1]):
        models = FAMILIES["adaboost"].batch(train, batch, {"rounds": rounds})
        counts = {len(model._stumps) for model in models}
        assert len(counts) > 2 and any(1 < count < rounds for count in counts)
        for y, model in zip(batch, models):
            lone = AdaBoostModel(train.with_labels(y), rounds)
            assert model._stumps.tobytes() == lone._stumps.tobytes()
            assert np.array_equal(model._present, lone._present)
            assert model._stumps.tolist() == samme_reference(train.features, y, 2, rounds)


@pytest.mark.parametrize(
    "build",
    [
        lambda train: DecisionTreeModel(train),
        lambda train: DecisionTreeModel(train, max_depth=3),
        lambda train: RandomForestModel(train, 5, 1, None, np.random.default_rng(2)),
        lambda train: RandomForestModel(train, 5, 2, 3, np.random.default_rng(2)),
        lambda train: AdaBoostModel(train, rounds=50),
    ],
    ids=["unpruned", "depth3", "forest", "forest-depth3", "adaboost"],
)
def test_batch_prediction_matches_row_by_row(build, iris):
    # rows reach leaves at different depths; walking them together must not
    # move any row past its leaf
    X = iris.features
    model = build(LabeledDataset(X, np.random.default_rng(9).integers(0, 3, X.shape[0]), 3))
    batch = model.predict_proba_batch(X)
    assert np.array_equal(batch, np.array([model.predict_proba(x) for x in X]))


def test_adaboost_never_cuts_a_constant_column(iris):
    rng = np.random.default_rng(4)
    X = np.column_stack([
        np.full(iris.n_examples, 2.0), iris.features[:, 0],
        np.full(iris.n_examples, -1.0), np.round(iris.features[:, 2]),
    ])
    model = AdaBoostModel(LabeledDataset(X, rng.integers(0, 3, iris.n_examples), 3), rounds=30)
    assert len(model._stumps) > 1
    assert {f for f, *_ in model._stumps} <= {1, 3}


def test_subsampled_tree_on_constant_columns_is_one_leaf():
    y = np.array([0, 1, 1, 2, 2, 2, 1, 0])
    model = DecisionTreeModel(LabeledDataset(np.ones((y.size, 3)), y, 3), max_features=1,
                              rng=np.random.default_rng(0))
    assert model._left.size == 1
    probe = np.array([[1.0, 1.0, 1.0], [0.0, 5.0, -3.0]])
    assert np.array_equal(model.predict_proba_batch(probe), [[0.25, 0.375, 0.375]] * 2)
