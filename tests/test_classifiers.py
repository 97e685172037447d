from __future__ import annotations

import pickle

import numpy as np
import pytest

from ldmcap import ClassifierSpec, dirichlet, fit, ldm_spec, parse_spec
from ldmcap.classifiers import (
    FAMILIES,
    AdaBoostModel,
    DecisionTreeModel,
    Family,
    GaussianNbModel,
    KnnModel,
    QdaModel,
    RandomForestModel,
    batch_size,
    fit_batch,
)
from ldmcap.classifiers.tree import _grow
from ldmcap.dataset import LabeledDataset
from ldmcap.errors import InvalidDatasetError


def _ds(features, labels, num_classes=None):
    labels = np.asarray(labels)
    if num_classes is None:
        num_classes = int(labels.max()) + 1
    return LabeledDataset(np.asarray(features, dtype=float), labels, num_classes)


_FOUR_ROWS = np.array([[0.0], [1.0], [2.0], [3.0]])

BLOBS = _ds(
    [[0.0, 0.0], [0.1, 0.1], [-0.1, 0.1], [5.0, 5.0], [5.1, 4.9], [4.9, 5.1]],
    [0, 0, 0, 1, 1, 1],
)


# ---------------------------------------------------------------------------
# shared contract
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", FAMILIES)
def test_predict_proba_rows_are_distributions(family, iris):
    model = fit(ClassifierSpec(family), iris, rng=np.random.default_rng(0))
    probs = model.predict_proba_batch(iris.features[:25])
    assert probs.shape == (25, 3)
    assert np.all(probs >= 0)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)


@pytest.mark.parametrize("family", FAMILIES)
def test_single_point_prediction_matches_batch(family, iris):
    model = fit(ClassifierSpec(family), iris, rng=np.random.default_rng(0))
    one = model.predict_proba(iris.features[7])
    batch = model.predict_proba_batch(iris.features[7:8])[0]
    assert np.array_equal(one, batch)


@pytest.mark.parametrize("family", FAMILIES)
def test_separable_blobs_are_learned(family):
    model = fit(ClassifierSpec(family), BLOBS, rng=np.random.default_rng(0))
    preds = model.predict_batch(BLOBS.features)
    assert np.array_equal(preds, BLOBS.labels)


@pytest.mark.parametrize("family", FAMILIES)
def test_absent_class_gets_no_mass(family):
    # trained with num_classes=3 but only labels {0, 1} present
    ds = _ds([[0.0], [0.2], [5.0], [5.2]], [0, 0, 1, 1], num_classes=3)
    model = fit(ClassifierSpec(family), ds, rng=np.random.default_rng(0))
    probs = model.predict_proba_batch(ds.features)
    assert probs.shape == (4, 3)
    assert np.all(probs[:, 2] < 1e-9)


@pytest.mark.parametrize("family", FAMILIES)
def test_fit_batch_gives_each_labeling_its_own_fit(family, iris):
    rng = np.random.default_rng(3)
    labeled = [iris.with_labels(rng.integers(0, 3, iris.n_examples)) for _ in range(5)]
    spec = ldm_spec(ClassifierSpec(family))
    for ds, model in zip(labeled, fit_batch(spec, labeled)):
        assert np.array_equal(model.predict_proba_batch(iris.features),
                              fit(spec, ds).predict_proba_batch(iris.features))


def test_fit_batch_rejects_datasets_that_differ_in_more_than_labels(iris):
    shifted = LabeledDataset(iris.features + 1.0, iris.labels, iris.num_classes)
    more_classes = LabeledDataset(iris.features, iris.labels, 4)
    for other in (shifted, more_classes):
        with pytest.raises(ValueError, match="differ only in their labels"):
            fit_batch(ClassifierSpec("decision_tree"), [iris, other])


def test_batch_size_is_one_unless_a_family_batches_enough_labelings(iris):
    per_labeling = 8 * iris.n_examples * iris.n_features * iris.num_classes
    assert batch_size(ClassifierSpec("adaboost"), iris) == dirichlet._BLOCK_BYTES // per_labeling
    assert batch_size(ClassifierSpec("knn"), iris) == 1
    # 2,000 rows of 10 features and 2 classes: one labeling's array is 320,000
    # bytes, so one labeling fills a block
    wide = LabeledDataset(np.zeros((2000, 10)), np.zeros(2000, int), 2)
    assert batch_size(ClassifierSpec("decision_tree"), wide) == 1


def test_predict_breaks_argmax_ties_toward_lower_class():
    model = KnnModel(_ds([[0.0], [1.0]], [1, 0]), k=2)
    # both neighbours tie at 0.5/0.5 -> argmax must return class 0
    assert model.predict(np.array([0.5])) == 0


# ---------------------------------------------------------------------------
# k-nearest neighbours
# ---------------------------------------------------------------------------


def test_knn_votes_are_neighbour_fractions():
    model = KnnModel(_ds([[0.0], [1.0], [2.0], [10.0]], [0, 0, 1, 1]), k=3)
    probs = model.predict_proba(np.array([0.9]))
    assert np.allclose(probs, [2 / 3, 1 / 3])


def test_knn_k1_memorizes_training_points(iris):
    model = KnnModel(iris, k=1)
    preds = model.predict_batch(iris.features)
    assert np.array_equal(preds, iris.labels)


def test_knn_distance_ties_go_to_lower_train_index():
    # two training rows at identical locations with different labels: the
    # k=1 neighbour must be the earlier row
    model = KnnModel(_ds([[1.0, 2.0], [1.0, 2.0], [9.0, 9.0]], [1, 0, 0]), k=1)
    assert np.allclose(model.predict_proba(np.array([1.0, 2.0])), [0.0, 1.0])


def _knn_by_stable_sort(features, labels, num_classes, k, X):
    """Class fractions among the first k rows of a stable argsort of the distances."""
    d2 = (
        np.einsum("ij,ij->i", X, X)[:, None]
        + np.einsum("ij,ij->i", features, features)[None, :]
        - 2.0 * X @ features.T
    )
    order = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return (labels[order][:, :, None] == np.arange(num_classes)).sum(axis=1) / k


@pytest.mark.parametrize("k", [1, 2, 3, 5, 10, 50, 150])
def test_knn_picks_the_lower_of_duplicate_iris_rows(iris, k):
    # rows 101 and 142 of iris are the same flower, so every query sees them
    # at one distance; the selection must match a stable sort bit for bit
    rng = np.random.default_rng(k)
    queries = np.vstack([iris.features, iris.features + 0.05])
    for _ in range(5):
        labels = rng.integers(0, 3, size=iris.n_examples)
        labels[101], labels[142] = 0, 1
        probs = KnnModel(iris.with_labels(labels), k=k).predict_proba_batch(queries)
        assert np.array_equal(probs, _knn_by_stable_sort(iris.features, labels, 3, k, queries))
    if k == 1:
        assert probs[142].tolist() == [1.0, 0.0, 0.0]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_knn_puts_nan_distances_last(k):
    # training rows are finite, so only queries give NaN: the NaN and +inf
    # queries see only NaN (inf - inf, and 0 * inf at the origin row), the
    # -inf one NaN at the origin row and inf elsewhere, and 1e160 only inf
    # (its square overflows); a stable sort puts NaN after everything and
    # ties in index order
    train = _ds([[0.0, 0.0], [5.0, 0.0], [1.0, 0.0], [2.0, 0.0]], [0, 1, 2, 0])
    queries = np.array(
        [[0.0, 1.0], [0.5, 0.0], [np.nan, 0.0], [np.inf, 0.0], [-np.inf, 1.0], [1e160, 0.0]]
    )
    with np.errstate(invalid="ignore", over="ignore"):
        probs = KnnModel(train, k=k).predict_proba_batch(queries)
        expected = _knn_by_stable_sort(train.features, train.labels, 3, k, queries)
    assert np.array_equal(probs, expected)
    if k == 3:  # rows 0, 2 and 3 are nearest, row 1 is farthest
        assert probs[0].tolist() == [2 / 3, 0.0, 1 / 3]


def test_knn_k_clamped_to_training_size():
    model = KnnModel(_ds([[0.0], [1.0]], [0, 1]), k=100)
    assert np.allclose(model.predict_proba(np.array([0.4])), [0.5, 0.5])


def test_knn_rejects_nonpositive_k(iris):
    with pytest.raises(ValueError):
        KnnModel(iris, k=0)


# ---------------------------------------------------------------------------
# gaussian naive bayes
# ---------------------------------------------------------------------------


def test_gaussian_nb_matches_hand_rolled_two_gaussians():
    ds = _ds([[0.0], [2.0], [10.0], [12.0]], [0, 0, 1, 1])
    model = GaussianNbModel(ds)
    probs = model.predict_proba(np.array([1.0]))

    def log_pdf(x, mu, var):
        return -0.5 * (np.log(2 * np.pi * var) + (x - mu) ** 2 / var)

    # per-class MLE variance of {0,2} and {10,12} is 1.0, plus smoothing
    var = 1.0 + 1e-9 * np.var([0.0, 2.0, 10.0, 12.0])
    log0 = np.log(0.5) + log_pdf(1.0, 1.0, var)
    log1 = np.log(0.5) + log_pdf(1.0, 11.0, var)
    expected = np.exp([log0, log1])
    expected /= expected.sum()
    assert np.allclose(probs, expected, atol=1e-12)


def test_gaussian_nb_survives_zero_variance_feature():
    ds = _ds([[1.0, 0.0], [1.0, 0.1], [1.0, 5.0], [1.0, 5.1]], [0, 0, 1, 1])
    model = GaussianNbModel(ds)
    probs = model.predict_proba_batch(ds.features)
    assert np.all(np.isfinite(probs))
    assert np.array_equal(model.predict_batch(ds.features), ds.labels)


def test_gaussian_nb_extreme_outlier_does_not_underflow_to_nan():
    ds = _ds([[0.0], [1.0], [100.0], [101.0]], [0, 0, 1, 1])
    model = GaussianNbModel(ds)
    probs = model.predict_proba(np.array([1e6]))
    assert np.all(np.isfinite(probs))
    assert abs(probs.sum() - 1.0) < 1e-9


@pytest.mark.parametrize("family", ["gaussian_nb", "qda"])
@pytest.mark.parametrize("first", [np.nan, np.inf, 1e300], ids=["nan", "inf", "1e300"])
def test_gaussian_query_with_no_finite_likelihood_is_named(family, first, iris):
    # every class gives such a query a NaN or -inf log-likelihood (the square
    # of 1e300 overflows), so it has no probabilities to answer
    model = fit(ClassifierSpec(family), iris)
    queries = np.array([iris.features[0], [first, 3.5, 1.4, 0.2]])
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="row 1 has no finite log-likelihood"):
            model.predict_proba_batch(queries)


@pytest.mark.parametrize("family", ["gaussian_nb", "qda"])
def test_gaussian_query_too_large_to_square_raises_only_the_named_error(family, iris):
    # no errstate here: squaring 1e300 must not also warn (pytest makes a
    # RuntimeWarning an error), so the ValueError naming the row is all a caller sees
    model = fit(ClassifierSpec(family), iris)
    with pytest.raises(ValueError, match="row 0 has no finite log-likelihood"):
        model.predict_proba_batch(np.array([[1e300, 3.5, 1.4, 0.2]]))


# ---------------------------------------------------------------------------
# decision tree
# ---------------------------------------------------------------------------


def test_tree_single_split_learns_threshold():
    model = DecisionTreeModel(_ds([[1.0], [2.0], [8.0], [9.0]], [0, 0, 1, 1]))
    assert model.predict(np.array([0.0])) == 0
    assert model.predict(np.array([4.9])) == 0  # below midpoint 5.0
    assert model.predict(np.array([5.1])) == 1
    assert model.predict(np.array([20.0])) == 1


@pytest.mark.parametrize(
    "build", [DecisionTreeModel, lambda ds: AdaBoostModel(ds, rounds=5)],
    ids=["decision_tree", "adaboost"],
)
def test_split_between_adjacent_floats_keeps_both_rows_apart(build):
    # the midpoint of these two values rounds onto 1.0, so the threshold
    # must fall back to the left value for the split to separate the rows
    ds = _ds([[np.nextafter(1.0, 0.0)], [1.0]], [0, 1])
    assert 0.5 * (ds.features[0, 0] + ds.features[1, 0]) == 1.0
    assert np.array_equal(build(ds).predict_batch(ds.features), [0, 1])


def test_tree_unpruned_memorizes_iris(iris):
    model = DecisionTreeModel(iris, max_depth=None)
    preds = model.predict_batch(iris.features)
    # iris has exactly one duplicated feature row, and both copies share a
    # label, so an unpruned tree reproduces the training labels exactly
    assert np.array_equal(preds, iris.labels)


def test_tree_depth_cap_enforced():
    rng = np.random.default_rng(0)
    ds = _ds(rng.random((64, 3)), rng.integers(0, 2, 64))
    stump = DecisionTreeModel(ds, max_depth=1)
    # a depth-1 tree yields at most two distinct probability rows
    rows = {tuple(r) for r in stump.predict_proba_batch(ds.features).round(12)}
    assert len(rows) <= 2


def test_tree_identical_features_conflicting_labels_yield_split_mass():
    model = DecisionTreeModel(_ds([[1.0], [1.0]], [0, 1]))
    assert np.allclose(model.predict_proba(np.array([1.0])), [0.5, 0.5])


def test_tree_prefers_lower_feature_on_equal_gain():
    # both features separate the classes perfectly; the split must use
    # feature 0 so a probe differing only in feature 0 flips the prediction
    ds = _ds([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]], [0, 0, 1, 1])
    model = DecisionTreeModel(ds)
    assert model.predict(np.array([0.0, 1.0])) == 0
    assert model.predict(np.array([1.0, 0.0])) == 1


def test_tree_leaf_probabilities_are_class_fractions():
    model = DecisionTreeModel(_ds([[0.0], [0.0], [0.0], [5.0]], [0, 0, 1, 1]))
    assert np.allclose(model.predict_proba(np.array([0.0])), [2 / 3, 1 / 3])
    assert np.allclose(model.predict_proba(np.array([5.0])), [0.0, 1.0])


def test_tree_rejects_nonpositive_depth(iris):
    with pytest.raises(ValueError):
        DecisionTreeModel(iris, max_depth=0)


def test_forest_rejects_nonpositive_max_features(iris):
    with pytest.raises(ValueError, match="max_features"):
        RandomForestModel(iris, 2, 0, None, np.random.default_rng(0))


_HUGE = [[1e200, 0.0], [-1e200, 1.0], [1e200, 2.0], [3.0, 4.0], [5.0, 1.0], [2.0, 2.0]]


@pytest.mark.parametrize(
    "call, error, named",
    [
        (lambda: parse_spec("knn:k"), ValueError, "malformed spec parameter"),
        (lambda: parse_spec("knn:k=1,k=7"), ValueError, "parameter 'k' is given twice"),
        (lambda: KnnModel(BLOBS, k=1).predict_proba_batch(np.zeros((1, 3))), ValueError,
         "rows with 2 features"),
        (lambda: KnnModel(BLOBS, k=1).predict_proba(np.zeros(3)), ValueError,
         "vector of length 2"),
        (lambda: KnnModel(_FOUR_ROWS, k=1), TypeError, "models train on a LabeledDataset"),
        # Models train only on a LabeledDataset, so its checks are the ones
        # every model's training data gets.  sorted() cannot order NaN:
        # unchecked, this tree would fit and then predict [0, 1, 1, 1, 1] on
        # its own training rows
        (lambda: DecisionTreeModel(_ds([[0.0], [1.0], [np.nan], [2.0], [3.0]], [0, 0, 1, 1, 1])),
         InvalidDatasetError, "row 2, column 0 is nan"),
        (lambda: RandomForestModel(_ds([[0.0, 1.0], [1.0, np.nan], [2.0, 3.0]], [0, 1, 1]),
                                   5, 1, None),
         InvalidDatasetError, "row 1, column 1 is nan"),
        # unchecked, 1-NN would answer [0, 0] for a class-3 neighbour
        (lambda: KnnModel(_ds(_FOUR_ROWS, [0, 0, 3, 1], 2), k=1),
         InvalidDatasetError, r"labels must lie in \[0, 2\), got range \[0, 3\]"),
        (lambda: DecisionTreeModel(_ds(_FOUR_ROWS, [0, 0, 3, 1], 2)),
         InvalidDatasetError, r"labels must lie in \[0, 2\)"),
        (lambda: RandomForestModel(_ds(_FOUR_ROWS, [0, -1, 1, 1], 2), 5, 1, None),
         InvalidDatasetError, r"labels must lie in \[0, 2\), got range \[-1, 1\]"),
        (lambda: AdaBoostModel(_ds(_FOUR_ROWS, [0, 0, 3, 1], 2), rounds=5),
         InvalidDatasetError, r"labels must lie in \[0, 2\)"),
        (lambda: GaussianNbModel(_ds(_FOUR_ROWS, [0, 0, 3, 1], 2)),
         InvalidDatasetError, r"labels must lie in \[0, 2\)"),
        (lambda: QdaModel(_ds(_FOUR_ROWS, [0, -1, 1, 1], 2)),
         InvalidDatasetError, r"labels must lie in \[0, 2\)"),
        (lambda: GaussianNbModel(_ds(_FOUR_ROWS, [0, 1, 1], 2)),
         InvalidDatasetError, "one entry per feature row"),
        # a cast to int64 would truncate these to [0, 1, 0] and [1, 0, 1],
        # parse the strings, and raise a bare OverflowError on 2**70
        (lambda: KnnModel(_ds(np.eye(3), [0.9, 1.7, 0.2], 2), k=1),
         InvalidDatasetError, r"labels must be integers, got dtype float64: \[0\.9, 1\.7, 0\.2\]"),
        (lambda: GaussianNbModel(_ds(np.eye(3), [0, 1, 0], 2).with_labels([1.99, 0.5, 1.0])),
         InvalidDatasetError, "labels must be integers, got dtype float64"),
        (lambda: DecisionTreeModel(_ds(np.eye(3), ["0", "1", "0"], 2)),
         InvalidDatasetError, "labels must be integers, got dtype <U1"),
        (lambda: QdaModel(_ds(_FOUR_ROWS, [0, 2**70, 1, 1], 2)),
         InvalidDatasetError, r"labels must be integers, got dtype object: \[0, 1180591620717"),
        # unchecked, Gaussian NB would answer all-NaN rows
        (lambda: GaussianNbModel(_ds([[0.0], [1.0], [np.nan], [2.0]], [0, 0, 1, 1])),
         InvalidDatasetError, "row 2, column 0 is nan"),
        (lambda: QdaModel(_ds([[0.0], [1.0], [2.0], [np.inf]], [0, 0, 1, 1])),
         InvalidDatasetError, "row 3, column 0 is inf"),
        (lambda: AdaBoostModel(_ds([[0.0, 1.0], [np.nan, 1.0], [2.0, 3.0]], [0, 1, 1]),
                               rounds=5),
         InvalidDatasetError, "row 1, column 0 is nan"),
        # the squares overflow: unchecked, Gaussian NB would answer NaN for
        # every row, QDA for three, and k-NN would misorder the neighbours
        (lambda: GaussianNbModel(_ds(_HUGE, [0, 0, 0, 1, 1, 1])),
         InvalidDatasetError, "too large to square"),
        (lambda: QdaModel(_ds(_HUGE, [0, 0, 0, 1, 1, 1])),
         InvalidDatasetError, "too large to square"),
        (lambda: KnnModel(_ds(_HUGE, [0, 0, 0, 1, 1, 1]), k=1),
         InvalidDatasetError, "too large to square"),
        (lambda: KnnModel(LabeledDataset([[0.0, 1.0], [2.0], [3.0, 4.0]], [0, 1, 1], 2), k=1),
         InvalidDatasetError, "features must be a numeric matrix"),
        (lambda: QdaModel(LabeledDataset([0.0, 1.0, 2.0, 3.0], [0, 0, 1, 1], 2)),
         InvalidDatasetError, r"non-empty 2-D matrix, got shape \(4,\)"),
        # int() would truncate 2.7 to knn:k=2 and parse "3", a float depth
        # would grow a deeper tree, and a float count reach range() as a bare
        # TypeError
        (lambda: ClassifierSpec("knn", {"k": 2.7}), ValueError,
         r"knn:k must be an integer, got 2\.7"),
        (lambda: ClassifierSpec("knn", {"k": "3"}), ValueError,
         "knn:k must be an integer, got '3'"),
        (lambda: ClassifierSpec("knn", {"k": 0}), ValueError, "knn:k must be at least 1, got 0"),
        (lambda: ClassifierSpec("decision_tree", {"max_depth": None}), ValueError,
         "decision_tree:max_depth must be an integer, got None"),
        (lambda: KnnModel(BLOBS, 2.5), ValueError, r"k must be an integer, got 2\.5"),
        (lambda: DecisionTreeModel(BLOBS, 2.5), ValueError,
         r"max_depth must be an integer, got 2\.5"),
        (lambda: RandomForestModel(BLOBS, 2, 1.5, None, np.random.default_rng(0)),
         ValueError, r"max_features must be an integer, got 1\.5"),
        (lambda: RandomForestModel(BLOBS, 2.5, 1, None, np.random.default_rng(0)), ValueError,
         r"n_estimators must be an integer, got 2\.5"),
        (lambda: AdaBoostModel(BLOBS, 2.5), ValueError, r"rounds must be an integer, got 2\.5"),
    ],
    ids=["spec-without-value", "spec-repeated-param", "batch-width", "row-width",
         "array-not-dataset", "tree-nan-feature",
         "forest-nan-feature", "knn-label-range", "tree-label-range",
         "forest-negative-label", "adaboost-label-range", "gaussian-nb-label-range",
         "qda-negative-label", "gaussian-nb-label-count", "knn-float-labels",
         "gaussian-nb-float-relabel", "tree-string-labels", "qda-huge-label",
         "gaussian-nb-nan-feature",
         "qda-inf-feature", "adaboost-nan-feature", "gaussian-nb-overflow-feature",
         "qda-overflow-feature", "knn-overflow-feature", "ragged-list-features",
         "1d-features", "spec-float-k", "spec-string-k", "spec-k-0", "spec-none-depth",
         "knn-float-k", "tree-float-depth", "forest-float-max-features", "forest-float-n",
         "adaboost-float-rounds"],
)
def test_public_guards_name_the_bad_argument(call, error, named):
    with pytest.raises(error, match=named):
        call()


# ---------------------------------------------------------------------------
# random forest
# ---------------------------------------------------------------------------


def test_forest_probabilities_average_member_trees():
    rng = np.random.default_rng(4)
    ds = _ds(rng.random((40, 3)), rng.integers(0, 3, 40), num_classes=3)
    # shallow trees leave mixed leaves, whose sums depend on their order
    model = RandomForestModel(ds, n_estimators=10, max_features=3,
                              max_depth=2, rng=np.random.default_rng(11))
    # the member trees again, replaying the generator: each bootstrap, then its tree
    rng = np.random.default_rng(11)
    total = np.zeros((ds.features.shape[0], 3))
    for _ in range(10):
        boot = rng.integers(0, ds.n_examples, size=ds.n_examples)
        sample = LabeledDataset(ds.features[boot], ds.labels[boot], 3)
        state = _grow(sample, [(sample.features, sample.labels)], 2, 3, rng)
        total += DecisionTreeModel._fitted(sample, state).predict_proba_batch(ds.features)
    assert np.array_equal(model.predict_proba_batch(ds.features), total / 10)


def test_forest_is_deterministic_given_rng_seed():
    rng = np.random.default_rng(4)
    ds = _ds(rng.random((30, 2)), rng.integers(0, 3, 30), num_classes=3)
    a = fit(ClassifierSpec("random_forest"), ds, np.random.default_rng(5))
    b = fit(ClassifierSpec("random_forest"), ds, np.random.default_rng(5))
    assert np.array_equal(
        a.predict_proba_batch(ds.features), b.predict_proba_batch(ds.features)
    )


def test_forest_without_rng_draws_from_default_rng_0():
    rng = np.random.default_rng(4)
    ds = _ds(rng.random((30, 2)), rng.integers(0, 3, 30), num_classes=3)
    args = (ds, 5, 1, None)
    a = RandomForestModel(*args)
    b = RandomForestModel(*args, rng=np.random.default_rng(0))
    assert np.array_equal(
        a.predict_proba_batch(ds.features), b.predict_proba_batch(ds.features)
    )


def test_forest_bootstrap_changes_the_tree():
    rng = np.random.default_rng(8)
    ds = _ds(rng.random((50, 2)), rng.integers(0, 2, 50))
    forest = RandomForestModel(ds, n_estimators=1, max_features=2,
                               max_depth=None, rng=np.random.default_rng(3))
    plain = DecisionTreeModel(ds)
    pf = forest.predict_proba_batch(ds.features)
    pt = plain.predict_proba_batch(ds.features)
    # bootstrap resampling virtually guarantees a different tree
    assert not np.allclose(pf, pt)


def test_forest_rejects_nonpositive_estimators(iris):
    with pytest.raises(ValueError):
        RandomForestModel(iris, n_estimators=0, max_features=1, max_depth=None)


# ---------------------------------------------------------------------------
# quadratic discriminant analysis
# ---------------------------------------------------------------------------


def test_qda_recovers_unequal_covariances(rng):
    n = 300
    tight = rng.normal(0.0, 0.3, (n, 2))
    wide = rng.normal(0.0, 3.0, (n, 2))
    features = np.vstack([tight, wide])
    labels = np.array([0] * n + [1] * n)
    model = QdaModel(LabeledDataset(features, labels, 2))
    # near the shared mean the tight class dominates on density
    assert model.predict(np.array([0.05, -0.05])) == 0
    # far out only the wide class is plausible
    assert model.predict(np.array([6.0, 6.0])) == 1


def test_qda_matches_closed_form_univariate_gaussian():
    ds = _ds([[0.0], [2.0], [10.0], [14.0]], [0, 0, 1, 1])
    model = QdaModel(ds)
    x = 4.0
    mus = [1.0, 12.0]
    var = [1.0, 4.0]  # MLE variances

    def logp(x, mu, v):
        return -0.5 * (np.log(2 * np.pi * v) + (x - mu) ** 2 / v)

    logs = np.array([np.log(0.5) + logp(x, mus[i], var[i]) for i in range(2)])
    expected = np.exp(logs - logs.max())
    expected /= expected.sum()
    got = model.predict_proba(np.array([x]))
    # the tiny covariance ridge shifts densities at the 1e-5 level at most
    assert np.allclose(got, expected, atol=1e-4)


def test_qda_singular_class_covariance_is_regularized():
    # class 0 sits on a line in 2-D -> singular covariance without a ridge
    ds = _ds(
        [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [5.0, 0.0], [6.0, 1.0], [7.0, 3.0]],
        [0, 0, 0, 1, 1, 1],
    )
    model = QdaModel(ds)
    probs = model.predict_proba_batch(ds.features)
    assert np.all(np.isfinite(probs))
    assert np.array_equal(model.predict_batch(ds.features), ds.labels)


def test_qda_single_member_class_does_not_crash():
    ds = _ds([[0.0, 0.0], [5.0, 5.0], [5.1, 4.9], [4.9, 5.1]], [0, 1, 1, 1])
    model = QdaModel(ds)
    probs = model.predict_proba_batch(ds.features)
    assert np.all(np.isfinite(probs))


@pytest.mark.parametrize("factored", [0, 1], ids=["first-class-fails", "second-class-fails"])
def test_qda_failed_factorization_raises_instead_of_reusing_a_factor(iris, monkeypatch, factored):
    # Only the first `factored` factorizations hold.  A model must not be built
    # with a class missing its factor or holding another class's.
    real, calls = np.linalg.cholesky, []

    def cholesky(a):
        calls.append(a)
        if len(calls) > factored:
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        return real(a)

    monkeypatch.setattr(np.linalg, "cholesky", cholesky)
    with pytest.raises(np.linalg.LinAlgError):
        QdaModel(iris)
    assert len(calls) == factored + 1  # each class covariance is factored once


# ---------------------------------------------------------------------------
# adaboost
# ---------------------------------------------------------------------------


def test_adaboost_separable_data_is_learned():
    model = AdaBoostModel(BLOBS, rounds=10)
    assert np.array_equal(model.predict_batch(BLOBS.features), BLOBS.labels)


def test_adaboost_three_class_thresholds():
    ds = _ds([[0.0], [1.0], [10.0], [11.0], [20.0], [21.0]], [0, 0, 1, 1, 2, 2])
    model = AdaBoostModel(ds, rounds=50)
    assert np.array_equal(model.predict_batch(ds.features), ds.labels)


def test_adaboost_identical_features_fall_back_to_even_vote():
    # no stump can beat chance on constant features; probabilities must stay
    # finite, sum to one, and stay symmetric between the classes present
    ds = _ds([[1.0], [1.0], [1.0], [1.0]], [0, 1, 0, 1])
    model = AdaBoostModel(ds, rounds=5)
    probs = model.predict_proba(np.array([1.0]))
    assert np.all(np.isfinite(probs))
    assert abs(probs.sum() - 1.0) < 1e-9
    assert probs[0] == probs[1]


def test_adaboost_constant_features_keep_one_majority_stump():
    # the stump votes the majority class on both sides of feature 0; its
    # error 1/3 keeps it, and the reweighted classes then tie at chance
    model = AdaBoostModel(_ds(np.ones((6, 2)), [0, 0, 0, 0, 1, 2]), rounds=5)
    assert len(model._stumps) == 1
    assert model._stumps[0][4] == pytest.approx(np.log(4.0))
    probs = model.predict_proba_batch(np.array([[1.0, 1.0], [np.nan, -5.0]]))
    assert np.allclose(probs, [[2 / 3, 1 / 6, 1 / 6]] * 2)


def test_adaboost_absent_class_gets_no_mass_when_stumps_are_kept():
    # labels 0/1 of 3 classes, no perfect stump: all three rounds keep a stump
    model = AdaBoostModel(_ds(np.arange(6.0)[:, None], [0, 0, 1, 0, 1, 1], 3), rounds=3)
    assert len(model._stumps) == 3
    probs = model.predict_proba_batch(np.arange(6.0)[:, None])
    assert np.all(probs[:, 2] == 0.0)
    assert np.allclose(probs.sum(axis=1), 1.0)
    assert np.array_equal(model.predict_batch(np.arange(6.0)[:, None]), [0, 0, 1, 0, 1, 1])


def test_adaboost_rejects_nonpositive_rounds(iris):
    with pytest.raises(ValueError):
        AdaBoostModel(iris, rounds=0)


# ---------------------------------------------------------------------------
# spec parsing and defaults
# ---------------------------------------------------------------------------


def test_parse_spec_round_trips():
    spec = parse_spec("knn:k=3")
    assert spec.family == "knn"
    assert spec.params == {"k": 3}
    assert spec.to_string() == "knn:k=3"
    assert parse_spec("gaussian_nb").params == {}


def test_parse_spec_multiple_params():
    spec = parse_spec("random_forest:n=25,max_features=2")
    assert spec.params == {"n": 25, "max_features": 2}
    # stored in the family table's order, whatever order the text used
    reordered = parse_spec("random_forest:max_depth=3,n=2")
    assert reordered.to_string() == "random_forest:n=2,max_depth=3"


def test_spec_is_read_only_hashable_and_pickles():
    spec = parse_spec("knn:k=3")
    with pytest.raises(TypeError):
        spec.params["bogus"] = 1
    with pytest.raises(TypeError):
        spec.params["k"] = 4
    assert spec.to_string() == "knn:k=3"
    assert hash(spec) == hash(parse_spec("knn:k=3"))
    texts = ("random_forest:n=2,max_depth=3", "random_forest:max_depth=3,n=2")
    specs = {parse_spec(text) for text in texts}
    assert len(specs) == 1
    forest = specs.pop()
    copy = pickle.loads(pickle.dumps(forest))
    assert copy == forest and hash(copy) == hash(forest)
    assert copy.params == {"n": 2, "max_depth": 3}


def test_family_table_is_read_only_and_hashable():
    with pytest.raises(TypeError):
        FAMILIES["knn"].params["k"] = 1
    with pytest.raises(TypeError):
        FAMILIES["decision_tree"].ldm["max_depth"] = 2
    with pytest.raises(TypeError):
        FAMILIES["qda"] = FAMILIES["knn"]
    defaults = {"k": 5}
    family = Family(FAMILIES["knn"].build, defaults)
    defaults["k"] = 1
    assert family.params == {"k": 5}
    assert len({family, FAMILIES["knn"], FAMILIES["knn"]}) == 2


def test_parse_spec_rejects_unknown_family_and_params():
    with pytest.raises(ValueError):
        parse_spec("svm")
    with pytest.raises(ValueError):
        parse_spec("knn:neighbours=3")
    with pytest.raises(ValueError):
        parse_spec("knn:k=0")
    with pytest.raises(ValueError):
        parse_spec("knn:k=three")


def test_fit_uses_family_defaults(iris):
    knn = fit(ClassifierSpec("knn"), iris)
    assert np.array_equal(knn.predict_proba_batch(iris.features),
                          KnnModel(iris, k=5).predict_proba_batch(iris.features))
    forest = fit(ClassifierSpec("random_forest"), iris, np.random.default_rng(3))
    expected = RandomForestModel(iris, 10, 1, None, np.random.default_rng(3))
    for name in ("_feature", "_threshold", "_left", "_right", "_probs", "_depth", "_roots"):
        assert np.array_equal(getattr(forest, name), getattr(expected, name))


def test_ldm_spec_caps_tree_depth_at_5_and_leaves_other_families():
    assert ldm_spec(ClassifierSpec("decision_tree")).params == {"max_depth": 5}
    assert ldm_spec(ClassifierSpec("random_forest")).params == {"max_depth": 5}
    assert ldm_spec(ClassifierSpec("knn")) == ClassifierSpec("knn")


def test_ldm_spec_never_overrides_explicit_choices():
    assert ldm_spec(ClassifierSpec("knn", {"k": 9})).params == {"k": 9}
    deep = ldm_spec(ClassifierSpec("decision_tree", {"max_depth": 2}))
    assert deep.params == {"max_depth": 2}
    forest = ldm_spec(ClassifierSpec("random_forest", {"n": 3, "max_depth": 7}))
    assert forest.params == {"n": 3, "max_depth": 7}


def test_fit_dispatch_covers_every_family(iris):
    for family in FAMILIES:
        model = fit(ClassifierSpec(family), iris, rng=np.random.default_rng(0))
        assert model.num_classes == 3


def test_fit_without_rng_predicts_training_point(iris):
    model = fit(ClassifierSpec("knn", {"k": 1}), iris)
    assert model.predict_proba(iris.features[0])[0] == 1.0
