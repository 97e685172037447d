from __future__ import annotations

import numpy as np
import pytest

from ldmcap import ClassifierSpec, fit, ldm_spec, parse_spec
from ldmcap.classifiers import (
    FAMILIES,
    AdaBoostModel,
    DecisionTreeModel,
    GaussianNbModel,
    KnnModel,
    QdaModel,
    RandomForestModel,
)
from ldmcap.dataset import LabeledDataset


def _ds(features, labels, num_classes=None):
    labels = np.asarray(labels)
    if num_classes is None:
        num_classes = int(labels.max()) + 1
    return LabeledDataset(np.asarray(features, dtype=float), labels, num_classes)


def _xyc(ds):
    return ds.features, ds.labels, ds.num_classes


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


def test_predict_breaks_argmax_ties_toward_lower_class():
    model = KnnModel(*_xyc(_ds([[0.0], [1.0]], [1, 0])), k=2)
    # both neighbours tie at 0.5/0.5 -> argmax must return class 0
    assert model.predict(np.array([0.5])) == 0


# ---------------------------------------------------------------------------
# k-nearest neighbours
# ---------------------------------------------------------------------------


def test_knn_votes_are_neighbour_fractions():
    model = KnnModel(*_xyc(_ds([[0.0], [1.0], [2.0], [10.0]], [0, 0, 1, 1])), k=3)
    probs = model.predict_proba(np.array([0.9]))
    assert np.allclose(probs, [2 / 3, 1 / 3])


def test_knn_k1_memorizes_training_points(iris):
    model = KnnModel(*_xyc(iris), k=1)
    preds = model.predict_batch(iris.features)
    assert np.array_equal(preds, iris.labels)


def test_knn_distance_ties_go_to_lower_train_index():
    # two training rows at identical locations with different labels: the
    # k=1 neighbour must be the earlier row
    model = KnnModel(*_xyc(_ds([[1.0, 2.0], [1.0, 2.0], [9.0, 9.0]], [1, 0, 0])), k=1)
    assert np.allclose(model.predict_proba(np.array([1.0, 2.0])), [0.0, 1.0])


def test_knn_k_clamped_to_training_size():
    model = KnnModel(*_xyc(_ds([[0.0], [1.0]], [0, 1])), k=100)
    assert np.allclose(model.predict_proba(np.array([0.4])), [0.5, 0.5])


def test_knn_rejects_nonpositive_k(iris):
    with pytest.raises(ValueError):
        KnnModel(*_xyc(iris), k=0)


# ---------------------------------------------------------------------------
# gaussian naive bayes
# ---------------------------------------------------------------------------


def test_gaussian_nb_matches_hand_rolled_two_gaussians():
    ds = _ds([[0.0], [2.0], [10.0], [12.0]], [0, 0, 1, 1])
    model = GaussianNbModel(*_xyc(ds))
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
    model = GaussianNbModel(*_xyc(ds))
    probs = model.predict_proba_batch(ds.features)
    assert np.all(np.isfinite(probs))
    assert np.array_equal(model.predict_batch(ds.features), ds.labels)


def test_gaussian_nb_extreme_outlier_does_not_underflow_to_nan():
    ds = _ds([[0.0], [1.0], [100.0], [101.0]], [0, 0, 1, 1])
    model = GaussianNbModel(*_xyc(ds))
    probs = model.predict_proba(np.array([1e6]))
    assert np.all(np.isfinite(probs))
    assert abs(probs.sum() - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# decision tree
# ---------------------------------------------------------------------------


def test_tree_single_split_learns_threshold():
    model = DecisionTreeModel(*_xyc(_ds([[1.0], [2.0], [8.0], [9.0]], [0, 0, 1, 1])))
    assert model.predict(np.array([0.0])) == 0
    assert model.predict(np.array([4.9])) == 0  # below midpoint 5.0
    assert model.predict(np.array([5.1])) == 1
    assert model.predict(np.array([20.0])) == 1


@pytest.mark.parametrize(
    "build", [DecisionTreeModel, lambda *xyc: AdaBoostModel(*xyc, rounds=5)],
    ids=["decision_tree", "adaboost"],
)
def test_split_between_adjacent_floats_keeps_both_rows_apart(build):
    # the midpoint of these two values rounds onto 1.0, so the threshold
    # must fall back to the left value for the split to separate the rows
    ds = _ds([[np.nextafter(1.0, 0.0)], [1.0]], [0, 1])
    assert 0.5 * (ds.features[0, 0] + ds.features[1, 0]) == 1.0
    assert np.array_equal(build(*_xyc(ds)).predict_batch(ds.features), [0, 1])


def test_tree_unpruned_memorizes_iris(iris):
    model = DecisionTreeModel(*_xyc(iris), max_depth=None)
    preds = model.predict_batch(iris.features)
    # iris has exactly one duplicated feature row, and both copies share a
    # label, so an unpruned tree reproduces the training labels exactly
    assert np.array_equal(preds, iris.labels)


def test_tree_depth_cap_enforced():
    rng = np.random.default_rng(0)
    ds = _ds(rng.random((64, 3)), rng.integers(0, 2, 64))
    stump = DecisionTreeModel(*_xyc(ds), max_depth=1)
    # a depth-1 tree yields at most two distinct probability rows
    rows = {tuple(r) for r in stump.predict_proba_batch(ds.features).round(12)}
    assert len(rows) <= 2


def test_tree_identical_features_conflicting_labels_yield_split_mass():
    model = DecisionTreeModel(*_xyc(_ds([[1.0], [1.0]], [0, 1])))
    assert np.allclose(model.predict_proba(np.array([1.0])), [0.5, 0.5])


def test_tree_prefers_lower_feature_on_equal_gain():
    # both features separate the classes perfectly; the split must use
    # feature 0 so a probe differing only in feature 0 flips the prediction
    ds = _ds([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]], [0, 0, 1, 1])
    model = DecisionTreeModel(*_xyc(ds))
    assert model.predict(np.array([0.0, 1.0])) == 0
    assert model.predict(np.array([1.0, 0.0])) == 1


def test_tree_leaf_probabilities_are_class_fractions():
    model = DecisionTreeModel(*_xyc(_ds([[0.0], [0.0], [0.0], [5.0]], [0, 0, 1, 1])))
    assert np.allclose(model.predict_proba(np.array([0.0])), [2 / 3, 1 / 3])
    assert np.allclose(model.predict_proba(np.array([5.0])), [0.0, 1.0])


def test_tree_rejects_nonpositive_depth(iris):
    with pytest.raises(ValueError):
        DecisionTreeModel(*_xyc(iris), max_depth=0)


def test_tree_rejects_nonpositive_max_features(iris):
    with pytest.raises(ValueError, match="max_features"):
        DecisionTreeModel(*_xyc(iris), max_features=0, rng=np.random.default_rng(0))


@pytest.mark.parametrize(
    "call, named",
    [
        (lambda: parse_spec("knn:k"), "malformed spec parameter"),
        (lambda: KnnModel(*_xyc(BLOBS), k=1).predict_proba_batch(np.zeros((1, 3))),
         "rows with 2 features"),
        (lambda: KnnModel(*_xyc(BLOBS), k=1).predict_proba(np.zeros(3)), "vector of length 2"),
        (lambda: DecisionTreeModel(np.eye(3), np.array([0, 1, 0]), 2, max_features=2),
         "requires an rng"),
    ],
    ids=["spec-without-value", "batch-width", "row-width", "subsampling-without-rng"],
)
def test_public_guards_name_the_bad_argument(call, named):
    with pytest.raises(ValueError, match=named):
        call()


# ---------------------------------------------------------------------------
# random forest
# ---------------------------------------------------------------------------


def test_forest_probabilities_average_member_trees():
    rng = np.random.default_rng(4)
    ds = _ds(rng.random((40, 3)), rng.integers(0, 3, 40), num_classes=3)
    # shallow trees leave mixed leaves, whose sums depend on their order
    model = RandomForestModel(*_xyc(ds), n_estimators=10, max_features=3,
                              max_depth=2, rng=np.random.default_rng(11))
    # the member trees again, replaying the generator: each bootstrap, then its tree
    rng = np.random.default_rng(11)
    X, y, _ = _xyc(ds)
    total = np.zeros((ds.features.shape[0], 3))
    for _ in range(10):
        boot = rng.integers(0, len(y), size=len(y))
        tree = DecisionTreeModel(X[boot], y[boot], 3, max_depth=2, max_features=3, rng=rng)
        total += tree.predict_proba_batch(ds.features)
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
    args = (*_xyc(ds), 5, 1, None)
    a = RandomForestModel(*args)
    b = RandomForestModel(*args, rng=np.random.default_rng(0))
    assert np.array_equal(
        a.predict_proba_batch(ds.features), b.predict_proba_batch(ds.features)
    )


def test_forest_bootstrap_changes_the_tree():
    rng = np.random.default_rng(8)
    ds = _ds(rng.random((50, 2)), rng.integers(0, 2, 50))
    forest = RandomForestModel(*_xyc(ds), n_estimators=1, max_features=2,
                               max_depth=None, rng=np.random.default_rng(3))
    plain = DecisionTreeModel(*_xyc(ds))
    pf = forest.predict_proba_batch(ds.features)
    pt = plain.predict_proba_batch(ds.features)
    # bootstrap resampling virtually guarantees a different tree
    assert not np.allclose(pf, pt)


def test_forest_rejects_nonpositive_estimators(iris):
    with pytest.raises(ValueError):
        RandomForestModel(*_xyc(iris), n_estimators=0, max_features=1, max_depth=None)


# ---------------------------------------------------------------------------
# quadratic discriminant analysis
# ---------------------------------------------------------------------------


def test_qda_recovers_unequal_covariances(rng):
    n = 300
    tight = rng.normal(0.0, 0.3, (n, 2))
    wide = rng.normal(0.0, 3.0, (n, 2))
    features = np.vstack([tight, wide])
    labels = np.array([0] * n + [1] * n)
    model = QdaModel(features, labels, 2)
    # near the shared mean the tight class dominates on density
    assert model.predict(np.array([0.05, -0.05])) == 0
    # far out only the wide class is plausible
    assert model.predict(np.array([6.0, 6.0])) == 1


def test_qda_matches_closed_form_univariate_gaussian():
    ds = _ds([[0.0], [2.0], [10.0], [14.0]], [0, 0, 1, 1])
    model = QdaModel(*_xyc(ds))
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
    model = QdaModel(*_xyc(ds))
    probs = model.predict_proba_batch(ds.features)
    assert np.all(np.isfinite(probs))
    assert np.array_equal(model.predict_batch(ds.features), ds.labels)


def test_qda_single_member_class_does_not_crash():
    ds = _ds([[0.0, 0.0], [5.0, 5.0], [5.1, 4.9], [4.9, 5.1]], [0, 1, 1, 1])
    model = QdaModel(*_xyc(ds))
    probs = model.predict_proba_batch(ds.features)
    assert np.all(np.isfinite(probs))


# ---------------------------------------------------------------------------
# adaboost
# ---------------------------------------------------------------------------


def test_adaboost_separable_data_is_learned():
    model = AdaBoostModel(*_xyc(BLOBS), rounds=10)
    assert np.array_equal(model.predict_batch(BLOBS.features), BLOBS.labels)


def test_adaboost_three_class_thresholds():
    ds = _ds([[0.0], [1.0], [10.0], [11.0], [20.0], [21.0]], [0, 0, 1, 1, 2, 2])
    model = AdaBoostModel(*_xyc(ds), rounds=50)
    assert np.array_equal(model.predict_batch(ds.features), ds.labels)


def test_adaboost_identical_features_fall_back_to_even_vote():
    # no stump can beat chance on constant features; probabilities must stay
    # finite, sum to one, and stay symmetric between the classes present
    ds = _ds([[1.0], [1.0], [1.0], [1.0]], [0, 1, 0, 1])
    model = AdaBoostModel(*_xyc(ds), rounds=5)
    probs = model.predict_proba(np.array([1.0]))
    assert np.all(np.isfinite(probs))
    assert abs(probs.sum() - 1.0) < 1e-9
    assert probs[0] == probs[1]


def test_adaboost_constant_features_keep_one_majority_stump():
    # the stump votes the majority class on both sides of feature 0; its
    # error 1/3 keeps it, and the reweighted classes then tie at chance
    model = AdaBoostModel(np.ones((6, 2)), np.array([0, 0, 0, 0, 1, 2]), 3, rounds=5)
    assert len(model._stumps) == 1
    assert model._stumps[0][4] == pytest.approx(np.log(4.0))
    probs = model.predict_proba_batch(np.array([[1.0, 1.0], [np.nan, -5.0]]))
    assert np.allclose(probs, [[2 / 3, 1 / 6, 1 / 6]] * 2)


def test_adaboost_absent_class_gets_no_mass_when_stumps_are_kept():
    # labels 0/1 of 3 classes, no perfect stump: all three rounds keep a stump
    model = AdaBoostModel(np.arange(6.0)[:, None], np.array([0, 0, 1, 0, 1, 1]), 3, rounds=3)
    assert len(model._stumps) == 3
    probs = model.predict_proba_batch(np.arange(6.0)[:, None])
    assert np.all(probs[:, 2] == 0.0)
    assert np.allclose(probs.sum(axis=1), 1.0)
    assert np.array_equal(model.predict_batch(np.arange(6.0)[:, None]), [0, 0, 1, 0, 1, 1])


def test_adaboost_rejects_nonpositive_rounds(iris):
    with pytest.raises(ValueError):
        AdaBoostModel(*_xyc(iris), rounds=0)


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
                          KnnModel(*_xyc(iris), k=5).predict_proba_batch(iris.features))
    forest = fit(ClassifierSpec("random_forest"), iris, np.random.default_rng(3))
    expected = RandomForestModel(*_xyc(iris), 10, 1, None, np.random.default_rng(3))
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
