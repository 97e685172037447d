"""End-to-end acceptance checks for the capacity-probing pipeline.

One test per guaranteed property, in a fixed order; each prints a single
PASS line with the measured numbers so a verbose run doubles as a report.
Every expected value is produced by an independent route (closed forms,
high-precision reference library, brute-force enumeration, or exhaustive
construction), never by the code under test.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np

from ldmcap import (
    ClassifierSpec,
    LabeledDataset,
    build_ldm,
    digamma,
    dirichlet_entropy,
    estimate_capacity,
    fit,
    fit_dirichlet,
    index_to_labeling,
    inverse_digamma,
    labeling_to_index,
    ldm_column,
    ldm_spec,
    lgamma,
    sample_dirichlet,
    simplex_vector,
)
from ldmcap.classifiers import FAMILIES
from ldmcap.classifiers.base import TrainedModel
from ldmcap.cli import main
from ldmcap.dataset import split_train_holdout
from ldmcap.seeding import derive_seed, make_rng

mpmath.mp.dps = 40


def test_01_symmetric_dirichlet_entropy_closed_form():
    started = time.perf_counter()
    worst = 0.0
    for m in range(2, 7):
        got = dirichlet_entropy(np.ones(m))
        expected = -math.log(math.factorial(m - 1))
        worst = max(worst, abs(got - expected))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-9
    assert elapsed < 1.0
    print(f"\nPASS 1/9: uniform Dirichlet entropy matches -log((m-1)!) for m=2..6 "
          f"(worst abs err {worst:.2e}, {elapsed:.3f}s)")


def test_02_mle_recovers_planted_alphas():
    started = time.perf_counter()
    worst = 0.0
    for planted in (np.array([2.0, 5.0]), np.array([1.0, 1.0, 1.0])):
        rng = np.random.default_rng(20240818)
        samples = sample_dirichlet(planted, 10_000, rng)
        report = fit_dirichlet(samples)
        assert report.converged
        rel = np.max(np.abs(report.alpha - planted) / planted)
        worst = max(worst, float(rel))
        assert rel <= 0.05, f"alpha {planted} recovered as {report.alpha}"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"\nPASS 2/9: MLE on 10k Gamma-construction samples recovers (2,5) and "
          f"(1,1,1) within 5% (worst rel err {worst:.3f}, {elapsed:.1f}s)")


def test_03_simplex_vector_equals_brute_force_products():
    started = time.perf_counter()
    worst = 0.0
    cases = 0
    for num_classes, holdout_size in itertools.product((2, 3), (1, 2, 3, 4)):
        rng = np.random.default_rng(1000 * num_classes + holdout_size)
        train = LabeledDataset(
            rng.random((30, 3)), rng.integers(0, num_classes, 30), num_classes
        )
        holdout = rng.random((holdout_size, 3))
        for family in FAMILIES:
            spec = ldm_spec(ClassifierSpec(family))
            model = fit(spec, train, np.random.default_rng(7))
            vec = simplex_vector(model, holdout, epsilon=0.0)

            rows = model.predict_proba_batch(holdout)
            expected = np.empty(num_classes**holdout_size)
            for labeling in itertools.product(range(num_classes), repeat=holdout_size):
                value = 1.0
                for j, label in enumerate(labeling):
                    value *= rows[j, label]
                expected[labeling_to_index(labeling, num_classes)] = value

            worst = max(worst, float(np.max(np.abs(vec - expected))))
            cases += 1
    elapsed = time.perf_counter() - started
    assert worst <= 1e-12
    assert elapsed < 60.0
    print(f"\nPASS 3/9: simplex vectors match brute-force labeling products for "
          f"{cases} (family, C, N') cases (worst abs err {worst:.2e}, {elapsed:.1f}s)")


def test_04_ridge_labeling_sits_at_index_81():
    assert labeling_to_index((1, 0, 0, 0, 0), 3) == 81
    for index in range(3**5):
        assert labeling_to_index(index_to_labeling(index, 3, 5), 3) == index
    print("\nPASS 4/9: labeling (1,0,0,0,0) with C=3 indexes to 81; "
          "round-trip exact over all 243 labelings")


def test_05_memorizers_recover_every_random_label():
    started = time.perf_counter()
    rng = np.random.default_rng(321)
    features = rng.random((150, 4))
    assert np.unique(features, axis=0).shape[0] == 150  # all rows distinct
    ds = LabeledDataset(features, rng.integers(0, 3, 150), 3)

    for spec in (ClassifierSpec("knn", {"k": 1}), ClassifierSpec("decision_tree")):
        est = estimate_capacity(spec, ds, trials=100, master_seed=5)
        assert est.counts == (150,) * 100, f"{spec.to_string()} dropped labels"
        assert est.std_dev == 0.0
        assert est.mean_recovered == 150.0
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"\nPASS 5/9: 1-nn and the unpruned tree recover 150/150 random labels "
          f"in all 100 trials on distinct rows (std 0, {elapsed:.1f}s)")


def test_06_recorder_orderings_on_iris(iris):
    started = time.perf_counter()
    by_k = {
        k: estimate_capacity(ClassifierSpec("knn", {"k": k}), iris, trials=1000)
        for k in (1, 3, 5, 10)
    }
    assert 149.0 <= by_k[1].mean_recovered <= 150.0
    for hi, lo in ((1, 3), (3, 5), (5, 10)):
        assert by_k[hi].ci_low > by_k[lo].ci_high, (
            f"k={hi} CI overlaps k={lo}: "
            f"[{by_k[hi].ci_low:.2f},{by_k[hi].ci_high:.2f}] vs "
            f"[{by_k[lo].ci_low:.2f},{by_k[lo].ci_high:.2f}]"
        )

    family_means = {}
    chance = 50.0
    for family in FAMILIES:
        if family == "knn":
            est = by_k[5]  # the family default, already computed
        else:
            est = estimate_capacity(ClassifierSpec(family), iris, trials=1000)
        family_means[family] = est.mean_recovered
        floor = chance - 3.0 * est.std_dev / math.sqrt(est.trials)
        assert est.mean_recovered >= floor, (
            f"{family} mean {est.mean_recovered:.2f} below chance floor {floor:.2f}"
        )
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    ordering = " > ".join(f"k={k}:{by_k[k].mean_recovered:.2f}" for k in (1, 3, 5, 10))
    families = ", ".join(f"{f}:{m:.1f}" for f, m in family_means.items())
    print(f"\nPASS 6/9: 1000-trial recorder means on iris keep the neighbour "
          f"ordering ({ordering}) with disjoint 95% CIs; every family beats "
          f"chance 50 ({families}) ({elapsed:.0f}s)")


class _FixedOutputModel(TrainedModel):
    """Predicts a fixed class distribution per holdout point, in holdout order.

    It trains on nothing, so it sets the class and feature counts itself.
    """

    def __init__(self, probabilities: np.ndarray, n_features: int):
        self.num_classes, self.n_features = probabilities.shape[1], n_features
        self._probabilities = probabilities

    def predict_proba_batch(self, X) -> np.ndarray:
        X = self._check_rows(X)
        assert X.shape[0] == self._probabilities.shape[0]
        return self._probabilities


def test_07_uniform_columns_score_higher_entropy_than_one_hot(iris):
    k_columns, holdout_size, master_seed = 20, 5, 0

    one_hot = build_ldm(
        ClassifierSpec("knn", {"k": 1}), iris,
        k_columns=k_columns, holdout_size=holdout_size, master_seed=master_seed,
    )
    entropy_one_hot = dirichlet_entropy(fit_dirichlet(one_hot.matrix).alpha)

    # same holdout, same derived column seeds, but models that spread their
    # mass nearly evenly instead of concentrating it: each column's per-point
    # class probabilities are drawn from Dirichlet(100, 100, 100)
    split = split_train_holdout(iris, holdout_size, make_rng(master_seed, "holdout"))

    def columns(probabilities_of):
        return np.column_stack([
            simplex_vector(
                _FixedOutputModel(probabilities_of(i), iris.n_features),
                split.holdout_features,
            )
            for i in range(k_columns)
        ])

    def near_uniform(i):
        rng = np.random.default_rng(derive_seed(master_seed, "column", i))
        return rng.dirichlet(np.full(iris.num_classes, 100.0), size=holdout_size)

    report = fit_dirichlet(columns(near_uniform))
    entropy_uniform = dirichlet_entropy(report.alpha)

    assert report.status == "optimum"
    assert np.isfinite(entropy_uniform) and np.isfinite(entropy_one_hot)
    assert entropy_uniform > entropy_one_hot

    # exactly uniform columns are all the same vector: no maximum-likelihood
    # Dirichlet exists, and the fit says so instead of scoring them
    exact = np.full((holdout_size, iris.num_classes), 1.0 / iris.num_classes)
    identical = fit_dirichlet(columns(lambda i: exact))
    assert identical.status == "no_optimum" and identical.iterations == 0
    print(f"\nPASS 7/9: near-uniform columns fit to entropy "
          f"{entropy_uniform:.1f} nats in {report.iterations} steps, above one-hot "
          f"columns at {entropy_one_hot:.1f} nats on the same holdout and seeds; "
          f"identical uniform columns report no optimum")


def test_08_reruns_are_byte_identical_and_order_free(tmp_path, iris):
    ldm_args = [
        "ldm", "--spec", "knn:k=1", "--spec", "gaussian_nb",
        "--k", "12", "--holdout", "4", "--repeats", "2",
    ]
    record_args = ["record", "--spec", "knn:k=1", "--spec", "gaussian_nb",
                   "--trials", "40"]
    for args in (ldm_args, record_args):
        first, second = tmp_path / f"{args[0]}_a", tmp_path / f"{args[0]}_b"
        assert main([*args, "--out", str(first)]) == 0
        assert main([*args, "--out", str(second)]) == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    # the parallel-safety half: each column depends only on its derived seed,
    # so computing them concurrently (and in any order) reproduces the
    # sequential matrix bit for bit
    spec = ClassifierSpec("knn", {"k": 1})
    sequential = build_ldm(spec, iris, k_columns=12, holdout_size=4, master_seed=3)
    split = split_train_holdout(iris, 4, make_rng(3, "holdout"))
    resolved = ldm_spec(spec)
    seeds = [derive_seed(3, "column", i) for i in range(12)]
    assert list(sequential.column_seeds) == seeds

    with ThreadPoolExecutor(max_workers=4) as pool:
        futures = [
            pool.submit(ldm_column, resolved, split.train, split.holdout_features, s)
            for s in reversed(seeds)
        ]
        reversed_columns = [f.result() for f in futures]
    for column, redone in zip(sequential.matrix.T, reversed(reversed_columns)):
        assert np.array_equal(column, redone)

    print("\nPASS 8/9: ldm and record reruns are byte-identical; columns "
          "recomputed concurrently in reverse order match bit for bit")


def test_09_special_function_accuracy_against_reference():
    xs = np.geomspace(1e-2, 1e3, 50)
    digamma_err = float(np.max(np.abs(
        digamma(xs) - np.array([float(mpmath.digamma(x)) for x in xs])
    )))
    lgamma_err = float(np.max(np.abs(
        np.array([lgamma(x) for x in xs])
        - np.array([float(mpmath.loggamma(x)) for x in xs])
    )))
    round_trip_err = float(np.max(np.abs(inverse_digamma(digamma(xs)) - xs)))
    assert digamma_err <= 1e-12
    assert lgamma_err <= 1e-12
    assert round_trip_err <= 1e-8
    print(f"\nPASS 9/9: digamma/lgamma within 1e-12 of the 40-digit reference on "
          f"a 50-point sweep (errs {digamma_err:.2e}, {lgamma_err:.2e}); "
          f"inverse round-trip within {round_trip_err:.2e}")
