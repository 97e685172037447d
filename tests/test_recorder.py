from __future__ import annotations

import numpy as np
import pytest

from ldmcap import (
    CapacityEstimate,
    ClassifierSpec,
    chance_baseline,
    estimate_capacity,
    record_trial,
)
from ldmcap import dirichlet
from ldmcap import recorder as recorder_module
from ldmcap.dataset import LabeledDataset
from ldmcap.seeding import make_rng


def test_chance_baseline_is_n_over_c():
    assert chance_baseline(150, 3) == 50.0
    assert chance_baseline(10, 2) == 5.0
    with pytest.raises(ValueError):
        chance_baseline(0, 3)
    with pytest.raises(ValueError):
        chance_baseline(10, 1)


def test_record_trial_counts_recovered_labels(iris):
    count = record_trial(ClassifierSpec("knn", {"k": 1}), iris, make_rng(0, "trial", 0))
    # 1-nn recovers every random label except possibly one of iris's single
    # duplicated feature pair, whose vote always goes to the earlier row
    assert count in (149, 150)


def test_record_trial_perfect_memorizer_on_distinct_rows():
    rng = np.random.default_rng(5)
    ds = LabeledDataset(rng.random((40, 3)), rng.integers(0, 2, 40), 2)
    for t in range(10):
        count = record_trial(ClassifierSpec("knn", {"k": 1}), ds, make_rng(3, "trial", t))
        assert count == 40


def test_estimate_capacity_summary_fields(iris):
    est = estimate_capacity(ClassifierSpec("knn", {"k": 1}), iris, trials=100)
    assert est.trials == 100
    assert est.dataset_size == 150
    assert est.num_classes == 3
    assert len(est.counts) == 100
    assert set(est.counts) <= {149, 150}
    # duplicate-pair labels agree with probability 1/3: mean ~ 149.33
    assert 149.1 <= est.mean_recovered <= 149.55


def test_estimate_statistics_match_numpy():
    rng = np.random.default_rng(5)
    ds = LabeledDataset(rng.random((30, 2)), rng.integers(0, 3, 30), 3)
    est = estimate_capacity(ClassifierSpec("gaussian_nb"), ds, trials=50)
    counts = np.array(est.counts)
    assert est.mean_recovered == pytest.approx(counts.mean(), abs=1e-12)
    assert est.std_dev == pytest.approx(counts.std(ddof=1), abs=1e-12)
    half = 1.96 * est.std_dev / np.sqrt(50)
    assert est.ci_low == pytest.approx(max(0.0, est.mean_recovered - half), abs=1e-12)
    assert est.ci_high == pytest.approx(min(30.0, est.mean_recovered + half), abs=1e-12)


def test_estimate_is_deterministic_in_master_seed(iris):
    spec = ClassifierSpec("decision_tree")
    a = estimate_capacity(spec, iris, trials=8, master_seed=9)
    b = estimate_capacity(spec, iris, trials=8, master_seed=9)
    c = estimate_capacity(spec, iris, trials=8, master_seed=10)
    assert a.counts == b.counts
    assert a.counts != c.counts


def test_trials_use_per_trial_derived_seeds(iris):
    # trial t of the estimate must equal a standalone trial with the same
    # derived generator -- that is what makes trials order-independent and
    # label sequences shared across specs under one master seed; the batched
    # families fit every trial at once, and each must still be that trial
    specs = [
        ClassifierSpec("knn", {"k": 3}),
        ClassifierSpec("decision_tree"),
        ClassifierSpec("decision_tree", {"max_depth": 3}),
        ClassifierSpec("adaboost"),
        ClassifierSpec("adaboost", {"rounds": 3}),
    ]
    for spec in specs:
        est = estimate_capacity(spec, iris, trials=6, master_seed=4)
        for t in (0, 3, 5):
            assert est.counts[t] == record_trial(spec, iris, make_rng(4, "trial", t)), spec


@pytest.mark.parametrize("spec", [
    ClassifierSpec("decision_tree"), ClassifierSpec("adaboost", {"rounds": 3}),
], ids=["decision_tree", "adaboost"])
def test_batched_estimate_is_the_same_in_blocks_of_any_size(spec, iris, monkeypatch):
    # estimate_capacity fits as many trials at once as make one int64
    # (labelings, rows, features, classes) array of about
    # dirichlet._BLOCK_BYTES; the block size must not show in the counts
    sizes, batch = [], recorder_module.fit_batch

    def counted(resolved, labeled):
        sizes.append(len(labeled))
        return batch(resolved, labeled)

    monkeypatch.setattr(recorder_module, "fit_batch", counted)
    per_labeling = 8 * iris.n_examples * iris.n_features * iris.num_classes
    counts = []
    for labelings, batches in ((1, []), (2, [2, 2, 2]), (3, [3, 3]), (1 << 30, [7])):
        monkeypatch.setattr(dirichlet, "_BLOCK_BYTES", labelings * per_labeling)
        sizes.clear()
        counts.append(estimate_capacity(spec, iris, trials=7, master_seed=2).counts)
        assert sizes == batches
    assert all(other == counts[0] for other in counts[1:])


def test_single_trial_has_zero_spread(iris):
    est = estimate_capacity(ClassifierSpec("knn", {"k": 1}), iris, trials=1)
    assert est.std_dev == 0.0
    assert est.ci_low == est.mean_recovered == est.ci_high


def test_estimate_rejects_nonpositive_trials(iris):
    with pytest.raises(ValueError):
        estimate_capacity(ClassifierSpec("knn", {"k": 1}), iris, trials=0)


def test_capacity_estimate_validates_interval():
    with pytest.raises(ValueError):
        CapacityEstimate(
            mean_recovered=10.0, std_dev=1.0, ci_low=11.0, ci_high=12.0,
            trials=5, dataset_size=20, num_classes=2, counts=(10,) * 5,
        )
    with pytest.raises(ValueError):
        CapacityEstimate(
            mean_recovered=19.0, std_dev=1.0, ci_low=18.0, ci_high=21.0,
            trials=5, dataset_size=20, num_classes=2, counts=(19,) * 5,
        )


def test_knn_neighbourhood_growth_shrinks_recovery(iris):
    # with more neighbours the vote pools more random labels, so fewer
    # training labels can be reproduced; a coarse ordering shows up fast
    k1 = estimate_capacity(ClassifierSpec("knn", {"k": 1}), iris, trials=40)
    k10 = estimate_capacity(ClassifierSpec("knn", {"k": 10}), iris, trials=40)
    assert k1.mean_recovered > k10.mean_recovered + 20


def test_recorder_runs_trees_unpruned_by_default(iris):
    est = estimate_capacity(ClassifierSpec("decision_tree"), iris, trials=20)
    # an unpruned tree memorizes nearly everything; a depth-5 one cannot
    assert est.mean_recovered > 140
    capped = estimate_capacity(
        ClassifierSpec("decision_tree", {"max_depth": 2}), iris, trials=20
    )
    assert capped.mean_recovered < 110
