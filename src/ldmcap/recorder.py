"""Label-recorder capacity estimation.

A trial replaces the dataset's labels with i.i.d. uniform random ones, fits
a classifier, and counts how many of those arbitrary labels the classifier
reproduces on the very rows it trained on.  The mean count over many trials
estimates how many labels the family can store; pure chance recovers N/C.
Tree-based specs run unpruned here unless a depth is set explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifiers import ClassifierSpec, fit
from .dataset import LabeledDataset, random_labels
from .seeding import make_rng

_Z_95 = 1.96  # two-sided 95% normal quantile


@dataclass(frozen=True)
class CapacityEstimate:
    """Recorder summary: mean recovered labels with a 95% confidence interval."""

    mean_recovered: float
    std_dev: float
    ci_low: float
    ci_high: float
    trials: int
    dataset_size: int
    num_classes: int
    counts: tuple[int, ...]

    def __post_init__(self):
        if not 0.0 <= self.ci_low <= self.mean_recovered <= self.ci_high <= self.dataset_size:
            raise ValueError(
                "confidence interval must satisfy "
                f"0 <= {self.ci_low} <= {self.mean_recovered} <= {self.ci_high} "
                f"<= {self.dataset_size}"
            )


def chance_baseline(dataset_size: int, num_classes: int) -> float:
    """Expected labels recovered by guessing: N / C."""
    if dataset_size < 1 or num_classes < 2:
        raise ValueError("need dataset_size >= 1 and num_classes >= 2")
    return dataset_size / num_classes


def record_trial(spec: ClassifierSpec, ds: LabeledDataset, rng: np.random.Generator) -> int:
    """One trial: random labels in, ``spec`` fitted as given, count of recovered labels out."""
    randomized = random_labels(ds, rng)
    model = fit(spec, randomized, rng)
    predictions = model.predict_batch(randomized.features)
    return int((predictions == randomized.labels).sum())


def estimate_capacity(
    spec: ClassifierSpec,
    ds: LabeledDataset,
    trials: int = 1000,
    master_seed: int = 0,
) -> CapacityEstimate:
    """Run ``trials`` independent recorder trials and summarize them.

    Each trial draws from its own seed derived from ``master_seed``, so the
    estimate does not depend on execution order.  The 95% interval is the
    normal approximation mean +- 1.96 * std / sqrt(trials), clamped into
    [0, N]; the per-trial counts ride along for export.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    counts = np.array(
        [
            record_trial(spec, ds, make_rng(master_seed, "trial", t))
            for t in range(trials)
        ],
        dtype=np.int64,
    )
    mean = float(counts.mean())
    std = float(counts.std(ddof=1)) if trials > 1 else 0.0
    half = _Z_95 * std / np.sqrt(trials)
    n = ds.n_examples
    return CapacityEstimate(
        mean_recovered=mean,
        std_dev=std,
        ci_low=max(0.0, mean - half),
        ci_high=min(float(n), mean + half),
        trials=trials,
        dataset_size=n,
        num_classes=ds.num_classes,
        counts=tuple(int(c) for c in counts),
    )
