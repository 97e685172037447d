"""Gaussian generative classifiers: naive Bayes and quadratic discriminant analysis.

Both compute class posteriors through log-likelihoods and a log-sum-exp
normalization, so tiny densities never underflow to an all-zero row.  Classes
with no training examples get prior 0 and posterior 0 — a frequent situation
once labels are randomized.
"""

from __future__ import annotations

import numpy as np

from ..dataset import LabeledDataset
from .base import TrainedModel, log_softmax_rows

_LOG_TWO_PI = float(np.log(2.0 * np.pi))


def _class_log_prior(labels: np.ndarray, num_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """Which classes occur in ``labels``, and their log frequencies (-inf if absent)."""
    counts = np.bincount(labels, minlength=num_classes)
    present = counts > 0
    log_prior = np.full(num_classes, -np.inf)
    log_prior[present] = np.log(counts[present] / labels.shape[0])
    return present, log_prior


class GaussianNbModel(TrainedModel):
    """Per-class, per-feature Gaussians with shared variance smoothing.

    Every variance gets 1e-9 times the largest overall feature variance added
    (floored at 1e-12 for degenerate all-constant data) so single-example
    classes cannot produce a zero variance.
    """

    def __init__(self, train: LabeledDataset):
        super().__init__(train)
        features, labels, num_classes = train.features, train.labels, train.num_classes
        self._present, self._log_prior = _class_log_prior(labels, num_classes)

        smoothing = max(1e-9 * float(features.var(axis=0).max()), 1e-12)
        self._means = np.zeros((num_classes, self.n_features))
        self._vars = np.ones((num_classes, self.n_features))
        for c in np.flatnonzero(self._present):
            rows = features[labels == c]
            self._means[c] = rows.mean(axis=0)
            self._vars[c] = rows.var(axis=0) + smoothing

    def predict_proba_batch(self, X) -> np.ndarray:
        X = self._check_rows(X)
        # a query too large to square gets an infinite distance, and then
        # log_softmax_rows names its row
        with np.errstate(over="ignore"):
            diff = X[:, None, :] - self._means[None, :, :]  # (n, C, d)
            loglik = -0.5 * (
                np.log(self._vars)[None, :, :] + _LOG_TWO_PI + diff**2 / self._vars[None, :, :]
            ).sum(axis=2)
        loglik = loglik + self._log_prior[None, :]
        loglik[:, ~self._present] = -np.inf
        return log_softmax_rows(loglik)


class QdaModel(TrainedModel):
    """Full per-class Gaussians (quadratic decision boundaries).

    Each class covariance gets a ridge of 1e-6 * trace/d (the whole-dataset
    trace for a class with none), floored at 1e-12.  That is far above the
    covariance's rounding error, of order n * 2**-53 * trace, and Cholesky's
    backward error, of order d * 2**-53 * trace (Higham 2002, section 10.1;
    over 10**7 times both on iris), so one factorization per class suffices.
    Should it fail anyway, its ``np.linalg.LinAlgError`` propagates.
    """

    def __init__(self, train: LabeledDataset):
        super().__init__(train)
        features, labels, num_classes = train.features, train.labels, train.num_classes
        n, d = features.shape
        self._present, self._log_prior = _class_log_prior(labels, num_classes)

        pooled = features - features.mean(axis=0)
        pooled_trace = float(np.einsum("ij,ij->", pooled, pooled)) / n
        self._means = np.zeros((num_classes, d))
        self._chol = [None] * num_classes
        self._log_det = np.zeros(num_classes)
        for c in np.flatnonzero(self._present):
            rows = features[labels == c]
            self._means[c] = rows.mean(axis=0)
            centered = rows - self._means[c]
            cov = centered.T @ centered / rows.shape[0]
            trace = float(np.trace(cov))
            ridge = 1e-6 * (trace if trace > 0.0 else pooled_trace) / d
            self._chol[c] = np.linalg.cholesky(cov + max(ridge, 1e-12) * np.eye(d))
            self._log_det[c] = 2.0 * float(np.log(np.diag(self._chol[c])).sum())

    def predict_proba_batch(self, X) -> np.ndarray:
        X = self._check_rows(X)
        loglik = np.full((X.shape[0], self.num_classes), -np.inf)
        for c in np.flatnonzero(self._present):
            diff = X - self._means[c]
            solved = np.linalg.solve(self._chol[c], diff.T)  # lower-triangular system
            maha = np.einsum("ij,ij->j", solved, solved)
            loglik[:, c] = self._log_prior[c] - 0.5 * (
                self._log_det[c] + self.n_features * _LOG_TWO_PI + maha
            )
        return log_softmax_rows(loglik)
