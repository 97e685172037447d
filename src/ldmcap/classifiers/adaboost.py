"""Multiclass AdaBoost (SAMME) over depth-1 decision stumps."""

from __future__ import annotations

import numpy as np

from .base import TrainedModel, normalize_rows

_ERR_FLOOR = 1e-10


def _fit_stump(X, y, num_classes, weights):
    """Weighted-error-minimizing stump: (feature, threshold, left class, right class).

    Ties resolve toward the lower feature index, then the lower threshold,
    then (inside argmax) the lower class index.  When no feature has two
    distinct values the stump degenerates to the weighted-majority constant.
    """
    n, d = X.shape
    class_ids = np.arange(num_classes)
    total = np.zeros(num_classes)
    np.add.at(total, y, weights)
    best = None  # (error, feature, threshold, class_left, class_right)
    for f in range(d):
        order = np.argsort(X[:, f], kind="stable")
        sv = X[order, f]
        cut = np.flatnonzero(sv[1:] > sv[:-1])
        if cut.size == 0:
            continue
        cum = np.cumsum(weights[order, None] * (y[order, None] == class_ids), axis=0)
        left = cum[cut]
        right = total - left
        correct = left.max(axis=1) + right.max(axis=1)
        j = int(np.argmax(correct))  # first maximum -> lowest threshold
        err = 1.0 - float(correct[j])
        if best is None or err < best[0]:
            lo, hi = float(sv[cut[j]]), float(sv[cut[j] + 1])
            mid = 0.5 * (lo + hi)
            threshold = mid if mid < hi else lo
            best = (
                err,
                f,
                threshold,
                int(np.argmax(left[j])),
                int(np.argmax(right[j])),
            )
    if best is None:
        c = int(np.argmax(total))
        return 1.0 - float(total[c]), -1, 0.0, c, c
    return best


class AdaBoostModel(TrainedModel):
    """SAMME-boosted stumps; probabilities are a softmax of the class vote scores.

    Boosting stops early on a perfect stump or on one no better than chance;
    should the very first stump already be that bad, the model falls back to
    a uniform distribution over the classes present in training.
    """

    def __init__(
        self, features: np.ndarray, labels: np.ndarray, num_classes: int, rounds: int
    ):
        if rounds < 1:
            raise ValueError(f"rounds must be at least 1, got {rounds}")
        n, d = features.shape
        super().__init__(num_classes, d)
        self._present = np.bincount(labels, minlength=num_classes) > 0
        self._stumps: list[tuple[int, float, int, int, float]] = []
        weights = np.full(n, 1.0 / n)
        chance = 1.0 - 1.0 / num_classes
        for _ in range(rounds):
            err, f, threshold, c_left, c_right = _fit_stump(
                features, labels, num_classes, weights
            )
            if err >= chance - _ERR_FLOOR:
                break  # no better than guessing; SAMME weight would be <= 0
            clipped = max(err, _ERR_FLOOR)
            alpha = float(np.log((1.0 - clipped) / clipped) + np.log(num_classes - 1))
            self._stumps.append((f, threshold, c_left, c_right, alpha))
            if err <= _ERR_FLOOR:
                break  # perfect stump; further rounds cannot change votes
            if f < 0:
                pred = np.full(n, c_left)
            else:
                pred = np.where(features[:, f] <= threshold, c_left, c_right)
            weights = weights * np.exp(alpha * (pred != labels))
            weights /= weights.sum()

    def predict_proba_batch(self, X) -> np.ndarray:
        X = self._check_rows(X)
        n = X.shape[0]
        if not self._stumps:
            return normalize_rows(np.zeros((n, self.num_classes)), self._present)
        scores = np.zeros((n, self.num_classes))
        for f, threshold, c_left, c_right, alpha in self._stumps:
            left = np.ones(n, dtype=bool) if f < 0 else X[:, f] <= threshold
            scores[left, c_left] += alpha
            scores[~left, c_right] += alpha
        scores -= scores.max(axis=1, keepdims=True)
        probs = np.exp(scores)
        return probs / probs.sum(axis=1, keepdims=True)
