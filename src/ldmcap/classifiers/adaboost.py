"""Multiclass AdaBoost (SAMME) over depth-1 decision stumps.

Stumps use the decision tree's cut scan and threshold rule.  X never changes
between rounds, so a fit sorts each feature once and every round reuses the orders.
"""

from __future__ import annotations

import numpy as np

from .base import TrainedModel, log_softmax_rows
from .tree import _split_scan, _threshold_after

_ERR_FLOOR = 1e-10


def _fit_stump(X, y, orders, onehot, weights):
    """Least-weighted-error stump as (error, feature, threshold, c_left, c_right).

    ``orders`` sorts each column of X; ``onehot`` is y one-hot.  Ties resolve
    toward the lower feature index, then the lower threshold, then (inside
    argmax) the lower class index.  When no feature has two distinct values
    the stump degenerates to the weighted-majority constant.
    """
    total = np.zeros(onehot.shape[1])
    np.add.at(total, y, weights)
    class_weight = weights[:, None] * onehot
    best = None  # (error, feature, threshold, class_left, class_right)
    for f in range(X.shape[1]):
        sv, cut, left = _split_scan(X[:, f], orders[:, f], class_weight)
        if cut.size == 0:
            continue
        right = total - left
        correct = left.max(axis=1) + right.max(axis=1)
        j = int(np.argmax(correct))  # first maximum -> lowest threshold
        err = 1.0 - float(correct[j])
        if best is None or err < best[0]:
            best = (
                err,
                f,
                _threshold_after(sv, cut[j]),
                int(np.argmax(left[j])),
                int(np.argmax(right[j])),
            )
    if best is None:
        c = int(np.argmax(total))
        return 1.0 - float(total[c]), -1, 0.0, c, c
    return best


class AdaBoostModel(TrainedModel):
    """SAMME-boosted stumps; probabilities are a softmax of the class vote scores.

    Classes absent from training get probability 0.

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
        orders = np.argsort(features, axis=0, kind="stable")
        onehot = np.eye(num_classes)[labels]
        weights = np.full(n, 1.0 / n)
        chance = 1.0 - 1.0 / num_classes
        for _ in range(rounds):
            err, f, threshold, c_left, c_right = _fit_stump(
                features, labels, orders, onehot, weights
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
        scores = np.zeros((n, self.num_classes))
        # Classes absent from training get no mass; with no stump kept, the
        # classes present share an even vote.
        scores[:, ~self._present] = -np.inf
        for f, threshold, c_left, c_right, alpha in self._stumps:
            left = np.ones(n, dtype=bool) if f < 0 else X[:, f] <= threshold
            scores[left, c_left] += alpha
            scores[~left, c_right] += alpha
        return log_softmax_rows(scores)
