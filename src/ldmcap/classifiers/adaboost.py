"""Multiclass AdaBoost (SAMME) over depth-1 decision stumps.

Stumps use the decision tree's threshold rule.  X never changes between
rounds, so a fit sorts each feature once, and the sorted values, the labels
in sorted order and the positions where a cut may fall are fixed for every
round.  Each round then scans all features in one array pass over a
(classes x features x sorted rows) table of class weights.
"""

from __future__ import annotations

import numpy as np

from ..dataset import LabeledDataset
from ..errors import integer
from .base import TrainedModel, log_softmax_rows
from .tree import _threshold_after

_ERR_FLOOR = 1e-10


class _StumpScan:
    """Least-weighted-error stumps of one feature matrix and its labels.

    Ties resolve toward the lower feature index, then the lower threshold,
    then the lower class index.  When no feature has two distinct values the
    stump is feature 0 with the weighted-majority class on both sides, so it
    gives every row, NaN included, the same vote.
    """

    def __init__(self, X, y, num_classes):
        self._y = y
        self._num_classes = num_classes
        # (features, rows): each feature's row order, stable on equal values
        self._orders = np.argsort(X, axis=0, kind="stable").T
        self._sorted = np.take_along_axis(X.T, self._orders, axis=1)
        self._no_cut = self._sorted[:, 1:] <= self._sorted[:, :-1]
        self._splittable = not self._no_cut.all()
        self._in_class = y[self._orders] == np.arange(num_classes)[:, None, None]

    def best(self, weights):
        """The stump minimizing weighted error, as (error, feature, threshold,
        c_left, c_right)."""
        total = np.bincount(self._y, weights, minlength=self._num_classes)
        if not self._splittable:
            c = int(np.argmax(total))
            return 1.0 - float(total[c]), 0, 0.0, c, c
        # per class, feature and cut position: class weight left of the cut
        below = np.cumsum(self._in_class * weights[self._orders], axis=2)[:, :, :-1]
        above = total[:, None, None] - below
        # chained maxima over the few classes beat a reduction over that axis
        best_below, best_above = below[0], above[0]
        for c in range(1, self._num_classes):
            best_below = np.maximum(best_below, below[c])
            best_above = np.maximum(best_above, above[c])
        correct = best_below + best_above
        correct[self._no_cut] = -np.inf
        cut = correct.argmax(axis=1)  # first maximum -> lowest threshold
        err = 1.0 - correct[np.arange(cut.size), cut]
        f = int(err.argmin())  # first minimum -> lowest feature
        j = int(cut[f])
        return (
            float(err[f]),
            f,
            _threshold_after(self._sorted[f], j),
            int(np.argmax(below[:, f, j])),
            int(np.argmax(above[:, f, j])),
        )


class AdaBoostModel(TrainedModel):
    """SAMME-boosted stumps; probabilities are a softmax of the class vote scores.

    Classes absent from training get probability 0.

    Boosting stops early on a perfect stump or on one no better than chance;
    should the very first stump already be that bad, the model falls back to
    a uniform distribution over the classes present in training.
    """

    def __init__(self, train: LabeledDataset, rounds: int):
        rounds = integer(rounds, "rounds", 1)
        super().__init__(train)
        features, labels, num_classes = train.features, train.labels, train.num_classes
        n = train.n_examples
        self._present = np.bincount(labels, minlength=num_classes) > 0
        self._stumps: list[tuple[int, float, int, int, float]] = []
        scan = _StumpScan(features, labels, num_classes)
        weights = np.full(n, 1.0 / n)
        chance = 1.0 - 1.0 / num_classes
        for _ in range(rounds):
            err, f, threshold, c_left, c_right = scan.best(weights)
            if err >= chance - _ERR_FLOOR:
                break  # no better than guessing; SAMME weight would be <= 0
            clipped = max(err, _ERR_FLOOR)
            alpha = float(np.log((1.0 - clipped) / clipped) + np.log(num_classes - 1))
            self._stumps.append((f, threshold, c_left, c_right, alpha))
            if err <= _ERR_FLOOR:
                break  # perfect stump; further rounds cannot change votes
            pred = np.where(features[:, f] <= threshold, c_left, c_right)
            weights = weights * np.exp(alpha * (pred != labels))
            weights /= weights.sum()

    def predict_proba_batch(self, X) -> np.ndarray:
        X = self._check_rows(X)
        scores = np.zeros((X.shape[0], self.num_classes))
        # Classes absent from training get no mass; with no stump kept, the
        # classes present share an even vote.
        scores[:, ~self._present] = -np.inf
        for f, threshold, c_left, c_right, alpha in self._stumps:
            left = X[:, f] <= threshold
            scores[left, c_left] += alpha
            scores[~left, c_right] += alpha
        return log_softmax_rows(scores)
