"""Multiclass AdaBoost (SAMME) over depth-1 decision stumps.

Stumps use the decision tree's threshold rule.  X never changes between
rounds, so a fit sorts each feature once and fixes its cuts, the sorted
positions after which its value changes, and a gather table of one row per
(feature, class): a leading slot, the class's rows in sorted order, and
padding to L + 1 slots for L the largest class count, the leading slot and
the padding reading a weight of 0.  A round gathers the weights through the
table, accumulates each row in place and takes every class's sum at every
cut.  That is, bit for bit, one cumsum of each class's weight over all of a
feature's sorted rows: its sequential fold adds +0.0 for each other-class
row, and w + 0.0 == w.  max is exact in any order and the cuts stay
ascending, so the first maximum over a feature's cuts and the first least
1 - max over the features pick the same stump.  A feature with no cut never
wins.
"""

from __future__ import annotations

from itertools import accumulate, chain

import numpy as np

from ..dataset import LabeledDataset
from ..errors import integer
from .base import TrainedModel, log_softmax_rows
from .tree import _threshold_after

_ERR_FLOOR = 1e-10


class _StumpScan:
    """Least-weighted-error stumps of X and y under the weights in ``weights``.

    Ties go to the lower feature, then threshold, then class.  With no feature
    of two distinct values the stump is feature 0 voting the weighted-majority
    class for every row, NaN included."""

    def __init__(self, X, y, num_classes):
        n, d = X.shape
        self._y, self._num_classes = y, num_classes
        self._buffer = np.concatenate((np.full(n, 1.0 / n), [0.0]))  # even, then the padding's 0
        self.weights = self._buffer[:n]
        self.columns = np.ascontiguousarray(X.T)
        classes = np.arange(num_classes)[:, None]
        self.wrong = y != classes  # (classes, rows): the rows a vote for the class misses
        orders = np.argsort(self.columns, axis=1, kind="stable")  # (features, rows)
        ordered = self.columns[np.arange(d)[:, None], orders]
        cut_feature, cut_at = np.nonzero(ordered[:, 1:] > ordered[:, :-1])
        self._sorted, self._cut_at = ordered.tolist(), cut_at.tolist()  # read a value a round
        self._feature_of_cut = cut_feature.tolist()
        per_feature = np.bincount(cut_feature, minlength=d).tolist()
        stops = accumulate(per_feature)
        self._spans = [(stop - size, stop) for size, stop in zip(per_feature, stops)]
        # per class, feature and sorted position: the table index of the prefix sum there
        labels = y[orders]
        width = max(np.bincount(y).tolist()) + 1
        starts = (np.arange(d) * num_classes + classes) * width  # (classes, features)
        prefix_at = np.cumsum(labels == classes[:, :, None], axis=2) + starts[:, :, None]
        self._gather = np.full((d * num_classes, width), n)
        self._gather.put(prefix_at.take(labels * (d * n) + np.arange(d * n).reshape(d, n)), orders)
        self._at_cut = prefix_at[:, cut_feature, cut_at]  # (classes, cuts)

    def best(self):
        """(error, feature, threshold, c_left, c_right) of the least-error stump."""
        total = np.bincount(self._y, self.weights, minlength=self._num_classes)
        if not self._feature_of_cut:
            c = int(np.argmax(total))
            return 1.0 - float(total[c]), 0, 0.0, c, c
        prefix = self._buffer.take(self._gather)
        np.add.accumulate(prefix, axis=1, out=prefix)
        below = prefix.take(self._at_cut)  # (classes, cuts)
        above = total[:, None] - below
        correct = np.maximum.reduce(below) + np.maximum.reduce(above)
        err = 1.0 - correct  # rounds monotonically: the first least err is in the best feature
        f = self._feature_of_cut[int(err.argmin())]
        start, stop = self._spans[f]
        m = start + int(correct[start:stop].argmax())  # first maximum -> lowest threshold
        return (float(err[m]), f, _threshold_after(self._sorted[f], self._cut_at[m]),
                int(below[:, m].argmax()), int(above[:, m].argmax()))


class AdaBoostModel(TrainedModel):
    """SAMME-boosted stumps; probabilities are a softmax of the class vote scores.

    Classes absent from training get probability 0.  Boosting stops early on
    a perfect stump or on one no better than chance; should the very first
    stump already be that bad, the model falls back to a uniform distribution
    over the classes present in training.
    """

    def __init__(self, train: LabeledDataset, rounds: int):
        rounds = integer(rounds, "rounds", 1)
        super().__init__(train)
        labels, num_classes = train.labels, train.num_classes
        self._present = np.bincount(labels, minlength=num_classes) > 0
        self._stumps: list[tuple[int, float, int, int, float]] = []
        scan = _StumpScan(train.features, labels, num_classes)
        weights = scan.weights
        chance, log_classes = 1.0 - 1.0 / num_classes, np.log(num_classes - 1)
        for _ in range(rounds):
            err, f, threshold, c_left, c_right = scan.best()
            if err >= chance - _ERR_FLOOR:
                break  # no better than guessing; SAMME weight would be <= 0
            clipped = max(err, _ERR_FLOOR)
            alpha = float(np.log((1.0 - clipped) / clipped) + log_classes)
            self._stumps.append((f, threshold, c_left, c_right, alpha))
            if err <= _ERR_FLOOR:
                break  # perfect stump; further rounds cannot change votes
            # only the missed rows change, as exp(alpha * 0) == 1 and w * 1 == w
            miss = np.where(scan.columns[f] <= threshold, scan.wrong[c_left], scan.wrong[c_right])
            np.multiply(weights, np.exp(alpha), out=weights, where=miss)
            weights /= np.add.reduce(weights)

    def predict_proba_batch(self, X) -> np.ndarray:
        X = self._check_rows(X)
        q, num_classes, kept = X.shape[0], self.num_classes, len(self._stumps)
        stumps = np.fromiter(chain.from_iterable(self._stumps), np.float64, 5 * kept)
        f, threshold, c_left, c_right, alpha = stumps.reshape(kept, 5).T
        # (stumps, rows) flat (row, class) vote cells; bincount adds in input order, so a
        # cell sums its alphas in stump order from 0.0 (and gives int zeros for no input)
        cells = np.where(X.T[f.astype(np.intp)] <= threshold[:, None], c_left[:, None],
                         c_right[:, None]).astype(np.intp)
        cells += np.arange(0, q * num_classes, num_classes)
        scores = np.bincount(cells.ravel(), np.repeat(alpha, q), minlength=q * num_classes)
        scores = scores.astype(np.float64, copy=False).reshape(q, num_classes)
        # Classes absent from training get no mass; with no stump kept, the
        # classes present share an even vote.
        scores[:, ~self._present] = -np.inf
        return log_softmax_rows(scores)
