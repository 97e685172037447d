"""Multiclass AdaBoost (SAMME) over depth-1 decision stumps.

The model keeps one stump table, ``_stumps``: a structured array of (feature,
threshold, c_left, c_right, alpha) records in round order, which prediction
reads as it is.  Each round keeps the least-weighted-error stump, with the
tree's threshold rule (``tree._threshold``); ties go to the lower feature,
then threshold, then class.  With no feature of two distinct values the stump
is feature 0 voting the weighted-majority class for every row, NaN included.

X never changes between rounds, so a fit sorts each feature once and fixes
its cuts, the sorted positions after which its value changes, and a gather
table of one row per (feature, class): a leading slot, the class's rows in
sorted order, and padding to L + 1 slots for L the largest class count, the
leading slot and the padding reading a weight of 0.  A round gathers the
weights through the table, accumulates each row in place and takes every
class's sum at every cut.  That is, bit for bit, one cumsum of each class's
weight over all of a feature's sorted rows: its sequential fold adds +0.0 for
each other-class row, and w + 0.0 == w.  max is exact in any order and the
cuts stay ascending, so the first maximum over a feature's cuts and the first
least 1 - max over the features pick the same stump.  A feature with no cut
never wins.
"""

from __future__ import annotations

import numpy as np

from ..dataset import LabeledDataset
from ..errors import integer
from .base import TrainedModel, log_softmax_rows
from .tree import _threshold

_ERR_FLOOR = 1e-10
_STUMP = np.dtype([("feature", np.intp), ("threshold", np.float64), ("c_left", np.intp),
                   ("c_right", np.intp), ("alpha", np.float64)])


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
        (n, d), y, num_classes = train.features.shape, train.labels, train.num_classes
        self._present = np.bincount(y, minlength=num_classes) > 0
        buffer = np.concatenate((np.full(n, 1.0 / n), [0.0]))  # even, then the padding's 0
        weights = buffer[:n]
        columns = np.ascontiguousarray(train.features.T)
        classes = np.arange(num_classes)[:, None]
        wrong = y != classes  # (classes, rows): the rows a vote for the class misses
        orders = np.argsort(columns, axis=1, kind="stable")  # (features, rows)
        ordered = columns[np.arange(d)[:, None], orders]
        cut_feature, cut_at = np.nonzero(ordered[:, 1:] > ordered[:, :-1])
        spans = np.searchsorted(cut_feature, np.arange(d + 1)).tolist()  # per-feature cut ranges
        bounds = ordered[cut_feature[:, None], cut_at[:, None] + [0, 1]].tolist()  # a cut's lo, hi
        # per class, feature and sorted position: the table index of the prefix sum there
        labels = y[orders]
        width = max(np.bincount(y).tolist()) + 1
        starts = (np.arange(d) * num_classes + classes) * width  # (classes, features)
        prefix_at = np.cumsum(labels == classes[:, :, None], axis=2) + starts[:, :, None]
        gather = np.full((d * num_classes, width), n)
        gather.put(prefix_at.take(labels * (d * n) + np.arange(d * n).reshape(d, n)), orders)
        at_cut = prefix_at[:, cut_feature, cut_at]  # (classes, cuts)
        chance, log_classes = 1.0 - 1.0 / num_classes, np.log(num_classes - 1)
        stumps = []
        for _ in range(rounds):
            total = np.bincount(y, weights, minlength=num_classes)
            if not bounds:  # no feature has a cut
                c = int(np.argmax(total))
                err, f, threshold, c_left, c_right = 1.0 - float(total[c]), 0, 0.0, c, c
            else:
                prefix = buffer.take(gather)
                np.add.accumulate(prefix, axis=1, out=prefix)
                below = prefix.take(at_cut)  # (classes, cuts)
                above = total[:, None] - below
                correct = np.maximum.reduce(below) + np.maximum.reduce(above)
                errors = 1.0 - correct  # rounds monotonically: its first least is in the best f
                f = int(cut_feature[errors.argmin()])
                m = spans[f] + int(correct[spans[f]:spans[f + 1]].argmax())  # lowest threshold
                err, threshold = float(errors[m]), _threshold(*bounds[m])
                c_left, c_right = int(below[:, m].argmax()), int(above[:, m].argmax())
            if err >= chance - _ERR_FLOOR:
                break  # no better than guessing; SAMME weight would be <= 0
            clipped = max(err, _ERR_FLOOR)
            alpha = float(np.log((1.0 - clipped) / clipped) + log_classes)
            stumps.append((f, threshold, c_left, c_right, alpha))
            if err <= _ERR_FLOOR:
                break  # perfect stump; further rounds cannot change votes
            # only the missed rows change, as exp(alpha * 0) == 1 and w * 1 == w
            miss = np.where(columns[f] <= threshold, wrong[c_left], wrong[c_right])
            np.multiply(weights, np.exp(alpha), out=weights, where=miss)
            weights /= np.add.reduce(weights)
        self._stumps = np.array(stumps, dtype=_STUMP)

    def predict_proba_batch(self, X) -> np.ndarray:
        X = self._check_rows(X)
        q, num_classes, stumps = X.shape[0], self.num_classes, self._stumps
        # (stumps, rows) flat (row, class) vote cells; bincount adds in input order, so a
        # cell sums its alphas in stump order from 0.0 (and gives int zeros for no input)
        cells = np.where(X.T[stumps["feature"]] <= stumps["threshold"][:, None],
                         stumps["c_left"][:, None], stumps["c_right"][:, None])
        cells += np.arange(0, q * num_classes, num_classes)
        scores = np.bincount(cells.ravel(), np.repeat(stumps["alpha"], q),
                             minlength=q * num_classes)
        scores = scores.astype(np.float64, copy=False).reshape(q, num_classes)
        # Classes absent from training get no mass; with no stump kept, the
        # classes present share an even vote.
        scores[:, ~self._present] = -np.inf
        return log_softmax_rows(scores)
