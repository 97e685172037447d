"""Multiclass AdaBoost (SAMME) over depth-1 decision stumps.

A model keeps one stump table, ``_stumps``: a structured array of (feature,
threshold, c_left, c_right, alpha) records in round order, which prediction
reads as it is.  Each round keeps the least-weighted-error stump, with the
tree's threshold rule (``tree._thresholds``); ties go to the lower feature,
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

``_boost`` fits many labelings of the same rows in lockstep, round by round:
the fits share the sort and the cuts, each has its own row of weights and
its own gather table padded to the batch's largest class count + 1, and
each fit's class totals are a bincount over its rows in row order.  A fit
whose stopping rule has fired keeps its row but keeps no more stumps and no
longer reweights its missed rows; the rounds end when every fit has
stopped.  No step mixes two fits' rows, so a fit's stump table does not
depend on the batch it is in, and a single model is the batch of its one
labeling.
"""

from __future__ import annotations

import numpy as np

from ..dataset import LabeledDataset
from ..errors import integer
from .base import TrainedModel, log_softmax_rows
from .tree import _thresholds

_ERR_FLOOR = 1e-10
_STUMP = np.dtype([("feature", np.intp), ("threshold", np.float64), ("c_left", np.intp),
                   ("c_right", np.intp), ("alpha", np.float64)])


def _tables(labels, orders, cut_feature, cut_at, num_classes, width):
    """The (fits, features * classes, width) gather table of ids into all
    fits' weights laid end to end, its zero slots reading id fits * n, a 0
    after them; and each fit's (classes, cuts) ids in the flat table of the
    class sums at each cut."""
    (num_fits, n), d = labels.shape, len(orders)
    fits, classes = np.arange(num_fits)[:, None, None], np.arange(num_classes)
    ranked = labels[:, orders]  # (fits, features, rows)
    # per fit, class, feature and sorted position: the table id of the prefix sum there
    prefix_at = np.cumsum(ranked[:, None] == classes[:, None, None], axis=3)
    prefix_at += (((fits * d + np.arange(d)) * num_classes + classes[:, None]) * width)[..., None]
    own = np.take_along_axis(prefix_at, ranked[:, None], axis=1)[:, 0]
    gather = np.full((num_fits, d * num_classes, width), num_fits * n)
    gather.put(own, orders + fits * n)
    return gather, prefix_at[:, :, cut_feature, cut_at]


def _boost(train: LabeledDataset, labels: np.ndarray, rounds: int) -> list[dict]:
    """The fitted state of one SAMME fit on ``train``'s rows per row of the
    (B, n) ``labels``."""
    rounds = integer(rounds, "rounds", 1)
    (num_fits, n), num_classes = labels.shape, train.num_classes
    fits = np.arange(num_fits)
    bins = (fits[:, None] * num_classes + labels).ravel()  # each fit's class of each row
    size = num_fits * num_classes
    class_counts = np.bincount(bins, minlength=size).reshape(num_fits, num_classes)
    columns = np.ascontiguousarray(train.features.T)
    orders = np.argsort(columns, axis=1, kind="stable")  # (features, rows)
    ordered = np.take_along_axis(columns, orders, axis=1)
    cut_feature, cut_at = np.nonzero(ordered[:, 1:] > ordered[:, :-1])
    cut_threshold = _thresholds(ordered[cut_feature, cut_at], ordered[cut_feature, cut_at + 1])
    gather, at_cut = _tables(labels, orders, cut_feature, cut_at, num_classes,
                             int(class_counts.max()) + 1)
    buffer = np.zeros(num_fits * n + 1)  # every fit's weights, then one zero slot
    weights = buffer[:-1].reshape(num_fits, n)
    weights[...] = 1.0 / n
    chance, log_classes = 1.0 - 1.0 / num_classes, np.log(num_classes - 1)
    live = np.ones(num_fits, bool)
    kept = []  # per round: which fits keep their stump, and every fit's stump fields
    for _ in range(rounds):
        total = np.bincount(bins, weights.ravel(), minlength=size).reshape(num_fits, num_classes)
        if not cut_feature.size:
            c = total.argmax(axis=1)
            err = 1.0 - total[fits, c]
            f, threshold, c_left, c_right = np.zeros(num_fits, np.intp), np.zeros(num_fits), c, c
        else:
            prefix = buffer.take(gather)
            np.add.accumulate(prefix, axis=2, out=prefix)
            below = prefix.take(at_cut)  # (fits, classes, cuts)
            above = total[:, :, None] - below
            correct = np.maximum.reduce(below, axis=1) + np.maximum.reduce(above, axis=1)
            errors = 1.0 - correct  # rounds monotonically: its first least is in the best f
            f = cut_feature[errors.argmin(axis=1)]
            m = np.where(cut_feature == f[:, None], correct, -np.inf).argmax(axis=1)  # lowest cut
            err, threshold = errors[fits, m], cut_threshold[m]
            c_left, c_right = below[fits, :, m].argmax(axis=1), above[fits, :, m].argmax(axis=1)
        good = err < chance - _ERR_FLOOR  # else no better than guessing: SAMME weight <= 0
        clipped = np.maximum(err, _ERR_FLOOR)
        alpha = np.log((1.0 - clipped) / clipped) + log_classes
        kept.append((live & good, f, threshold, c_left, c_right, alpha))
        live &= good & (err > _ERR_FLOOR)  # a perfect stump ends its fit too
        if not live.any():
            break
        # only a live fit's missed rows change, as w * 1.0 == w
        vote = np.where(columns[f] <= threshold[:, None], c_left[:, None], c_right[:, None])
        weights *= np.where((vote != labels) & live[:, None], np.exp(alpha)[:, None], 1.0)
        weights /= np.add.reduce(weights, axis=1, keepdims=True)
    keep, *fields = (np.array(field).T for field in zip(*kept))  # (fits, rounds run)
    stumps = np.empty(int(keep.sum()), _STUMP)  # by fit, each fit's in round order
    for name, field in zip(_STUMP.names, fields):
        stumps[name] = field[keep]
    ends = np.cumsum(keep.sum(axis=1))[:-1]
    return [{"_present": present, "_stumps": fit_stumps}
            for present, fit_stumps in zip(class_counts > 0, np.split(stumps, ends))]


class AdaBoostModel(TrainedModel):
    """SAMME-boosted stumps; probabilities are a softmax of the class vote scores.

    Classes absent from training get probability 0.  Boosting stops early on
    a perfect stump or on one no better than chance; should the very first
    stump already be that bad, the model falls back to a uniform distribution
    over the classes present in training.
    """

    def __init__(self, train: LabeledDataset, rounds: int):
        super().__init__(train)
        vars(self).update(_boost(train, train.labels[None, :], rounds)[0])

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
