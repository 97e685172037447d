"""CART-style decision tree with Gini impurity.

Candidate thresholds sit at midpoints between consecutive sorted unique
values of each feature.  Ties between equally good splits resolve toward the
lower feature index, then the lower threshold, so trees are fully
deterministic.  Leaves store training class frequencies and arise on purity,
on hitting the depth cap, or when no candidate split improves the impurity.
AdaBoost's stumps share the cut scan (``_split_scan``) and the threshold
rule (``_threshold_after``); they scan other class weights with another criterion.
"""

from __future__ import annotations

import numpy as np

from .base import TrainedModel


class _Node:
    __slots__ = ("feature", "threshold", "left", "right", "probs")

    def __init__(self):
        self.feature = -1
        self.threshold = 0.0
        self.left = None
        self.right = None
        self.probs = None


def _gini(counts: np.ndarray, total: int) -> float:
    frac = counts / total
    return 1.0 - float((frac * frac).sum())


def _split_scan(values, order, class_weight):
    """(sv, cut, left) of one feature: sorted values, the positions i after which
    ``sv[i + 1] > sv[i]``, and per cut the per-class weight of the rows up to i.
    ``class_weight[i, c]`` is row i's weight if its class is c, otherwise 0.
    """
    sv = values[order]
    cut = np.flatnonzero(sv[1:] > sv[:-1])
    return sv, cut, np.cumsum(class_weight[order], axis=0)[cut]


def _threshold_after(sv, i):
    """Midpoint of sv[i] and sv[i + 1], or sv[i] if it rounds onto sv[i + 1]."""
    lo, hi = float(sv[i]), float(sv[i + 1])
    mid = 0.5 * (lo + hi)
    return mid if mid < hi else lo


def _best_split(X, idx, feature_ids, onehot, counts):
    """Best (cost, feature, threshold) over the candidate features, or None.

    ``onehot`` and ``counts`` are the one-hot classes and class counts of rows
    ``idx``; the threshold t splits them by ``value <= t`` as the scan did.
    """
    best = None
    n = idx.size
    for f in feature_ids:
        values = X[idx, f]
        sv, cut, left = _split_scan(values, np.argsort(values, kind="stable"), onehot)
        if cut.size == 0:
            continue
        right = counts - left
        n_left = (cut + 1).astype(np.float64)
        n_right = n - n_left
        gini_left = 1.0 - (left**2).sum(axis=1) / n_left**2
        gini_right = 1.0 - (right**2).sum(axis=1) / n_right**2
        cost = (n_left * gini_left + n_right * gini_right) / n
        j = int(np.argmin(cost))  # first minimum -> lowest threshold
        if best is None or cost[j] < best[0]:
            best = (float(cost[j]), int(f), _threshold_after(sv, cut[j]))
    return best


class DecisionTreeModel(TrainedModel):
    def __init__(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        num_classes: int,
        max_depth: int | None = None,
        max_features: int | None = None,
        rng: np.random.Generator | None = None,
    ):
        if max_depth is not None and max_depth < 1:
            raise ValueError(f"max_depth must be at least 1, got {max_depth}")
        super().__init__(num_classes, features.shape[1])
        self._root = _build(
            features, labels, num_classes, max_depth, max_features, rng
        )

    def predict_proba_batch(self, X) -> np.ndarray:
        X = self._check_rows(X)
        out = np.empty((X.shape[0], self.num_classes))
        for i, row in enumerate(X):
            node = self._root
            while node.probs is None:
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = node.probs
        return out


def _build(X, y, num_classes, max_depth, max_features, rng):
    d = X.shape[1]
    if max_features is not None and max_features < d and rng is None:
        raise ValueError("feature subsampling requires an rng")
    n_sub = d if max_features is None else min(max_features, d)
    onehot = np.eye(num_classes)[y]

    def grow(idx: np.ndarray, depth: int) -> _Node:
        node = _Node()
        counts = np.bincount(y[idx], minlength=num_classes)
        n = idx.size
        pure = counts.max() == n
        capped = max_depth is not None and depth >= max_depth
        if pure or capped or n < 2:
            node.probs = counts / n
            return node
        if n_sub < d:
            feats = np.sort(rng.choice(d, size=n_sub, replace=False))
        else:
            feats = np.arange(d)
        best = _best_split(X, idx, feats, onehot[idx], counts)
        if best is None or best[0] >= _gini(counts, n) - 1e-12:
            node.probs = counts / n
            return node
        _, node.feature, node.threshold = best
        go_left = X[idx, node.feature] <= node.threshold
        node.left = grow(idx[go_left], depth + 1)
        node.right = grow(idx[~go_left], depth + 1)
        return node

    return grow(np.arange(X.shape[0]), 0)
