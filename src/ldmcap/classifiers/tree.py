"""CART-style decision tree with Gini impurity, stored as flat arrays.

Candidate thresholds sit at midpoints between consecutive sorted unique
values of each feature.  Ties between equally good splits resolve toward the
lower feature index, then the lower threshold, so trees are fully
deterministic.  Leaves store training class frequencies and arise on purity,
on hitting the depth cap, or when no candidate split improves the impurity.

A node scans all of its candidate features in one array pass: each feature's
values sorted into one row of a (features x rows) table, the per-class counts
left of every position accumulated along the rows, and the cost of every cut
computed at once.  The first minimum in (feature, position) order is the
split.  Class counts are integers, so their sums of squares are exact and the
costs are the ones a feature-by-feature scan computes.

The grown tree is a set of arrays indexed by node id in preorder (depth
first, left before right): split feature and threshold, left and right child,
and the node's training class frequencies.  A leaf is its own child on both
sides, so prediction steps every row down one level per pass until the
deepest leaf.  AdaBoost's stumps share the threshold rule
(``_threshold_after``).
"""

from __future__ import annotations

import numpy as np

from .base import TrainedModel


def _gini(counts: np.ndarray, total: int) -> float:
    frac = counts / total
    return 1.0 - float((frac * frac).sum())


def _threshold_after(sv, i):
    """Midpoint of sv[i] and sv[i + 1], or sv[i] if it rounds onto sv[i + 1]."""
    lo, hi = float(sv[i]), float(sv[i + 1])
    mid = 0.5 * (lo + hi)
    return mid if mid < hi else lo


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
        if max_features is not None and max_features < 1:
            raise ValueError(f"max_features must be at least 1, got {max_features}")
        super().__init__(num_classes, features.shape[1])
        (self._feature, self._threshold, self._left, self._right,
         self._probs, self._depth) = _build(
            features, labels, num_classes, max_depth, max_features, rng
        )

    def predict_proba_batch(self, X) -> np.ndarray:
        X = self._check_rows(X)
        flat = X.ravel()
        row_start = np.arange(X.shape[0]) * X.shape[1]
        node = np.zeros(X.shape[0], dtype=np.intp)
        for _ in range(self._depth):
            go_left = flat[row_start + self._feature[node]] <= self._threshold[node]
            node = np.where(go_left, self._left[node], self._right[node])
        return self._probs[node]


def _build(X, y, num_classes, max_depth, max_features, rng):
    """Grow a tree depth first; return its preorder arrays and its depth.

    The arrays are (feature, threshold, left, right, probs); a leaf is its
    own left and right child.  With feature subsampling, each node that
    looks for a split draws its features from ``rng`` as it is reached.
    """
    n_rows, d = X.shape
    if max_features is not None and max_features < d and rng is None:
        raise ValueError("feature subsampling requires an rng")
    n_sub = d if max_features is None else min(max_features, d)
    by_feature = np.ascontiguousarray(X.T)
    all_features = np.arange(d)
    classes = np.arange(num_classes)[:, None, None]
    # ramp[i] = i + 1: a node of n rows has ramp[:n - 1] rows left of its
    # cuts and those reversed right of them.
    ramp = np.arange(1.0, max(n_rows, 2))
    ramp2 = ramp**2
    feature, threshold, left, right, class_counts = [], [], [], [], []
    depth_reached = 0

    def split(idx, counts):
        """(feature, threshold, go_left, child class counts) of the best cut
        of rows ``idx``, or None when no cut gains.  Its tables die on return,
        so the nodes waiting on the stack hold none of them."""
        n = idx.size
        if n_sub < d:
            feats = np.sort(rng.choice(d, size=n_sub, replace=False))
            values = by_feature[feats[:, None], idx]
        else:
            feats = all_features
            values = by_feature.take(idx, axis=1)
        sv = np.sort(values, axis=1)
        # sides[0]: rows of each class left of each cut; sides[1]: right of it.
        # Shape (2, classes, features, cut positions).
        sides = np.empty((2, num_classes, values.shape[0], n - 1), dtype=np.intp)
        ys = y[idx][values.argsort(axis=1)]
        np.cumsum(ys[:, :-1] == classes, axis=2, out=sides[0])
        np.subtract(counts[:, None, None], sides[0], out=sides[1])
        n_left, n_right = ramp[: n - 1], ramp[n - 2 :: -1]
        squares = (sides * sides).sum(axis=1)
        gini_left = 1.0 - squares[0] / ramp2[: n - 1]
        gini_right = 1.0 - squares[1] / ramp2[n - 2 :: -1]
        cost = (n_left * gini_left + n_right * gini_right) / n
        cost[sv[:, 1:] <= sv[:, :-1]] = np.inf  # no cut between equal values
        # first minimum: lowest feature, then lowest threshold
        row, j = divmod(int(cost.argmin()), n - 1)
        best = float(cost[row, j])
        if best == np.inf or best >= _gini(counts, n) - 1e-12:
            return None
        t = _threshold_after(sv[row], j)
        return int(feats[row]), t, values[row] <= t, sides[:, :, row, j].copy()

    # Depth first, left before right, so node ids come out in preorder and
    # the feature draws happen in that order.  Each entry is (rows, class
    # counts, depth, the child list to record the node in, its parent).
    stack = [(np.arange(n_rows), np.bincount(y, minlength=num_classes), 0, None, 0)]
    while stack:
        idx, counts, depth, children, parent = stack.pop()
        node = len(feature)
        if children is not None:
            children[parent] = node
        feature.append(0)
        threshold.append(0.0)
        left.append(node)
        right.append(node)
        class_counts.append(counts)
        depth_reached = max(depth_reached, depth)
        pure = np.count_nonzero(counts) == 1
        capped = max_depth is not None and depth >= max_depth
        if pure or capped or idx.size < 2:
            continue
        best = split(idx, counts)
        if best is None:
            continue
        feature[node], threshold[node], go_left, child_counts = best
        stack.append((idx[~go_left], child_counts[1], depth + 1, right, node))
        stack.append((idx[go_left], child_counts[0], depth + 1, left, node))
    class_counts = np.array(class_counts)
    probs = class_counts / class_counts.sum(axis=1, keepdims=True)
    return (
        np.array(feature, dtype=np.intp),
        np.array(threshold),
        np.array(left, dtype=np.intp),
        np.array(right, dtype=np.intp),
        probs,
        depth_reached,
    )
