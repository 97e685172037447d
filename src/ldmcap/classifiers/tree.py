"""CART-style decision trees with Gini impurity, grown onto one node table.

Candidate thresholds sit at midpoints between consecutive sorted unique
values of each feature.  Ties between equally good splits resolve toward the
lower feature index, then the lower threshold, so trees are fully
deterministic.  Leaves store training class frequencies and arise on purity,
on hitting the depth cap, or when no candidate split improves the impurity.

A tree is grown in plain Python: its features are taken as one list per
column and its labels as one list, once per tree, and every node holds its
row ids and class counts as lists.  A node's split is the first least-cost
cut in (feature, cut) order of one scan (``_split_scan``), which sorts the
node's rows by each candidate feature, walks the cuts between distinct
values keeping exact integer class sums, and hands the children the two
slices of the winning order (SPRINT's list split), so a split gathers and
re-partitions nothing.  The scan also owns the gate a split must pass, a
gain over the node's impurity of more than 1e-12, and decides it from those
sums, so no numpy reduction takes part in a split.  NaN cannot be sorted;
the :class:`~ldmcap.dataset.LabeledDataset` a tree trains on, and a forest's
bootstraps of it, hold finite features only.

With feature subsampling a node draws its features from ``rng`` as it is
reached.  One feature of several, a forest's default, is drawn as
``rng.integers(d)``: ``Generator.choice(d, size=1, replace=False)`` is
Floyd's sampler, which makes that same single bounded draw and no shuffle,
so the feature and the generator state after it are the ones ``choice``
gives, at a quarter of the cost.

One stack loop grows every tree, depth first and left before right, onto
one node table: arrays indexed by node id holding the split feature and
threshold, the left and right child, and the node's training class
frequencies.  A tree is the table with one root; a forest (:mod:`.forest`)
grows its trees one after another onto the same table, so node ids are
global and ``_roots`` lists where each tree starts.  A leaf is its own child
on both sides, so prediction steps every (root, row) pair down one level per
pass until the deepest leaf, and a forest costs the numpy calls of one tree.
AdaBoost's stumps share the threshold rule (``_threshold(lo, hi)``).
"""

from __future__ import annotations

from operator import itemgetter, mul, sub

import numpy as np

from ..dataset import LabeledDataset
from ..errors import integer
from .base import TrainedModel


def _threshold(lo, hi):
    """Midpoint of the floats lo < hi, or lo if it rounds onto hi."""
    mid = 0.5 * (lo + hi)
    return mid if mid < hi else lo


def _split_scan(rows, feats, columns, labels, counts):
    """The first least-cost cut of a node, if it beats the node's impurity.

    Takes the node's row ids, the features to consider, the tree's columns
    and labels (lists indexed by row id) and the node's class counts.  Each
    feature sorts the rows by value once.  Returns (cost, feature, threshold,
    [left counts, right counts], [left rows, right rows]), or None when no
    cut costs less than the gate 1 - S / n^2 - 1e-12, S the sum of the squared
    class counts.  A cut between values lo < hi gets a threshold t with lo <=
    t < hi, so the children's rows, the sorted rows on either side of the
    cut, are exactly those with v <= t and v > t.  The order of ``rows`` and
    of ties is free: no cut falls between equal values, a cut's cost depends
    only on integer class sums, and its threshold only on lo and hi.  A cut's
    exact gain over the node, with sl, sr its sides' sums of squares, is (n *
    (sl * nr + sr * nl) - S * nl * nr) / (n^2 * nl * nr): 0 or at least 1 /
    (n^2 * nl * nr), 7.9e-9 on 150 rows.  Rounding can move a cut across the
    gate only when that gain lies within about 1e-16 of 1e-12, which takes a
    node of over 1,400 rows.
    """
    n = len(rows)
    sq_total = sum(map(mul, counts, counts))
    best_cost, best = 1.0 - sq_total / (n * n) - 1e-12, None
    for f in feats:
        column = columns[f]
        order = sorted(rows, key=column.__getitem__)
        take = itemgetter(*order)
        left = [0] * len(counts)
        sq_left = cross = nl = 0  # sums over the classes of left^2 and of left * count
        lower = column[order[0]]
        for value, c in zip(take(column), take(labels)):
            if value > lower:  # a cut between distinct values, nl rows left of it
                nr = n - nl
                sq_right = sq_total - 2 * cross + sq_left  # sum of (count - left)^2
                cost = (nl * (1.0 - sq_left / (nl * nl))
                        + nr * (1.0 - sq_right / (nr * nr))) / n
                if cost < best_cost:
                    best_cost = cost
                    best = f, order, nl, lower, value, left.copy()
            lower = value
            k = left[c]
            sq_left += k + k + 1  # (k + 1)^2 - k^2
            left[c] = k + 1
            cross += counts[c]
            nl += 1
    if best is None:
        return None
    f, order, nl, lower, value, left = best
    right = list(map(sub, counts, left))
    return best_cost, f, _threshold(lower, value), [left, right], [order[:nl], order[nl:]]


class DecisionTreeModel(TrainedModel):
    def __init__(
        self,
        train: LabeledDataset,
        max_depth: int | None = None,
        max_features: int | None = None,
        rng: np.random.Generator | None = None,
    ):
        self._grow(train, [(train.features, train.labels)], max_depth, max_features, rng)

    def _grow(self, train, samples, max_depth, max_features, rng):
        """Grow one tree on each (features, labels) sample of ``samples`` in
        turn, all onto the same node lists; every sample's rows are rows of
        ``train``.  With feature subsampling, each node that looks for a
        split draws its features from ``rng`` as it is reached; ``samples``
        may draw from it too, between trees."""
        super().__init__(train)
        if max_depth is not None:
            max_depth = integer(max_depth, "max_depth", 1)
        if max_features is not None:
            max_features = integer(max_features, "max_features", 1)
        d, num_classes = self.n_features, self.num_classes
        if max_features is not None and max_features < d and rng is None:
            raise ValueError("feature subsampling requires an rng")
        n_sub = d if max_features is None else min(max_features, d)
        all_features = range(d)
        feature, threshold, left, right, class_counts, roots = [], [], [], [], [], []
        depth_reached = 0
        for X, y in samples:
            roots.append(len(feature))
            columns, labels = X.T.tolist(), y.tolist()
            counts = np.bincount(y, minlength=num_classes).tolist()
            # Depth first, left before right, so node ids come out in preorder and
            # the feature draws happen in that order.  Each entry is (rows, class
            # counts, depth, the child list to record the node in, its parent).
            stack = [(range(len(labels)), counts, 0, None, 0)]
            while stack:
                rows, counts, depth, children, parent = stack.pop()
                n = len(rows)
                node = len(feature)
                if children is not None:
                    children[parent] = node
                # a leaf is its own child; a split sets feature, threshold and children below
                feature.append(0)
                threshold.append(0.0)
                left.append(node)
                right.append(node)
                class_counts.append(counts)
                depth_reached = max(depth_reached, depth)
                if max(counts) == n or (max_depth is not None and depth >= max_depth):
                    continue
                if n_sub == d:
                    feats = all_features
                elif n_sub == 1:  # the draw choice(d, size=1, replace=False) makes
                    feats = [int(rng.integers(d))]
                else:
                    feats = sorted(rng.choice(d, size=n_sub, replace=False).tolist())
                best = _split_scan(rows, feats, columns, labels, counts)
                if best is None:
                    continue
                (_, feature[node], threshold[node], (left_counts, right_counts),
                 (left_rows, right_rows)) = best
                stack.append((right_rows, right_counts, depth + 1, right, node))
                stack.append((left_rows, left_counts, depth + 1, left, node))
        class_counts = np.array(class_counts)
        self._feature = np.array(feature, dtype=np.intp)
        self._threshold = np.array(threshold)
        self._left = np.array(left, dtype=np.intp)
        self._right = np.array(right, dtype=np.intp)
        self._probs = class_counts / class_counts.sum(axis=1, keepdims=True)
        self._roots = np.array(roots, dtype=np.intp)
        self._depth = depth_reached  # the deepest leaf's depth below its root

    def predict_proba_batch(self, X) -> np.ndarray:
        """The leaf frequencies each row reaches, summed over the roots in
        order and divided by their count; for one root, (0 + p) / 1 is p."""
        X = self._check_rows(X)
        q, d = X.shape
        roots = self._roots
        flat = X.ravel()
        row_start = np.arange(roots.size * q) % q * d
        node = roots.repeat(q)  # every (root, row) pair steps down one level per pass
        for _ in range(self._depth):
            go_left = flat[row_start + self._feature[node]] <= self._threshold[node]
            node = np.where(go_left, self._left[node], self._right[node])
        total = np.zeros((q, self.num_classes))
        for leaves in node.reshape(roots.size, q):
            total += self._probs[leaves]
        return total / roots.size
