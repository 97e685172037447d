"""CART-style decision tree with Gini impurity, stored as flat arrays.

Candidate thresholds sit at midpoints between consecutive sorted unique
values of each feature.  Ties between equally good splits resolve toward the
lower feature index, then the lower threshold, so trees are fully
deterministic.  Leaves store training class frequencies and arise on purity,
on hitting the depth cap, or when no candidate split improves the impurity.

A node finds its split with one of two scans that agree to the bit.  Both
sort each candidate feature's values, count the classes left of every cut
and compute each cut's cost, (n_left * gini_left + n_right * gini_right) / n,
allowing cuts only between distinct values; the first minimum in (feature,
cut) order is the split, if it beats the node's impurity by more than 1e-12.
Class counts are integers, so their sums of squares are exact, and both scans
evaluate the cost with the same float operations in the same order.

* ``_table_scan`` does it in one array pass over a (features x rows) table.
* ``_small_scan`` does it in plain Python, updating the sums of squares one
  row at a time.  A node whose table has at most ``_SMALL_SCAN_CELLS`` cells
  takes it, because there the array pass's fixed cost of some twenty numpy
  calls dominates: 90% of an unpruned forest's split searches on iris with
  random labels.

Which scan runs depends only on the size of the node's table.  Every node
below a small node is small too, so a small node's whole subtree is grown on
plain Python lists (rows, class counts, columns gathered from one
``tolist()`` of the features per tree) with no numpy call but the feature
draw; larger nodes stay on arrays.  There the impurity test adds the squared
class fractions in order, as numpy's sum does for fewer than eight terms;
from eight classes up numpy sums in unrolled blocks, so those nodes call
``_gini``.

With feature subsampling a node draws its features from ``rng`` as it is
reached.  One feature of several, a forest's default, is drawn as
``rng.integers(d)``: ``Generator.choice(d, size=1, replace=False)`` is
Floyd's sampler, which makes that same single bounded draw and no shuffle,
so the feature and the generator state after it are the ones ``choice``
gives, at a quarter of the cost.

The grown tree is a set of arrays indexed by node id in preorder (depth
first, left before right): split feature and threshold, left and right child,
and the node's training class frequencies.  A leaf is its own child on both
sides, so :func:`_walk` steps every row down one level per pass until the
deepest leaf; it starts from several roots at once for a forest's
concatenated trees.  AdaBoost's stumps share the threshold rule
(``_threshold_after``).
"""

from __future__ import annotations

from operator import itemgetter

import numpy as np

from .base import TrainedModel


def _gini(counts: np.ndarray, total: int) -> float:
    frac = counts / total
    return 1.0 - float((frac * frac).sum())


def _gini_of_list(counts: list, total: int) -> float:
    """:func:`_gini` of a list of counts, to the bit."""
    if len(counts) >= 8:  # numpy sums eight or more terms out of order
        return _gini(np.array(counts), total)
    squares = 0.0
    for c in counts:
        frac = c / total
        squares += frac * frac
    return 1.0 - squares


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
        leaves = _walk(self._feature, self._threshold, self._left, self._right,
                       self._depth, X, _ONE_ROOT)
        return self._probs[leaves[0]]


_ONE_ROOT = np.zeros(1, dtype=np.intp)


def _walk(feature, threshold, left, right, depth, X, roots):
    """The leaf each row of ``X`` reaches from each root: shape (roots, rows).

    The arrays hold one tree, or several concatenated with their child ids
    offset; ``depth`` is the deepest leaf's depth below any root.  Every
    (root, row) pair steps down one level per pass, so a forest costs the
    numpy calls of one tree.
    """
    q, d = X.shape
    flat = X.ravel()
    row_start = np.arange(roots.size * q) % q * d
    node = roots.repeat(q)
    for _ in range(depth):
        go_left = flat[row_start + feature[node]] <= threshold[node]
        node = np.where(go_left, left[node], right[node])
    return node.reshape(roots.size, q)


def _table_scan(values, labels, counts):
    """The first least-cost cut of a node, scanned in one array pass.

    ``values`` is the node's (features x rows) table, ``labels`` its rows'
    classes and ``counts`` its class counts.  Returns (cost, table row,
    threshold, child class counts) or None when no two values differ.
    """
    n = values.shape[1]
    sv = np.sort(values, axis=1)
    # sides[0]: rows of each class left of each cut; sides[1]: right of it.
    # Shape (2, classes, features, cut positions).
    sides = np.empty((2, counts.size, values.shape[0], n - 1), dtype=np.intp)
    ys = labels[values.argsort(axis=1)]
    np.cumsum(ys[:, :-1] == np.arange(counts.size)[:, None, None], axis=2, out=sides[0])
    np.subtract(counts[:, None, None], sides[0], out=sides[1])
    # n_left[j] = j + 1 rows lie left of cut j, n_right[j] right of it
    n_left = np.arange(1.0, n)
    n_right = n_left[::-1]
    squares = (sides * sides).sum(axis=1)
    gini_left = 1.0 - squares[0] / n_left**2
    gini_right = 1.0 - squares[1] / n_right**2
    cost = (n_left * gini_left + n_right * gini_right) / n
    cost[sv[:, 1:] <= sv[:, :-1]] = np.inf  # no cut between equal values
    # first minimum: lowest feature, then lowest threshold
    row, j = divmod(int(cost.argmin()), n - 1)
    best = float(cost[row, j])
    if best == np.inf:
        return None
    return best, row, _threshold_after(sv[row], j), sides[:, :, row, j].copy()


def _small_scan(columns, labels, counts):
    """:func:`_table_scan` in plain Python, for nodes of a few rows.

    Takes the node's columns (a sequence of values per drawn feature), its
    rows' classes and its class counts (a list), and gives the child class
    counts as two lists.  The sums of squared class counts are exact
    integers kept up to date one row at a time, and each cut's cost is the
    same float expression as the table's, so the result is the same.
    """
    n = len(labels)
    sq_total = sum(c * c for c in counts)
    best_cost, best = np.inf, None
    for row, column in enumerate(columns):
        pairs = sorted(zip(column, labels))
        left, right = [0] * len(counts), counts.copy()
        sq_left, sq_right = 0, sq_total
        nl, nr = 0, n
        lower = pairs[0][0]
        for value, c in pairs:
            if value > lower:  # a cut between distinct values, nl rows left of it
                cost = (nl * (1.0 - sq_left / (nl * nl))
                        + nr * (1.0 - sq_right / (nr * nr))) / n
                if cost < best_cost:
                    best_cost = cost
                    best = row, (lower, value), left.copy(), right.copy()
            lower = value
            # (k + 1)^2 - k^2 = 2k + 1 and k^2 - (k - 1)^2 = 2k - 1
            k = left[c]
            sq_left += k + k + 1
            left[c] = k + 1
            k = right[c]
            sq_right -= k + k - 1
            right[c] = k - 1
            nl += 1
            nr -= 1
    if best is None:
        return None
    row, bounds, left, right = best
    return best_cost, row, _threshold_after(bounds, 0), [left, right]


# A node whose table has at most this many cells (rows x drawn features) is
# scanned by _small_scan.  Timed per scan on iris with random labels (one
# pinned CPU, Python 3.11, numpy 2.4), the plain-Python scan costs 0.2-0.3x
# the array pass at 4-8 cells, 0.65-0.85x at 48 and as much at about 64, for
# one, two or four features; whole forest and tree fits time the same within
# noise at any threshold from 48 to 96.
_SMALL_SCAN_CELLS = 48


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
    small_rows = _SMALL_SCAN_CELLS // n_sub  # a node of at most this many rows is small
    by_feature = np.ascontiguousarray(X.T)
    columns = labels = None  # the lists small nodes gather from, made once
    all_features = range(d)
    feature, threshold, left, right, class_counts = [], [], [], [], []
    depth_reached = 0

    def record(counts, depth, children, parent):
        """Append a leaf node; the caller makes it a split by setting its
        feature, threshold and children."""
        nonlocal depth_reached
        node = len(feature)
        if children is not None:
            children[parent] = node
        feature.append(0)
        threshold.append(0.0)
        left.append(node)
        right.append(node)
        class_counts.append(counts)
        depth_reached = max(depth_reached, depth)
        return node

    def draw():
        """The features a node scans, drawn from ``rng`` when subsampling."""
        if n_sub == d:
            return all_features
        if n_sub == 1:  # the draw choice(d, size=1, replace=False) makes
            return [int(rng.integers(d))]
        return np.sort(rng.choice(d, size=n_sub, replace=False)).tolist()

    def grow_small(rows, counts, depth, children, parent):
        """Grow the subtree of a small node on lists, in preorder.  Its
        entries are those of the array stack, with lists for arrays."""
        nonlocal columns, labels
        stack = [(rows, counts, depth, children, parent)]
        while stack:
            rows, counts, depth, children, parent = stack.pop()
            node = record(counts, depth, children, parent)
            n = len(rows)
            if n < 2 or max(counts) == n or (max_depth is not None and depth >= max_depth):
                continue
            if columns is None:
                columns, labels = by_feature.tolist(), y.tolist()
            feats = draw()
            take = itemgetter(*rows)
            values = [take(columns[f]) for f in feats]
            best = _small_scan(values, take(labels), counts)
            if best is None or best[0] >= _gini_of_list(counts, n) - 1e-12:
                continue
            _, row, t, (left_counts, right_counts) = best
            feature[node], threshold[node] = feats[row], t
            column = values[row]
            stack.append(([r for r, v in zip(rows, column) if v > t],
                          right_counts, depth + 1, right, node))
            stack.append(([r for r, v in zip(rows, column) if v <= t],
                          left_counts, depth + 1, left, node))

    # Depth first, left before right, so node ids come out in preorder and
    # the feature draws happen in that order.  Each entry is (rows, class
    # counts, depth, the child list to record the node in, its parent).
    stack = [(np.arange(n_rows), np.bincount(y, minlength=num_classes), 0, None, 0)]
    while stack:
        idx, counts, depth, children, parent = stack.pop()
        if idx.size <= small_rows:
            grow_small(idx.tolist(), counts.tolist(), depth, children, parent)
            continue
        node = record(counts, depth, children, parent)
        pure = np.count_nonzero(counts) == 1
        capped = max_depth is not None and depth >= max_depth
        if pure or capped or idx.size < 2:
            continue
        feats = draw()
        values = by_feature[:, idx] if n_sub == d else by_feature[feats][:, idx]
        best = _table_scan(values, y[idx], counts)
        if best is None or best[0] >= _gini(counts, idx.size) - 1e-12:
            continue
        _, row, t, child_counts = best
        feature[node], threshold[node] = feats[row], t
        go_left = values[row] <= t
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
