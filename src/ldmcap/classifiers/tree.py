"""CART-style decision trees with Gini impurity, grown onto one node table.

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
below a small node is small too, so a node turns its rows and class counts
into lists when it becomes small, and its whole subtree is grown on plain
Python lists (columns gathered from one ``tolist()`` of the features per
tree) with no numpy call but the feature draw; larger nodes stay on arrays.
There the impurity test adds the squared class fractions in order, as
numpy's sum does for fewer than eight terms; from eight classes up numpy
sums in unrolled blocks, so those nodes call ``_gini``.

With feature subsampling a node draws its features from ``rng`` as it is
reached.  One feature of several, a forest's default, is drawn as
``rng.integers(d)``: ``Generator.choice(d, size=1, replace=False)`` is
Floyd's sampler, which makes that same single bounded draw and no shuffle,
so the feature and the generator state after it are the ones ``choice``
gives, at a quarter of the cost.

One stack loop grows every tree, depth first and left before right, onto
one node table: arrays indexed by node id holding the split feature and
threshold, the left and right child, and the node's training class
frequencies.  A tree is the table with one root; a forest
(:mod:`.forest`) grows its trees one after another onto the same table, so
node ids are global and ``_roots`` lists where each tree starts.  A leaf is
its own child on both sides, so prediction steps every (root, row) pair
down one level per pass until the deepest leaf, and a forest costs the
numpy calls of one tree.  AdaBoost's stumps share the threshold rule
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
        self._grow([(features, labels)], features.shape[1], num_classes,
                   max_depth, max_features, rng)

    def _grow(self, samples, d, num_classes, max_depth, max_features, rng):
        """Grow one tree on each (features, labels) sample of ``samples`` in
        turn, all onto the same node lists.  With feature subsampling, each
        node that looks for a split draws its features from ``rng`` as it is
        reached; ``samples`` may draw from it too, between trees."""
        if max_depth is not None and max_depth < 1:
            raise ValueError(f"max_depth must be at least 1, got {max_depth}")
        if max_features is not None and max_features < 1:
            raise ValueError(f"max_features must be at least 1, got {max_features}")
        if max_features is not None and max_features < d and rng is None:
            raise ValueError("feature subsampling requires an rng")
        super().__init__(num_classes, d)
        n_sub = d if max_features is None else min(max_features, d)
        small_rows = _SMALL_SCAN_CELLS // n_sub  # a node of at most this many rows is small
        all_features = range(d)
        feature, threshold, left, right, class_counts, roots = [], [], [], [], [], []
        depth_reached = 0
        for X, y in samples:
            roots.append(len(feature))
            by_feature = np.ascontiguousarray(X.T)
            columns = labels = None  # the lists small nodes gather from, made once
            # Depth first, left before right, so node ids come out in preorder
            # and the feature draws happen in that order.  Each entry is (rows,
            # class counts, depth, the child list to record the node in, its
            # parent).
            stack = [(np.arange(len(y)), np.bincount(y, minlength=num_classes), 0, None, 0)]
            while stack:
                rows, counts, depth, children, parent = stack.pop()
                n = len(rows)
                small = n <= small_rows
                if small and isinstance(rows, np.ndarray):
                    rows, counts = rows.tolist(), counts.tolist()
                node = len(feature)
                if children is not None:
                    children[parent] = node
                # a leaf is its own child; a split sets its feature, threshold
                # and children below
                feature.append(0)
                threshold.append(0.0)
                left.append(node)
                right.append(node)
                class_counts.append(counts)
                depth_reached = max(depth_reached, depth)
                if n < 2 or max(counts) == n or (max_depth is not None and depth >= max_depth):
                    continue
                if n_sub == d:
                    feats = all_features
                elif n_sub == 1:  # the draw choice(d, size=1, replace=False) makes
                    feats = [int(rng.integers(d))]
                else:
                    feats = np.sort(rng.choice(d, size=n_sub, replace=False)).tolist()
                if small:
                    if columns is None:
                        columns, labels = by_feature.tolist(), y.tolist()
                    take = itemgetter(*rows)
                    values = [take(columns[f]) for f in feats]
                    best = _small_scan(values, take(labels), counts)
                    gini = _gini_of_list
                else:
                    values = by_feature[:, rows] if n_sub == d else by_feature[feats][:, rows]
                    best = _table_scan(values, y[rows], counts)
                    gini = _gini
                if best is None or best[0] >= gini(counts, n) - 1e-12:
                    continue
                _, row, t, (left_counts, right_counts) = best
                feature[node], threshold[node] = feats[row], t
                column = values[row]
                if small:
                    go_left = [r for r, v in zip(rows, column) if v <= t]
                    go_right = [r for r, v in zip(rows, column) if v > t]
                else:
                    to_left = column <= t
                    go_left, go_right = rows[to_left], rows[~to_left]
                stack.append((go_right, right_counts, depth + 1, right, node))
                stack.append((go_left, left_counts, depth + 1, left, node))
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
