"""CART-style decision trees with Gini impurity, grown onto one node table.

Candidate thresholds sit at midpoints between consecutive sorted unique
values of each feature.  Ties between equally good splits resolve toward the
lower feature index, then the lower threshold, so trees are fully
deterministic.  Leaves store training class frequencies and arise on purity,
on hitting the depth cap, or when no candidate split improves the impurity.

Two growers make the same node table.  Decision trees grow level by level,
a lone tree as the fit of its one labeling (``_grow_levels``): per feature,
the items of the nodes still to be scanned are kept in (node, value) order
and re-partitioned each level (SPRINT's presorted attribute lists, Shafer,
Agrawal and Mehta, VLDB 1996), and every cut's cost comes from exact integer
class sums within its node.  A forest's trees grow depth first in plain
Python (``_grow``), as their feature draws follow preorder: each node's
split is the first least-cost cut in (feature, cut) order of one scan
(``_split_scan``), which sorts the node's rows by each candidate feature,
walks the cuts between distinct values keeping exact integer class sums, and
hands the children the two slices of the winning order.  Both compute a
cut's cost with the same float expression on those sums and pass it through
the same gate, a gain over the node's impurity of more than 1e-12, so no
floating-point sum takes part in a split and the two give bit-identical
tables.  NaN cannot be sorted; the :class:`~ldmcap.dataset.LabeledDataset` a
tree trains on, and a forest's bootstraps of it, hold finite features only.

With feature subsampling a node draws its features from ``rng`` as it is
reached.  One feature of several, a forest's default, is drawn as
``rng.integers(d)``: ``Generator.choice(d, size=1, replace=False)`` is
Floyd's sampler, which makes that same single bounded draw and no shuffle,
so the feature and the generator state after it are the ones ``choice``
gives, at a quarter of the cost.

The node table is arrays indexed by node id in preorder (depth first, left
before right) holding the split feature and threshold, the left and right
child, and the node's training class frequencies.  A tree is the table with
one root; a forest (:mod:`.forest`) grows its trees one after another onto
the same table, so node ids are global and ``_roots`` lists where each tree
starts.  A leaf is its own child on both sides, so prediction steps every
(root, row) pair down one level per pass until the deepest leaf, and a
forest costs the numpy calls of one tree.  AdaBoost's stumps take their
thresholds from ``_thresholds``, the elementwise ``_threshold(lo, hi)``.
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


def _thresholds(lo, hi):
    """``_threshold`` of each pair of the arrays lo < hi."""
    mid = 0.5 * (lo + hi)
    return np.where(mid < hi, mid, lo)


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


def _grow_levels(train, labels, max_depth):
    """The fitted state of one tree on ``train``'s rows per row of the (B, n)
    ``labels``, every feature scanned at every node, grown level by level.

    Per feature, the items (node, row) of the nodes still to be scanned are
    kept in (node, value) order, each node a segment, and re-partitioned by a
    stable argsort each level.  Class prefix sums within each segment give a
    node's exact integer class counts at every cut, and each cut's cost is
    ``_split_scan``'s float expression on them, under the same gate; the first
    least cut in (feature, cut) order wins.  The nodes are then renumbered to
    preorder, so each table is bit for bit the one ``_grow`` makes.  A fit
    holds a few (labelings, rows, features, classes) int64 arrays at once.
    """
    if max_depth is not None:
        max_depth = integer(max_depth, "max_depth", 1)
    (num_trees, n), num_classes = labels.shape, train.num_classes
    columns = np.ascontiguousarray(train.features.T)
    classes = np.arange(num_classes)
    # one depth's nodes, tree by tree: tree, class counts, and the split they get
    tree = np.arange(num_trees)
    counts = np.bincount((tree[:, None] * num_classes + labels).ravel(),
                         minlength=num_trees * num_classes).reshape(num_trees, num_classes)
    rows = np.tile(np.argsort(columns, axis=1, kind="stable"), num_trees)  # (features, items)
    item_node = np.repeat(tree, n)  # the same for every feature
    levels = []
    while True:
        size, sq_total = counts.sum(axis=1), np.einsum("nc,nc->n", counts, counts)
        scan = (counts.max(axis=1) < size) & (max_depth is None or len(levels) < max_depth)
        keep = scan[item_node]
        rows, item_node = rows[:, keep], item_node[keep]
        feature, threshold = np.zeros(len(tree), np.intp), np.zeros(len(tree))
        child = np.full(len(tree), -1)  # a split node's left child in the next depth
        levels.append((tree, counts, feature, threshold, child))
        if not item_node.size:
            break
        nodes = np.flatnonzero(scan)
        seg = size[nodes]
        starts, m = np.cumsum(seg) - seg, rows.shape[1]
        rank = np.repeat(np.arange(nodes.size), seg)  # each item's scanned node
        values = np.take_along_axis(columns, rows, axis=1)
        # the class counts up to each item in its segment: one-hot labels, each
        # segment's first item less the counts of the segment before, summed
        left = (labels[tree[item_node], rows][:, :, None] == classes).astype(np.int64)
        left[:, starts[1:]] -= counts[nodes[:-1]]
        np.cumsum(left, axis=1, out=left)
        nl = np.arange(1, m + 1) - np.repeat(starts, seg)
        nr = size[item_node] - nl
        sq_left = np.einsum("fic,fic->fi", left, left)
        # sum of (count - left)^2, as _split_scan takes it
        sq_right = sq_total[item_node] - 2 * np.einsum("fic,ic->fi", left, counts[item_node])
        sq_right += sq_left
        with np.errstate(divide="ignore", invalid="ignore"):  # nr is 0 at a segment's end
            cost = (nl * (1.0 - sq_left / (nl * nl))
                    + nr * (1.0 - sq_right / (nr * nr))) / size[item_node]
        cut = np.zeros(cost.shape, bool)  # after the item, between distinct values
        cut[:, :-1] = values[:, 1:] > values[:, :-1]
        cut[:, starts - 1] = False  # after a segment's last item
        cost[~cut] = np.inf
        per_feature = np.minimum.reduceat(cost, starts, axis=1)  # (features, nodes)
        f = per_feature.argmin(axis=0)  # the first feature holding the least cost
        best = per_feature[f, np.arange(nodes.size)]
        split = best < 1.0 - sq_total[nodes] / (seg * seg) - 1e-12
        if not split.any():
            break
        chosen = cost[f[rank], np.arange(m)]  # the first least cut in that feature
        at = np.minimum.reduceat(np.where(chosen == best[rank], np.arange(m), m), starts)
        fs, ats = f[split], at[split]
        cut_value = np.zeros(nodes.size)
        cut_value[split] = _thresholds(values[fs, ats], values[fs, ats + 1])
        first_child = 2 * np.cumsum(split) - 2
        split_nodes = nodes[split]
        feature[split_nodes], threshold[split_nodes] = fs, cut_value[split]
        child[split_nodes] = first_child[split]
        left_counts = left[fs, ats]
        tree = np.repeat(tree[split_nodes], 2)
        counts = np.stack((left_counts, counts[split_nodes] - left_counts), axis=1)
        counts = counts.reshape(-1, num_classes)
        moving = split[rank]
        rows, r = rows[:, moving], rank[moving]
        goes = first_child[r] + (columns[f[r], rows] > cut_value[r])  # its child
        rows = np.take_along_axis(rows, np.argsort(goes, axis=1, kind="stable"), axis=1)
        item_node = np.repeat(np.arange(len(tree)), counts.sum(axis=1))
    # preorder: subtree sizes from the deepest level up, then positions from the roots down
    sizes = [np.ones(len(levels[-1][0]), np.intp)]
    for *_, child in reversed(levels[:-1]):
        below, sub = sizes[0], np.ones(len(child), np.intp)
        has = child >= 0
        sub[has] += below[child[has]] + below[child[has] + 1]
        sizes.insert(0, sub)
    offset = np.cumsum(sizes[0]) - sizes[0]
    total = int(sizes[0].sum())
    feature_at, threshold_at = np.empty(total, np.intp), np.empty(total)
    left_at, right_at = np.empty(total, np.intp), np.empty(total, np.intp)
    counts_at, depth_of = np.empty((total, num_classes), np.int64), np.zeros(num_trees, int)
    pos = np.zeros(num_trees, np.intp)  # each node's preorder position in its tree
    for depth, (tree, counts, feature, threshold, child) in enumerate(levels):
        at = offset[tree] + pos
        feature_at[at], threshold_at[at], counts_at[at] = feature, threshold, counts
        depth_of[tree] = depth
        left, right, has = pos.copy(), pos.copy(), child >= 0  # a leaf is its own child
        if has.any():
            left[has] = pos[has] + 1
            right[has] = left[has] + sizes[depth + 1][0::2]
            pos = np.stack((left[has], right[has]), axis=1).ravel()
        left_at[at], right_at[at] = left, right
    probs_at = counts_at / counts_at.sum(axis=1, keepdims=True)
    return [
        {"_feature": feature_at[s], "_threshold": threshold_at[s], "_left": left_at[s],
         "_right": right_at[s], "_probs": probs_at[s], "_roots": np.zeros(1, np.intp),
         "_depth": int(depth_of[b])}
        for b, s in enumerate(map(slice, offset, offset + sizes[0]))
    ]


def _grow(train, samples, max_depth, max_features, rng):
    """The fitted state of one tree on each (features, labels) sample of
    ``samples`` in turn, grown depth first onto the same node lists; every
    sample's rows are rows of ``train``.  With feature subsampling, each node
    that looks for a split draws its features from ``rng`` as it is reached;
    ``samples`` may draw from it too, between trees."""
    if max_depth is not None:
        max_depth = integer(max_depth, "max_depth", 1)
    if max_features is not None:
        max_features = integer(max_features, "max_features", 1)
    d, num_classes = train.n_features, train.num_classes
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
    return {"_feature": np.array(feature, dtype=np.intp), "_threshold": np.array(threshold),
            "_left": np.array(left, dtype=np.intp), "_right": np.array(right, dtype=np.intp),
            "_probs": class_counts / class_counts.sum(axis=1, keepdims=True),
            "_roots": np.array(roots, dtype=np.intp),
            "_depth": depth_reached}  # the deepest leaf's depth below its root


class DecisionTreeModel(TrainedModel):
    def __init__(self, train: LabeledDataset, max_depth: int | None = None):
        super().__init__(train)
        vars(self).update(_grow_levels(train, train.labels[None, :], max_depth)[0])

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
