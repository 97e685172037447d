"""Random forest: bagged decision trees with per-split feature subsampling.

The members are ordinary flat-array :class:`DecisionTreeModel` trees.  With
the default ``max_features=1`` each node draws its one feature with a single
bounded integer draw and scans only that feature; a node of at most 48 rows,
nine in ten of an unpruned tree's, is grown with its whole subtree on plain
Python lists rather than on arrays.

The fitted forest concatenates its members' preorder arrays, offsetting each
tree's child ids by the id of its root, and predicts in one level-by-level
walk over every (tree, row) pair (:func:`~.tree._walk`).  The members' leaf
frequencies are then summed in tree order and divided by the tree count.
"""

from __future__ import annotations

import numpy as np

from .base import TrainedModel
from .tree import DecisionTreeModel, _walk


class RandomForestModel(TrainedModel):
    """Probabilities are the mean of the member trees' leaf frequencies.

    Each tree is grown on a bootstrap resample of the training rows; all of
    the randomness (bootstraps and per-split feature choices) is drawn
    sequentially from the one generator passed in (``default_rng(0)`` when
    none is), so a seed fixes the forest.
    """

    def __init__(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        num_classes: int,
        n_estimators: int,
        max_features: int | None,
        max_depth: int | None,
        rng: np.random.Generator | None = None,
    ):
        if n_estimators < 1:
            raise ValueError(f"n_estimators must be at least 1, got {n_estimators}")
        if rng is None:
            rng = np.random.default_rng(0)
        super().__init__(num_classes, features.shape[1])
        n = features.shape[0]
        self._trees = []
        for _ in range(n_estimators):
            boot = rng.integers(0, n, size=n)
            self._trees.append(
                DecisionTreeModel(
                    features[boot], labels[boot], num_classes,
                    max_depth=max_depth, max_features=max_features, rng=rng,
                )
            )
        trees = self._trees
        self._roots = np.cumsum([0] + [t._feature.size for t in trees[:-1]])
        self._feature = np.concatenate([t._feature for t in trees])
        self._threshold = np.concatenate([t._threshold for t in trees])
        self._left = np.concatenate([t._left + r for t, r in zip(trees, self._roots)])
        self._right = np.concatenate([t._right + r for t, r in zip(trees, self._roots)])
        self._probs = np.concatenate([t._probs for t in trees])
        self._depth = max(t._depth for t in trees)

    def predict_proba_batch(self, X) -> np.ndarray:
        X = self._check_rows(X)
        leaves = _walk(self._feature, self._threshold, self._left, self._right,
                       self._depth, X, self._roots)
        acc = np.zeros((X.shape[0], self.num_classes))
        for tree_leaves in leaves:
            acc += self._probs[tree_leaves]
        return acc / len(self._trees)
