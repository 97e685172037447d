"""Random forest: bagged decision trees with per-split feature subsampling.

A :class:`RandomForestModel` is a :class:`~.tree.DecisionTreeModel` whose
node table holds one root per tree.  Only forests grow depth first: the
grower ``tree._grow`` grows the trees one after another onto the same node
lists, so node ids are global, and the forest predicts as a tree does: one
level-by-level walk over every (tree, row) pair, then the trees' leaf
frequencies summed in tree order and divided by the tree count.  With the
default ``max_features=1`` each node draws its one feature with a single
bounded integer draw and the split scan sorts only that feature's values.
Forests have no batch builder: their bootstraps and feature draws come from
one generator in preorder, tree after tree, and no level-wise or lockstep
order makes those same draws.
"""

from __future__ import annotations

import numpy as np

from ..dataset import LabeledDataset
from ..errors import integer
from .base import TrainedModel
from .tree import DecisionTreeModel, _grow


class RandomForestModel(DecisionTreeModel):
    """Probabilities are the mean of the member trees' leaf frequencies.

    Each tree is grown on a bootstrap resample of the training rows; all of
    the randomness (bootstraps and per-split feature choices) is drawn
    sequentially from the one generator passed in (``default_rng(0)`` when
    none is), so a seed fixes the forest.  Each bootstrap is drawn just
    before its tree grows.
    """

    def __init__(
        self,
        train: LabeledDataset,
        n_estimators: int,
        max_features: int | None,
        max_depth: int | None,
        rng: np.random.Generator | None = None,
    ):
        n_estimators = integer(n_estimators, "n_estimators", 1)
        if rng is None:
            rng = np.random.default_rng(0)

        def bootstraps():
            for _ in range(n_estimators):
                boot = rng.integers(0, train.n_examples, size=train.n_examples)
                yield train.features[boot], train.labels[boot]

        TrainedModel.__init__(self, train)
        vars(self).update(_grow(train, bootstraps(), max_depth, max_features, rng))

    # Its own entry, not an inherited one: the benchmark's tracer wraps each
    # model class's own predict_proba_batch, so a forest's predictions are
    # timed as random_forest and never also as decision_tree.
    predict_proba_batch = DecisionTreeModel.predict_proba_batch
