"""K-nearest-neighbor classification with Euclidean distance."""

from __future__ import annotations

import numpy as np

from ..dataset import LabeledDataset
from ..errors import integer
from .base import TrainedModel


class KnnModel(TrainedModel):
    """Probabilities are the class fractions among the K nearest training rows.

    Distance ties are broken toward the lower training-row index, and the
    NaN distances of non-finite query rows count as farther than any other
    (the order of a stable argsort over each row), so queries that coincide
    with a stored row deterministically see that row first.
    """

    def __init__(self, train: LabeledDataset, k: int):
        k = integer(k, "k", 1)
        super().__init__(train)
        self._features = features = train.features
        self._k = min(k, train.n_examples)
        self._train_sq = np.einsum("ij,ij->i", features, features)
        self._one_hot = (train.labels[:, None] == np.arange(self.num_classes)).astype(np.float64)

    def predict_proba_batch(self, X) -> np.ndarray:
        X = self._check_rows(X)
        q_sq = np.einsum("ij,ij->i", X, X)
        d2 = q_sq[:, None] + self._train_sq[None, :] - 2.0 * X @ self._features.T
        # The K nearest without a sort: every row nearer than the K-th
        # distance, then the first rows at that distance, in index order.
        # [k - 1] copies the K-th column, so the partitioned matrix is freed
        kth = np.partition(d2, self._k - 1, axis=1)[:, [self._k - 1]]
        nan, nan_kth = np.isnan(d2), np.isnan(kth)
        nearer = (d2 < kth) | (nan_kth & ~nan)
        tied = (d2 == kth) | (nan_kth & nan)
        missing = self._k - nearer.sum(axis=1, keepdims=True)
        # int32 ranks hold half the memory of the default int64 ones
        nearer |= tied & (np.cumsum(tied, axis=1, dtype=np.int32) <= missing)
        return (nearer @ self._one_hot) / self._k
