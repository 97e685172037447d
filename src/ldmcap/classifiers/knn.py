"""K-nearest-neighbor classification with Euclidean distance."""

from __future__ import annotations

import numpy as np

from .base import TrainedModel


class KnnModel(TrainedModel):
    """Probabilities are the class fractions among the K nearest training rows.

    Distance ties are broken toward the lower training-row index (a stable
    argsort over the distance matrix gives exactly that ordering), so queries
    that coincide with a stored row deterministically see that row first.
    """

    def __init__(self, features: np.ndarray, labels: np.ndarray, num_classes: int, k: int):
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        super().__init__(num_classes, features.shape[1])
        self._features = features
        self._labels = labels
        self._k = min(int(k), features.shape[0])
        self._train_sq = np.einsum("ij,ij->i", features, features)

    def predict_proba_batch(self, X) -> np.ndarray:
        X = self._check_rows(X)
        q_sq = np.einsum("ij,ij->i", X, X)
        d2 = q_sq[:, None] + self._train_sq[None, :] - 2.0 * X @ self._features.T
        order = np.argsort(d2, axis=1, kind="stable")[:, : self._k]
        neighbor_labels = self._labels[order]
        one_hot = neighbor_labels[:, :, None] == np.arange(self.num_classes)[None, None, :]
        return one_hot.sum(axis=1) / self._k
