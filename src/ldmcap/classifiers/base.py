"""Shared trained-model interface for all classifier families."""

from __future__ import annotations

import numpy as np

from ..dataset import LabeledDataset


class TrainedModel:
    """A fitted classifier exposing per-class probabilities, trained on a
    :class:`~ldmcap.dataset.LabeledDataset` and trusting its checks.

    Subclasses implement ``predict_proba_batch`` over a matrix of rows; the
    scalar ``predict_proba``/``predict`` contracts derive from it.  Probability
    vectors have one entry per class (including classes absent from training,
    which get probability 0 except where a family's voting scheme says
    otherwise), are non-negative, and sum to 1 within float tolerance.
    """

    def __init__(self, train: LabeledDataset):
        if not isinstance(train, LabeledDataset):
            raise TypeError(f"models train on a LabeledDataset, got {type(train).__name__}")
        self.num_classes = train.num_classes
        self.n_features = train.n_features

    @classmethod
    def _fitted(cls, train: LabeledDataset, state: dict) -> TrainedModel:
        """A model on ``train``'s rows whose fitted attributes are ``state``, as a
        batch builder makes it; the class's own ``__init__`` does not run."""
        model = cls.__new__(cls)
        TrainedModel.__init__(model, train)
        vars(model).update(state)
        return model

    def _check_rows(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(
                f"expected rows with {self.n_features} features, got shape {X.shape}"
            )
        return X

    def predict_proba_batch(self, X) -> np.ndarray:
        raise NotImplementedError

    def predict_proba(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_features,):
            raise ValueError(
                f"expected a feature vector of length {self.n_features}, got shape {x.shape}"
            )
        return self.predict_proba_batch(x[None, :])[0]

    def predict_batch(self, X) -> np.ndarray:
        # argmax takes the first maximum, i.e. ties go to the lowest class index
        return np.argmax(self.predict_proba_batch(X), axis=1)

    def predict(self, x) -> int:
        return int(np.argmax(self.predict_proba(x)))


def log_softmax_rows(loglik: np.ndarray) -> np.ndarray:
    """Rows of exp(loglik) normalized to 1, computed stably; -inf maps to 0.  A row
    that is all -inf or holds NaN or +inf raises ``ValueError`` naming it."""
    peak = np.max(loglik, axis=1, keepdims=True)
    finite = np.isfinite(peak[:, 0])
    if not finite.all():
        raise ValueError(f"row {finite.argmin()} has no finite log-likelihood")
    unnorm = np.exp(loglik - peak)
    return unnorm / unnorm.sum(axis=1, keepdims=True)
