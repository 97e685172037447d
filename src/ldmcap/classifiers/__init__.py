"""Classifier families and the spec objects that select and configure them.

A :class:`ClassifierSpec` pairs a family name with integer hyperparameters
and has a text form for CLI use, e.g. ``knn:k=3`` or
``random_forest:n=10,max_features=1,max_depth=5``.

Everything the package knows about a family is one :class:`Family` record in
:data:`FAMILIES`.  :func:`fit` fills hyperparameters left unset from the
record's everyday defaults, so recorder runs grow trees unpruned;
matrix-building runs first pass their spec through :func:`ldm_spec`, which
caps tree depth at 5 unless the spec sets one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from ..dataset import LabeledDataset
from .adaboost import AdaBoostModel
from .base import TrainedModel
from .forest import RandomForestModel
from .gaussian import GaussianNbModel, QdaModel
from .knn import KnnModel
from .tree import DecisionTreeModel


@dataclass(frozen=True)
class Family:
    """How to train one classifier family and which hyperparameters it takes.

    ``build(features, labels, num_classes, params, rng)`` trains a model from
    fully resolved ``params``.  ``params`` maps every accepted hyperparameter
    to its everyday default, ``None`` meaning unset; ``ldm`` holds the values
    matrix-building runs overlay on those defaults.
    """

    build: Callable[..., TrainedModel]
    params: Mapping[str, int | None] = field(default_factory=dict)
    ldm: Mapping[str, int] = field(default_factory=dict)


FAMILIES: dict[str, Family] = {
    "knn": Family(lambda X, y, c, p, rng: KnnModel(X, y, c, p["k"]), {"k": 5}),
    "gaussian_nb": Family(lambda X, y, c, p, rng: GaussianNbModel(X, y, c)),
    "decision_tree": Family(
        lambda X, y, c, p, rng: DecisionTreeModel(X, y, c, p["max_depth"]),
        {"max_depth": None},
        ldm={"max_depth": 5},
    ),
    "random_forest": Family(
        lambda X, y, c, p, rng: RandomForestModel(
            X, y, c, p["n"], p["max_features"], p["max_depth"], rng
        ),
        {"n": 10, "max_features": 1, "max_depth": None},
        ldm={"max_depth": 5},
    ),
    "qda": Family(lambda X, y, c, p, rng: QdaModel(X, y, c)),
    "adaboost": Family(
        lambda X, y, c, p, rng: AdaBoostModel(X, y, c, p["rounds"]), {"rounds": 50}
    ),
}


@dataclass(frozen=True)
class ClassifierSpec:
    """A classifier family plus its integer hyperparameters."""

    family: str
    params: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown classifier family {self.family!r}; choose from {tuple(FAMILIES)}"
            )
        allowed = FAMILIES[self.family].params
        given = dict(self.params)
        for key, value in given.items():
            if key not in allowed:
                raise ValueError(
                    f"{self.family} does not accept parameter {key!r}"
                    + (f"; allowed: {sorted(allowed)}" if allowed else "")
                )
            value = given[key] = int(value)
            if value < 1:
                raise ValueError(f"{self.family}:{key} must be >= 1, got {value}")
        # Stored in the table's order, so the text form ignores the user's order.
        clean = {key: given[key] for key in allowed if key in given}
        object.__setattr__(self, "params", clean)

    def to_string(self) -> str:
        if not self.params:
            return self.family
        joined = ",".join(f"{k}={v}" for k, v in self.params.items())
        return f"{self.family}:{joined}"


def parse_spec(text: str) -> ClassifierSpec:
    """Parse the textual spec form ``family`` or ``family:key=val,key=val``."""
    text = text.strip()
    family, _, rest = text.partition(":")
    params: dict[str, int] = {}
    if rest:
        for item in rest.split(","):
            key, sep, raw = item.partition("=")
            key = key.strip()
            if not sep or not key:
                raise ValueError(f"malformed spec parameter {item!r} in {text!r}")
            try:
                params[key] = int(raw)
            except ValueError:
                raise ValueError(
                    f"spec parameter {key!r} needs an integer value, got {raw!r}"
                ) from None
    return ClassifierSpec(family.strip(), params)


def ldm_spec(spec: ClassifierSpec) -> ClassifierSpec:
    """The spec matrix-building runs fit: the family's ``ldm`` values under the spec's own."""
    return ClassifierSpec(spec.family, {**FAMILIES[spec.family].ldm, **spec.params})


def fit(
    spec: ClassifierSpec,
    train: LabeledDataset,
    rng: np.random.Generator | None = None,
) -> TrainedModel:
    """Train the classifier a spec describes.

    Only stochastic families (random_forest) consume ``rng``; deterministic
    families ignore it, so refits with any seed are identical for them.
    """
    family = FAMILIES[spec.family]
    params = {**family.params, **spec.params}
    return family.build(train.features, train.labels, train.num_classes, params, rng)


__all__ = [
    "FAMILIES",
    "ClassifierSpec",
    "Family",
    "TrainedModel",
    "AdaBoostModel",
    "DecisionTreeModel",
    "GaussianNbModel",
    "KnnModel",
    "QdaModel",
    "RandomForestModel",
    "fit",
    "ldm_spec",
    "parse_spec",
]
