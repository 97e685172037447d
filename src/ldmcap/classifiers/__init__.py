"""Classifier families and the spec objects that select and configure them.

A :class:`ClassifierSpec` pairs a family name with integer hyperparameters
and has a text form for CLI use, e.g. ``knn:k=3`` or
``random_forest:n=10,max_features=1,max_depth=5``.

Everything the package knows about a family is one :class:`Family` record in
:data:`FAMILIES`.  :func:`fit` fills hyperparameters left unset from the
record's everyday defaults, so recorder runs grow trees unpruned;
matrix-building runs first pass their spec through :func:`ldm_spec`, which
caps tree depth at 5 unless the spec sets one.  A family with a batch
builder (decision trees and AdaBoost) also trains many labelings of the same
rows at once through :func:`fit_batch`, :func:`batch_size` of them a call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from ..dataset import LabeledDataset
from ..dirichlet import block_rows
from ..errors import integer
from .adaboost import AdaBoostModel, _boost
from .base import TrainedModel
from .forest import RandomForestModel
from .gaussian import GaussianNbModel, QdaModel
from .knn import KnnModel
from .tree import DecisionTreeModel, _grow_levels


@dataclass(frozen=True, eq=False)  # holds mappings: == and hash() go by identity
class Family:
    """How to train one classifier family and which hyperparameters it takes.

    ``build(train, params, rng)`` trains a model on the
    :class:`~ldmcap.dataset.LabeledDataset` ``train`` from fully resolved
    ``params``.  ``params`` maps every accepted hyperparameter
    to its everyday default, ``None`` meaning unset; ``ldm`` holds the values
    matrix-building runs overlay on those defaults.  Both are read-only copies.
    ``batch(train, labels, params)``, if given, trains one model per row of
    the (B, n) ``labels`` on ``train``'s rows, each the model ``build`` gives
    for ``train.with_labels(row)``; it does not check the labels, which
    :func:`fit_batch` takes from checked datasets.
    """

    build: Callable[..., TrainedModel]
    params: Mapping[str, int | None] = field(default_factory=dict)
    ldm: Mapping[str, int] = field(default_factory=dict)
    batch: Callable[..., list[TrainedModel]] | None = None

    def __post_init__(self):
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))
        object.__setattr__(self, "ldm", MappingProxyType(dict(self.ldm)))


FAMILIES: Mapping[str, Family] = MappingProxyType({
    "knn": Family(lambda train, p, rng: KnnModel(train, p["k"]), {"k": 5}),
    "gaussian_nb": Family(lambda train, p, rng: GaussianNbModel(train)),
    "decision_tree": Family(
        lambda train, p, rng: DecisionTreeModel(train, p["max_depth"]),
        {"max_depth": None},
        ldm={"max_depth": 5},
        batch=lambda train, labels, p: [DecisionTreeModel._fitted(train, state)
                                        for state in _grow_levels(train, labels, p["max_depth"])],
    ),
    "random_forest": Family(
        lambda train, p, rng: RandomForestModel(
            train, p["n"], p["max_features"], p["max_depth"], rng
        ),
        {"n": 10, "max_features": 1, "max_depth": None},
        ldm={"max_depth": 5},
    ),
    "qda": Family(lambda train, p, rng: QdaModel(train)),
    "adaboost": Family(
        lambda train, p, rng: AdaBoostModel(train, p["rounds"]),
        {"rounds": 50},
        batch=lambda train, labels, p: [AdaBoostModel._fitted(train, state)
                                        for state in _boost(train, labels, p["rounds"])],
    ),
})


@dataclass(frozen=True)
class ClassifierSpec:
    """A classifier family plus its integer hyperparameters, read-only and hashable."""

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
            given[key] = integer(value, f"{self.family}:{key}", 1)
        # Stored in the table's order, so the text form ignores the user's order.
        clean = MappingProxyType({key: given[key] for key in allowed if key in given})
        object.__setattr__(self, "params", clean)

    def __hash__(self):
        return hash((self.family, tuple(self.params.items())))

    def __reduce__(self):  # a mappingproxy cannot be pickled
        return ClassifierSpec, (self.family, dict(self.params))

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
            if key in params:
                raise ValueError(f"spec parameter {key!r} is given twice in {text!r}")
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
    return family.build(train, params, rng)


def batch_size(spec: ClassifierSpec, train: LabeledDataset) -> int:
    """How many labelings of ``train``'s rows to fit together through
    :func:`fit_batch`: as many as make one (labelings, rows, features, classes)
    int64 array about ``dirichlet._BLOCK_BYTES``, or 1 when the family has no
    batch builder.  A batch fit holds several such arrays at once: fitting
    the 36 labelings of a block on iris peaked at about 4.9 of them (2,471 KiB
    under ``tracemalloc``) for depth-5 trees and 3.0 (1,510 KiB) for AdaBoost."""
    rows = block_rows(8 * train.n_examples * train.n_features * train.num_classes)
    return rows if FAMILIES[spec.family].batch is not None else 1


def fit_batch(spec: ClassifierSpec, labeled: Sequence[LabeledDataset]) -> list[TrainedModel]:
    """The model ``fit(spec, ds)`` gives for each ``ds`` of ``labeled``, which
    differ only in their labels, from the family's batch builder if it has one."""
    family = FAMILIES[spec.family]
    params = {**family.params, **spec.params}
    if family.batch is None or not labeled:
        return [family.build(ds, params, None) for ds in labeled]
    train = labeled[0]
    if any(ds.num_classes != train.num_classes or ds.features is not train.features
           and not np.array_equal(ds.features, train.features) for ds in labeled):
        raise ValueError("fit_batch needs datasets that differ only in their labels")
    return family.batch(train, np.array([ds.labels for ds in labeled]), params)


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
    "batch_size",
    "fit",
    "fit_batch",
    "ldm_spec",
    "parse_spec",
]
