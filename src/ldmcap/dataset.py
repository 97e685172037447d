"""Labeled datasets: CSV loading, the bundled Iris data, splits, and label randomization.

Two distinct label-randomization schemes live here and must not be confused:

* ``permute_labels`` shuffles the existing labels, preserving the class
  multiset.  It feeds labeling-distribution-matrix columns.
* ``random_labels`` replaces labels with i.i.d. uniform draws over the
  classes.  It feeds label-recorder trials.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import CsvParseError, InvalidDatasetError


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.setflags(write=False)
    return out


def _checked_labels(labels, n_examples: int, num_classes: int) -> np.ndarray:
    """``labels`` as a read-only int64 copy, once they are known to fit the dataset."""
    labs = np.asarray(labels, dtype=np.int64)
    if labs.ndim != 1 or labs.shape[0] != n_examples:
        raise InvalidDatasetError(
            f"labels must be 1-D with one entry per feature row, got shape {labs.shape}"
        )
    if num_classes < 2:
        raise InvalidDatasetError(f"num_classes must be at least 2, got {num_classes}")
    if labs.size and (labs.min() < 0 or labs.max() >= num_classes):
        raise InvalidDatasetError(
            f"labels must lie in [0, {num_classes}), got range [{labs.min()}, {labs.max()}]"
        )
    return _readonly(labs)


@dataclass(frozen=True)
class LabeledDataset:
    """An N x d matrix of finite features with integer class labels in [0, num_classes).

    Instances are immutable: the arrays are defensive read-only copies, and a
    relabeled dataset shares its parent's features.
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
            raise InvalidDatasetError(
                f"features must be a non-empty 2-D matrix, got shape {feats.shape}"
            )
        if not np.isfinite(feats).all():
            row, column = np.argwhere(~np.isfinite(feats))[0]
            raise InvalidDatasetError(
                f"features must be finite; row {row}, column {column} is {feats[row, column]}"
            )
        # k-NN distances, Gaussian variances and QDA covariances square the
        # features; where even their sum of squares overflows, those fits
        # give inf and NaN probabilities instead of an error
        with np.errstate(over="ignore"):
            squares = np.einsum("ij,ij->", feats, feats)
        if not math.isfinite(squares):
            row, column = np.unravel_index(np.abs(feats).argmax(), feats.shape)
            raise InvalidDatasetError(
                "features are too large to square: their sum of squares overflows; "
                f"the largest, row {row}, column {column}, is {feats[row, column]}"
            )
        labels = _checked_labels(self.labels, len(feats), self.num_classes)
        object.__setattr__(self, "features", _readonly(feats))
        object.__setattr__(self, "labels", labels)

    @property
    def n_examples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def with_labels(self, labels: np.ndarray) -> "LabeledDataset":
        """Same features, new labels (same class count); only the labels are checked."""
        checked = _checked_labels(labels, self.n_examples, self.num_classes)
        relabeled = object.__new__(LabeledDataset)  # shares the checked, read-only features
        object.__setattr__(relabeled, "features", self.features)
        object.__setattr__(relabeled, "labels", checked)
        object.__setattr__(relabeled, "num_classes", self.num_classes)
        return relabeled


@dataclass(frozen=True)
class HoldoutSplit:
    """A fixed holdout carved from a dataset; train rows keep their original order."""

    train: LabeledDataset
    holdout_features: np.ndarray
    holdout_indices: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "holdout_features", _readonly(np.asarray(self.holdout_features))
        )


def _is_number(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def load_csv(path: str | Path, label_column: int = -1) -> LabeledDataset:
    """Load a labeled dataset from a CSV file.

    ``label_column`` indexes the label column (negative indices count from the
    end).  All other columns must be numeric features.  An optional header row
    is auto-detected: if any feature cell in the first row fails to parse as a
    number, the row is treated as a header.  Labels — integer or string — are
    mapped to dense indices 0..C-1 in order of first appearance, which keeps
    runs over the same file deterministic.

    The file is read as UTF-8; a leading byte-order mark is dropped.

    Raises :class:`CsvParseError` for malformed rows, for text the CSV reader
    rejects (such as a cell over its field size limit; the message names the
    reader's line) and for feature cells that are not finite numbers (naming
    the file row number), and :class:`InvalidDatasetError` when fewer than two
    distinct labels are present.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            rows = [(lineno, row) for lineno, row in enumerate(reader, start=1) if row]
        except csv.Error as exc:
            raise CsvParseError(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows:
        raise InvalidDatasetError(f"{path}: no data rows")

    ncols = len(rows[0][1])
    if ncols < 2:
        raise CsvParseError(f"{path}: row 1 has {ncols} column(s); need features plus a label")
    try:
        label_idx = range(ncols)[label_column]
    except IndexError:
        raise CsvParseError(
            f"{path}: label column {label_column} out of range for {ncols} columns"
        ) from None

    first_feats = [c for i, c in enumerate(rows[0][1]) if i != label_idx]
    if any(not _is_number(c) for c in first_feats):
        rows = rows[1:]  # header row
    if not rows:
        raise InvalidDatasetError(f"{path}: no data rows after the header")

    feature_rows: list[list[float]] = []
    label_indices: list[int] = []
    label_order: dict[str, int] = {}
    for lineno, row in rows:
        if len(row) != ncols:
            raise CsvParseError(
                f"{path}: row {lineno} has {len(row)} columns, expected {ncols}"
            )
        feats = []
        for i, cell in enumerate(row):
            if i == label_idx:
                continue
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise CsvParseError(
                    f"{path}: row {lineno}: feature column {i} value {cell!r} "
                    "is not a finite number"
                )
            feats.append(value)
        raw = row[label_idx].strip()
        if raw not in label_order:
            label_order[raw] = len(label_order)
        feature_rows.append(feats)
        label_indices.append(label_order[raw])

    if len(label_order) < 2:
        raise InvalidDatasetError(
            f"{path}: found {len(label_order)} distinct label(s); need at least 2"
        )
    return LabeledDataset(
        np.array(feature_rows, dtype=np.float64),
        np.array(label_indices, dtype=np.int64),
        num_classes=len(label_order),
    )


def builtin_iris() -> LabeledDataset:
    """The bundled Iris dataset: 150 rows, 4 features, 3 balanced classes."""
    source = resources.files("ldmcap.data").joinpath("iris.csv")
    with resources.as_file(source) as path:
        return load_csv(path, label_column=-1)


def split_train_holdout(
    ds: LabeledDataset, holdout_size: int, rng: np.random.Generator
) -> HoldoutSplit:
    """Draw ``holdout_size`` rows uniformly without replacement as a holdout.

    The remaining rows form the train set in their original order; holdout
    rows are kept sorted by original index.
    """
    n = ds.n_examples
    if not 1 <= holdout_size < n:
        raise ValueError(
            f"holdout_size must be in [1, {n - 1}] for {n} examples, got {holdout_size}"
        )
    chosen = np.sort(rng.choice(n, size=holdout_size, replace=False))
    mask = np.ones(n, dtype=bool)
    mask[chosen] = False
    train = LabeledDataset(ds.features[mask], ds.labels[mask], ds.num_classes)
    return HoldoutSplit(
        train=train,
        holdout_features=ds.features[chosen],
        holdout_indices=tuple(int(i) for i in chosen),
    )


def permute_labels(ds: LabeledDataset, rng: np.random.Generator) -> LabeledDataset:
    """Shuffle the labels uniformly; the label multiset is preserved."""
    return ds.with_labels(ds.labels[rng.permutation(ds.n_examples)])


def random_labels(ds: LabeledDataset, rng: np.random.Generator) -> LabeledDataset:
    """Replace labels with i.i.d. uniform draws over [0, num_classes)."""
    return ds.with_labels(rng.integers(0, ds.num_classes, size=ds.n_examples))
