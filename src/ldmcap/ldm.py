"""Labeling-distribution matrices.

A trained classifier induces a probability distribution over every possible
labeling of a fixed holdout set: assuming per-point conditional independence,
the probability of labeling ``l`` is the product of the per-point class
probabilities ``prod_j P(class l_j | z_j)``.  Stacking that distribution —
one column per training run on permuted labels — gives the
labeling-distribution matrix analyzed by the Dirichlet machinery.

Labelings are indexed lexicographically, big-endian in base C: labeling
``(l_0, .., l_{N'-1})`` sits at row ``sum_j l_j * C**(N'-1-j)``.
"""

from __future__ import annotations

import os
from functools import reduce
from pathlib import Path

import numpy as np

from .classifiers import ClassifierSpec, TrainedModel, fit, ldm_spec
from .dataset import LabeledDataset, permute_labels, split_train_holdout
from .errors import CapacityLimitError, MemoryLimitError
from .seeding import derive_seed, make_rng

#: Hard cap on the number of enumerable labelings C**N'.
ENUMERATION_LIMIT = 10_000_000

#: Smoothing added to every simplex entry before renormalizing, so that
#: downstream log-likelihoods never see an exact zero.
DEFAULT_EPSILON = 1e-10


def _check_space(num_classes: int, holdout_size: int) -> int:
    if num_classes < 2:
        raise ValueError(f"num_classes must be at least 2, got {num_classes}")
    if holdout_size < 1:
        raise ValueError(f"holdout_size must be at least 1, got {holdout_size}")
    size = num_classes**holdout_size  # exact int arithmetic; cannot overflow
    if size > ENUMERATION_LIMIT:
        raise CapacityLimitError(num_classes, holdout_size, ENUMERATION_LIMIT)
    return size


def _physical_memory() -> int:
    """Bytes of physical memory on this host."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def labeling_to_index(labeling, num_classes: int) -> int:
    """Lexicographic index of a labeling (big-endian base-C digits)."""
    index = 0
    length = 0
    for digit in labeling:
        digit = int(digit)
        if not 0 <= digit < num_classes:
            raise ValueError(
                f"labeling digit {digit} out of range for {num_classes} classes"
            )
        index = index * num_classes + digit
        length += 1
    if length == 0:
        raise ValueError("labeling must be non-empty")
    return index


def index_to_labeling(index: int, num_classes: int, holdout_size: int) -> tuple[int, ...]:
    """Inverse of :func:`labeling_to_index` for a holdout of known size."""
    if holdout_size < 1:
        raise ValueError(f"holdout_size must be at least 1, got {holdout_size}")
    space = num_classes**holdout_size
    if not 0 <= index < space:
        raise ValueError(f"index {index} out of range [0, {space})")
    digits = []
    for _ in range(holdout_size):
        index, rem = divmod(index, num_classes)
        digits.append(rem)
    return tuple(reversed(digits))


def _simplex(probs, num_classes: int, holdout_size: int) -> np.ndarray:
    """Check that every column of ``probs`` is a distribution over the C**N' labelings.

    A 1-D vector counts as one column.  Returns a read-only float64 view.
    """
    probs = np.asarray(probs, dtype=np.float64).view()
    expected = num_classes**holdout_size
    if probs.ndim not in (1, 2) or probs.shape[0] != expected or 0 in probs.shape:
        raise ValueError(
            f"probs must have {num_classes}**{holdout_size} = {expected} rows "
            f"and at least one column, got shape {probs.shape}"
        )
    if not (probs.min() >= 0.0 and probs.max() < np.inf):  # NaN fails both
        raise ValueError("probs must be non-negative and finite")
    worst = float(np.max(np.abs(probs.sum(axis=0) - 1.0)))
    if worst > 1e-9:
        raise ValueError(f"each column must sum to 1 within 1e-9, one is off by {worst!r}")
    probs.setflags(write=False)
    return probs


class LDMatrix:
    """A read-only C**N' x K matrix of simplex columns, with one seed per column.

    The matrix is validated and then kept as a read-only view, not copied.
    """

    def __init__(self, matrix, num_classes: int, holdout_size: int, column_seeds):
        matrix = _simplex(matrix, num_classes, holdout_size)
        seeds = tuple(int(s) for s in column_seeds)
        if matrix.ndim != 2 or len(seeds) != matrix.shape[1]:
            raise ValueError(f"got {len(seeds)} seeds for a matrix of shape {matrix.shape}")
        self._matrix = matrix
        self.num_classes = int(num_classes)
        self.holdout_size = int(holdout_size)
        self.column_seeds = seeds

    @property
    def k_columns(self) -> int:
        return self._matrix.shape[1]

    @property
    def matrix(self) -> np.ndarray:
        """The C**N' x K matrix; column i was trained with ``column_seeds[i]``."""
        return self._matrix


def simplex_vector(
    model: TrainedModel, holdout_features, epsilon: float = DEFAULT_EPSILON
) -> np.ndarray:
    """The model-induced distribution over all labelings of the holdout rows.

    Built as the Kronecker product of the per-point probability rows (first
    point most significant), which realizes the per-entry product
    ``prod_j predict_proba(z_j)[l_j]`` for every labeling at once.  Epsilon
    smoothing then shifts every entry by ``epsilon`` and renormalizes; pass
    ``epsilon=0.0`` for the raw product distribution.  Returns a read-only
    float64 vector of length C**N'.
    """
    holdout = np.asarray(holdout_features, dtype=np.float64)
    if holdout.ndim != 2 or holdout.shape[0] < 1:
        raise ValueError(f"holdout_features must be a non-empty matrix, got {holdout.shape}")
    if epsilon < 0.0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    _check_space(model.num_classes, holdout.shape[0])
    rows = model.predict_proba_batch(holdout)
    raw = reduce(np.kron, rows)
    smoothed = raw + epsilon
    smoothed /= smoothed.sum()
    return _simplex(smoothed, model.num_classes, holdout.shape[0])


def ldm_column(
    spec: ClassifierSpec,
    train: LabeledDataset,
    holdout_features,
    seed: int,
) -> np.ndarray:
    """One LDM column: permute the train labels, fit ``spec`` as given, and read the simplex.

    The simplex is smoothed by ``DEFAULT_EPSILON``.  Self-contained given its
    seed, so columns can be computed in any order — or concurrently — without
    changing the result.
    """
    rng = np.random.default_rng(seed)
    model = fit(spec, permute_labels(train, rng), rng)
    return simplex_vector(model, holdout_features)


def build_ldm(
    spec: ClassifierSpec,
    ds: LabeledDataset,
    k_columns: int = 100,
    holdout_size: int = 5,
    master_seed: int = 0,
) -> LDMatrix:
    """Build a labeling-distribution matrix for one classifier spec.

    The holdout is drawn once from the master seed and shared by every
    column; column ``i`` then trains on labels permuted by its own derived
    seed.  Each column fits :func:`ldm_spec` of ``spec``, so tree-based specs
    are capped at depth 5 unless the spec sets a depth explicitly.  Raises
    ``MemoryLimitError`` before allocating when the float64 matrix and the
    Dirichlet fit's log copy of it would together exceed physical memory.
    """
    if k_columns < 1:
        raise ValueError(f"k_columns must be at least 1, got {k_columns}")
    size = _check_space(ds.num_classes, holdout_size)
    needed = 2 * size * k_columns * 8
    available = _physical_memory()
    if needed > available:
        raise MemoryLimitError(size, k_columns, needed, available)
    split = split_train_holdout(ds, holdout_size, make_rng(master_seed, "holdout"))
    resolved = ldm_spec(spec)
    seeds = tuple(derive_seed(master_seed, "column", i) for i in range(k_columns))
    matrix = np.empty((size, k_columns))
    for i, seed in enumerate(seeds):
        matrix[:, i] = ldm_column(resolved, split.train, split.holdout_features, seed)
    return LDMatrix(matrix, ds.num_classes, holdout_size, seeds)


#: Values :func:`write_ldm_csv` formats per write: a block is as many whole
#: rows as fit, at least one.  Larger blocks cost peak memory that grows with
#: the file: blocks of 256 rows x 30 columns raised a writer's peak RSS by
#: 4 MB at 6,561 rows and 12 MB at 59,049, against 0.3-0.4 MB for this size.
_CSV_BLOCK_VALUES = 256


def write_ldm_csv(ldm: LDMatrix, path: str | Path) -> None:
    """Write the matrix as CSV: header ``col_0..col_{K-1}``, row r = labeling index r.

    Values carry 17 significant digits, enough to reproduce every float64
    exactly.  The text is ``np.savetxt``'s with ``fmt="%.17g"``, but each
    block of rows is formatted by one ``%`` over its values, not row by row.
    """
    matrix = ldm.matrix
    k = ldm.k_columns
    rows = max(1, _CSV_BLOCK_VALUES // k)
    line = ",".join(["%.17g"] * k) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(f"col_{i}" for i in range(k)) + "\n")
        for top in range(0, matrix.shape[0], rows):
            block = matrix[top:top + rows]
            fh.write((line * block.shape[0]) % tuple(block.ravel().tolist()))
