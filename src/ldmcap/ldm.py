"""Labeling-distribution matrices.

A trained classifier induces a probability distribution over every possible
labeling of a fixed holdout set: assuming per-point conditional independence,
the probability of labeling ``l`` is the product of the per-point class
probabilities ``prod_j P(class l_j | z_j)``.  Stacking that distribution —
one column per training run on permuted labels — gives the
labeling-distribution matrix analyzed by the Dirichlet machinery.

Labelings are indexed lexicographically, big-endian in base C: labeling
``(l_0, .., l_{N'-1})`` sits at row ``sum_j l_j * C**(N'-1-j)``.

Every column fits the same training rows; only the permuted labels change.
So a family with a batch builder (decision trees and AdaBoost) fits a
build's columns in blocks, one block's labels drawn at a time, and each
column is still bit for bit the one :func:`ldm_column` makes from its seed.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .classifiers import ClassifierSpec, TrainedModel, batch_size, fit, fit_batch, ldm_spec
from .dataset import LabeledDataset, permute_labels, split_train_holdout
from .dirichlet import row_blocks
from .errors import CapacityLimitError, MemoryLimitError, integer
from .seeding import derive_seed, make_rng

#: Hard cap on the number of enumerable labelings C**N'.
ENUMERATION_LIMIT = 10_000_000

#: Smoothing added to every simplex entry before renormalizing, so that
#: downstream log-likelihoods never see an exact zero.
DEFAULT_EPSILON = 1e-10


def _check_space(num_classes: int, holdout_size: int) -> tuple[int, int, int]:
    num_classes = integer(num_classes, "num_classes", 2)
    holdout_size = integer(holdout_size, "holdout_size", 1)
    size = num_classes**holdout_size  # exact int arithmetic; cannot overflow
    if size > ENUMERATION_LIMIT:
        raise CapacityLimitError(num_classes, holdout_size, ENUMERATION_LIMIT)
    return num_classes, holdout_size, size


def _physical_memory() -> int:
    """Bytes of physical memory on this host."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def check_ldm_size(num_classes: int, holdout_size: int, k_columns: int) -> int:
    """C**N'; raises ``CapacityLimitError`` past ``ENUMERATION_LIMIT``, and
    ``MemoryLimitError`` when twice the float64 C**N' x K matrix exceeds physical
    memory: the matrix, and as much again for blocks of rows and the interpreter.
    """
    k_columns = integer(k_columns, "k_columns", 1)
    size = _check_space(num_classes, holdout_size)[2]
    needed = 2 * size * k_columns * 8
    available = _physical_memory()
    if needed > available:
        raise MemoryLimitError(size, k_columns, needed, available)
    return size


def labeling_to_index(labeling, num_classes: int) -> int:
    """Lexicographic index of a labeling (big-endian base-C digits)."""
    num_classes = integer(num_classes, "num_classes", 2)
    index = 0
    length = 0
    for digit in labeling:
        digit = integer(digit, "labeling digit")
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
    num_classes = integer(num_classes, "num_classes", 2)
    holdout_size = integer(holdout_size, "holdout_size", 1)
    space = num_classes**holdout_size
    index = integer(index, "index")
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

    The sizes must be enumerable (C >= 2, N' >= 1, C**N' <= ENUMERATION_LIMIT);
    the matrix is validated and then kept as a read-only view, not copied.
    """

    def __init__(self, matrix, num_classes: int, holdout_size: int, column_seeds):
        self.num_classes, self.holdout_size, _ = _check_space(num_classes, holdout_size)
        matrix = _simplex(matrix, self.num_classes, self.holdout_size)
        seeds = tuple(integer(s, "column seed") for s in column_seeds)
        if matrix.ndim != 2 or len(seeds) != matrix.shape[1]:
            raise ValueError(f"got {len(seeds)} seeds for a matrix of shape {matrix.shape}")
        self._matrix, self.column_seeds = matrix, seeds

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
    point most significant), folded left as outer products, which realizes
    the per-entry product ``prod_j predict_proba(z_j)[l_j]`` for every
    labeling at once.  Epsilon smoothing then shifts every entry by
    ``epsilon`` and renormalizes; pass ``epsilon=0.0`` for the raw product
    distribution.  Returns a read-only float64 vector of length C**N'.
    """
    holdout = np.asarray(holdout_features, dtype=np.float64)
    if holdout.ndim != 2 or holdout.shape[0] < 1:
        raise ValueError(f"holdout_features must be a non-empty matrix, got {holdout.shape}")
    if not 0.0 <= epsilon < np.inf:  # NaN fails both
        raise ValueError(f"epsilon must be non-negative and finite, got {epsilon}")
    _check_space(model.num_classes, holdout.shape[0])
    rows = model.predict_proba_batch(holdout)
    raw = rows[0]
    for row in rows[1:]:
        raw = np.multiply.outer(raw, row).ravel()
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
    rng = np.random.default_rng(integer(seed, "seed"))
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
    are capped at depth 5 unless the spec sets a depth explicitly.  The sizes
    pass :func:`check_ldm_size` before anything is allocated.  The columns are
    fitted :func:`batch_size` at a time: a block of one is :func:`ldm_column`,
    and a larger block draws each column's labels as :func:`ldm_column` does
    and fits them through :func:`fit_batch`, giving the same columns.
    """
    size = check_ldm_size(ds.num_classes, holdout_size, k_columns)
    split = split_train_holdout(ds, holdout_size, make_rng(master_seed, "holdout"))
    resolved = ldm_spec(spec)
    seeds = tuple(derive_seed(master_seed, "column", i) for i in range(k_columns))
    matrix = np.empty((size, len(seeds)))
    chunk = batch_size(resolved, split.train)
    for top in range(0, len(seeds), chunk):
        block = seeds[top:top + chunk]
        if len(block) == 1:
            matrix[:, top] = ldm_column(resolved, split.train, split.holdout_features, block[0])
            continue
        labeled = [permute_labels(split.train, np.random.default_rng(seed)) for seed in block]
        for i, model in enumerate(fit_batch(resolved, labeled), top):
            matrix[:, i] = simplex_vector(model, split.holdout_features)
    return LDMatrix(matrix, ds.num_classes, holdout_size, seeds)


def _least_double_at_least(e: int) -> float:
    nearest = 1 / 10**-e  # correctly rounded, for e <= 0
    num, den = nearest.as_integer_ratio()
    return nearest if num * 10**-e >= den else float(np.nextafter(nearest, np.inf))


# Tables of _csv_lines.  x >= 10**E exactly where x >= _POWER_FLOORS[E + 31],
# for E = -31..1.
_POWER_FLOORS = np.array([*(_least_double_at_least(e) for e in range(-31, 1)), 10.0])
# 10**k for k = 17..46 as the double-double hi + lo, with hi split into two
# 26-bit halves by Dekker's splitter, so that x * hi is exact without FMA
_SPLITTER = 2.0**27 + 1
_TEN_HI = np.array([float(10**k) for k in range(17, 47)])
_TEN_HEAD = _SPLITTER * _TEN_HI - (_SPLITTER * _TEN_HI - _TEN_HI)
_POWERS_OF_TEN = np.stack([
    _TEN_HI, _TEN_HEAD, _TEN_HI - _TEN_HEAD,
    [float(10**k - int(hi)) for k, hi in zip(range(17, 47), _TEN_HI.tolist())],
])
# the text of each 4-digit chunk 0000..9999 as one uint32, and its trailing zeros
_CHUNK_TEXT = np.ascontiguousarray(np.moveaxis(np.indices((10,) * 4, np.uint8), 0, -1)
                                   + ord("0")).view(np.uint32).ravel()
_CHUNK_ZEROS = sum((np.arange(10_000) % 10**i == 0).astype(np.intp) for i in range(1, 5))
# A value's record is 32 bytes: a head (bytes 0-7: "0.000", two NULs and the
# leading digit d, or "d." and six NULs), 16 more digits (8-23), "e-XX"
# (24-27), the separator (28) and three NULs.  _HEADS[d] is the first head,
# _HEADS[10 + d] the second, and _EXPONENTS[-E] the text "e-XX".  Bytes that
# %.17g leaves out are set to NUL, and the NULs are deleted from the text.
_HEADS = np.frombuffer(b"".join([b"0.000\0\0%d" % d for d in range(10)]
                                + [b"%d.\0\0\0\0\0\0" % d for d in range(10)]), np.uint64)
_EXPONENTS = np.frombuffer(b"".join(b"e-%02d" % e for e in range(31)), np.uint32)
# _KEEP[18 * -E + n] is 0xFF at the record bytes that %.17g writes for a
# value with exponent E and n significant digits: "0." with -E - 1 zeros for
# E >= -4, "d." (just "d" for n = 1) and "e-XX" below.  Row 0 keeps a record
# that holds the text of a value formatted by %.
_E, _N, _J = np.ogrid[:31, :18, :32]
_KEEP = np.uint8(255) * np.where(_E == 0, True, (_J >= 28) | np.where(
    _E <= 4,
    (_J <= 1) | ((_J >= 6 - _E) & (_J <= 6 + _N)),
    (_J == 0) | ((_J == 1) & (_N > 1)) | ((_J >= 8) & (_J <= 6 + _N)) | (_J >= 24),
)).reshape(31 * 18, 32)


def _csv_lines(block: np.ndarray) -> bytes:
    """``block``'s rows as ``np.savetxt(fh, block, fmt="%.17g", delimiter=",")`` writes them.

    Each value x in [1e-30, 1) is formatted in numpy.  Its exponent E
    (10**E <= x < 10**(E+1)) comes from exact thresholds, and x * 10**(16 - E)
    from double-double arithmetic, within about 2**-47.  That rounds to the
    17-digit significand S, whose digits come from a table of 4-digit texts
    (S = 10**17 is 10**16 with E + 1).  Every other value (0, -0, subnormals,
    x >= 1 or below 1e-30, negatives, NaN, inf), and any x whose scaled
    fraction lies within 2**-30 of 1/2, is formatted by ``%``.
    """
    rows, k = block.shape
    x = block.ravel()
    n = x.size
    inside = (x >= _POWER_FLOORS[1]) & (x < 1.0)
    x_in = np.where(inside, x, 0.5)
    e = np.floor(np.log10(x_in)).astype(np.intp)  # off by at most one
    e += x_in >= _POWER_FLOORS.take(e + 32)
    e -= x_in < _POWER_FLOORS.take(e + 31)
    # x * 10**(16 - E) = p + err: Dekker's exact x * hi = p + (..), plus x * lo
    hi, hi_head, hi_tail, lo = _POWERS_OF_TEN.take(-1 - e, axis=1)
    p = x_in * hi
    x_head = _SPLITTER * x_in
    x_head -= x_head - x_in
    x_tail = x_in - x_head
    err = (x_head * hi_head - p) + x_head * hi_tail + x_tail * hi_head
    err += x_tail * hi_tail
    err += x_in * lo
    del x_in, hi, hi_head, hi_tail, lo, x_head, x_tail
    whole = np.floor(err)
    err -= whole  # p is a whole number above 2**53, so this is the fraction
    s = p.astype(np.int64) + whole.astype(np.int64) + (err > 0.5)
    inside &= np.abs(err - 0.5) >= 2.0**-30
    del p, whole, err
    carry = s == 10**17
    s[carry] = 10**16
    e += carry  # E stays below 0: 1 - 2**-53 is 0.99999999999999989
    lead = s // 10**16
    s -= lead * 10**16
    chunks = np.empty((4, n), np.intp)
    np.divmod(s // 10**8, 10**4, out=(chunks[0], chunks[1]))
    np.divmod(s % 10**8, 10**4, out=(chunks[2], chunks[3]))
    # significant digits: 17 less the trailing zeros, chunk by chunk from the last
    zeros = _CHUNK_ZEROS.take(chunks[3])
    for c in (2, 1, 0):
        more = np.flatnonzero(zeros == 4 * (3 - c))
        if not more.size:
            break
        zeros[more] += _CHUNK_ZEROS.take(chunks[c, more])
    row = np.where(inside, -18 * e + 17 - zeros, 0)
    record = np.empty((n, 8), np.uint32)
    record.view(np.uint64)[:, 0] = _HEADS.take(lead + 10 * (e < -4))
    record[:, 2:6] = _CHUNK_TEXT.take(chunks).T
    record[:, 6] = _EXPONENTS.take(-e)
    record.reshape(rows, k, 8)[:, :, 7] = ord(",")
    record.reshape(rows, k, 8)[:, -1, 7] = ord("\n")
    del inside, e, s, lead, chunks, zeros  # so the text copies below set the peak
    text = record.view(np.uint8)
    fallback = np.flatnonzero(row == 0)
    if fallback.size:  # each text is at most 24 bytes, NUL-padded to 28
        texts = ["%.17g" % v for v in x[fallback].tolist()]
        text[fallback, :28] = np.array(texts, dtype="S28").view(np.uint8).reshape(-1, 28)
    np.bitwise_and(text, _KEEP.take(row, axis=0), out=text)
    return text.tobytes().translate(None, b"\0")


def write_ldm_csv(ldm: LDMatrix, path: str | Path) -> None:
    """Write the matrix as CSV: header ``col_0..col_{K-1}``, row r = labeling index r.

    Values carry 17 significant digits, enough to reproduce every float64
    exactly; the bytes are ``np.savetxt``'s with ``fmt="%.17g"``.  Rows go
    out in blocks of at most 4,096 values (at least one row), formatted by
    :func:`_csv_lines` (without ``%`` for an epsilon-smoothed LDM).
    """
    matrix = ldm.matrix
    with open(path, "wb") as fh:
        fh.write(",".join(f"col_{i}" for i in range(ldm.k_columns)).encode() + b"\n")
        # _csv_lines holds about 125 bytes per value of a block
        fh.writelines(_csv_lines(matrix[b]) for b in row_blocks(matrix, value_bytes=128))
