from __future__ import annotations

import numpy as np
import pytest

from ldmcap import (
    CapacityLimitError,
    ClassifierSpec,
    LDMatrix,
    MemoryLimitError,
    build_ldm,
    index_to_labeling,
    labeling_to_index,
    ldm_column,
    ldm_spec,
    simplex_vector,
    write_ldm_csv,
)
from ldmcap import ldm as ldm_module
from ldmcap.classifiers.base import TrainedModel
from ldmcap.dataset import split_train_holdout
from ldmcap.seeding import make_rng


class _StubModel(TrainedModel):
    """Returns a fixed probability row per holdout point, in order."""

    def __init__(self, rows):
        rows = np.asarray(rows, dtype=np.float64)
        super().__init__(num_classes=rows.shape[1], n_features=1)
        self._rows = rows

    def predict_proba_batch(self, X) -> np.ndarray:
        X = np.asarray(X)
        assert X.shape[0] == self._rows.shape[0]
        return self._rows.copy()


def _holdout(n_points):
    return np.zeros((n_points, 1))


# ---------------------------------------------------------------------------
# labeling <-> index
# ---------------------------------------------------------------------------


def test_labeling_index_is_big_endian_base_c():
    assert labeling_to_index((1, 0, 0, 0, 0), 3) == 81
    assert labeling_to_index((0, 0, 0, 0, 1), 3) == 1
    assert labeling_to_index((0, 0, 0, 0, 0), 3) == 0
    assert labeling_to_index((2, 2, 2, 2, 2), 3) == 242
    assert labeling_to_index((1, 0, 1), 2) == 5


def test_index_round_trip_covers_the_whole_space():
    for index in range(3**5):
        labeling = index_to_labeling(index, 3, 5)
        assert len(labeling) == 5
        assert labeling_to_index(labeling, 3) == index


def test_labeling_index_rejects_bad_digits():
    with pytest.raises(ValueError):
        labeling_to_index((0, 3), 3)
    with pytest.raises(ValueError):
        labeling_to_index((-1, 0), 3)
    with pytest.raises(ValueError):
        labeling_to_index((), 3)


def test_index_to_labeling_rejects_out_of_range():
    with pytest.raises(ValueError):
        index_to_labeling(8, 2, 3)
    with pytest.raises(ValueError):
        index_to_labeling(-1, 2, 3)


@pytest.mark.parametrize(
    "call, named",
    [
        (lambda ds: build_ldm(ClassifierSpec("knn"), ds, k_columns=0), "k_columns"),
        (lambda ds: build_ldm(ClassifierSpec("knn"), ds, holdout_size=0), "holdout_size"),
        (lambda ds: simplex_vector(_StubModel([[0.5, 0.5]]), np.zeros(1)), "holdout_features"),
        (lambda ds: simplex_vector(_StubModel([[1.0]]), _holdout(1)), "num_classes"),
        (lambda ds: index_to_labeling(0, 3, 0), "holdout_size"),
    ],
    ids=["build-k-0", "build-holdout-0", "simplex-1d-holdout", "simplex-one-class",
         "labeling-holdout-0"],
)
def test_public_guards_name_the_bad_argument(iris, call, named):
    with pytest.raises(ValueError, match=named):
        call(iris)


# ---------------------------------------------------------------------------
# simplex vectors
# ---------------------------------------------------------------------------


def test_simplex_vector_matches_hand_computed_products():
    model = _StubModel([[0.6, 0.4], [0.3, 0.7]])
    vec = simplex_vector(model, _holdout(2), epsilon=0.0)
    # big-endian: entry for labeling (l0, l1) sits at index 2*l0 + l1
    assert np.allclose(vec, [0.18, 0.42, 0.12, 0.28], atol=1e-15)


def test_simplex_vector_matches_brute_force_enumeration(rng):
    rows = rng.random((3, 3)) + 0.05
    rows /= rows.sum(axis=1, keepdims=True)
    model = _StubModel(rows)
    vec = simplex_vector(model, _holdout(3), epsilon=0.0)

    expected = np.zeros(27)
    for l0 in range(3):
        for l1 in range(3):
            for l2 in range(3):
                idx = labeling_to_index((l0, l1, l2), 3)
                expected[idx] = rows[0, l0] * rows[1, l1] * rows[2, l2]
    assert np.max(np.abs(vec - expected)) < 1e-15


def test_simplex_smoothing_removes_zeros_but_keeps_the_peak():
    model = _StubModel([[1.0, 0.0], [0.0, 1.0]])
    raw = simplex_vector(model, _holdout(2), epsilon=0.0)
    assert raw.tolist() == [0.0, 1.0, 0.0, 0.0]

    smoothed = simplex_vector(model, _holdout(2))  # default epsilon
    assert np.all(smoothed > 0.0)
    assert abs(smoothed.sum() - 1.0) < 1e-12
    assert smoothed.argmax() == 1
    assert smoothed[0] < 1e-9


def test_simplex_vector_rejects_negative_epsilon():
    model = _StubModel([[0.5, 0.5]])
    with pytest.raises(ValueError):
        simplex_vector(model, _holdout(1), epsilon=-1e-3)


def test_simplex_vector_validation():
    # every LDM column must be a distribution over the 2**2 labelings
    with pytest.raises(ValueError):
        LDMatrix(np.full((3, 1), 1 / 3), num_classes=2, holdout_size=2, column_seeds=(0,))
    with pytest.raises(ValueError):
        LDMatrix(np.array([[0.5], [0.6], [-0.1], [0.0]]), 2, 2, column_seeds=(0,))
    with pytest.raises(ValueError):
        LDMatrix(np.array([[0.5], [0.6], [0.1], [0.0]]), 2, 2, column_seeds=(0,))


def test_simplex_probs_are_immutable():
    vec = simplex_vector(_StubModel([[0.5, 0.5], [0.5, 0.5]]), _holdout(2))
    with pytest.raises(ValueError):
        vec[0] = 1.0
    ldm = LDMatrix(np.full((4, 1), 0.25), num_classes=2, holdout_size=2, column_seeds=(0,))
    with pytest.raises(ValueError):
        ldm.matrix[0, 0] = 1.0


# ---------------------------------------------------------------------------
# capacity guard
# ---------------------------------------------------------------------------


def test_capacity_guard_trips_on_huge_labeling_spaces(iris):
    spec = ClassifierSpec("knn", {"k": 1})
    with pytest.raises(CapacityLimitError) as err:
        build_ldm(spec, iris, k_columns=2, holdout_size=20)
    assert err.value.num_classes == 3
    assert err.value.holdout_size == 20
    assert err.value.limit == 10_000_000
    assert "holdout" in str(err.value)


def test_capacity_guard_allows_the_default_iris_setup(iris):
    # 3**5 = 243 is far below the limit; must not raise
    spec = ClassifierSpec("gaussian_nb")
    ldm = build_ldm(spec, iris, k_columns=2, holdout_size=5)
    assert ldm.matrix.shape == (243, 2)


def test_memory_guard_compares_matrix_and_log_copy_with_physical_memory(iris, monkeypatch):
    # 3**3 rows x 6 columns of float64, twice: 2592 bytes
    spec = ClassifierSpec("knn", {"k": 1})
    monkeypatch.setattr(ldm_module, "_physical_memory", lambda: 2591)
    with pytest.raises(MemoryLimitError) as err:
        build_ldm(spec, iris, k_columns=6, holdout_size=3)
    assert (err.value.needed, err.value.available) == (2592, 2591)
    monkeypatch.setattr(ldm_module, "_physical_memory", lambda: 2592)
    assert build_ldm(spec, iris, k_columns=6, holdout_size=3).matrix.shape == (27, 6)


def test_physical_memory_is_positive():
    assert ldm_module._physical_memory() > 0


# ---------------------------------------------------------------------------
# matrix construction
# ---------------------------------------------------------------------------


def test_build_ldm_shape_and_column_normalization(iris):
    ldm = build_ldm(ClassifierSpec("knn", {"k": 1}), iris, k_columns=6, holdout_size=3)
    assert ldm.matrix.shape == (27, 6)
    assert ldm.num_classes == 3
    assert ldm.holdout_size == 3
    assert ldm.k_columns == 6
    assert np.allclose(ldm.matrix.sum(axis=0), 1.0, atol=1e-9)
    assert np.all(ldm.matrix > 0.0)  # epsilon smoothing


def test_build_ldm_is_deterministic(iris):
    spec = ClassifierSpec("random_forest", {"n": 3})
    a = build_ldm(spec, iris, k_columns=4, holdout_size=3, master_seed=7)
    b = build_ldm(spec, iris, k_columns=4, holdout_size=3, master_seed=7)
    assert np.array_equal(a.matrix, b.matrix)
    assert a.column_seeds == b.column_seeds


def test_build_ldm_master_seed_changes_the_matrix(iris):
    spec = ClassifierSpec("knn", {"k": 1})
    a = build_ldm(spec, iris, k_columns=4, holdout_size=3, master_seed=0)
    b = build_ldm(spec, iris, k_columns=4, holdout_size=3, master_seed=1)
    assert not np.array_equal(a.matrix, b.matrix)
    assert set(a.column_seeds).isdisjoint(b.column_seeds)


def test_build_ldm_column_seeds_are_distinct(iris):
    ldm = build_ldm(ClassifierSpec("knn", {"k": 1}), iris, k_columns=12, holdout_size=3)
    assert len(set(ldm.column_seeds)) == 12


def test_build_ldm_columns_vary_across_permutations(iris):
    ldm = build_ldm(ClassifierSpec("knn", {"k": 1}), iris, k_columns=5, holdout_size=3)
    base = ldm.matrix[:, 0]
    assert any(not np.array_equal(base, col) for col in ldm.matrix.T[1:])


def test_columns_are_order_invariant(iris):
    # each column is fully determined by its seed, so recomputing them in
    # reverse order must give bitwise-identical vectors
    spec = ClassifierSpec("knn", {"k": 1})
    ldm = build_ldm(spec, iris, k_columns=5, holdout_size=3, master_seed=42)

    split = split_train_holdout(iris, 3, make_rng(42, "holdout"))
    resolved = ldm_spec(spec)
    for seed, column in zip(reversed(ldm.column_seeds), ldm.matrix.T[::-1]):
        redone = ldm_column(resolved, split.train, split.holdout_features, seed)
        assert np.array_equal(redone, column)


def test_ldm_validation_rejects_mismatched_columns():
    # 9 rows span 3**2 labelings, not the 2**2 the matrix claims
    with pytest.raises(ValueError):
        LDMatrix(np.full((9, 2), 1 / 9), num_classes=2, holdout_size=2, column_seeds=(0, 1))
    with pytest.raises(ValueError):
        LDMatrix(np.full((4, 1), 0.25), num_classes=2, holdout_size=2, column_seeds=(0, 1))
    with pytest.raises(ValueError):
        LDMatrix(np.empty((4, 0)), num_classes=2, holdout_size=2, column_seeds=())


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


def test_write_ldm_csv_round_trips_exactly(tmp_path, iris):
    ldm = build_ldm(ClassifierSpec("gaussian_nb"), iris, k_columns=4, holdout_size=3)
    path = tmp_path / "ldm.csv"
    write_ldm_csv(ldm, path)

    text = path.read_text().splitlines()
    assert text[0] == "col_0,col_1,col_2,col_3"
    assert len(text) == 1 + 27

    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(back, ldm.matrix)  # 17 significant digits: bit exact


# 2 columns make blocks of 128 rows, 30 columns blocks of 8
@pytest.mark.parametrize("k_columns, num_classes, holdout_size, shape", [
    (2, 2, 6, "under-one-block"), (2, 2, 7, "one-block"), (2, 3, 5, "partial-last-block"),
    (30, 2, 2, "under-one-block"), (30, 2, 3, "one-block"), (30, 3, 3, "partial-last-block"),
])
def test_write_ldm_csv_is_savetxt_byte_for_byte(k_columns, num_classes, holdout_size, shape,
                                                 tmp_path):
    rows = num_classes**holdout_size
    block = ldm_module._CSV_BLOCK_VALUES // k_columns
    assert {"under-one-block": rows < block, "one-block": rows == block,
            "partial-last-block": rows > block and rows % block != 0}[shape]
    # values across many decades, one of them subnormal
    matrix = np.random.default_rng(rows + k_columns).random((rows, k_columns)) ** 12
    matrix[-1, 0] = 1e-310
    matrix /= matrix.sum(axis=0)
    ldm = LDMatrix(matrix, num_classes, holdout_size, tuple(range(k_columns)))
    write_ldm_csv(ldm, tmp_path / "blocks.csv")
    header = ",".join(f"col_{i}" for i in range(k_columns))
    np.savetxt(tmp_path / "savetxt.csv", matrix, fmt="%.17g", delimiter=",", header=header,
               comments="")
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "savetxt.csv").read_bytes()


def test_csv_row_order_is_labeling_index(tmp_path):
    # a stub whose first point strongly prefers class 0 makes the first
    # block of 2**1 rows the largest, pinning the row convention
    model = _StubModel([[0.9, 0.1], [0.5, 0.5]])
    vec = simplex_vector(model, _holdout(2), epsilon=0.0)
    ldm = LDMatrix(vec[:, None], num_classes=2, holdout_size=2, column_seeds=(0,))
    path = tmp_path / "one.csv"
    write_ldm_csv(ldm, path)
    values = np.loadtxt(path, delimiter=",", skiprows=1)
    assert values.tolist() == [0.45, 0.45, 0.05, 0.05]
