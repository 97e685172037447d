from __future__ import annotations

import tracemalloc
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from ldmcap import (
    CapacityLimitError,
    ClassifierSpec,
    LDMatrix,
    MemoryLimitError,
    build_ldm,
    chance_baseline,
    estimate_capacity,
    index_to_labeling,
    labeling_to_index,
    ldm_column,
    ldm_spec,
    sample_dirichlet,
    simplex_vector,
    write_ldm_csv,
)
from ldmcap import dirichlet
from ldmcap import ldm as ldm_module
from ldmcap.classifiers import AdaBoostModel, DecisionTreeModel, KnnModel, RandomForestModel
from ldmcap.classifiers.base import TrainedModel
from ldmcap.dataset import split_train_holdout
from ldmcap.seeding import make_rng


class _StubModel(TrainedModel):
    """Returns a fixed probability row per holdout point, in order.

    It trains on nothing, so it sets the class and feature counts itself.
    """

    def __init__(self, rows):
        self._rows = np.asarray(rows, dtype=np.float64)
        self.num_classes, self.n_features = self._rows.shape[1], 1

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
        (lambda ds: index_to_labeling(0, 1, 3), "num_classes"),
        (lambda ds: index_to_labeling(0, 0, 3), "num_classes"),
        (lambda ds: index_to_labeling(3, -2, 3), "num_classes"),
        (lambda ds: labeling_to_index((0, 0, 0), 1), "num_classes"),
        # int() would truncate these to the labeling (0, 1), index 1, or parse
        # them to (1, 2), index 5; and divmod would split 4.9 into float digits
        (lambda ds: labeling_to_index([0.9, 1.7], 3),
         r"labeling digit must be an integer, got 0\.9"),
        (lambda ds: labeling_to_index(["1", "2"], 3),
         "labeling digit must be an integer, got '1'"),
        (lambda ds: index_to_labeling(4.9, 3, 2), r"index must be an integer, got 4\.9"),
        # a float class count would give the index 4.5 or the digits (1.0, 0.5),
        # and a float size or column count a bare TypeError from range
        (lambda ds: labeling_to_index([0, 1, 2], 2.5),
         r"num_classes must be an integer, got 2\.5"),
        (lambda ds: index_to_labeling(3, 2.5, 2), r"num_classes must be an integer, got 2\.5"),
        (lambda ds: index_to_labeling(3, 3, 2.0), r"holdout_size must be an integer, got 2\.0"),
        (lambda ds: build_ldm(ClassifierSpec("knn"), ds, holdout_size=2.0),
         r"holdout_size must be an integer, got 2\.0"),
        (lambda ds: build_ldm(ClassifierSpec("knn"), ds, k_columns=2.0),
         r"k_columns must be an integer, got 2\.0"),
        # int() would truncate the seed 1.7 to 1 and take the class count 2.0,
        # a float master seed would be hashed as its text "1.5", and the
        # recorder would compare a string with 1 or divide by 2.5
        (lambda ds: LDMatrix(np.full((4, 1), 0.25), 2, 2, [1.7]),
         r"column seed must be an integer, got 1\.7"),
        (lambda ds: LDMatrix(np.full((4, 1), 0.25), 2.0, 2, [1]),
         r"num_classes must be an integer, got 2\.0"),
        (lambda ds: build_ldm(ClassifierSpec("knn"), ds, 2, 2, master_seed=1.5),
         r"master_seed must be an integer, got 1\.5"),
        (lambda ds: ldm_column(ClassifierSpec("knn"), ds, ds.features[:2], seed=1.5),
         r"seed must be an integer, got 1\.5"),
        (lambda ds: split_train_holdout(ds, 2.0, np.random.default_rng(0)),
         r"holdout_size must be an integer, got 2\.0"),
        (lambda ds: chance_baseline(150, 2.5), r"num_classes must be an integer, got 2\.5"),
        (lambda ds: chance_baseline(0, 3), "dataset_size must be at least 1, got 0"),
        (lambda ds: estimate_capacity(ClassifierSpec("knn"), ds, trials="3"),
         "trials must be an integer, got '3'"),
        (lambda ds: estimate_capacity(ClassifierSpec("knn"), ds, 1, master_seed=1.5),
         r"master_seed must be an integer, got 1\.5"),
    ],
    ids=["build-k-0", "build-holdout-0", "simplex-1d-holdout", "simplex-one-class",
         "labeling-holdout-0", "labeling-one-class", "labeling-no-class",
         "labeling-negative-classes", "index-one-class", "index-float-digits",
         "index-string-digits", "labeling-float-index", "index-float-classes",
         "labeling-float-classes", "labeling-float-holdout", "build-float-holdout",
         "build-float-k", "matrix-float-seed", "matrix-float-classes", "build-float-seed",
         "column-float-seed", "split-float-holdout", "chance-float-classes",
         "chance-empty-dataset", "recorder-string-trials", "recorder-float-seed"],
)
def test_public_guards_name_the_bad_argument(iris, call, named):
    with pytest.raises(ValueError, match=named):
        call(iris)


def test_numpy_integers_count_as_the_python_ints_they_equal(iris):
    i = np.int64
    spec = ClassifierSpec("knn", {"k": i(3)})
    assert spec.params == {"k": 3} and type(spec.params["k"]) is int
    ints = build_ldm(spec, iris, k_columns=3, holdout_size=2, master_seed=7)
    numpy = build_ldm(spec, iris, k_columns=i(3), holdout_size=np.uint8(2), master_seed=i(7))
    assert numpy.matrix.tobytes() == ints.matrix.tobytes()
    assert numpy.column_seeds == ints.column_seeds
    seeds = np.array(ints.column_seeds, dtype=np.uint64)
    assert LDMatrix(ints.matrix, i(3), i(2), seeds).column_seeds == ints.column_seeds
    assert chance_baseline(i(150), i(3)) == 50.0
    assert (estimate_capacity(spec, iris, trials=i(3), master_seed=i(7)).counts
            == estimate_capacity(spec, iris, trials=3, master_seed=7).counts)
    for build in (
        lambda n: KnnModel(iris, n(3)),
        lambda n: DecisionTreeModel(iris, n(2), n(2), np.random.default_rng(0)),
        lambda n: RandomForestModel(iris, n(2), n(1), n(3), np.random.default_rng(0)),
        lambda n: AdaBoostModel(iris, n(2)),
    ):
        assert np.array_equal(build(i).predict_proba_batch(iris.features),
                              build(int).predict_proba_batch(iris.features))
    assert sample_dirichlet(np.ones(2), i(3), np.random.default_rng(0)).shape == (2, 3)


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


@pytest.mark.parametrize("num_classes", [2, 3, 4])
@pytest.mark.parametrize("holdout_size", [1, 2, 3, 4, 5, 6])
def test_simplex_vector_is_the_kronecker_fold_bit_for_bit(num_classes, holdout_size):
    rows = np.random.default_rng(10 * num_classes + holdout_size).random(
        (holdout_size, num_classes)
    )
    rows /= rows.sum(axis=1, keepdims=True)
    rows[0, -1] = 0.0
    rows[-1, 0] = 1e-310  # subnormal, and its products underflow further
    expected = reduce(np.kron, rows)
    expected /= expected.sum()  # what epsilon=0.0 smoothing does
    vec = simplex_vector(_StubModel(rows), _holdout(holdout_size), epsilon=0.0)
    assert vec.tobytes() == expected.tobytes()


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
    # NaN and inf pass `epsilon < 0`, and would warn and then fail the probs check
    for epsilon in (-1e-3, np.nan, np.inf):
        with pytest.raises(ValueError, match="epsilon must be non-negative and finite"):
            simplex_vector(model, _holdout(1), epsilon=epsilon)


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
    # reverse order, one fit each, must give bitwise-identical vectors, also
    # where build_ldm fits every column in one batch (trees and AdaBoost)
    specs = [
        ClassifierSpec("knn", {"k": 1}),
        ClassifierSpec("decision_tree"),
        ClassifierSpec("decision_tree", {"max_depth": 3}),
        ClassifierSpec("adaboost"),
        ClassifierSpec("adaboost", {"rounds": 3}),
    ]
    split = split_train_holdout(iris, 3, make_rng(42, "holdout"))
    for spec in specs:
        ldm = build_ldm(spec, iris, k_columns=5, holdout_size=3, master_seed=42)
        resolved = ldm_spec(spec)
        for seed, column in zip(reversed(ldm.column_seeds), ldm.matrix.T[::-1]):
            redone = ldm_column(resolved, split.train, split.holdout_features, seed)
            assert np.array_equal(redone, column), spec.to_string()


@pytest.mark.parametrize("spec", [
    ClassifierSpec("decision_tree"), ClassifierSpec("adaboost", {"rounds": 3}),
], ids=["decision_tree", "adaboost"])
def test_batched_build_is_the_same_in_blocks_of_any_size(spec, iris, monkeypatch):
    # build_ldm fits as many columns at once as make one int64 (labelings,
    # rows, features, classes) array of about dirichlet._BLOCK_BYTES; the
    # block size must not show in the matrix
    sizes, batch = [], ldm_module.fit_batch

    def counted(resolved, labeled):
        sizes.append(len(labeled))
        return batch(resolved, labeled)

    monkeypatch.setattr(ldm_module, "fit_batch", counted)
    per_labeling = 8 * iris.n_features * iris.num_classes * (iris.n_examples - 3)
    matrices = []
    for labelings, batches in ((1, []), (3, [3, 3, 3]), (4, [4, 4]), (6, [6, 3]), (1 << 30, [9])):
        monkeypatch.setattr(dirichlet, "_BLOCK_BYTES", labelings * per_labeling)
        sizes.clear()
        matrices.append(build_ldm(spec, iris, k_columns=9, holdout_size=3, master_seed=5).matrix)
        assert sizes == batches
    assert all(np.array_equal(matrix, matrices[0]) for matrix in matrices[1:])


def test_ldm_validation_rejects_mismatched_columns():
    # 9 rows span 3**2 labelings, not the 2**2 the matrix claims
    with pytest.raises(ValueError):
        LDMatrix(np.full((9, 2), 1 / 9), num_classes=2, holdout_size=2, column_seeds=(0, 1))
    with pytest.raises(ValueError):
        LDMatrix(np.full((4, 1), 0.25), num_classes=2, holdout_size=2, column_seeds=(0, 1))
    with pytest.raises(ValueError):
        LDMatrix(np.empty((4, 0)), num_classes=2, holdout_size=2, column_seeds=())


@pytest.mark.parametrize(
    "num_classes, holdout_size, error, message",
    [
        (1, 4, ValueError, r"num_classes must be at least 2, got 1"),
        (-1, 2, ValueError, r"num_classes must be at least 2, got -1"),
        (3, 0, ValueError, r"holdout_size must be at least 1, got 0"),
        (3, 15, CapacityLimitError, r"holdout"),
    ],
)
def test_ldmatrix_takes_only_the_sizes_build_ldm_takes(num_classes, holdout_size, error,
                                                        message):
    # the first three span one labeling, so a (1, 3) matrix of ones passes the
    # column checks; 3**15 labelings are past the enumeration limit
    with pytest.raises(error, match=message):
        LDMatrix(np.ones((1, 3)), num_classes, holdout_size, [0, 1, 2])


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


def _assert_savetxt_bytes(matrix, num_classes, holdout_size, tmp_path):
    ldm = LDMatrix(matrix, num_classes, holdout_size, tuple(range(matrix.shape[1])))
    write_ldm_csv(ldm, tmp_path / "blocks.csv")
    header = ",".join(f"col_{i}" for i in range(matrix.shape[1]))
    np.savetxt(tmp_path / "savetxt.csv", matrix, fmt="%.17g", delimiter=",", header=header,
               comments="")
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "savetxt.csv").read_bytes()


def test_csv_lines_match_percent_on_a_million_values():
    rng = np.random.default_rng(17)
    powers = np.array([float(Fraction(10) ** e) for e in range(-40, 2)])
    values = np.concatenate([
        rng.random(300_000),
        10.0 ** rng.uniform(-32, 0, 300_000),
        np.frombuffer(rng.bytes(8 * 100_000), np.float64),  # NaN, inf, subnormal, negative, huge
        np.nextafter(powers, 0), powers, np.nextafter(powers, 2),
        # short dyadic values end in 5 within a few digits past the 17th: ties and near-ties
        np.ldexp(rng.integers(1, 2**24, 300_000).astype(float), -rng.integers(1, 110, 300_000)),
        [0.0, -0.0, 9.9999999999999994e-30, 1e-30, 1e-4, 3e-5, 1.0, 1 - 2**-53, 5e-324, -1e-5],
    ])
    assert values.size >= 10**6 and values.size % 8 == 0
    for block in np.split(values.reshape(-1, 8), range(4096, values.size // 8, 4096)):
        row = ",".join(["%.17g"] * 8) + "\n"
        want = (row * block.shape[0]) % tuple(block.ravel().tolist())
        got = ldm_module._csv_lines(block).decode()
        if got != want:
            cells = zip(block.ravel().tolist(), got.replace(",", " ").split(),
                        want.replace(",", " ").split())
            pytest.fail(str(next((v, g, w) for v, g, w in cells if g != w)))


def _repeating(rows, k_columns, levels, seed):
    """Columns of at most ``levels`` distinct values each, like k-NN vote products."""
    counts = np.random.default_rng(seed).integers(1, levels + 1, (rows, k_columns))
    return counts / counts.sum(axis=0)


def _blocks_of(monkeypatch, rows, k_columns):
    """Make write_ldm_csv format ``rows`` rows of ``k_columns`` values per block."""
    monkeypatch.setattr(dirichlet, "_BLOCK_BYTES", 128 * rows * k_columns)
    return dirichlet._BLOCK_BYTES // (128 * k_columns)


# blocks of 128 rows of 2 columns and 8 rows of 30 columns
@pytest.mark.parametrize("k_columns, num_classes, holdout_size, shape", [
    (2, 2, 6, "under-one-block"), (2, 2, 7, "one-block"), (2, 3, 5, "partial-last-block"),
    (30, 2, 2, "under-one-block"), (30, 2, 3, "one-block"), (30, 3, 3, "partial-last-block"),
])
def test_write_ldm_csv_is_savetxt_byte_for_byte(k_columns, num_classes, holdout_size, shape,
                                                 tmp_path, monkeypatch):
    rows = num_classes**holdout_size
    block = _blocks_of(monkeypatch, {2: 128, 30: 8}[k_columns], k_columns)
    assert {"under-one-block": rows < block, "one-block": rows == block,
            "partial-last-block": rows > block and rows % block != 0}[shape]
    # values across many decades, one of them subnormal
    matrix = np.random.default_rng(rows + k_columns).random((rows, k_columns)) ** 12
    matrix[-1, 0] = 1e-310
    matrix /= matrix.sum(axis=0)
    _assert_savetxt_bytes(matrix, num_classes, holdout_size, tmp_path)


# columns of at most 3 distinct values, in blocks of 512 rows of 2 columns
# and 32 rows of 30 columns
@pytest.mark.parametrize("k_columns, num_classes, holdout_size, shape", [
    (2, 2, 8, "under-one-block"), (2, 2, 9, "one-block"), (2, 3, 6, "partial-last-block"),
    (30, 2, 4, "under-one-block"), (30, 2, 5, "one-block"), (30, 3, 4, "partial-last-block"),
])
def test_write_ldm_csv_memo_blocks_are_savetxt_byte_for_byte(k_columns, num_classes,
                                                             holdout_size, shape, tmp_path,
                                                             monkeypatch):
    rows = num_classes**holdout_size
    block = _blocks_of(monkeypatch, {2: 512, 30: 32}[k_columns], k_columns)
    assert {"under-one-block": rows < block, "one-block": rows == block,
            "partial-last-block": rows > block and rows % block != 0}[shape]
    _assert_savetxt_bytes(_repeating(rows, k_columns, 3, seed=rows), num_classes, holdout_size,
                          tmp_path)


def test_write_ldm_csv_repeats_within_and_across_blocks(tmp_path):
    matrix = _repeating(3**5, 30, 4, seed=1)
    block = matrix[:dirichlet._BLOCK_BYTES // (128 * 30)]  # the first block
    assert np.unique(block).size < block.size / 4
    assert np.isin(matrix[-block.shape[0]:], block).mean() > 0.5
    _assert_savetxt_bytes(matrix, 3, 5, tmp_path)


@pytest.mark.parametrize("base", ["repeating", "distinct"])
def test_write_ldm_csv_keeps_negative_zero_apart_from_zero(base, tmp_path):
    if base == "repeating":
        matrix = _repeating(2**6, 8, 3, seed=2)
    else:
        matrix = np.random.default_rng(2).random((2**6, 8))
    matrix[5, :2] = 0.0
    matrix /= matrix.sum(axis=0)
    matrix[5, 0] = -0.0  # passes the non-negative check, and savetxt writes "-0"
    _assert_savetxt_bytes(matrix, 2, 6, tmp_path)
    assert "\n-0,0," in (tmp_path / "blocks.csv").read_text()


def test_write_ldm_csv_writes_repeated_subnormals_exactly(tmp_path):
    matrix = _repeating(2**7, 8, 3, seed=3)
    matrix[-4:, :3] = np.array([5e-324, 1e-310, 1e-309, 1e-310])[:, None]
    matrix /= matrix.sum(axis=0)
    assert np.count_nonzero(matrix < np.finfo(np.float64).tiny) == 12
    _assert_savetxt_bytes(matrix, 2, 7, tmp_path)


def test_write_ldm_csv_with_more_distinct_values_than_memo_slots(tmp_path):
    # every 4 rows share a value per column, so a block holds a quarter
    # distinct values; 18,000 distinct values (over 2**14) recur after
    # 4,500 such groups, in later blocks
    rows = 3**9
    counts = (np.arange(rows)[:, None] // 4) % 4500 + 1 + 7919 * np.arange(4)
    matrix = counts / counts.sum(axis=0)
    assert np.unique(matrix).size > 2**14
    block = matrix[:dirichlet._BLOCK_BYTES // (128 * 4)]
    assert np.unique(block).size == block.size / 4
    _assert_savetxt_bytes(matrix, 3, 9, tmp_path)


@pytest.mark.parametrize("base", ["repeating", "distinct"])
def test_write_ldm_csv_wider_than_a_block_writes_one_row_per_block(base, tmp_path):
    k_columns = dirichlet._BLOCK_BYTES // 128 + 7
    if base == "repeating":
        matrix = _repeating(2**3, k_columns, 5, seed=5)
    else:
        matrix = np.random.default_rng(5).random((2**3, k_columns))
        matrix /= matrix.sum(axis=0)
    _assert_savetxt_bytes(matrix, 2, 3, tmp_path)


@pytest.mark.parametrize("base", ["repeating", "distinct"])
def test_write_ldm_csv_peak_memory_does_not_grow_with_rows(base, tmp_path):
    def peak(holdout_size):
        rows = 3**holdout_size
        if base == "repeating":
            matrix = _repeating(rows, 100, 4, seed=holdout_size)
            assert np.unique(matrix[:10]).size <= 500  # few distinct values, like k-NN votes
        else:
            matrix = np.random.default_rng(holdout_size).random((rows, 100))
            matrix /= matrix.sum(axis=0)
        ldm = LDMatrix(matrix, 3, holdout_size, range(100))
        write_ldm_csv(ldm, tmp_path / "warm.csv")  # first-use costs are not the writer's
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            write_ldm_csv(ldm, tmp_path / "ldm.csv")
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    small, large = peak(6), peak(8)  # 729 and 6,561 rows
    assert large <= 1.1 * small
    assert large < 3**8 * 100 * 8 / 4


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
