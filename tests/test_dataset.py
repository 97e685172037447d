from __future__ import annotations

import numpy as np
import pytest

from ldmcap import (
    CsvParseError,
    InvalidDatasetError,
    LabeledDataset,
    load_csv,
    permute_labels,
    random_labels,
    split_train_holdout,
)


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_csv_maps_string_labels_densely_by_first_appearance(tmp_path):
    path = _write(tmp_path, "1.0,2.0,a\n1.5,2.5,a\n3.0,4.0,b\n3.5,4.5,b\n")
    ds = load_csv(path, label_column=-1)
    assert ds.n_examples == 4
    assert ds.n_features == 2
    assert ds.num_classes == 2
    assert ds.labels.tolist() == [0, 0, 1, 1]


def test_load_csv_first_appearance_order_not_alphabetical(tmp_path):
    path = _write(tmp_path, "1,2,zebra\n3,4,apple\n5,6,zebra\n")
    ds = load_csv(path)
    assert ds.labels.tolist() == [0, 1, 0]  # zebra seen first -> 0


def test_load_csv_integer_labels_are_densely_mapped_too(tmp_path):
    path = _write(tmp_path, "1.0,7\n2.0,5\n3.0,7\n")
    ds = load_csv(path, label_column=1)
    assert ds.num_classes == 2
    assert ds.labels.tolist() == [0, 1, 0]
    assert ds.labels.max() < ds.num_classes


def test_load_csv_ignores_a_utf8_byte_order_mark(tmp_path):
    text = "1.0,2.0,a\n3.0,4.0,b\n5.0,6.0,a\n"
    plain = load_csv(_write(tmp_path, text))
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
    marked = load_csv(bom)
    assert marked.n_examples == 3
    assert np.array_equal(marked.features, plain.features)
    assert np.array_equal(marked.labels, plain.labels)
    assert marked.num_classes == plain.num_classes


def test_load_csv_detects_header_from_feature_cells(tmp_path):
    path = _write(tmp_path, "width,height,species\n1.0,2.0,cat\n3.0,4.0,dog\n")
    ds = load_csv(path)
    assert ds.n_examples == 2
    assert ds.labels.tolist() == [0, 1]


def test_load_csv_headerless_with_string_labels_keeps_first_row(tmp_path):
    # a non-numeric *label* cell must not trigger header detection
    path = _write(tmp_path, "1.0,2.0,cat\n3.0,4.0,dog\n5.0,6.0,cat\n")
    ds = load_csv(path)
    assert ds.n_examples == 3


def test_load_csv_label_column_in_the_middle(tmp_path):
    path = _write(tmp_path, "1.0,a,2.0\n3.0,b,4.0\n")
    ds = load_csv(path, label_column=1)
    assert ds.features.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert ds.labels.tolist() == [0, 1]


def test_load_csv_wrong_column_count_names_the_row(tmp_path):
    path = _write(tmp_path, "1.0,2.0,a\n1.0,b\n3.0,4.0,b\n")
    with pytest.raises(CsvParseError, match="row 2"):
        load_csv(path)


@pytest.mark.parametrize("cell", ["oops", "nan", "inf", "-inf"])
def test_load_csv_non_numeric_feature_names_row_and_column(tmp_path, cell):
    path = _write(tmp_path, f"1.0,2.0,a\n3.0,{cell},b\n")
    with pytest.raises(CsvParseError, match="row 2: feature column 1"):
        load_csv(path)


def test_load_csv_single_label_rejected(tmp_path):
    path = _write(tmp_path, "1.0,2.0,a\n3.0,4.0,a\n")
    with pytest.raises(InvalidDatasetError, match="distinct label"):
        load_csv(path)


def test_load_csv_empty_file_rejected(tmp_path):
    with pytest.raises(InvalidDatasetError):
        load_csv(_write(tmp_path, ""))


@pytest.mark.parametrize(
    "text, error, named",
    [
        ("1.0\n2.0\n", CsvParseError, "row 1 has 1 column"),
        ("f0,f1,label\n", InvalidDatasetError, "no data rows after the header"),
    ],
    ids=["one-column", "header-only"],
)
def test_load_csv_rejects_files_without_features_or_rows(tmp_path, text, error, named):
    with pytest.raises(error, match=named):
        load_csv(_write(tmp_path, text))


def test_load_csv_label_column_out_of_range(tmp_path):
    path = _write(tmp_path, "1.0,2.0,a\n3.0,4.0,b\n")
    with pytest.raises(CsvParseError, match="label column"):
        load_csv(path, label_column=5)


def test_builtin_iris_shape_and_balance(iris):
    assert iris.n_examples == 150
    assert iris.n_features == 4
    assert iris.num_classes == 3
    assert np.bincount(iris.labels).tolist() == [50, 50, 50]
    # spot-check the famous first row
    assert iris.features[0].tolist() == [5.1, 3.5, 1.4, 0.2]
    assert iris.labels[0] == 0


def test_dataset_validation_rejects_bad_label_range():
    valid = LabeledDataset(np.ones((3, 2)), np.array([0, 1, 0]), num_classes=2)
    for labels in ([0, 1, 2], [0, -1, 1]):
        with pytest.raises(InvalidDatasetError, match="labels must lie in"):
            LabeledDataset(np.ones((3, 2)), np.array(labels), num_classes=2)
        with pytest.raises(InvalidDatasetError, match="labels must lie in"):
            valid.with_labels(np.array(labels))


def test_dataset_validation_rejects_degenerate_shapes():
    with pytest.raises(InvalidDatasetError):
        LabeledDataset(np.ones((0, 2)), np.array([], dtype=int), num_classes=2)
    with pytest.raises(InvalidDatasetError):
        LabeledDataset(np.ones((3, 2)), np.array([0, 1, 0]), num_classes=1)
    with pytest.raises(InvalidDatasetError):
        LabeledDataset(np.ones((3, 2)), np.array([0, 1]), num_classes=2)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_features_naming_row_and_column(value):
    # load_csv names the file row instead (see the non-numeric cell test)
    features = np.ones((3, 2))
    features[2, 1] = value
    with pytest.raises(InvalidDatasetError, match="finite; row 2, column 1"):
        LabeledDataset(features, np.array([0, 1, 0]), num_classes=2)


def test_dataset_rejects_features_too_large_to_square_naming_the_largest():
    features = np.ones((3, 2))
    features[1, 0] = 1e200
    features[2, 1] = -3e200
    with pytest.raises(InvalidDatasetError, match="overflows; the largest, row 2, column 1,"):
        LabeledDataset(features, np.array([0, 1, 0]), num_classes=2)
    # values whose squares still sum to a finite number are kept
    LabeledDataset(np.full((3, 2), -1e153), np.array([0, 1, 0]), num_classes=2)


def test_dataset_arrays_are_immutable(iris):
    with pytest.raises(ValueError):
        iris.features[0, 0] = 99.0
    with pytest.raises(ValueError):
        iris.labels[0] = 2
    labels = iris.labels.copy()
    relabeled = iris.with_labels(labels)
    labels[0] = 2  # the caller's array was copied
    assert relabeled.labels[0] == iris.labels[0]
    with pytest.raises(ValueError):
        relabeled.labels[0] = 2


def test_split_preserves_train_order_and_disjointness(iris, rng):
    split = split_train_holdout(iris, 5, rng)
    assert split.train.n_examples == 145
    assert split.holdout_features.shape == (5, 4)
    assert len(split.holdout_indices) == 5
    assert sorted(split.holdout_indices) == list(split.holdout_indices)

    mask = np.ones(150, dtype=bool)
    mask[list(split.holdout_indices)] = False
    assert np.array_equal(split.train.features, iris.features[mask])
    assert np.array_equal(split.train.labels, iris.labels[mask])
    for idx in split.holdout_indices:
        assert np.array_equal(
            iris.features[idx], split.holdout_features[list(split.holdout_indices).index(idx)]
        )


def test_split_is_deterministic_given_seed(iris):
    a = split_train_holdout(iris, 7, np.random.default_rng(123))
    b = split_train_holdout(iris, 7, np.random.default_rng(123))
    assert a.holdout_indices == b.holdout_indices
    assert np.array_equal(a.train.features, b.train.features)


def test_split_rejects_bad_sizes(iris, rng):
    with pytest.raises(ValueError):
        split_train_holdout(iris, 0, rng)
    with pytest.raises(ValueError):
        split_train_holdout(iris, 150, rng)


def test_permute_labels_preserves_the_multiset(iris, rng):
    permuted = permute_labels(iris, rng)
    assert np.bincount(permuted.labels).tolist() == [50, 50, 50]
    assert permuted.features is iris.features  # shared, not copied or re-checked
    # and with overwhelming probability actually changes the sequence
    assert not np.array_equal(permuted.labels, iris.labels)


def test_permute_labels_is_uniform_over_orderings():
    ds = LabeledDataset(np.arange(6).reshape(3, 2), np.array([0, 1, 2]), 3)
    rng = np.random.default_rng(99)
    counts: dict[tuple, int] = {}
    n = 10_000
    for _ in range(n):
        key = tuple(permute_labels(ds, rng).labels.tolist())
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6
    for freq in counts.values():
        assert abs(freq / n - 1 / 6) < 0.02


def test_random_labels_are_iid_uniform(iris):
    rng = np.random.default_rng(7)
    randomized = random_labels(iris, rng)
    counts = np.bincount(randomized.labels, minlength=3)
    # Binomial(150, 1/3): sd ~5.77, stay within 3 sigma of 50
    assert all(abs(c - 50) < 3 * 5.77 for c in counts)
    assert randomized.features is iris.features


def test_random_labels_fair_coin_frequency():
    ds = LabeledDataset(np.ones((1, 1)), np.array([0]), num_classes=2)
    rng = np.random.default_rng(11)
    hits = sum(random_labels(ds, rng).labels[0] for _ in range(10_000))
    assert abs(hits / 10_000 - 0.5) < 0.02


def test_permute_and_random_labels_differ_in_kind():
    # permutation preserves class counts; iid labels (here) do not
    ds = LabeledDataset(np.arange(12).reshape(6, 2), np.array([0, 0, 0, 1, 1, 1]), 2)
    rng = np.random.default_rng(3)
    assert np.bincount(permute_labels(ds, rng).labels).tolist() == [3, 3]
    seen_unbalanced = any(
        np.bincount(random_labels(ds, np.random.default_rng(s)).labels, minlength=2).tolist()
        != [3, 3]
        for s in range(10)
    )
    assert seen_unbalanced
