from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import ldmcap
from ldmcap import cli
from ldmcap.cli import main
from ldmcap.errors import FitNumericalError


def _files(path):
    return sorted(p.name for p in path.iterdir())


def _run_ldm(out, extra=()):
    return main(
        [
            "ldm", "--spec", "knn:k=1", "--k", "6", "--holdout", "3",
            "--repeats", "2", "--out", str(out), *extra,
        ]
    )


# ---------------------------------------------------------------------------
# ldm command
# ---------------------------------------------------------------------------


def test_ldm_writes_csv_pgm_and_json_per_spec(tmp_path, capsys):
    out = tmp_path / "out"
    assert _run_ldm(out) == 0
    assert _files(out) == ["knn_k1.csv", "knn_k1.json", "knn_k1.pgm", "knn_k1.pgm.json"]

    payload = json.loads((out / "knn_k1.json").read_text())
    assert payload["spec"] == "knn:k=1"
    assert payload["seed"] == 0
    assert payload["k_columns"] == 6
    assert payload["holdout_size"] == 3
    assert payload["repeats"] == 2
    assert len(payload["alpha"]) == 27
    assert len(payload["entropies"]) == 2
    assert payload["entropy_mean"] == pytest.approx(np.mean(payload["entropies"]))
    assert isinstance(payload["converged"], bool)
    assert payload["iterations"] >= 1

    table = capsys.readouterr().out
    assert "knn:k=1" in table
    assert "entropy" in table


def test_ldm_csv_matches_matrix_shape(tmp_path):
    out = tmp_path / "out"
    assert _run_ldm(out) == 0
    lines = (out / "knn_k1.csv").read_text().splitlines()
    assert lines[0] == ",".join(f"col_{i}" for i in range(6))
    assert len(lines) == 1 + 27


def test_ldm_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert _run_ldm(a) == 0
    assert _run_ldm(b) == 0
    assert _files(a) == _files(b)
    for name in _files(a):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_ldm_seed_changes_artifacts(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert _run_ldm(a) == 0
    assert _run_ldm(b, extra=("--seed", "1")) == 0
    assert (a / "knn_k1.csv").read_bytes() != (b / "knn_k1.csv").read_bytes()


def test_ldm_log_scale_changes_the_image_only(tmp_path):
    # needs graded probabilities: a one-hot knn matrix renders identically on
    # both axes, but naive-bayes columns carry midtones that the scales map
    # differently
    a, b = tmp_path / "a", tmp_path / "b"
    args = [
        "ldm", "--spec", "gaussian_nb", "--k", "6", "--holdout", "3",
        "--repeats", "1",
    ]
    assert main([*args, "--out", str(a)]) == 0
    assert main([*args, "--out", str(b), "--scale", "log"]) == 0
    assert (a / "gaussian_nb.pgm").read_bytes() != (b / "gaussian_nb.pgm").read_bytes()
    assert (a / "gaussian_nb.csv").read_bytes() == (b / "gaussian_nb.csv").read_bytes()
    assert json.loads((b / "gaussian_nb.pgm.json").read_text())["scale"] == "log"


def test_ldm_multiple_specs_write_separate_stems(tmp_path):
    out = tmp_path / "out"
    rc = main(
        [
            "ldm", "--spec", "knn:k=1", "--spec", "gaussian_nb",
            "--k", "4", "--holdout", "3", "--repeats", "1", "--out", str(out),
        ]
    )
    assert rc == 0
    names = _files(out)
    assert "knn_k1.json" in names
    assert "gaussian_nb.json" in names


def _spy_on_builds(monkeypatch):
    """Weak references to every matrix ``cli.build_ldm`` returns; building one
    while an earlier one is still alive fails the test."""
    built = []
    real_build_ldm = cli.build_ldm

    def spy(*args, **kwargs):
        assert all(ref() is None for ref in built)
        ldm = real_build_ldm(*args, **kwargs)
        built.append(weakref.ref(ldm))
        return ldm

    monkeypatch.setattr(cli, "build_ldm", spy)
    return built


def test_ldm_frees_every_repeat_but_the_first(tmp_path, monkeypatch):
    # the first repeat's matrix is freed too, once its CSV and PGM are written
    built = _spy_on_builds(monkeypatch)
    rc = main(
        [
            "ldm", "--spec", "knn:k=1", "--spec", "gaussian_nb", "--k", "6",
            "--holdout", "3", "--repeats", "3", "--out", str(tmp_path / "out"),
        ]
    )
    assert rc == 0
    assert len(built) == 6


# ---------------------------------------------------------------------------
# record command
# ---------------------------------------------------------------------------


def test_record_writes_summary_and_trial_log(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["record", "--spec", "gaussian_nb", "--trials", "12", "--out", str(out)])
    assert rc == 0
    assert _files(out) == ["gaussian_nb.csv", "gaussian_nb.json"]

    payload = json.loads((out / "gaussian_nb.json").read_text())
    assert list(payload) == [
        "spec", "seed", "mean_recovered", "std_dev", "ci_low", "ci_high", "trials",
        "dataset_size", "num_classes", "chance_baseline",
    ]
    assert payload["spec"] == "gaussian_nb"
    assert payload["trials"] == 12
    assert payload["dataset_size"] == 150
    assert payload["num_classes"] == 3
    assert payload["chance_baseline"] == 50.0
    assert 0.0 <= payload["ci_low"] <= payload["mean_recovered"] <= payload["ci_high"] <= 150.0

    lines = (out / "gaussian_nb.csv").read_text().splitlines()
    assert lines[0] == "trial,count"
    assert len(lines) == 1 + 12
    counts = [int(line.split(",")[1]) for line in lines[1:]]
    assert np.mean(counts) == pytest.approx(payload["mean_recovered"])

    assert "gaussian_nb" in capsys.readouterr().out


def test_record_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["record", "--spec", "knn:k=3", "--trials", "10"]
    assert main([*args, "--out", str(a)]) == 0
    assert main([*args, "--out", str(b)]) == 0
    for name in _files(a):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


# ---------------------------------------------------------------------------
# compare command
# ---------------------------------------------------------------------------


def test_compare_sorts_rows_by_recorder_mean_descending(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(
        [
            "compare", "--spec", "knn:k=10", "--spec", "knn:k=1",
            "--k", "4", "--holdout", "3", "--repeats", "1",
            "--trials", "15", "--out", str(out),
        ]
    )
    assert rc == 0
    lines = (out / "compare.csv").read_text().splitlines()
    assert lines[0] == "spec,ldm_entropy_mean,recorder_mean,ci_low,ci_high"
    assert len(lines) == 3
    first = lines[1].split(",")
    second = lines[2].split(",")
    assert first[0] == "knn:k=1"  # near-perfect recorder, sorts first
    assert second[0] == "knn:k=10"
    assert float(first[2]) > float(second[2])

    table = capsys.readouterr().out
    assert table.index("knn:k=1") < table.index("knn:k=10")


def test_compare_writes_only_compare_csv(tmp_path, monkeypatch):
    built = _spy_on_builds(monkeypatch)
    out = tmp_path / "out"
    rc = main(
        [
            "compare", "--spec", "knn:k=1", "--spec", "gaussian_nb",
            "--k", "4", "--holdout", "3", "--repeats", "2",
            "--trials", "5", "--out", str(out),
        ]
    )
    assert rc == 0
    assert _files(out) == ["compare.csv"]
    assert len(built) == 4


def test_compare_peak_memory_is_one_matrix_and_its_log(tmp_path):
    args = ["compare", "--spec", "gaussian_nb", "--spec", "qda", "--trials", "2"]
    # a small run first, so first-use imports are not charged to the matrices
    warm = ["--holdout", "2", "--k", "2", "--repeats", "1", "--out", str(tmp_path / "w")]
    assert main([*args, *warm]) == 0
    matrix_bytes = 3**8 * 100 * 8
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        rc = main(
            [*args, "--holdout", "8", "--k", "100", "--repeats", "2",
             "--out", str(tmp_path / "o")]
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    # the fit's log copy is the only other matrix-sized array alive
    assert (peak - start) / matrix_bytes <= 2.3


@pytest.mark.parametrize("scale", ["linear", "log"])
def test_ldm_peak_memory_is_one_matrix_and_its_log(tmp_path, scale):
    # the render holds one block of rows while the first repeat's matrix is
    # alive, so the fit, not the render, sets the peak
    args = ["ldm", "--spec", "gaussian_nb", "--spec", "qda", "--scale", scale]
    warm = ["--holdout", "2", "--k", "2", "--repeats", "1", "--out", str(tmp_path / "w")]
    assert main([*args, *warm]) == 0
    matrix_bytes = 3**8 * 100 * 8
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        rc = main(
            [*args, "--holdout", "8", "--k", "100", "--repeats", "2",
             "--out", str(tmp_path / "o")]
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert (peak - start) / matrix_bytes <= 2.2


def test_compare_csv_parses_with_commas_in_spec_names(tmp_path):
    out = tmp_path / "out"
    specs = ["random_forest:n=2,max_features=1", "knn:k=1"]
    rc = main(
        [
            "compare", "--spec", specs[0], "--spec", specs[1],
            "--k", "3", "--holdout", "2", "--repeats", "1",
            "--trials", "3", "--out", str(out),
        ]
    )
    assert rc == 0
    with open(out / "compare.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert sorted(row["spec"] for row in rows) == sorted(specs)
    for row in rows:
        assert None not in row  # no surplus fields
        assert float(row["ci_low"]) <= float(row["recorder_mean"]) <= float(row["ci_high"])


# Only compare runs recorder trials; ldm rejects --trials.
_TRIALS = {"ldm": [], "compare": ["--trials", "3"]}


_NO_OPTIMUM = ["--spec", "knn:k=500", "--spec", "gaussian_nb", "--k", "5", "--holdout", "2"]


@pytest.mark.parametrize("command", ["ldm", "compare"])
def test_unconverged_fit_is_named_on_stderr(tmp_path, capsys, command):
    # k is clamped to the 148 training points, so every LDM column is the same
    # vector and the fit has no optimum; gaussian_nb converges.
    out = tmp_path / "o"
    rc = main([command, *_NO_OPTIMUM, "--repeats", "1", *_TRIALS[command], "--out", str(out)])
    assert rc == 0
    table, err = capsys.readouterr()
    assert err == (
        "ldmcap: warning: knn:k=500: Dirichlet fit has no optimum in 1 of 1 repeats "
        "(columns identical, or indistinguishable in floating point), so no entropy\n"
    )
    rows = {line.split()[0]: line for line in table.splitlines()[1:]}
    assert "no optimum" in rows["knn:k=500"]
    assert "no optimum" not in rows["gaussian_nb"]
    if command == "ldm":
        payload = json.loads((out / "knn_k500.json").read_text())
        assert payload["status"] == "no_optimum" and payload["iterations"] == 0
        assert payload["entropies"] == [None] and payload["entropy_mean"] is None
    else:
        with open(out / "compare.csv", newline="") as fh:
            entropy = {row["spec"]: row["ldm_entropy_mean"] for row in csv.DictReader(fh)}
        assert entropy["knn:k=500"] == "nan"
        assert np.isfinite(float(entropy["gaussian_nb"]))


@pytest.mark.parametrize("command", ["ldm", "compare"])
def test_no_optimum_leaves_the_other_spec_unchanged(tmp_path, capsys, command):
    both, alone = tmp_path / "both", tmp_path / "alone"
    tail = ["--repeats", "2", *_TRIALS[command]]
    assert main([command, *_NO_OPTIMUM, *tail, "--out", str(both)]) == 0
    gaussian = ["--spec", "gaussian_nb", "--spec", "knn:k=1", "--k", "5", "--holdout", "2"]
    assert main([command, *gaussian, *tail, "--out", str(alone)]) == 0
    if command == "ldm":
        for name in ("gaussian_nb.json", "gaussian_nb.csv", "gaussian_nb.pgm"):
            assert (both / name).read_bytes() == (alone / name).read_bytes()
    else:
        def gaussian_row(out):
            lines = (out / "compare.csv").read_text().splitlines()
            return next(line for line in lines if line.startswith("gaussian_nb,"))

        assert gaussian_row(both) == gaussian_row(alone)


def test_step_bound_is_named_on_stderr(tmp_path, capsys, monkeypatch):
    from ldmcap import dirichlet

    monkeypatch.setattr(dirichlet, "_MAX_ITER", 2)
    out = tmp_path / "o"
    rc = main(["ldm", "--spec", "gaussian_nb", "--k", "5", "--holdout", "2",
               "--repeats", "2", "--out", str(out)])
    assert rc == 0
    err = capsys.readouterr().err
    assert err == (
        "ldmcap: warning: gaussian_nb: Dirichlet fit reached the step bound in 2 of 2 "
        "repeats, so its entropy is not a maximum-likelihood estimate\n"
    )
    payload = json.loads((out / "gaussian_nb.json").read_text())
    assert payload["status"] == "max_iter" and payload["iterations"] == 2
    assert payload["converged"] is False and np.isfinite(payload["final_delta"])
    assert all(np.isfinite(payload["entropies"])) and np.isfinite(payload["entropy_mean"])


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_every_json_artifact_parses_strictly(tmp_path):
    out = tmp_path / "o"
    assert main(["ldm", *_NO_OPTIMUM, "--repeats", "2", "--out", str(out)]) == 0
    assert main(["record", "--spec", "knn:k=500", "--spec", "gaussian_nb",
                 "--trials", "3", "--out", str(out / "record")]) == 0
    written = sorted(out.rglob("*.json"))
    assert len(written) == 6  # two specs x (ldm json, pgm sidecar, record json)
    for path in written:
        json.loads(path.read_text(), parse_constant=_reject_constant)


def test_compare_requires_two_specs(tmp_path, capsys):
    rc = main(["compare", "--spec", "knn:k=1", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "at least 2" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# errors and exit codes
# ---------------------------------------------------------------------------


def test_missing_spec_is_a_usage_error(tmp_path, capsys):
    rc = main(["ldm", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "--spec" in capsys.readouterr().err


def test_unknown_family_exits_1(tmp_path, capsys):
    rc = main(["record", "--spec", "perceptron", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "perceptron" in capsys.readouterr().err


def test_oversized_labeling_space_exits_2(tmp_path, capsys):
    rc = main(
        [
            "ldm", "--spec", "knn:k=1", "--holdout", "20",
            "--k", "2", "--repeats", "1", "--out", str(tmp_path / "o"),
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "3**20" in err or "holdout" in err


@pytest.mark.parametrize("command", ["ldm", "compare"])
def test_matrix_larger_than_memory_exits_2_before_building(
    tmp_path, monkeypatch, capsys, command
):
    # 3**3 rows x 6 columns: matrix plus log copy need 2 * 27 * 6 * 8 bytes
    monkeypatch.setattr(ldmcap.ldm, "_physical_memory", lambda: 2 * 27 * 6 * 8 - 1)

    def never(*args, **kwargs):
        raise AssertionError("an LDM column was built")

    monkeypatch.setattr(ldmcap.ldm, "ldm_column", never)
    rc = main(
        [
            command, "--spec", "knn:k=1", "--spec", "gaussian_nb", "--k", "6",
            "--holdout", "3", "--repeats", "1", *_TRIALS[command],
            "--out", str(tmp_path / "o"),
        ]
    )
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("ldmcap: a 27 x 6 labeling-distribution matrix")
    for named in ("2,592 bytes", "2,591 bytes", "--holdout", "--k"):
        assert named in captured.err
    assert "Traceback" not in captured.err
    assert not list((tmp_path / "o").iterdir())


@pytest.mark.parametrize(
    "args, named",
    [
        (["ldm", "--spec", "knn", "--repeats", "0"], "--repeats"),
        (["ldm", "--spec", "knn", "--k", "0"], "--k"),
        (["ldm", "--spec", "knn", "--k", "1"], "--k"),
        (["compare", "--spec", "knn", "--spec", "qda", "--k", "1"], "--k"),
        (["record", "--spec", "knn", "--k", "5"], "--k"),
        (["ldm", "--spec", "knn", "--trials", "5"], "--trials"),
        (["compare", "--spec", "knn", "--spec", "qda", "--scale", "log"], "--scale"),
        (["ldm", "--spec", "knn", "--holdout", "-1"], "--holdout"),
        (["record", "--spec", "knn", "--trials", "0"], "--trials"),
        (["compare", "--spec", "knn"], "compare needs at least 2 --spec"),
        (["record"], "record needs at least 1 --spec"),
        (["ldm", "--spec", "knn:k=1", "--spec", "knn:k=01"], "'knn:k=1' and --spec 'knn:k=01'"),
        (
            ["ldm", "--spec", "random_forest:n=2,max_depth=3",
             "--spec", "random_forest:max_depth=3,n=2"],
            "'random_forest:n=2,max_depth=3' and --spec 'random_forest:max_depth=3,n=2'",
        ),
    ],
    ids=[
        "repeats-0", "k-0", "ldm-k-1", "compare-k-1", "record-k", "ldm-trials",
        "compare-scale", "holdout-negative", "trials-0", "compare-one-spec", "record-no-spec",
        "colliding-stems", "reordered-params",
    ],
)
def test_bad_input_exits_1_without_traceback(tmp_path, args, named):
    env = {**os.environ, "PYTHONPATH": str(Path(ldmcap.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "ldmcap.cli", *args, "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 1
    assert done.stderr.startswith("ldmcap: error:")
    assert named in done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout == ""
    assert not (tmp_path / "o").exists()


def test_record_on_features_too_large_to_square_exits_1_without_traceback(tmp_path):
    # k-NN, naive Bayes and QDA would square these into inf and NaN
    rng = np.random.default_rng(0)
    path = tmp_path / "huge.csv"
    path.write_text("".join(
        f"{rng.normal() * 1e200!r},{rng.normal()!r},{i % 2}\n" for i in range(40)
    ))
    env = {**os.environ, "PYTHONPATH": str(Path(ldmcap.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "ldmcap.cli", "record", "--dataset", f"csv:{path}:2",
         "--spec", "gaussian_nb", "--spec", "qda", "--spec", "knn", "--trials", "20",
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 1
    assert done.stderr.startswith("ldmcap: error: features are too large to square")
    assert "Traceback" not in done.stderr and "Warning" not in done.stderr
    assert done.stdout == ""


def test_csv_cell_over_the_field_limit_exits_1_naming_the_line(tmp_path, capsys):
    path = tmp_path / "wide.csv"
    path.write_text("1.0,2.0,a\n3.0," + "x" * 200_000 + ",b\n")
    rc = main(["record", "--dataset", f"csv:{path}:2", "--spec", "knn", "--trials", "1",
               "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == (
        f"ldmcap: error: {path}: line 2: field larger than field limit (131072)\n"
    )
    assert captured.out == ""
    assert not (tmp_path / "o").exists()


def test_fit_numerical_error_exits_1(tmp_path, monkeypatch, capsys):
    def diverge(samples, *args, **kwargs):
        raise FitNumericalError("alpha became non-finite", 7)

    monkeypatch.setattr(cli, "fit_dirichlet", diverge)
    assert _run_ldm(tmp_path / "out") == 1
    assert capsys.readouterr().err.startswith("ldmcap: error: alpha became non-finite")


def test_missing_csv_file_exits_1(tmp_path, capsys):
    rc = main(
        [
            "record", "--spec", "knn:k=1", "--trials", "2",
            "--dataset", f"csv:{tmp_path / 'missing.csv'}:-1",
            "--out", str(tmp_path / "o"),
        ]
    )
    assert rc == 1


def test_malformed_dataset_argument_exits_1(tmp_path, capsys):
    for dataset in ("parquet:data", "csv:only_a_path", "csv:file.csv:last"):
        rc = main(
            [
                "record", "--spec", "knn:k=1", "--dataset", dataset,
                "--out", str(tmp_path / "o"),
            ]
        )
        assert rc == 1, dataset


def test_no_subcommand_exits_1(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1


def test_bad_scale_choice_exits_1(tmp_path):
    rc = main(
        ["ldm", "--spec", "knn:k=1", "--scale", "cube", "--out", str(tmp_path / "o")]
    )
    assert rc == 1


def test_custom_csv_dataset_via_cli(tmp_path):
    csv = tmp_path / "toy.csv"
    rows = ["f0,f1,label"]
    rng = np.random.default_rng(0)
    for i in range(12):
        rows.append(f"{rng.random():.3f},{rng.random():.3f},{'ab'[i % 2]}")
    csv.write_text("\n".join(rows) + "\n")

    out = tmp_path / "out"
    rc = main(
        [
            "record", "--spec", "knn:k=1", "--trials", "4",
            "--dataset", f"csv:{csv}:-1", "--out", str(out),
        ]
    )
    assert rc == 0
    payload = json.loads((out / "knn_k1.json").read_text())
    assert payload["dataset_size"] == 12
    assert payload["num_classes"] == 2
    assert payload["chance_baseline"] == 6.0
