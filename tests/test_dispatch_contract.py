"""The cross-CPU output contract that README states, checked on one host.

numpy picks its SIMD kernels by CPU at import time, and its AVX-512 kernels
round ``exp`` and ``log`` differently from its baseline ones.  The tests run
one small six-family ``ldm`` and one small three-family ``compare`` twice
each, once on numpy's default dispatch path and once with its AVX-512
kernels disabled through ``NPY_DISABLE_CPU_FEATURES``, which on a CPU with
AVX-512 takes the path of a CPU without it.  On a CPU without AVX-512 both
runs take the same path and the tests check only that reruns agree.

The contract:
- stdout, every PGM image and the k-NN, tree and forest CSVs are identical;
- the AdaBoost, Gaussian NB and QDA CSVs, which take ``exp`` or ``log`` of a
  few values per prediction, agree within 16 ulps per entry, and so does the
  ``global_max`` of their ``.pgm.json`` sidecars;
- each ``<spec>.json`` keeps its keys, its statuses and its step counts, and
  its entropies and alphas agree within 1e-12 relative.  ``final_delta`` and
  ``gradient_norm`` are rounding-level residuals and are not compared;
- ``compare.csv`` keeps its header and its rows in the same order, with the
  same spec, ``recorder_mean``, ``ci_low`` and ``ci_high`` text, and each
  ``ldm_entropy_mean`` within 1e-12 relative.
stderr is not compared.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import ldmcap

_SPECS = ["knn:k=10", "gaussian_nb", "decision_tree", "random_forest", "qda", "adaboost"]
_NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"
_ULPS = 16
_REL = 1e-12


def _run(command: str, specs: list[str], out: Path, disable: str | None) -> str:
    """stdout of the run, with numpy's ``disable`` features disabled."""
    env = {**os.environ, "PYTHONPATH": str(Path(ldmcap.__file__).parents[1])}
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if disable is not None:
        env["NPY_DISABLE_CPU_FEATURES"] = disable
    args = [arg for spec in specs for arg in ("--spec", spec)]
    if command == "compare":
        args += ["--trials", "10"]
    done = subprocess.run(
        [sys.executable, "-m", "ldmcap.cli", command, *args, "--holdout", "4", "--k", "10",
         "--repeats", "2", "--seed", "3", "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env, timeout=300,
        check=True,
    )
    return done.stdout


def _ulps(a: np.ndarray, b: np.ndarray) -> float:
    return float((np.abs(a - b) / np.spacing(np.maximum(np.abs(a), np.abs(b)))).max())


def _rel(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float((np.abs(a - b) / np.abs(a)).max())


def _assert_same_fit(name: str, a: dict, b: dict):
    assert list(a) == list(b), name
    for key in a:
        if key in ("alpha", "entropies", "entropy", "entropy_mean"):
            assert _rel(a[key], b[key]) <= _REL, (name, key)
        elif key == "fits":
            assert [(f["status"], f["iterations"]) for f in a[key]] == [
                (f["status"], f["iterations"]) for f in b[key]], name
        elif key not in ("final_delta", "gradient_norm"):
            assert a[key] == b[key], (name, key)


def test_ldm_outputs_hold_the_contract_across_numpy_dispatch_paths(tmp_path):
    default, other = tmp_path / "default", tmp_path / "no_avx512"
    assert _run("ldm", _SPECS, default, None) == _run("ldm", _SPECS, other, _NO_AVX512)
    names = sorted(path.name for path in default.iterdir())
    assert names == sorted(path.name for path in other.iterdir())
    assert len(names) == 4 * len(_SPECS)
    rounding = ("adaboost.", "gaussian_nb.", "qda.")
    for name in names:
        a, b = (default / name).read_bytes(), (other / name).read_bytes()
        if name.endswith(".json") and not name.endswith(".pgm.json"):
            _assert_same_fit(name, json.loads(a), json.loads(b))
        elif a != b:
            assert name.startswith(rounding) and not name.endswith(".pgm"), f"{name} differs"
            if name.endswith(".csv"):
                lines_a, lines_b = a.decode().splitlines(), b.decode().splitlines()
                assert lines_a[0] == lines_b[0], name
                values_a = np.loadtxt(lines_a[1:], delimiter=",")
                values_b = np.loadtxt(lines_b[1:], delimiter=",")
                assert values_a.shape == values_b.shape, name
                assert _ulps(values_a, values_b) <= _ULPS, name
            else:  # the .pgm.json sidecar
                sidecar_a, sidecar_b = json.loads(a), json.loads(b)
                max_a, max_b = sidecar_a.pop("global_max"), sidecar_b.pop("global_max")
                assert sidecar_a == sidecar_b, name
                assert _ulps(np.array(max_a), np.array(max_b)) <= _ULPS, name


def test_compare_csv_holds_the_contract_across_numpy_dispatch_paths(tmp_path):
    default, other = tmp_path / "default", tmp_path / "no_avx512"
    specs = ["gaussian_nb", "adaboost", "qda"]
    assert _run("compare", specs, default, None) == _run("compare", specs, other, _NO_AVX512)
    with open(default / "compare.csv", newline="") as fh:
        rows_a = list(csv.reader(fh))
    with open(other / "compare.csv", newline="") as fh:
        rows_b = list(csv.reader(fh))
    assert rows_a[0] == rows_b[0] == [
        "spec", "ldm_entropy_mean", "recorder_mean", "ci_low", "ci_high"]
    assert sorted(row[0] for row in rows_a[1:]) == sorted(specs)
    assert len(rows_a) == len(rows_b)
    for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
        assert [row_a[0], *row_a[2:]] == [row_b[0], *row_b[2:]]
        assert _rel(float(row_a[1]), float(row_b[1])) <= _REL, row_a[0]
