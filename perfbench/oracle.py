"""Output oracle: compare one CLI run's outputs with the stored reference.

``summarize`` reduces an output directory to what the reference stores;
``check`` compares two summaries and returns the specs that failed.  The
rules:

* LDM matrix CSV, PGM and PGM sidecar files are byte-identical (sha256).
  They depend only on the classifiers.
* Recorder mean and 95% CI in ``compare.csv`` match as exact text.  The CSV
  has no std column; the CI is mean +- 1.96 std / sqrt(trials), so it pins
  the std as well.
* Entropies and alphas agree within ``REL_TOL``.  A tighter-converged fit
  moves them by about 1e-7 relative; a wrong fit moves them far more.
* Every CSV parses.  ``compare.csv`` is parsed on every run; a matrix CSV
  was parsed when its reference was made, and its hash must match.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

REL_TOL = 1e-5
ALPHA_SAMPLES = 16  # evenly spaced alphas kept per fit; C**N' may be 59,049


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def _summarize_compare(out: Path) -> dict:
    with open(out / "compare.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {
        row["spec"]: {
            "entropy": float(row["ldm_entropy_mean"]),
            "recorder": [row["recorder_mean"], row["ci_low"], row["ci_high"]],
        }
        for row in rows
    }


def _summarize_ldm(out: Path, parse_csv: bool) -> dict:
    summary = {}
    for matrix_csv in sorted(out.glob("*.csv")):
        stem = matrix_csv.with_suffix("")
        report = json.loads(stem.with_suffix(".json").read_text())
        if parse_csv:
            with open(matrix_csv, newline="") as fh:
                rows = csv.reader(fh)
                next(rows)  # header: col_0 .. col_{K-1}
                for row in rows:
                    list(map(float, row))
        alpha = report["alpha"]
        step = max(1, len(alpha) // ALPHA_SAMPLES)
        summary[report["spec"]] = {
            "sha256": {
                suffix: sha256(Path(f"{stem}{suffix}"))
                for suffix in (".csv", ".pgm", ".pgm.json")
            },
            "entropies": report["entropies"],
            "alpha_sum": math.fsum(alpha),
            "alpha_sample": [[i, alpha[i]] for i in range(0, len(alpha), step)],
            "iterations": report["iterations"],
            "converged": report["converged"],
        }
    return summary


def summarize(command: str, out: Path, parse_csv: bool = False) -> dict:
    """What the reference keeps of one run's outputs, keyed by spec."""
    if command == "compare":
        return _summarize_compare(out)
    return _summarize_ldm(out, parse_csv)


def _spec_matches(command: str, got: dict, want: dict) -> bool:
    if command == "compare":
        return got["recorder"] == want["recorder"] and _close(got["entropy"], want["entropy"])
    return (
        got["sha256"] == want["sha256"]
        and len(got["entropies"]) == len(want["entropies"])
        and all(_close(a, b) for a, b in zip(got["entropies"], want["entropies"]))
        and _close(got["alpha_sum"], want["alpha_sum"])
        and [i for i, _ in got["alpha_sample"]] == [i for i, _ in want["alpha_sample"]]
        and all(_close(a, b) for (_, a), (_, b) in zip(got["alpha_sample"], want["alpha_sample"]))
    )


def check(command: str, out: Path, want: dict) -> list[str]:
    """Specs of ``want`` whose outputs in ``out`` are missing, unparsable or wrong."""
    try:
        got = summarize(command, out)
    except (OSError, ValueError, KeyError, csv.Error):
        return sorted(want)
    return sorted(
        spec for spec in want
        if spec not in got or not _spec_matches(command, got[spec], want[spec])
    )
