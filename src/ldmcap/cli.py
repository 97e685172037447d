"""Command-line interface.

Three commands, each taking only the flags it reads (``ldmcap CMD --help``):

* ``ldm``     — build labeling-distribution matrices, fit a Dirichlet, report
                entropies; writes per-spec JSON, CSV, and PGM artifacts.
* ``record``  — run label-recorder trials; writes per-spec JSON and a
                per-trial CSV.
* ``compare`` — both of the above for two or more specs, joined into one
                table sorted by recorder capacity; writes only compare.csv.

``main`` runs every command: it loads the dataset and checks the specs (two
or more for ``compare``) and the matrix size (``ldm``, ``compare``) before it
makes ``--out``, so a bad spec or an exit-2 refusal leaves no directory behind.

Each repeat's matrix is freed before the next one is built; ``ldm`` first
writes the first repeat's as CSV and PGM.  A spec whose Dirichlet fit has no
optimum in some repeat (its columns are identical, or indistinguishable in
floating point) or reached the step bound gets one warning line on stderr
naming the cause.  With no optimum there is no entropy: the tables print
``no optimum``, ``compare.csv`` writes ``nan`` and JSON writes ``null``.
``ldm``'s ``converged`` column is ``True`` only when every repeat's fit
reached its optimum; ``<spec>.json``'s top-level ``converged`` is the first
repeat's, beside every repeat's status under ``fits``.

Exit codes: 0 on success, 1 for usage or data errors (a flag of another
command included) or a Dirichlet fit that went non-finite, 2 when the
labeling space C**N' is too large to enumerate or its matrix would not fit
in physical memory, a refusal that writes nothing to stdout or ``--out``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .classifiers import ClassifierSpec, parse_spec
from .dataset import LabeledDataset, builtin_iris, load_csv
from .dirichlet import fit_dirichlet, fit_report_json
from .errors import CapacityLimitError, FitNumericalError, MemoryLimitError
from .heatmap import render_pgm
from .ldm import build_ldm, check_ldm_size, write_ldm_csv
from .recorder import CapacityEstimate, chance_baseline, estimate_capacity
from .seeding import derive_seed


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's default 2
        raise _UsageError(message)


def _int_at_least(minimum: int):
    def integer(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as an invalid value
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return integer


def _build_parser() -> _Parser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--dataset", default="iris", help="'iris' (bundled) or 'csv:PATH:LABELCOL'"
    )
    shared.add_argument(
        "--spec", dest="specs", action="append", default=[], metavar="SPEC",
        help="classifier spec, e.g. knn:k=3 (repeatable)",
    )
    shared.add_argument("--seed", type=int, default=0, help="master seed")
    shared.add_argument("--out", default="out", help="output directory")

    ldm = argparse.ArgumentParser(add_help=False)
    # the Dirichlet fit needs at least two columns
    ldm.add_argument("--k", type=_int_at_least(2), default=100, help="LDM columns")
    ldm.add_argument("--holdout", type=_int_at_least(1), default=5, help="holdout size")
    ldm.add_argument("--repeats", type=_int_at_least(1), default=20, help="entropy repeats")

    recorder = argparse.ArgumentParser(add_help=False)
    recorder.add_argument("--trials", type=_int_at_least(1), default=1000, help="recorder trials")

    heatmap = argparse.ArgumentParser(add_help=False)
    heatmap.add_argument(
        "--scale", choices=("linear", "log"), default="linear", help="heatmap intensity scale"
    )

    parser = _Parser(prog="ldmcap", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb, parents in (
        ("ldm", "build labeling-distribution matrices and score their Dirichlet entropy",
         [shared, ldm, heatmap]),
        ("record", "estimate capacity by counting recovered random labels", [shared, recorder]),
        ("compare", "run both analyses for two or more specs", [shared, ldm, recorder]),
    ):
        sub.add_parser(
            name, help=blurb, parents=parents,
            formatter_class=argparse.ArgumentDefaultsHelpFormatter,
        )
    return parser


def _load_dataset(text: str) -> LabeledDataset:
    if text == "iris":
        return builtin_iris()
    if text.startswith("csv:"):
        path, sep, column = text[4:].rpartition(":")
        if not sep or not path:
            raise _UsageError(f"dataset {text!r} must look like csv:PATH:LABELCOL")
        try:
            label_column = int(column)
        except ValueError:
            raise _UsageError(f"label column {column!r} is not an integer") from None
        return load_csv(path, label_column)
    raise _UsageError(f"unknown dataset {text!r}; use 'iris' or 'csv:PATH:LABELCOL'")


def _parse_specs(args: argparse.Namespace, minimum: int) -> list[ClassifierSpec]:
    if len(args.specs) < minimum:
        raise _UsageError(f"{args.command} needs at least {minimum} --spec argument(s)")
    specs = [parse_spec(text) for text in args.specs]
    owners: dict[str, str] = {}
    for text, spec in zip(args.specs, specs):
        stem = _artifact_stem(spec)
        if stem in owners:
            raise _UsageError(
                f"--spec {owners[stem]!r} and --spec {text!r} would both write {stem}.*"
            )
        owners[stem] = text
    return specs


def _artifact_stem(spec: ClassifierSpec) -> str:
    return spec.to_string().replace(":", "_").replace(",", "_").replace("=", "")


# What the stderr warning says about each fit status other than "optimum".
_WARNINGS = {
    "no_optimum": "has no optimum in {} of {} repeats (columns identical, or "
                  "indistinguishable in floating point), so no entropy",
    "max_iter": "reached the step bound in {} of {} repeats, so its entropy is not "
                "a maximum-likelihood estimate",
}


def _entropy_runs(
    spec: ClassifierSpec, ds: LabeledDataset, args: argparse.Namespace, out: Path | None = None
) -> tuple[dict, list[float | None], list[dict]]:
    """The first repeat's fit payload, every repeat's entropy, and every
    repeat's fit as its status, step count and gradient norm.

    A repeat whose fit has no optimum has entropy ``None``.  Each repeat's
    matrix is dropped once fitted, so none is alive while the next one is
    built.  Given ``out``, the first repeat's matrix is written there as CSV
    and PGM before it is dropped.  A spec with a fit that stopped short of an
    optimum is named on stderr, with the cause.
    """
    first, entropies, fits = None, [], []
    for r in range(args.repeats):
        ldm = build_ldm(spec, ds, args.k, args.holdout, derive_seed(args.seed, "repeat", r))
        payload = fit_report_json(fit_dirichlet(ldm.matrix))
        if first is None:
            first = payload
            if out is not None:
                stem = _artifact_stem(spec)
                write_ldm_csv(ldm, out / f"{stem}.csv")
                render_pgm(ldm, out / f"{stem}.pgm", args.scale)
        entropies.append(payload["entropy"])
        fits.append({key: payload[key] for key in ("status", "iterations", "gradient_norm")})
        del ldm
    statuses = [fit["status"] for fit in fits]
    causes = [
        cause.format(statuses.count(status), args.repeats)
        for status, cause in _WARNINGS.items()
        if status in statuses
    ]
    if causes:
        print(
            f"ldmcap: warning: {spec.to_string()}: Dirichlet fit {'; '.join(causes)}",
            file=sys.stderr,
        )
    return first, entropies, fits


def _entropy_mean(entropies: list[float | None]) -> float | None:
    """The mean entropy, or None when some repeat had no optimum."""
    return None if None in entropies else float(np.mean(entropies))


def _entropy_cell(entropy: float | None) -> str:
    return f"{'no optimum':>16}" if entropy is None else f"{entropy:>16.4f}"


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _interval(est: CapacityEstimate) -> str:
    return f"[{est.ci_low:.2f}, {est.ci_high:.2f}]"


def cmd_ldm(args: argparse.Namespace, ds: LabeledDataset, specs: list[ClassifierSpec],
            out: Path) -> None:
    print(f"{'spec':<40} {'entropy(mean)':>16} {'converged':>10}")
    for spec in specs:
        first_report, entropies, fits = _entropy_runs(spec, ds, args, out)
        payload = {
            "spec": spec.to_string(),
            "seed": args.seed,
            "k_columns": args.k,
            "holdout_size": args.holdout,
            "repeats": args.repeats,
            **first_report,
            "entropies": entropies,
            "entropy_mean": _entropy_mean(entropies),
            "fits": fits,
        }
        _write_json(out / f"{_artifact_stem(spec)}.json", payload)
        print(
            f"{spec.to_string():<40} {_entropy_cell(payload['entropy_mean'])} "
            f"{str(all(fit['status'] == 'optimum' for fit in fits)):>10}"
        )


def cmd_record(args: argparse.Namespace, ds: LabeledDataset, specs: list[ClassifierSpec],
               out: Path) -> None:
    print(f"{'spec':<40} {'mean':>9} {'95% CI':>22} {'std':>8}")
    for spec in specs:
        est = estimate_capacity(spec, ds, args.trials, args.seed)
        stem = _artifact_stem(spec)
        summary = dataclasses.asdict(est)
        del summary["counts"]  # the CSV holds them
        summary["chance_baseline"] = chance_baseline(est.dataset_size, est.num_classes)
        _write_json(out / f"{stem}.json", {"spec": spec.to_string(), "seed": args.seed, **summary})
        trials = "".join(f"{t},{c}\n" for t, c in enumerate(est.counts))
        (out / f"{stem}.csv").write_text("trial,count\n" + trials)
        print(
            f"{spec.to_string():<40} {est.mean_recovered:>9.2f} {_interval(est):>22} "
            f"{est.std_dev:>8.3f}"
        )


def cmd_compare(args: argparse.Namespace, ds: LabeledDataset, specs: list[ClassifierSpec],
                out: Path) -> None:
    rows = []
    for spec in specs:
        entropy = _entropy_mean(_entropy_runs(spec, ds, args)[1])
        est = estimate_capacity(spec, ds, args.trials, args.seed)
        rows.append((spec.to_string(), entropy, est))
    rows.sort(key=lambda row: row[2].mean_recovered, reverse=True)

    print(f"{'spec':<40} {'entropy(mean)':>16} {'recorded':>10} {'95% CI':>22}")
    with open(out / "compare.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["spec", "ldm_entropy_mean", "recorder_mean", "ci_low", "ci_high"])
        for name, entropy, est in rows:
            values = (np.nan if entropy is None else entropy, est.mean_recovered,
                      est.ci_low, est.ci_high)
            writer.writerow([name, *(f"{v:.17g}" for v in values)])
            print(
                f"{name:<40} {_entropy_cell(entropy)} {est.mean_recovered:>10.2f} "
                f"{_interval(est):>22}"
            )


# Each command, and the fewest --spec arguments it runs with.
_COMMANDS = {"ldm": (cmd_ldm, 1), "record": (cmd_record, 1), "compare": (cmd_compare, 2)}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        command, minimum = _COMMANDS[args.command]
        ds = _load_dataset(args.dataset)
        specs = _parse_specs(args, minimum)
        if args.command != "record":  # ldm and compare build matrices
            check_ldm_size(ds.num_classes, args.holdout, args.k)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        command(args, ds, specs, out)
        return 0
    except (CapacityLimitError, MemoryLimitError) as exc:
        print(f"ldmcap: {exc}", file=sys.stderr)
        return 2
    except (_UsageError, FitNumericalError, ValueError, OSError) as exc:  # bad input or data
        print(f"ldmcap: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
