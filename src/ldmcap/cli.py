"""Command-line interface.

Three commands over a shared flag vocabulary:

* ``ldm``     — build labeling-distribution matrices, fit a Dirichlet, report
                entropies; writes per-spec JSON, CSV, and PGM artifacts.
* ``record``  — run label-recorder trials; writes per-spec JSON and a
                per-trial CSV.
* ``compare`` — both of the above for two or more specs, joined into one
                table sorted by recorder capacity.

A spec whose Dirichlet fit did not converge in some repeat gets one warning
line on stderr; its numbers are still printed and written.

Exit codes: 0 on success, 1 for usage or data errors or a Dirichlet fit that
went non-finite, 2 when the labeling space C**N' is too large to enumerate.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .classifiers import ClassifierSpec, parse_spec
from .dataset import LabeledDataset, builtin_iris, load_csv
from .dirichlet import fit_dirichlet, fit_report_json
from .errors import CapacityLimitError, FitNumericalError
from .heatmap import HeatmapConfig, render_pgm
from .ldm import LDMatrix, build_ldm, write_ldm_csv
from .recorder import CapacityEstimate, chance_baseline, estimate_capacity
from .seeding import derive_seed


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's default 2
        raise _UsageError(message)


@dataclass
class RunConfig:
    """The parsed command line; the parser's dests are these field names."""

    command: str
    dataset: str
    specs: list[str]
    k_columns: int
    holdout: int
    trials: int
    repeats: int
    seed: int
    out: str
    scale: str


def _positive_int(text: str) -> int:
    value = int(text)  # argparse reports a ValueError as an invalid value
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="ldmcap", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("ldm", "build labeling-distribution matrices and score their Dirichlet entropy"),
        ("record", "estimate capacity by counting recovered random labels"),
        ("compare", "run both analyses for two or more specs"),
    ):
        p = sub.add_parser(
            name, help=blurb, formatter_class=argparse.ArgumentDefaultsHelpFormatter
        )
        p.add_argument("--dataset", default="iris", help="'iris' (bundled) or 'csv:PATH:LABELCOL'")
        p.add_argument(
            "--spec", dest="specs", action="append", default=[], metavar="SPEC",
            help="classifier spec, e.g. knn:k=3 (repeatable)",
        )
        p.add_argument(
            "--k", dest="k_columns", metavar="K", type=_positive_int, default=100,
            help="LDM columns",
        )
        p.add_argument("--holdout", type=_positive_int, default=5, help="holdout size")
        p.add_argument("--trials", type=_positive_int, default=1000, help="recorder trials")
        p.add_argument("--repeats", type=_positive_int, default=20, help="entropy repeats")
        p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument(
            "--scale", choices=("linear", "log"), default="linear", help="heatmap intensity scale"
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


def _parse_specs(cfg: RunConfig, minimum: int = 1) -> list[ClassifierSpec]:
    if len(cfg.specs) < minimum:
        raise _UsageError(
            f"{cfg.command} needs at least {minimum} --spec argument(s)"
        )
    specs = [parse_spec(text) for text in cfg.specs]
    owners: dict[str, str] = {}
    for text, spec in zip(cfg.specs, specs):
        stem = _artifact_stem(spec)
        if stem in owners:
            raise _UsageError(
                f"--spec {owners[stem]!r} and --spec {text!r} would both write {stem}.*"
            )
        owners[stem] = text
    return specs


def _artifact_stem(spec: ClassifierSpec) -> str:
    return spec.to_string().replace(":", "_").replace(",", "_").replace("=", "")


def _spec_entropy_runs(
    spec: ClassifierSpec, ds: LabeledDataset, cfg: RunConfig
) -> tuple[tuple[LDMatrix, dict], list[float]]:
    """The first repeat's matrix and fit payload, and every repeat's entropy.

    Later matrices are dropped once fitted, so at most two are alive at once.
    A spec whose fit did not converge in some repeat is named on stderr.
    """
    first = None
    entropies = []
    unconverged = 0
    for r in range(cfg.repeats):
        ldm = build_ldm(
            spec, ds, cfg.k_columns, cfg.holdout, derive_seed(cfg.seed, "repeat", r)
        )
        payload = fit_report_json(fit_dirichlet(ldm.matrix))
        first = first or (ldm, payload)
        entropies.append(payload["entropy"])
        unconverged += not payload["converged"]
        del ldm
    if unconverged:
        print(
            f"ldmcap: warning: {spec.to_string()}: Dirichlet fit did not converge in "
            f"{unconverged} of {cfg.repeats} repeats; its entropy is not a "
            "maximum-likelihood estimate",
            file=sys.stderr,
        )
    return first, entropies


def cmd_ldm(cfg: RunConfig) -> int:
    ds = _load_dataset(cfg.dataset)
    specs = _parse_specs(cfg)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    print(f"{'spec':<40} {'entropy(mean)':>16} {'converged':>10}")
    for spec in specs:
        (first_ldm, first_report), entropies = _spec_entropy_runs(spec, ds, cfg)
        stem = _artifact_stem(spec)
        write_ldm_csv(first_ldm, out / f"{stem}.csv")
        render_pgm(first_ldm, out / f"{stem}.pgm", HeatmapConfig(scale=cfg.scale))
        payload = {
            "spec": spec.to_string(),
            "seed": cfg.seed,
            "k_columns": cfg.k_columns,
            "holdout_size": cfg.holdout,
            "repeats": cfg.repeats,
            **first_report,
            "entropies": entropies,
            "entropy_mean": float(np.mean(entropies)),
        }
        (out / f"{stem}.json").write_text(json.dumps(payload, indent=2) + "\n")
        print(
            f"{spec.to_string():<40} {payload['entropy_mean']:>16.4f} "
            f"{str(first_report['converged']):>10}"
        )
    return 0


def _estimate_json(spec: ClassifierSpec, est: CapacityEstimate, seed: int) -> dict:
    return {
        "spec": spec.to_string(),
        "seed": seed,
        "mean_recovered": est.mean_recovered,
        "std_dev": est.std_dev,
        "ci_low": est.ci_low,
        "ci_high": est.ci_high,
        "trials": est.trials,
        "dataset_size": est.dataset_size,
        "num_classes": est.num_classes,
        "chance_baseline": chance_baseline(est.dataset_size, est.num_classes),
    }


def cmd_record(cfg: RunConfig) -> int:
    ds = _load_dataset(cfg.dataset)
    specs = _parse_specs(cfg)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    print(f"{'spec':<40} {'mean':>9} {'95% CI':>22} {'std':>8}")
    for spec in specs:
        est = estimate_capacity(spec, ds, cfg.trials, cfg.seed)
        stem = _artifact_stem(spec)
        (out / f"{stem}.json").write_text(
            json.dumps(_estimate_json(spec, est, cfg.seed), indent=2) + "\n"
        )
        trial_lines = ["trial,count"]
        trial_lines += [f"{t},{c}" for t, c in enumerate(est.counts)]
        (out / f"{stem}.csv").write_text("\n".join(trial_lines) + "\n")
        interval = f"[{est.ci_low:.2f}, {est.ci_high:.2f}]"
        print(
            f"{spec.to_string():<40} {est.mean_recovered:>9.2f} {interval:>22} "
            f"{est.std_dev:>8.3f}"
        )
    return 0


def cmd_compare(cfg: RunConfig) -> int:
    ds = _load_dataset(cfg.dataset)
    specs = _parse_specs(cfg, minimum=2)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for spec in specs:
        _, entropies = _spec_entropy_runs(spec, ds, cfg)
        est = estimate_capacity(spec, ds, cfg.trials, cfg.seed)
        rows.append((spec.to_string(), float(np.mean(entropies)), est))
    rows.sort(key=lambda row: row[2].mean_recovered, reverse=True)

    print(f"{'spec':<40} {'entropy(mean)':>16} {'recorded':>10} {'95% CI':>22}")
    with open(out / "compare.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["spec", "ldm_entropy_mean", "recorder_mean", "ci_low", "ci_high"])
        for name, entropy, est in rows:
            values = (entropy, est.mean_recovered, est.ci_low, est.ci_high)
            writer.writerow([name, *(f"{v:.17g}" for v in values)])
            interval = f"[{est.ci_low:.2f}, {est.ci_high:.2f}]"
            print(f"{name:<40} {entropy:>16.4f} {est.mean_recovered:>10.2f} {interval:>22}")
    return 0


_COMMANDS = {"ldm": cmd_ldm, "record": cmd_record, "compare": cmd_compare}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        cfg = RunConfig(**vars(parser.parse_args(argv)))
        return _COMMANDS[cfg.command](cfg)
    except _UsageError as exc:
        print(f"ldmcap: error: {exc}", file=sys.stderr)
        return 1
    except CapacityLimitError as exc:
        print(f"ldmcap: {exc}", file=sys.stderr)
        return 2
    except (FitNumericalError, ValueError, OSError) as exc:  # includes CSV and dataset errors
        print(f"ldmcap: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
