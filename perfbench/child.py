"""One run of the ldmcap CLI in a fresh process, optionally traced from outside.

    python3 perfbench/child.py MARKS_JSON {plain|trace} CLI_ARG...

Imports ldmcap from the checkout's ``src``, then calls ``ldmcap.cli.main``
with the CLI arguments and exits with its return code.  MARKS_JSON receives
``load_done`` (when the dataset finished loading, the end of set-up) and
``main_end`` on the ``time.monotonic`` clock, which the parent shares.

With ``trace`` the public names each ldmcap module looks up are wrapped
before ``main`` runs, and every call through them is kept in memory as a
span (name, start, end, parent, run id).  The spans go to MARKS_JSON at
exit.  A name that is missing is an error that names the layer it covered:
a trace must never lose a layer without saying so.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

BOTH = frozenset({"compare", "ldm"})
COMPARE = frozenset({"compare"})
LDM = frozenset({"ldm"})

# (module, public name, layer, commands that must call it).  The names are
# wrapped where the caller looks them up: cli, ldm and recorder import them
# with ``from .x import y``, so wrapping the defining module would miss them.
HOOKS = (
    ("ldmcap.cli", "builtin_iris", "dataset", BOTH),
    ("ldmcap.cli", "build_ldm", "ldm", BOTH),
    ("ldmcap.cli", "fit_dirichlet", "dirichlet", BOTH),
    ("ldmcap.cli", "fit_report_json", "dirichlet", BOTH),
    ("ldmcap.cli", "write_ldm_csv", "ldm", LDM),
    ("ldmcap.cli", "render_pgm", "heatmap", LDM),
    ("ldmcap.cli", "estimate_capacity", "recorder", COMPARE),
    ("ldmcap.cli", "derive_seed", "seeding", BOTH),
    ("ldmcap.ldm", "fit", "classifiers", BOTH),
    ("ldmcap.ldm", "ldm_column", "ldm", BOTH),
    ("ldmcap.ldm", "simplex_vector", "ldm", BOTH),
    ("ldmcap.ldm", "permute_labels", "dataset", BOTH),
    ("ldmcap.ldm", "derive_seed", "seeding", BOTH),
    ("ldmcap.ldm", "make_rng", "seeding", BOTH),
    ("ldmcap.recorder", "fit", "classifiers", COMPARE),
    ("ldmcap.recorder", "record_trial", "recorder", COMPARE),
    ("ldmcap.recorder", "random_labels", "dataset", COMPARE),
    ("ldmcap.recorder", "make_rng", "seeding", COMPARE),
    ("ldmcap.dirichlet", "dirichlet_entropy", "dirichlet", BOTH),
    ("ldmcap.dirichlet", "lgamma", "dirichlet", BOTH),
)

# Model class per classifier family; each one's predict_proba_batch is wrapped.
MODEL_CLASSES = {
    "knn": "KnnModel",
    "gaussian_nb": "GaussianNbModel",
    "decision_tree": "DecisionTreeModel",
    "random_forest": "RandomForestModel",
    "qda": "QdaModel",
    "adaboost": "AdaBoostModel",
}


class LostCoverage(RuntimeError):
    """A hooked name is gone, so the layer behind it would read as zero."""


def _spec_family(args, result):
    return {"family": args[0].family}


def _fit_report(args, result):
    return {"iterations": int(result.iterations), "converged": bool(result.converged)}


def _file_bytes(args, result):
    return {"bytes": os.path.getsize(args[1])}


def _matrix_bytes(args, result):
    ldm = args[0]
    # Computed from the shape: C**N' rows x K float64 columns.
    return {"bytes": ldm.num_classes**ldm.holdout_size * ldm.k_columns * 8}


DESCRIBE = {
    "ldm.fit": _spec_family,
    "recorder.fit": _spec_family,
    "ldm.ldm_column": _spec_family,
    "recorder.record_trial": _spec_family,
    "cli.fit_dirichlet": _fit_report,
    "cli.write_ldm_csv": _file_bytes,
    "cli.render_pgm": _file_bytes,
    "ldm.matrix": _matrix_bytes,
}


class Tracer:
    """Spans kept in memory; a stack gives each span its parent."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent, attrs]
        self._stack: list[int] = []

    def wrap(self, name: str, fn, attrs: dict | None = None):
        describe = DESCRIBE.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, attrs]
            spans.append(span)
            stack.append(index)
            span[1] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.monotonic()
                stack.pop()
            if describe is not None:
                span[4] = {**(attrs or {}), **describe(args, result)}
            return result

        return traced

    def dump(self) -> list[dict]:
        return [
            {"run": self.run_id, "name": n, "start": s, "end": e, "parent": p, "attrs": a}
            for n, s, e, p, a in self.spans
        ]


def install(tracer: Tracer) -> None:
    """Wrap every hooked name; raise LostCoverage for the first one missing."""
    for module_name, attr, layer, _ in HOOKS:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if not callable(fn):
            raise LostCoverage(f"layer {layer!r} lost coverage: {module_name}.{attr} is missing")
        short = module_name.removeprefix("ldmcap.")
        setattr(module, attr, tracer.wrap(f"{short}.{attr}", fn))

    ldm_module = importlib.import_module("ldmcap.ldm")
    matrix = getattr(getattr(ldm_module, "LDMatrix", None), "matrix", None)
    if not isinstance(matrix, property):
        raise LostCoverage("layer 'ldm' lost coverage: ldmcap.ldm.LDMatrix.matrix is missing")
    ldm_module.LDMatrix.matrix = property(tracer.wrap("ldm.matrix", matrix.fget))

    classifiers = importlib.import_module("ldmcap.classifiers")
    for family, class_name in MODEL_CLASSES.items():
        cls = getattr(classifiers, class_name, None)
        if cls is None or "predict_proba_batch" not in vars(cls):
            raise LostCoverage(
                f"layer 'classifiers' lost coverage: "
                f"ldmcap.classifiers.{class_name}.predict_proba_batch is missing"
            )
        cls.predict_proba_batch = tracer.wrap(
            "classifiers.predict", cls.predict_proba_batch, {"family": family}
        )


def main() -> int:
    marks_path, mode, *cli_args = sys.argv[1:]
    sys.path.insert(0, str(ROOT / "src"))
    import ldmcap.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"ldmcap was imported from {cli.__file__}, not from {ROOT / 'src'}")

    marks: dict = {}
    tracer = None
    if mode == "trace":
        tracer = Tracer(run_id=f"{os.getpid()}-{time.time_ns()}")
        try:
            install(tracer)
        except LostCoverage as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 3

    load = getattr(cli, "builtin_iris", None)
    if load is None:
        print("perfbench: set-up time lost its end mark: ldmcap.cli.builtin_iris is missing",
              file=sys.stderr)
        return 3

    def builtin_iris():
        ds = load()
        marks.setdefault("load_done", time.monotonic())
        return ds

    cli.builtin_iris = builtin_iris
    run_main = tracer.wrap("cli.main", cli.main) if tracer else cli.main
    code = run_main(cli_args)
    marks["main_end"] = time.monotonic()
    if tracer:
        marks["spans"] = tracer.dump()
    Path(marks_path).write_text(json.dumps(marks))
    return code


if __name__ == "__main__":
    sys.exit(main())
