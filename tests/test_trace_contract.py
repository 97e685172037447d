"""The names perfbench's traced run wraps must exist in the shapes it expects.

``perfbench/child.py`` wraps these names from outside the package; a run
that finds one missing exits 3.  Reading its tables here (without installing
any wrapper) makes such a loss fail the test suite instead.  Likewise every
workload's command line in ``perfbench/workloads.py`` must still parse.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


child = _load("child")
workloads = _load("workloads")


@pytest.mark.parametrize("module_name, attr", [hook[:2] for hook in child.HOOKS])
def test_hooked_name_is_callable(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))


def test_matrix_is_a_property():
    from ldmcap.ldm import LDMatrix

    assert isinstance(getattr(LDMatrix, "matrix", None), property)


@pytest.mark.parametrize("class_name", sorted(child.MODEL_CLASSES.values()))
def test_model_class_defines_predict_proba_batch(class_name):
    import ldmcap.classifiers

    assert "predict_proba_batch" in vars(getattr(ldmcap.classifiers, class_name))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_argv_parses(name):
    from ldmcap import cli

    workload = workloads.WORKLOADS[name]
    for seed in (*workload.panel_seeds, *workloads.HELD_OUT_SEEDS):
        args = cli._build_parser().parse_args(workload.argv(seed, "out"))
        assert args.command == workload.command
        assert args.specs == list(workload.specs)
        assert (args.holdout, args.k, args.repeats, args.seed) == (
            workload.holdout, workload.k, workload.repeats, seed
        )
