"""The names perfbench's traced run wraps must exist in the shapes it expects.

``perfbench/child.py`` wraps these names from outside the package; a run
that finds one missing exits 3, and one that never calls a name its command
must call exits 3 too (``perfbench/run.py::missing_coverage``).  Its span
describers read attributes off the hooked calls' arguments and results (a fit
report's ``converged``, a matrix's ``k_columns``), so they run here as well.
Reading its tables here makes any such loss fail the test suite instead.  Likewise every
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


SIX_SPECS = [arg for family in child.MODEL_CLASSES for arg in ("--spec", family)]
TINY = ["--holdout", "2", "--k", "2", "--repeats", "1"]


@pytest.mark.parametrize(
    "command, extra", [("compare", ["--trials", "2"]), ("ldm", [])], ids=["compare", "ldm"]
)
def test_every_hook_is_called(command, extra, tmp_path, monkeypatch):
    from ldmcap import cli, classifiers
    from ldmcap.ldm import LDMatrix

    calls = {}
    described = set()

    def counted(key, fn, span_name=None):
        # span_name is the name the traced run gives the call; its describer,
        # if any, must read the call's arguments and result into a dict
        describe = child.DESCRIBE.get(span_name)

        def wrapper(*args, **kwargs):
            calls[key] = calls.get(key, 0) + 1
            result = fn(*args, **kwargs)
            if describe is not None:
                assert isinstance(describe(args, result), dict)
                described.add(span_name)
            return result

        return wrapper

    for module_name, attr, _, _ in child.HOOKS:
        module = importlib.import_module(module_name)
        span_name = f"{module_name.removeprefix('ldmcap.')}.{attr}"
        monkeypatch.setattr(
            module, attr, counted(f"{module_name}.{attr}", getattr(module, attr), span_name)
        )
    matrix = counted("LDMatrix.matrix", LDMatrix.matrix.fget, "ldm.matrix")
    monkeypatch.setattr(LDMatrix, "matrix", property(matrix))
    for family, class_name in child.MODEL_CLASSES.items():
        cls = getattr(classifiers, class_name)
        monkeypatch.setattr(cls, "predict_proba_batch", counted(family, cls.predict_proba_batch))

    argv = [command, *SIX_SPECS, *TINY, *extra, "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    expected = [
        f"{module_name}.{attr}"
        for module_name, attr, _, commands in child.HOOKS
        if command in commands
    ]
    expected += ["LDMatrix.matrix", *child.MODEL_CLASSES]
    assert [key for key in expected if not calls.get(key)] == []
    # every describer of a name this command calls ran at least once
    called = {
        f"{module_name.removeprefix('ldmcap.')}.{attr}"
        for module_name, attr, _, commands in child.HOOKS
        if command in commands
    } | {"ldm.matrix"}
    assert described == called & set(child.DESCRIBE)


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
