"""The names perfbench's traced run wraps must exist in the shapes it expects.

``perfbench/child.py`` wraps these names from outside the package; a run
that finds one missing exits 3.  Reading its tables here (without installing
any wrapper) makes such a loss fail the test suite instead.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def _child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


child = _child()


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
