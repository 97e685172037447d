"""The output bytes of ``ldm``, ``compare`` and ``record``, pinned by sha256.

Each command runs in-process over the families whose outputs depend only on
numpy's own kernels, at ``--holdout 5 --k 10 --repeats 2 --trials 20 --seed
3``, and the sha256 of its stdout and of every file it writes must equal the
pins in ``output_pins.json``.  The AdaBoost and Gaussian NB outputs round
differently on different numpy SIMD paths (see README), so the pins are keyed
by the path this process runs: numpy's version and the dispatch targets it
enabled.  A path with no pins is skipped, and the skip reason names it.

k-NN and QDA are not pinned: their matrix products and Cholesky
factorizations run in the BLAS and LAPACK kernels numpy links, which pick
their code by CPU and are not switched by ``NPY_DISABLE_CPU_FEATURES``.

A change that moves outputs on purpose prints the new digests of this path
in the failure message; copy them into ``output_pins.json`` for each path.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from ldmcap.cli import main

_SPECS = ["gaussian_nb", "adaboost", "decision_tree", "decision_tree:max_depth=3",
          "random_forest", "random_forest:n=3,max_features=2"]
_FLAGS = {
    "ldm": ["--holdout", "5", "--k", "10", "--repeats", "2"],
    "compare": ["--holdout", "5", "--k", "10", "--repeats", "2", "--trials", "20"],
    "record": ["--trials", "20"],
}
_PINS = json.loads((Path(__file__).parent / "output_pins.json").read_text())


def dispatch_path() -> str:
    """numpy's major.minor version and the SIMD dispatch targets it enabled."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        return f"numpy {np.__version__} (dispatch targets unknown)"
    version = ".".join(np.__version__.split(".")[:2])
    enabled = [target for target in __cpu_dispatch__ if __cpu_features__.get(target)]
    return " ".join([f"numpy {version}", *enabled])


def output_digests(command: str, out: Path) -> dict[str, str]:
    """The sha256 of the command's stdout and of each file it writes to ``out``."""
    args = [arg for spec in _SPECS for arg in ("--spec", spec)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([command, *args, *_FLAGS[command], "--seed", "3", "--out", str(out)])
    assert code == 0
    digests = {"stdout": hashlib.sha256(stdout.getvalue().encode()).hexdigest()}
    for path in sorted(out.iterdir()):
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


@pytest.mark.parametrize("command", list(_FLAGS))
def test_outputs_match_the_pins_of_this_dispatch_path(command, tmp_path):
    path = dispatch_path()
    if path not in _PINS:
        pytest.skip(f"no output pins for {path!r}; pinned: {sorted(_PINS)}")
    digests = output_digests(command, tmp_path)
    assert digests == _PINS[path][command], json.dumps(digests, indent=2)
