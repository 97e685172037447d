"""Grayscale PGM rendering of labeling-distribution matrices.

Row r of the image is labeling index r (index 0 at the top); column i is
dataset column i.  Intensity maps probability relative to the global matrix
maximum, either linearly or on a log axis spanning [log epsilon, log max].
Every column ``build_ldm`` makes is smoothed by ``DEFAULT_EPSILON``, so the
log axis's floor is that matrix's own: a labeling the classifier gives
probability 0 ends up just under epsilon and renders black.
No plotting stack involved — the writer emits binary P5 directly, plus a
JSON sidecar recording the render parameters.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .dirichlet import _BLOCK_BYTES
from .ldm import DEFAULT_EPSILON, LDMatrix


def _pixels(block: np.ndarray, global_max: float, scale: str) -> np.ndarray:
    """The 8-bit intensities of a block of matrix rows."""
    v = np.zeros(block.shape)
    if scale == "linear":
        if global_max > 0.0:
            np.divide(block, global_max, out=v)
    else:
        log_lo = np.log(DEFAULT_EPSILON)
        log_hi = np.log(global_max) if global_max > 0.0 else log_lo
        if log_hi <= log_lo:  # every entry at or below the smoothing floor
            v.fill(1.0)
        else:
            np.maximum(block, DEFAULT_EPSILON, out=v)
            np.log(v, out=v)
            v -= log_lo
            v /= log_hi - log_lo
    np.clip(v, 0.0, 1.0, out=v)
    v *= 255.0
    np.rint(v, out=v)
    return v.astype(np.uint8)


def render_pgm(ldm: LDMatrix, path: str | Path, scale: str = "linear") -> None:
    """Write the matrix as a binary PGM (maxval 255) plus a ``.json`` sidecar.

    ``scale`` is ``"linear"`` or ``"log"``.  Pixels are computed and written
    one block of rows at a time, so beside the matrix the render holds one
    block: about 512 KiB of floats (at least one row) and its 8-bit pixels.
    """
    if scale not in ("linear", "log"):
        raise ValueError(f"scale must be 'linear' or 'log', got {scale!r}")
    path = Path(path)
    matrix = ldm.matrix
    global_max = float(matrix.max())
    height, width = matrix.shape
    rows = max(1, _BLOCK_BYTES // (8 * width))
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        for top in range(0, height, rows):
            fh.write(_pixels(matrix[top:top + rows], global_max, scale))

    sidecar = {
        "num_classes": ldm.num_classes,
        "holdout_size": ldm.holdout_size,
        "k_columns": ldm.k_columns,
        "scale": scale,
        # not settable; the keys keep the sidecar format of earlier releases
        "gamma": 1.0,
        "invert": False,
        "global_max": global_max,
    }
    Path(str(path) + ".json").write_text(json.dumps(sidecar, indent=2) + "\n")
