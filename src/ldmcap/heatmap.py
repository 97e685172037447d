"""Grayscale PGM rendering of labeling-distribution matrices.

Row r of the image is labeling index r (index 0 at the top); column i is
dataset column i.  Intensity maps probability relative to the global matrix
maximum, either linearly or on a log axis spanning [log epsilon, log max].
Every column ``build_ldm`` makes is smoothed by ``DEFAULT_EPSILON``, so a
labeling the classifier gives probability 0 renders black.  An ``LDMatrix``'s
non-negative columns sum to 1 over at most 10**7 rows, so its maximum is at
least about 1e-7, above epsilon, and no pixel needs a guard or a clip.  No
plotting stack involved: the writer emits binary P5 directly, plus a JSON
sidecar recording the render parameters.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .dirichlet import row_blocks
from .ldm import DEFAULT_EPSILON, LDMatrix


def _pixels(block: np.ndarray, global_max: float, scale: str) -> np.ndarray:
    """The 8-bit intensities of a block of rows (``rint`` absorbs a log's last bit past [0, 1])."""
    if scale == "linear":
        v = block / global_max
    else:
        log_lo = np.log(DEFAULT_EPSILON)
        v = np.maximum(block, DEFAULT_EPSILON)
        np.log(v, out=v)
        v -= log_lo
        v /= np.log(global_max) - log_lo
    v *= 255.0
    return np.rint(v, out=v).astype(np.uint8)


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
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % matrix.shape[::-1])  # width, then height
        fh.writelines(_pixels(matrix[b], global_max, scale) for b in row_blocks(matrix))

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
