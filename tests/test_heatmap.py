from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest

from ldmcap import LDMatrix, heatmap, render_pgm


def _ldm_from_matrix(matrix):
    matrix = np.asarray(matrix, dtype=np.float64)
    return LDMatrix(matrix, num_classes=2, holdout_size=2,
                    column_seeds=range(matrix.shape[1]))


def _read_pgm(path):
    blob = path.read_bytes()
    magic, dims, maxval, rest = blob.split(b"\n", 3)
    assert magic == b"P5"
    assert maxval == b"255"
    width, height = (int(t) for t in dims.split())
    pixels = np.frombuffer(rest, dtype=np.uint8)
    assert pixels.size == width * height
    return pixels.reshape(height, width), width, height


def test_pgm_dimensions_follow_the_matrix(tmp_path):
    ldm = _ldm_from_matrix(np.full((4, 3), 0.25))
    path = tmp_path / "map.pgm"
    render_pgm(ldm, path)
    pixels, width, height = _read_pgm(path)
    assert (width, height) == (3, 4)


def test_uniform_matrix_renders_all_white(tmp_path):
    ldm = _ldm_from_matrix(np.full((4, 2), 0.25))
    path = tmp_path / "flat.pgm"
    render_pgm(ldm, path)
    pixels, _, _ = _read_pgm(path)
    assert np.all(pixels == 255)  # every entry equals the global max


def test_linear_scale_is_proportional_to_probability(tmp_path):
    column = np.array([0.5, 0.25, 0.25, 0.0])
    ldm = _ldm_from_matrix(column[:, None])
    path = tmp_path / "ramp.pgm"
    render_pgm(ldm, path, scale="linear")
    pixels, _, _ = _read_pgm(path)
    assert pixels[:, 0].tolist() == [255, 128, 128, 0]  # rint(255 * p / 0.5)


def test_row_r_is_labeling_index_r(tmp_path):
    # put all mass on labeling index 2: only the third row may light up
    column = np.array([0.0, 0.0, 1.0, 0.0])
    ldm = _ldm_from_matrix(column[:, None])
    path = tmp_path / "spike.pgm"
    render_pgm(ldm, path)
    pixels, _, _ = _read_pgm(path)
    assert pixels[:, 0].tolist() == [0, 0, 255, 0]


def test_log_scale_spreads_small_values(tmp_path):
    column = np.array([0.9, 1e-4, 1e-8, 0.0999])
    column = column / column.sum()
    ldm = _ldm_from_matrix(column[:, None])
    lin_path = tmp_path / "lin.pgm"
    log_path = tmp_path / "log.pgm"
    render_pgm(ldm, lin_path, scale="linear")
    render_pgm(ldm, log_path, scale="log")
    lin, _, _ = _read_pgm(lin_path)
    log, _, _ = _read_pgm(log_path)
    # linearly the 1e-4 entry is invisible; on the log axis it is clearly lit
    assert lin[1, 0] == 0
    assert log[1, 0] > 100
    # ordering of intensities still follows ordering of probabilities
    assert log[0, 0] > log[3, 0] > log[1, 0] > log[2, 0]


def test_log_scale_pins_epsilon_to_black(tmp_path):
    column = np.array([1.0 - 3e-10, 1e-10, 1e-10, 1e-10])
    ldm = _ldm_from_matrix(column[:, None])
    path = tmp_path / "eps.pgm"
    render_pgm(ldm, path, scale="log")
    pixels, _, _ = _read_pgm(path)
    assert pixels[0, 0] == 255
    assert pixels[1, 0] == 0


def test_sidecar_records_render_parameters(tmp_path):
    ldm = _ldm_from_matrix(np.full((4, 2), 0.25))
    path = tmp_path / "map.pgm"
    render_pgm(ldm, path, scale="log")
    sidecar = json.loads((tmp_path / "map.pgm.json").read_text())
    assert sidecar == {
        "num_classes": 2,
        "holdout_size": 2,
        "k_columns": 2,
        "scale": "log",
        "gamma": 1.0,
        "invert": False,
        "global_max": 0.25,
    }


def test_render_is_byte_deterministic(tmp_path):
    rng = np.random.default_rng(3)
    matrix = rng.random((4, 5))
    matrix /= matrix.sum(axis=0, keepdims=True)
    ldm = _ldm_from_matrix(matrix)
    a = tmp_path / "a.pgm"
    b = tmp_path / "b.pgm"
    render_pgm(ldm, a, scale="log")
    render_pgm(ldm, b, scale="log")
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.pgm.json").read_text() == (tmp_path / "b.pgm.json").read_text()


def test_config_validation(tmp_path):
    ldm = _ldm_from_matrix(np.full((4, 2), 0.25))
    with pytest.raises(ValueError, match="scale"):
        render_pgm(ldm, tmp_path / "map.pgm", scale="sqrt")
    assert not (tmp_path / "map.pgm").exists()


@pytest.mark.parametrize("scale", ["linear", "log"])
@pytest.mark.parametrize("block_bytes", [1, 3 * 5 * 8, 7 * 5 * 8])
def test_block_size_does_not_change_the_image(tmp_path, monkeypatch, scale, block_bytes):
    # one row per block, blocks that tile the 81 rows, and a short last block
    rng = np.random.default_rng(6)
    matrix = rng.random((3**4, 5))
    matrix /= matrix.sum(axis=0, keepdims=True)
    ldm = LDMatrix(matrix, num_classes=3, holdout_size=4, column_seeds=range(5))
    render_pgm(ldm, tmp_path / "whole.pgm", scale=scale)
    monkeypatch.setattr(heatmap, "_BLOCK_BYTES", block_bytes)
    render_pgm(ldm, tmp_path / "blocks.pgm", scale=scale)
    assert (tmp_path / "blocks.pgm").read_bytes() == (tmp_path / "whole.pgm").read_bytes()


@pytest.mark.parametrize("scale", ["linear", "log"])
def test_render_works_in_place(tmp_path, scale):
    # beside the matrix, one block of rows as floats plus its 8-bit pixels
    rng = np.random.default_rng(5)
    matrix = rng.random((3**8, 100))
    matrix /= matrix.sum(axis=0, keepdims=True)
    ldm = LDMatrix(matrix, num_classes=3, holdout_size=8, column_seeds=range(100))
    render_pgm(ldm, tmp_path / "warm.pgm", scale=scale)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        render_pgm(ldm, tmp_path / "map.pgm", scale=scale)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (matrix.nbytes + peak - start) / matrix.nbytes <= 1.35
