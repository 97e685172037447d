from __future__ import annotations

import json

import numpy as np
import pytest

from ldmcap import HeatmapConfig, LDMatrix, render_pgm


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
    render_pgm(ldm, path, HeatmapConfig(scale="linear"))
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
    render_pgm(ldm, lin_path, HeatmapConfig(scale="linear"))
    render_pgm(ldm, log_path, HeatmapConfig(scale="log"))
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
    render_pgm(ldm, path, HeatmapConfig(scale="log"))
    pixels, _, _ = _read_pgm(path)
    assert pixels[0, 0] == 255
    assert pixels[1, 0] == 0


def test_gamma_brightens_midtones(tmp_path):
    column = np.array([0.5, 0.25, 0.125, 0.125])
    ldm = _ldm_from_matrix(column[:, None])
    plain = tmp_path / "g1.pgm"
    bright = tmp_path / "g05.pgm"
    render_pgm(ldm, plain, HeatmapConfig(gamma=1.0))
    render_pgm(ldm, bright, HeatmapConfig(gamma=0.5))
    p1, _, _ = _read_pgm(plain)
    p05, _, _ = _read_pgm(bright)
    assert p05[1, 0] > p1[1, 0]
    assert p1[0, 0] == p05[0, 0] == 255  # endpoints fixed


def test_invert_flips_pixels(tmp_path):
    column = np.array([0.5, 0.25, 0.25, 0.0])
    ldm = _ldm_from_matrix(column[:, None])
    normal = tmp_path / "n.pgm"
    flipped = tmp_path / "i.pgm"
    render_pgm(ldm, normal, HeatmapConfig())
    render_pgm(ldm, flipped, HeatmapConfig(invert=True))
    a, _, _ = _read_pgm(normal)
    b, _, _ = _read_pgm(flipped)
    assert np.array_equal(b, 255 - a)


def test_sidecar_records_render_parameters(tmp_path):
    ldm = _ldm_from_matrix(np.full((4, 2), 0.25))
    path = tmp_path / "map.pgm"
    render_pgm(ldm, path, HeatmapConfig(scale="log", gamma=2.0, invert=True))
    sidecar = json.loads((tmp_path / "map.pgm.json").read_text())
    assert sidecar == {
        "num_classes": 2,
        "holdout_size": 2,
        "k_columns": 2,
        "scale": "log",
        "gamma": 2.0,
        "invert": True,
        "global_max": 0.25,
    }


def test_render_is_byte_deterministic(tmp_path):
    rng = np.random.default_rng(3)
    matrix = rng.random((4, 5))
    matrix /= matrix.sum(axis=0, keepdims=True)
    ldm = _ldm_from_matrix(matrix)
    a = tmp_path / "a.pgm"
    b = tmp_path / "b.pgm"
    render_pgm(ldm, a, HeatmapConfig(scale="log"))
    render_pgm(ldm, b, HeatmapConfig(scale="log"))
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.pgm.json").read_text() == (tmp_path / "b.pgm.json").read_text()


def test_config_validation():
    with pytest.raises(ValueError):
        HeatmapConfig(scale="sqrt")
    with pytest.raises(ValueError):
        HeatmapConfig(gamma=0.0)
    with pytest.raises(ValueError):
        HeatmapConfig(gamma=-1.0)
