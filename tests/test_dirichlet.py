from __future__ import annotations

import math
import warnings

import mpmath
import numpy as np
import pytest

from ldmcap import (
    FitNumericalError,
    digamma,
    dirichlet_entropy,
    fit_dirichlet,
    fit_report_json,
    inverse_digamma,
    lgamma,
    sample_dirichlet,
)
from ldmcap import dirichlet
from ldmcap.classifiers import parse_spec
from ldmcap.ldm import build_ldm

mpmath.mp.dps = 40


# ---------------------------------------------------------------------------
# special functions against a high-precision reference
# ---------------------------------------------------------------------------


def test_digamma_matches_reference_over_twelve_decades():
    xs = np.geomspace(1e-2, 1e3, 60)
    ours = digamma(xs)
    ref = np.array([float(mpmath.digamma(x)) for x in xs])
    assert np.max(np.abs(ours - ref)) < 1e-12


def test_digamma_known_values():
    euler_gamma = 0.5772156649015328606
    assert abs(digamma(1.0) + euler_gamma) < 1e-12
    assert abs(digamma(2.0) - (1.0 - euler_gamma)) < 1e-12
    assert abs(digamma(0.5) - (-2 * math.log(2) - euler_gamma)) < 1e-12


def test_digamma_rejects_nonpositive():
    with pytest.raises(ValueError):
        digamma(0.0)
    with pytest.raises(ValueError):
        digamma(np.array([1.0, -2.0]))


def test_lgamma_matches_reference():
    xs = np.geomspace(1e-2, 1e3, 60)
    ours = np.array([lgamma(x) for x in xs])
    ref = np.array([float(mpmath.loggamma(x)) for x in xs])
    assert np.max(np.abs(ours - ref)) < 1e-12


def test_lgamma_factorials():
    for n in range(1, 15):
        assert abs(lgamma(n + 1) - math.log(math.factorial(n))) < 1e-11


def test_inverse_digamma_round_trips():
    xs = np.array([0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0, 1000.0])
    back = inverse_digamma(digamma(xs))
    assert np.max(np.abs(back - xs) / xs) < 1e-10


def test_huge_arguments_do_not_overflow():
    # x * x overflows past 1.3e154 inside digamma's series
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert digamma(1e200) == pytest.approx(math.log(1e200))
        for y in (300.0, 355.0, 700.0):
            assert digamma(inverse_digamma(y)) == pytest.approx(y)


def test_inverse_digamma_scalar_and_array_forms():
    y = digamma(3.7)
    assert abs(inverse_digamma(y) - 3.7) < 1e-10
    arr = inverse_digamma(np.array([y, y]))
    assert arr.shape == (2,)


def test_special_functions_keep_the_shape_of_nd_input():
    grid = np.geomspace(1e-6, 1e6, 48).reshape(6, 8)
    lg = lgamma(grid)
    assert lg.shape == grid.shape
    assert digamma(grid).shape == grid.shape
    assert inverse_digamma(digamma(grid)).shape == grid.shape
    per_element = np.array([[lgamma(float(v)) for v in row] for row in grid])
    assert np.array_equal(lg, per_element)
    ref = np.array([[float(mpmath.loggamma(v)) for v in row] for row in grid])
    assert np.all(np.abs(lg - ref) <= 1e-15 * np.maximum(1.0, np.abs(ref)))
    for f in (lgamma, digamma, inverse_digamma):
        assert type(f(2.5)) is float
        assert type(f(np.float64(2.5))) is float


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------


def test_entropy_of_uniform_dirichlet_is_log_inverse_factorial():
    # density of Dirichlet(1,..,1) on the (m-1)-simplex is (m-1)!,
    # so differential entropy is -log((m-1)!)
    for m in range(2, 8):
        expected = -math.log(math.factorial(m - 1))
        assert abs(dirichlet_entropy(np.ones(m)) - expected) < 1e-12


def test_entropy_symmetric_in_components():
    a = np.array([2.0, 5.0, 1.5])
    for perm in ([1, 0, 2], [2, 1, 0], [1, 2, 0]):
        assert abs(dirichlet_entropy(a) - dirichlet_entropy(a[perm])) < 1e-12


def test_entropy_beta_2_2_against_quadrature():
    # Dirichlet(2,2) is Beta(2,2) with density 6x(1-x); integrate -f log f
    nodes, weights = np.polynomial.legendre.leggauss(200)
    x = 0.5 * (nodes + 1.0)  # map [-1,1] -> [0,1]
    w = 0.5 * weights
    f = 6.0 * x * (1.0 - x)
    integrand = np.where(f > 0, -f * np.log(np.maximum(f, 1e-300)), 0.0)
    expected = float(np.sum(w * integrand))
    assert abs(dirichlet_entropy(np.array([2.0, 2.0])) - expected) < 1e-6
    assert abs(expected - (-0.1250928)) < 1e-6


def test_entropy_concentrated_is_very_negative():
    spread = dirichlet_entropy(np.ones(5))
    spiked = dirichlet_entropy(np.array([100.0, 0.1, 0.1, 0.1, 0.1]))
    assert spiked < spread - 10


@pytest.mark.parametrize(
    "call, named",
    [
        (lambda: inverse_digamma(np.nan), "finite"),
        (lambda: sample_dirichlet(np.ones(2), 0, np.random.default_rng(0)), "size"),
    ],
    ids=["inverse-digamma-nan", "sample-size-0"],
)
def test_public_guards_name_the_bad_argument(call, named):
    with pytest.raises(ValueError, match=named):
        call()


def test_entropy_rejects_bad_alpha():
    with pytest.raises(ValueError):
        dirichlet_entropy(np.array([1.0]))
    with pytest.raises(ValueError):
        dirichlet_entropy(np.array([1.0, -1.0]))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sample_dirichlet_columns_on_simplex(rng):
    draws = sample_dirichlet(np.array([2.0, 5.0, 1.0]), 500, rng)
    assert draws.shape == (3, 500)
    assert np.all(draws >= 0)
    assert np.allclose(draws.sum(axis=0), 1.0, atol=1e-12)


def test_sample_dirichlet_mean_matches_alpha(rng):
    alpha = np.array([2.0, 5.0])
    draws = sample_dirichlet(alpha, 20_000, rng)
    assert np.allclose(draws.mean(axis=1), alpha / alpha.sum(), atol=0.01)


# ---------------------------------------------------------------------------
# maximum-likelihood fitting
# ---------------------------------------------------------------------------


def test_fit_recovers_known_alpha():
    rng = np.random.default_rng(42)
    true = np.array([2.0, 5.0])
    samples = sample_dirichlet(true, 10_000, rng)
    report = fit_dirichlet(samples)
    assert report.converged
    assert np.max(np.abs(report.alpha - true) / true) < 0.05


def test_fit_recovers_sparse_alpha():
    rng = np.random.default_rng(7)
    true = np.array([0.3, 0.4, 0.8])
    samples = sample_dirichlet(true, 20_000, rng)
    report = fit_dirichlet(samples)
    assert report.converged
    assert np.max(np.abs(report.alpha - true) / true) < 0.05


def test_fit_is_deterministic():
    rng = np.random.default_rng(5)
    samples = sample_dirichlet(np.array([1.0, 2.0, 3.0]), 500, rng)
    a = fit_dirichlet(samples)
    b = fit_dirichlet(samples)
    assert np.array_equal(a.alpha, b.alpha)
    assert a.iterations == b.iterations
    assert a.final_delta == b.final_delta


def test_fit_convergence_is_max_component_step():
    rng = np.random.default_rng(9)
    samples = sample_dirichlet(np.array([3.0, 1.0, 2.0]), 2_000, rng)
    report = fit_dirichlet(samples, tolerance=1e-7)
    assert report.converged
    assert report.final_delta < 1e-7
    loose = fit_dirichlet(samples, tolerance=1e-3)
    assert loose.iterations <= report.iterations


def _assert_no_optimum(report):
    # no step is taken: the report carries the column mean, and its JSON form
    # has no entropy and no last step
    assert report.status == "no_optimum"
    assert not report.converged
    assert report.iterations == 0
    assert np.all(np.isfinite(report.alpha)) and np.all(report.alpha > 0.0)
    assert report.alpha.sum() == pytest.approx(1.0)
    payload = fit_report_json(report)
    assert payload["entropy"] is None
    assert payload["final_delta"] is None


def test_fit_identical_columns_diverges_without_crashing():
    # zero-variance input has no finite MLE; the report must say so at once
    # instead of raising or running the likelihood up towards a point mass
    _assert_no_optimum(fit_dirichlet(np.full((4, 50), 0.25)))


@pytest.mark.parametrize("column", [[0.1, 0.2, 0.7], [0.15, 0.35, 0.5]])
def test_fit_identical_non_uniform_columns_take_the_fixed_point_route(column):
    # identical columns that are not uniform still have no finite MLE; the
    # fit must recognise them by their zero spread, not by their values (for
    # the second column sum_j exp(mean log p_j) rounds to just below 1)
    samples = np.tile(np.array(column)[:, None], 40)
    _assert_no_optimum(fit_dirichlet(samples))
    if column == [0.15, 0.35, 0.5]:
        assert np.exp(np.log(samples).mean(axis=1)).sum() < 1.0


@pytest.mark.parametrize("k_columns, holdout", [(100, 5), (5, 2)])
def test_no_optimum_alpha_does_not_depend_on_rounding_noise(k_columns, holdout, iris):
    # knn with k above the training rows gives identical columns; their
    # rounded variance is -3.4e-21 in the first setting and positive in the
    # second, which once scaled the reported alpha by 1 or by 1e6
    ldm = build_ldm(parse_spec("knn:k=500"), iris, k_columns, holdout)
    report = fit_dirichlet(ldm.matrix)
    _assert_no_optimum(report)
    assert np.array_equal(report.alpha, ldm.matrix.mean(axis=1))


def _gradient_max_norm(samples, alpha):
    log_p_bar = np.log(samples).mean(axis=1)
    return float(np.max(np.abs(digamma(alpha.sum()) - digamma(alpha) + log_p_bar)))


def test_fit_takes_a_fixed_point_step_where_the_newton_step_overflows(monkeypatch):
    # the first component is 1e-30 of the second or less, so the Newton
    # step's denominator 1/z + sum(1/q) cancels to zero; the fixed-point step
    # stands in, and the fit still reaches the optimum
    newton_step = dirichlet._newton_step
    fallbacks = []

    def spy(alpha, log_p_bar):
        step = newton_step(alpha, log_p_bar)
        fallbacks.append(step is None)
        return step

    inverse = dirichlet._inverse_digamma_raw
    fixed_point_steps = []

    def fixed_point_spy(y):
        fixed_point_steps.append(y)
        return inverse(y)

    monkeypatch.setattr(dirichlet, "_newton_step", spy)
    monkeypatch.setattr(dirichlet, "_inverse_digamma_raw", fixed_point_spy)
    samples = np.array([[1e-40, 1e-30], [1.0 - 2.0**-53, 1.0 - 2.0**-53]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = fit_dirichlet(samples)
    assert report.status == "optimum"
    assert np.all(np.isfinite(report.alpha))
    assert np.all(report.alpha > 0.0)
    assert _gradient_max_norm(samples, report.alpha) <= 1e-9
    assert any(fallbacks)
    assert len(fallbacks) == report.iterations
    assert len(fixed_point_steps) == sum(fallbacks)


def test_fit_without_an_optimum_in_floating_point_does_not_converge():
    # the second row rounds to exactly 1, so sum_j exp(mean log p_j) >= 1 and
    # no finite alpha maximises the likelihood, though the columns differ
    p1 = np.geomspace(1e-300, 1e-30, 2)
    _assert_no_optimum(fit_dirichlet(np.vstack([p1, 1.0 - p1])))


@pytest.mark.parametrize(
    "seed, alpha, size",
    [
        (42, [2.0, 5.0], 10_000),
        (7, [0.3, 0.4, 0.8], 20_000),
        (5, [1.0, 2.0, 3.0], 500),
        (9, [3.0, 1.0, 2.0], 2_000),
    ],
    ids=["known", "sparse", "deterministic", "max-component-step"],
)
def test_fit_stops_at_a_zero_gradient(seed, alpha, size):
    samples = sample_dirichlet(np.array(alpha), size, np.random.default_rng(seed))
    report = fit_dirichlet(samples)
    assert report.converged
    assert _gradient_max_norm(samples, report.alpha) <= 1e-9


def test_fit_rejects_zeros_with_smoothing_hint():
    samples = np.array([[0.5, 0.2], [0.5, 0.3], [0.0, 0.5]])
    with pytest.raises(ValueError, match="smoothing"):
        fit_dirichlet(samples)


def test_fit_rejects_columns_off_the_simplex():
    samples = np.array([[0.5, 0.6], [0.3, 0.7]])  # columns sum to 0.8 and 1.3
    with pytest.raises(ValueError, match="sum"):
        fit_dirichlet(samples)


def test_fit_rejects_degenerate_shapes():
    with pytest.raises(ValueError):
        fit_dirichlet(np.array([[0.5, 0.5]]))  # one sample
    with pytest.raises(ValueError):
        fit_dirichlet(np.ones((5, 1)))  # one component
    with pytest.raises(ValueError):
        fit_dirichlet(np.ones(5))  # not 2-D


def test_fit_rejects_non_finite():
    samples = np.array([[0.5, 0.5], [np.nan, 1.0]])
    with pytest.raises((ValueError, FitNumericalError)):
        fit_dirichlet(samples)


def test_fit_report_json_fields():
    rng = np.random.default_rng(1)
    samples = sample_dirichlet(np.array([2.0, 2.0]), 200, rng)
    report = fit_dirichlet(samples)
    payload = fit_report_json(report)
    assert set(payload) == {
        "alpha", "iterations", "status", "converged", "final_delta", "entropy"
    }
    assert payload["status"] == "optimum"
    assert payload["converged"] is True
    assert isinstance(payload["alpha"], list)
    assert abs(payload["entropy"] - dirichlet_entropy(report.alpha)) < 1e-12


def _spiky_columns():
    """30 near-one-hot columns over 81 rows: 1 at a random row, 1e-10 elsewhere."""
    rng = np.random.default_rng(123)
    m, k = 81, 30
    samples = np.full((m, k), 1e-10)
    hot = rng.integers(0, m, size=k)
    samples[hot, np.arange(k)] = 1.0
    samples /= samples.sum(axis=0, keepdims=True)
    return samples


def test_fit_handles_near_deterministic_columns():
    # spiky simplex rows used to trip a premature convergence check when the
    # moment initializer started absurdly small; the fit must land at a
    # strongly negative entropy, not a nonsense one
    report = fit_dirichlet(_spiky_columns())
    entropy = dirichlet_entropy(report.alpha)
    assert np.all(report.alpha > 1e-6)
    assert -1e7 < entropy < 0


def test_fit_at_default_tolerance_reaches_the_tight_optimum_on_spiky_columns():
    samples = _spiky_columns()
    default = dirichlet_entropy(fit_dirichlet(samples).alpha)
    tight = dirichlet_entropy(fit_dirichlet(samples, tolerance=1e-12).alpha)
    assert abs(default - tight) <= 1e-8
