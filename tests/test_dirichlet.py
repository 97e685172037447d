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
from ldmcap.classifiers import FAMILIES, parse_spec
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
    # sixteen decades, relative where |psi| > 1
    xs = np.geomspace(1e-8, 1e8, 400)
    ref = np.array([float(mpmath.digamma(x)) for x in xs])
    assert np.max(np.abs(digamma(xs) - ref) / np.maximum(1.0, np.abs(ref))) <= 5e-14


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


def test_trigamma_matches_reference_over_fifteen_decades():
    # the Newton step's Hessian; x = 6 is where the series takes over
    xs = np.append(np.geomspace(1e-3, 1e12, 76), 6.0)
    ours = dirichlet._psi_raw(xs)[1]
    ref = np.array([float(mpmath.psi(1, x)) for x in xs])
    assert np.max(np.abs(ours - ref) / ref) <= 1e-13


def test_psi_differences_match_reference():
    # psi(x + r) - psi(x) and psi'(x) - psi'(x + r), relative to their own
    # size, down to r = 1e-16 x, where the two digammas agree to the last bit
    worst = 0.0
    for x in np.geomspace(1e-3, 1e15, 19):
        for r in x * np.geomspace(1e-16, 1e3, 11):
            d_psi, d_trigamma = dirichlet._differences(float(x), float(r))
            x_mp, r_mp = mpmath.mpf(float(x)), mpmath.mpf(float(r))
            ref_psi = mpmath.digamma(x_mp + r_mp) - mpmath.digamma(x_mp)
            ref_trigamma = mpmath.psi(1, x_mp) - mpmath.psi(1, x_mp + r_mp)
            worst = max(
                worst,
                float(abs(d_psi / ref_psi - 1)),
                float(abs(d_trigamma / ref_trigamma - 1)),
            )
    assert worst <= 1e-13


def test_lgamma_matches_reference():
    xs = np.geomspace(1e-2, 1e3, 60)
    ours = np.array([lgamma(x) for x in xs])
    ref = np.array([float(mpmath.loggamma(x)) for x in xs])
    assert np.max(np.abs(ours - ref)) < 1e-12


def test_lgamma_factorials():
    for n in range(1, 15):
        assert abs(lgamma(n + 1) - math.log(math.factorial(n))) < 1e-11


def test_lgamma_raises_where_log_gamma_overflows():
    assert lgamma(1e305) == pytest.approx(float(mpmath.loggamma(1e305)))
    with pytest.raises(OverflowError):
        lgamma(np.array([2.0, 1e306]))


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


def _inverse_digamma_relative_error(y: float, x: float) -> float:
    # Newton's steps in 40 digits from x, whose error is ~1e-14, reach psi^-1(y)
    x_ref = x_mp = mpmath.mpf(x)
    for _ in range(3):
        x_ref -= (mpmath.digamma(x_ref) - y) / mpmath.psi(1, x_ref)
    return float(abs(x_mp - x_ref) / x_ref)


def test_inverse_digamma_matches_reference_over_its_whole_range():
    lo, hi = digamma(np.array([np.finfo(np.float64).tiny, np.finfo(np.float64).max]))
    ys = np.concatenate([
        np.linspace(-5, 5, 101),  # 1.9: stopping on |psi(x) - y| <= 1e-13 leaves 8e-14
        np.nextafter(-2.22, [-np.inf, np.inf]),  # the guess's branch point
        -np.geomspace(10, -lo, 60),
        [lo],
        np.linspace(5, 690, 40),
        np.linspace(690, hi, 80),  # exp(y) of the guess reaches the top double
        [hi],
    ])
    xs = inverse_digamma(ys)
    worst = max(_inverse_digamma_relative_error(y, x) for y, x in zip(ys, xs))
    assert worst <= 3e-14
    assert inverse_digamma(lo) == np.finfo(np.float64).tiny
    assert all(inverse_digamma(float(y)) == x for y, x in zip(ys, xs))


def test_inverse_digamma_warns_nowhere_in_its_range():
    tiny, top = np.finfo(np.float64).tiny, np.finfo(np.float64).max
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for y in (-dirichlet.EULER_GAMMA, -1e300, digamma(tiny), digamma(top)):
            x = inverse_digamma(y)
            assert 0.0 < x < np.inf
            assert digamma(x) == pytest.approx(y, rel=1e-15)


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
    # an entry's value does not depend on the other entries of its array:
    # each equals its own scalar (or, for _psi_raw's trigamma, one-entry) call
    for f, call, arg in (
        (lgamma, lambda v: lgamma(float(v)), grid),
        (digamma, lambda v: digamma(float(v)), grid),
        (lambda a: dirichlet._psi_raw(a)[1], lambda v: dirichlet._psi_raw(np.array([v]))[1][0],
         grid),
        (inverse_digamma, lambda v: inverse_digamma(float(v)), digamma(grid)),
    ):
        per_element = np.array([[call(v) for v in row] for row in arg])
        assert np.array_equal(f(arg), per_element)
    ys = np.linspace(-5, 5, 1001)
    assert np.array_equal(inverse_digamma(np.append(ys, -1e3))[:-1], inverse_digamma(ys))
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
        (lambda: inverse_digamma(709.79), "finite"),
        (lambda: inverse_digamma(np.array([1.0, 800.0])), "finite"),
        (lambda: inverse_digamma(np.inf), "finite"),
        (lambda: inverse_digamma(-1e308), "finite"),
        (lambda: sample_dirichlet(np.ones(2), 0, np.random.default_rng(0)), "size"),
        (lambda: sample_dirichlet(np.ones(2), 2.0, np.random.default_rng(0)),
         r"size must be an integer, got 2\.0"),
    ],
    ids=["inverse-digamma-nan", "inverse-digamma-709.79", "inverse-digamma-800",
         "inverse-digamma-inf", "inverse-digamma-minus-1e308", "sample-size-0",
         "sample-float-size"],
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


def test_sample_dirichlet_small_alphas_give_simplex_columns():
    # every Gamma draw of 239 of these columns underflows to 0, where 0 / 0 is NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draws = sample_dirichlet(np.array([1e-3, 1e-3]), 1000, np.random.default_rng(0))
    assert not np.isnan(draws).any()
    assert np.all(draws >= 0)
    assert np.allclose(draws.sum(axis=0), 1.0, atol=1e-12)
    # only the columns whose sum is 0 or subnormal are drawn again
    gammas = np.random.default_rng(0).gamma(np.full((2, 1), 1e-3), 1.0, (2, 1000))
    normal = gammas.sum(axis=0) >= np.finfo(np.float64).tiny
    assert 0 < normal.sum() < 1000 - 200
    assert np.array_equal(draws[:, normal], gammas[:, normal] / gammas[:, normal].sum(axis=0))


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


def test_fit_convergence_is_max_log_alpha_step():
    rng = np.random.default_rng(9)
    samples = sample_dirichlet(np.array([3.0, 1.0, 2.0]), 2_000, rng)
    report = fit_dirichlet(samples)
    assert report.converged
    assert report.final_delta <= 1e-10


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


def test_fit_identical_uniform_columns_have_no_optimum():
    # zero-variance input has no finite MLE; the report must say so at once
    # instead of raising or running the likelihood up towards a point mass
    _assert_no_optimum(fit_dirichlet(np.full((4, 50), 0.25)))


@pytest.mark.parametrize("column", [[0.1, 0.2, 0.7], [0.15, 0.35, 0.5]])
def test_fit_identical_non_uniform_columns_have_no_optimum(column):
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


def test_fit_reaches_the_optimum_where_one_alpha_dwarfs_the_other(monkeypatch):
    # alpha_2 / alpha_1 ends near 1e16, where psi(a0) - psi(alpha_2) and the
    # Newton denominator 1/z + sum(alpha^2 / d) cancel to rounding noise
    # unless taken from difference series; an ulp's change of the start must
    # not change where, or whether, the fit stops
    initial_alpha = dirichlet._initial_alpha
    samples = np.array([[1e-40, 1e-30], [1.0 - 2.0**-53, 1.0 - 2.0**-53]])
    alphas = []
    for k in range(-20, 21):
        monkeypatch.setattr(
            dirichlet,
            "_initial_alpha",
            lambda *args, k=k: initial_alpha(*args) * (1.0 + k * 2.0**-52),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = fit_dirichlet(samples)
        assert report.status == "optimum", k
        assert np.all(np.isfinite(report.alpha)) and np.all(report.alpha > 0.0)
        assert report.gradient_norm <= 1e-12
        assert _gradient_max_norm(samples, report.alpha) <= 1e-9
        alphas.append(report.alpha)
    second = np.array([alpha[1] for alpha in alphas])
    assert np.max(np.abs(second / second[20] - 1.0)) <= 1e-12


def test_fit_of_a_non_finite_step_raises(monkeypatch):
    monkeypatch.setattr(dirichlet, "_newton_step", lambda alpha, log_p_bar: alpha * np.nan)
    samples = sample_dirichlet(np.array([2.0, 5.0]), 100, np.random.default_rng(0))
    with pytest.raises(FitNumericalError, match="non-finite Newton step"):
        fit_dirichlet(samples)


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
        "alpha", "iterations", "status", "converged", "final_delta", "gradient_norm",
        "entropy",
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


def test_fit_stops_at_a_zero_gradient_on_spiky_columns():
    samples = _spiky_columns()
    report = fit_dirichlet(samples)
    assert report.converged
    assert _gradient_max_norm(samples, report.alpha) <= 1e-9


# (spec, K, N'): the six families at their defaults, plus the two specs whose
# near-one-hot LDMs start with alphas near 1e-8, far below their optimum
_LDM_PANEL = [
    (spec, k, holdout)
    for spec in (*FAMILIES, "knn:k=1", "decision_tree:max_depth=20")
    for k, holdout in ((100, 5), (30, 8))
]


@pytest.fixture(scope="module")
def ldm_fits(iris):
    fits = {}
    for spec, k, holdout in _LDM_PANEL:
        samples = build_ldm(parse_spec(spec), iris, k, holdout, 0).matrix
        fits[spec, k, holdout] = samples, fit_dirichlet(samples)
    return fits


@pytest.mark.parametrize("case", _LDM_PANEL, ids=lambda c: f"{c[0]}-K{c[1]}-N{c[2]}")
def test_fit_of_an_ldm_stops_at_a_zero_gradient(ldm_fits, case):
    # a stop rule on the absolute alpha change once reported "optimum" for
    # the near-one-hot LDMs while their smallest alphas were still millions
    # of times too small
    samples, report = ldm_fits[case]
    assert report.status == "optimum"
    assert _gradient_max_norm(samples, report.alpha) <= 1e-9


@pytest.mark.parametrize("case", _LDM_PANEL, ids=lambda c: f"{c[0]}-K{c[1]}-N{c[2]}")
def test_fit_of_an_ldm_takes_few_steps(ldm_fits, case):
    # started at the fixed point's shape, Newton needs 4-6 steps here, the
    # near-one-hot LDMs included
    _, report = ldm_fits[case]
    assert report.iterations <= 7


def _fit_bytes(report):
    return (report.alpha.tobytes(), report.iterations, report.status,
            np.float64(report.final_delta).tobytes(), np.float64(report.gradient_norm).tobytes())


@pytest.mark.parametrize("block_rows", [1, 7, 4096])
def test_fit_in_blocks_of_rows_is_the_fit_of_one_block(monkeypatch, ldm_fits, block_rows):
    # the fit takes log p one block of rows at a time; every block size must
    # give the fit of the whole matrix in one block, to the bit
    whole, blocks = {}, {}
    for case in _LDM_PANEL[::3]:
        samples = ldm_fits[case][0]
        monkeypatch.setattr(dirichlet, "_BLOCK_BYTES", samples.nbytes)
        whole[case] = _fit_bytes(fit_dirichlet(samples))
        monkeypatch.setattr(dirichlet, "_BLOCK_BYTES", 8 * samples.shape[1] * block_rows)
        blocks[case] = _fit_bytes(fit_dirichlet(samples))
    assert blocks == whole
    # identical columns have no optimum, and a column off in the first or the
    # last block of rows gives them one
    monkeypatch.setattr(dirichlet, "_BLOCK_BYTES", 8 * 30 * block_rows)
    samples = np.tile(np.array([0.1, 0.2, 0.3, 0.4])[:, None], 30)
    _assert_no_optimum(fit_dirichlet(samples))
    for rows in ([0, 1], [-2, -1]):
        off = samples.copy()
        off[rows, 5] += [0.01, -0.01]
        assert fit_dirichlet(off).status == "optimum"


@pytest.mark.parametrize(
    "k, holdout, entropy",
    [(100, 5, -4590.081780640868), (30, 8, -125692.9129023519)],
    ids=["K100-N5", "K30-N8"],
)
def test_near_one_hot_ldm_entropy_is_the_optimum(ldm_fits, k, holdout, entropy):
    # the entropies of fits continued with Newton steps in log alpha until
    # no step moved an alpha by more than 1e-13 relative
    _, report = ldm_fits["knn:k=1", k, holdout]
    assert dirichlet_entropy(report.alpha) == pytest.approx(entropy, rel=1e-9)


def test_gradient_norm_is_the_gradient_at_the_returned_alpha(monkeypatch):
    # stopped at the step bound, far from the optimum, the gradient is large
    monkeypatch.setattr(dirichlet, "_MAX_ITER", 2)
    samples = _spiky_columns()
    report = fit_dirichlet(samples)
    assert report.status == "max_iter"
    expected = _gradient_max_norm(samples, report.alpha)
    assert expected > 1.0
    assert report.gradient_norm == pytest.approx(expected, rel=1e-12)
    assert fit_report_json(report)["gradient_norm"] == report.gradient_norm


def test_no_optimum_report_has_no_gradient_norm():
    report = fit_dirichlet(np.full((4, 50), 0.25))
    assert math.isnan(report.gradient_norm)
    assert fit_report_json(report)["gradient_norm"] is None
