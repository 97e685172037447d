"""Dirichlet maximum likelihood and differential entropy.

The fit takes Newton steps on the mean log-likelihood.  Its Hessian is
diagonal plus rank one, so each step inverts it in closed form at O(m) cost
(T. Minka, *Estimating a Dirichlet distribution*, 2000).  A fit stops on the
first step whose largest alpha change is at most 1e-7; Newton converges
quadratically, so that step lands at the optimum.  A Newton step that
overflows is replaced by the classic fixed-point step

    psi(alpha_j_new) = psi(sum_k alpha_k) + mean_i log p_j^(i)

inverted through ``inverse_digamma``.

The likelihood has a maximum only where ``sum_j exp(mean log p_j) < 1``
(Minka 2000).  Identical columns break that (the likelihood grows without
bound towards a point mass), and so do columns whose sum rounds to 1 or
more.  Both are detected before the first step, and the fit returns at once
with status ``"no_optimum"``: such input has no maximum-likelihood entropy.

``digamma`` and ``inverse_digamma`` are implemented here from primitive
operations, so their accuracy contracts are owned by this module;
``lgamma`` maps the standard library's ``math.lgamma``.  Each takes a scalar
(and returns a Python float) or an array of any shape (and returns an array
of that shape).

``digamma`` and its derivative ``trigamma`` share one recurrence step,
``f(x) = f(x + 1) + term(x)``: ``_shift_up`` raises every argument below 6
by ones and sums the terms it passed, and an asymptotic series
(``_horner``) is then evaluated at the shifted argument.

* ``digamma``: de Moivre asymptotic series (term ``-1/x``); absolute error
  stays below 1e-12 for x >= 1e-2.
* ``trigamma``: 1/x + 1/(2x^2) + sum_k B_2k / x^(2k+1) (term ``1/x^2``);
  relative error stays below 2e-12.
* ``inverse_digamma``: Newton iterations from the standard piecewise initial
  guess (exp(y) + 1/2 for y >= -2.22, else -1/(y + Euler gamma)), with
  trigamma as the derivative.

Everything uses natural logarithms.  Differential entropy can be negative;
for concentrated Dirichlets it is very negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitNumericalError

EULER_GAMMA = 0.5772156649015328606

_ASYMPTOTIC_MIN = 6.0

# Coefficients c0, c1, .. of the asymptotic series in powers of 1/x^2.
_DIGAMMA_SERIES = (-1 / 12, 1 / 120, -1 / 252, 1 / 240, -1 / 132, 691 / 32760, -1 / 12)
_TRIGAMMA_SERIES = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)


def _as_positive_array(x, name: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError(f"{name} requires finite arguments > 0")
    return arr


def _like_input(out: np.ndarray, x):
    """A Python float for a scalar ``x``, otherwise ``out`` in ``x``'s shape."""
    return float(out[0]) if np.ndim(x) == 0 else out.reshape(np.shape(x))


def _shift_up(x: np.ndarray, minimum: float, step):
    """Step every entry below ``minimum`` up by ones, summing ``step`` on the way.

    Returns the shifted copy of ``x`` and, per entry, the sum of ``step(v)``
    over the values ``v`` it passed through (zero where nothing moved).
    """
    x = x.copy()
    acc = np.zeros_like(x)
    # Masked adds give each moved entry the operations of an indexed update
    # without gathering and scattering it.  ``step`` also runs on the entries
    # that stay put, whose results are dropped; there 1/v**2 may overflow.
    with np.errstate(over="ignore"):
        while True:
            below = x < minimum
            if not below.any():
                return x, acc
            np.add(acc, step(x), out=acc, where=below)
            np.add(x, 1, out=x, where=below)


def _horner(z, coeffs):
    """c0 + z * (c1 + z * (c2 + ..)), innermost term first."""
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = c + z * acc
    return acc


def _digamma_raw(x: np.ndarray) -> np.ndarray:
    """digamma on a positive float64 array (no validation)."""
    # psi(x) = psi(x + 1) - 1/x; at most six shifts take any x > 0 to >= 6.
    x, acc = _shift_up(x, _ASYMPTOTIC_MIN, lambda v: -1.0 / v)
    # x * x overflows past 1.3e154; the 0 that 1/x^2 then yields in place of
    # a subnormal is far below the series' truncation error.
    with np.errstate(over="ignore"):
        inv2 = 1.0 / (x * x)
    # Bernoulli-number tail of the asymptotic series, truncated at x^-14;
    # the first omitted term is below 1.6e-13 once x >= 6.
    tail = inv2 * _horner(inv2, _DIGAMMA_SERIES)
    return acc + np.log(x) - 0.5 / x + tail


def _trigamma_raw(x: np.ndarray) -> np.ndarray:
    """trigamma on a positive float64 array (no validation)."""
    x, acc = _shift_up(x, _ASYMPTOTIC_MIN, lambda v: 1.0 / v**2)
    inv = 1.0 / x
    inv2 = inv * inv
    tail = inv * (1.0 + inv * (0.5 + inv * _horner(inv2, _TRIGAMMA_SERIES)))
    return acc + tail


def digamma(x):
    """psi(x) = d/dx log Gamma(x) for x > 0.  Accepts scalars or arrays."""
    return _like_input(_digamma_raw(_as_positive_array(x, "digamma")), x)


def inverse_digamma(y):
    """The x > 0 with psi(x) = y.  Accepts scalars or arrays of finite reals."""
    y_arr = np.atleast_1d(np.asarray(y, dtype=np.float64))
    if not np.all(np.isfinite(y_arr)):
        raise ValueError("inverse_digamma requires finite arguments")
    x = np.where(
        y_arr >= -2.22,
        np.exp(np.minimum(y_arr, 700.0)) + 0.5,
        -1.0 / (y_arr + EULER_GAMMA),
    )
    for _ in range(40):
        resid = _digamma_raw(x) - y_arr
        if np.all(np.abs(resid) <= 1e-13):
            break
        step = resid / _trigamma_raw(x)
        new = x - step
        # psi is concave, so a raw Newton step can cross zero; halve it back.
        while np.any(new <= 0.0):
            step = np.where(new <= 0.0, 0.5 * step, step)
            new = x - step
        x = new
    return _like_input(x, y)


def lgamma(x):
    """log Gamma(x) for x > 0.  Accepts scalars or arrays.

    Maps ``math.lgamma``, which raises ``OverflowError`` where log Gamma
    exceeds the float64 range (x above about 2.6e305).
    """
    arr = _as_positive_array(x, "lgamma")
    return _like_input(np.array([math.lgamma(v) for v in arr.ravel().tolist()]), x)


# A fit stops on the first step that moves no alpha by more than _TOLERANCE,
# or reports status "max_iter" after _MAX_ITER steps.  Newton reaches the
# optimum of the benchmark's LDMs in 5-30 steps (6-13 at N' = 8 and 9), and
# in 172 on the test input where fixed-point steps stand in.
_TOLERANCE = 1e-7
_MAX_ITER = 1000


@dataclass(frozen=True)
class FitReport:
    """Outcome of a Dirichlet maximum-likelihood fit.

    ``status`` is ``"optimum"`` (the fit stopped at the maximum),
    ``"max_iter"`` (it ran out of steps first) or ``"no_optimum"`` (the
    likelihood has no maximum; ``alpha`` is the column mean, summing to 1,
    no step was taken and ``final_delta`` is NaN).
    """

    alpha: np.ndarray
    iterations: int
    status: str
    final_delta: float

    def __post_init__(self):
        arr = np.array(self.alpha, dtype=np.float64, copy=True)
        arr.setflags(write=False)
        object.__setattr__(self, "alpha", arr)

    @property
    def converged(self) -> bool:
        return self.status == "optimum"


def _newton_step(alpha, log_p_bar):
    """Newton's step on the mean log-likelihood, or None where it is not finite.

    The gradient is ``g = psi(a0) - psi(alpha) + mean log p`` and the Hessian
    ``diag(q) + z 11^T`` with ``q = -psi'(alpha)`` and ``z = psi'(a0)``.  It
    inverts in closed form (Minka 2000), so a step costs O(m):
    ``H^-1 g = (g - b) / q`` with ``b = sum(g / q) / (1/z + sum(1/q))``.  When
    one alpha dwarfs the rest, ``1/z + sum(1/q)`` cancels towards zero and the
    step overflows.
    """
    total = np.array([alpha.sum()])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g = _digamma_raw(total)[0] - _digamma_raw(alpha) + log_p_bar
        q = -_trigamma_raw(alpha)
        z = _trigamma_raw(total)[0]
        b = np.sum(g / q) / (1.0 / z + np.sum(1.0 / q))
        step = (g - b) / q
    return step if np.all(np.isfinite(step)) else None


def fit_dirichlet(samples) -> FitReport:
    """Fit Dirichlet concentration parameters to simplex samples by MLE.

    ``samples`` is an m x K matrix whose K columns are simplex vectors (every
    entry strictly positive — smooth zeros away first — and each column
    summing to 1 within 1e-6).  Initialization moment-matches the sample means
    against the first component's variance.  Each iteration then takes a
    Newton step (``_newton_step``), halved as often as needed to keep every
    alpha positive, or the fixed-point step where the Newton step is not
    finite.  The fit stops once a step changes no alpha by more than 1e-7
    (``_TOLERANCE``; status ``"optimum"``), or at the step bound
    (``"max_iter"``, reported, not raised).  Input whose likelihood has no
    maximum — identical columns, or columns so close to identical that
    rounding hides the difference — returns before the first step with
    status ``"no_optimum"`` and the column mean as ``alpha``.
    """
    p = np.asarray(samples, dtype=np.float64)
    if p.ndim != 2:
        raise ValueError(f"samples must be a 2-D matrix, got shape {p.shape}")
    m, k = p.shape
    if m < 2:
        raise ValueError(f"need at least 2 components per sample, got {m}")
    if k < 2:
        raise ValueError(f"need at least 2 samples (columns), got {k}")
    if not (p.min() > 0.0 and p.max() < np.inf):  # NaN fails both
        raise ValueError(
            "samples must be strictly positive and finite; "
            "apply epsilon-smoothing before fitting"
        )
    sums = p.sum(axis=0)
    if np.any(np.abs(sums - 1.0) > 1e-6):
        worst = int(np.argmax(np.abs(sums - 1.0)))
        raise ValueError(
            f"column {worst} sums to {sums[worst]!r}; columns must sum to 1 within 1e-6"
        )

    log_p = np.log(p)
    log_p_bar = log_p.mean(axis=1)
    # The likelihood has a maximum only where sum_j exp(mean log p_j) < 1.
    # Jensen's inequality guarantees that unless the columns are identical
    # (every row of log p constant); rounding can also push the sum to 1,
    # when a row is 1 to the last bit.  Otherwise there is no optimum.
    no_optimum = not np.ptp(log_p, axis=1).any() or np.exp(log_p_bar).sum() >= 1.0
    del log_p
    means = p.mean(axis=1)
    if no_optimum:
        # No alpha is best, and the moment-matched scale of identical columns
        # rests on the sign of rounding noise in their variance.
        return FitReport(alpha=means, iterations=0, status="no_optimum", final_delta=np.nan)
    second = float((p[0] ** 2).mean())
    variance = second - float(means[0]) ** 2
    if variance > 0.0:
        a0 = (float(means[0]) - second) / variance
    else:
        a0 = 0.0
    # The moment estimate degenerates on spiky data (near-Bernoulli first
    # component).  A microscopic start is hazardous: one step can then move
    # less than the stop tolerance while still being nowhere near the
    # optimum.  Clamping only changes the starting point.
    if not np.isfinite(a0):
        a0 = 1.0
    a0 = min(max(a0, 1.0), 1e6)
    alpha = means * a0

    status = "max_iter"
    for iterations in range(1, _MAX_ITER + 1):
        step = _newton_step(alpha, log_p_bar)
        if step is None:
            psi_total = _digamma_raw(np.array([alpha.sum()]))[0]
            alpha_new = inverse_digamma(psi_total + log_p_bar)
        else:
            alpha_new = alpha - step
            while np.any(alpha_new <= 0.0):
                step *= 0.5
                alpha_new = alpha - step
        if not np.all(np.isfinite(alpha_new)):
            raise FitNumericalError(
                "Dirichlet fit produced non-finite concentrations", iterations
            )
        delta = float(np.max(np.abs(alpha_new - alpha)))
        alpha = alpha_new
        if delta <= _TOLERANCE:
            status = "optimum"
            break
    return FitReport(alpha=alpha, iterations=iterations, status=status, final_delta=delta)


def dirichlet_entropy(alpha) -> float:
    """Differential entropy (nats) of a Dirichlet with the given concentrations.

    H = log B(alpha) + (a0 - m) psi(a0) - sum_j (alpha_j - 1) psi(alpha_j)
    with a0 = sum_j alpha_j and log B(alpha) = sum_j lgamma(alpha_j) - lgamma(a0).
    """
    arr = _as_positive_array(alpha, "dirichlet_entropy")
    if arr.size < 2:
        raise ValueError("dirichlet_entropy requires at least 2 components")
    a0 = float(arr.sum())
    m = arr.size
    log_beta = float(np.sum(lgamma(arr))) - lgamma(a0)
    return (
        log_beta
        + (a0 - m) * digamma(a0)
        - float(np.sum((arr - 1.0) * digamma(arr)))
    )


def sample_dirichlet(alpha, size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``size`` Dirichlet samples as the columns of an m x size matrix.

    Uses the Gamma construction: independent Gamma(alpha_j, 1) draws
    normalized by their sum.
    """
    arr = _as_positive_array(alpha, "sample_dirichlet")
    if size < 1:
        raise ValueError(f"size must be positive, got {size}")
    g = rng.gamma(shape=arr[:, None], scale=1.0, size=(arr.size, size))
    return g / g.sum(axis=0)


def fit_report_json(report: FitReport) -> dict:
    """The JSON-ready form of a fit report, including the implied entropy.

    A fit with no optimum has neither an entropy nor a last step: both are
    written as ``None`` (JSON ``null``).
    """
    found = report.status != "no_optimum"
    return {
        "alpha": report.alpha.tolist(),
        "iterations": report.iterations,
        "status": report.status,
        "converged": report.converged,
        "final_delta": report.final_delta if found else None,
        "entropy": dirichlet_entropy(report.alpha) if found else None,
    }
