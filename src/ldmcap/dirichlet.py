"""Dirichlet maximum likelihood and differential entropy.

The fit takes Newton steps on the mean log-likelihood in log alpha, where
its Hessian is still diagonal plus rank one and inverts in closed form at
O(m) cost (T. Minka, *Estimating a Dirichlet distribution*, 2000).  A step
moves each log alpha by at most 1, and the fit stops on the first step
that moves none by more than 1e-10: a relative stop, whatever the scale of
alpha.  It starts from the shape of the fixed point

    psi(alpha_j) = psi(sum_k alpha_k) + mean_i log p_j^(i)

at a moment-matched sum, through ``inverse_digamma``'s first guess.  The
largest alpha takes its gradient and its share of the Newton denominator
from difference series in the sum of the others, so a step stays finite
and accurate when one alpha dwarfs the rest.

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

``digamma`` and its derivative ``trigamma`` come from one shifted pass
(``_psi_raw``) through ``f(x) = f(x + 6) + sum_{i<6} term(x + i)``: six steps
take every entry, whatever its value, above 6, where each function's
asymptotic series (``_horner``) is evaluated (Bernardo, *AS 103*, 1976).

* ``digamma``: de Moivre asymptotic series (term ``-1/x``); over 4,000
  points of 1e-8..1e8 its largest error was 2.0e-14 of max(1, |psi(x)|).
* ``trigamma``: 1/x + 1/(2x^2) + sum_k B_2k / x^(2k+1) (term ``1/x^2``);
  over 4,000 points of 1e-3..1e12 its largest relative error was 2.0e-14.
* ``inverse_digamma``: six Newton steps from the standard piecewise guess
  (exp(y) + 1/2 for y >= -2.22, else -1/(y + Euler gamma)); over 2,700 points
  of y in [psi(DBL_MIN), psi(DBL_MAX)] its largest relative error was 1.7e-14.
* ``_differences``: psi(x + r) - psi(x) and psi'(x) - psi'(x + r), each
  differenced term by term through the same recurrence and series; over
  x in 1e-3..1e15 and r/x in 1e-16..1e3 its largest relative error was
  2.7e-14.

Everything uses natural logarithms.  Differential entropy can be negative;
for concentrated Dirichlets it is very negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitNumericalError, integer

EULER_GAMMA = 0.5772156649015328606

_BLOCK_BYTES = 1 << 19  # working array per block of matrix rows


def block_rows(row_bytes: int) -> int:
    """How many rows of ``row_bytes`` each make a block of about _BLOCK_BYTES, >= 1."""
    return max(1, _BLOCK_BYTES // row_bytes)


def row_blocks(matrix: np.ndarray, value_bytes: int = 8):
    """Slices of ``matrix``'s rows: about _BLOCK_BYTES at ``value_bytes`` a value, >= 1 row."""
    rows = block_rows(value_bytes * matrix.shape[1])
    return (slice(top, top + rows) for top in range(0, len(matrix), rows))


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


def _horner(z: np.ndarray, coeffs) -> np.ndarray:
    """c0 + z * (c1 + z * (c2 + ..)), innermost term first, in one new array."""
    acc = z * coeffs[-1]
    for c in coeffs[-2:0:-1]:
        acc += c
        acc *= z
    return np.add(acc, coeffs[0], out=acc)


def _psi_raw(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """digamma and trigamma on a positive float64 array (no validation), in one pass."""
    # psi(x) = psi(x + 6) - sum_{i<6} 1/(x + i), psi'(x) = psi'(x + 6) + sum_{i<6}
    # 1/(x + i)^2, then the series at y = x + 6.  1/x overflows for subnormal x,
    # (x + i)^2 to a term of 0 for huge x (its reciprocal to inf, or 1/0, for
    # tiny x), and y * y past 1.3e154: the 0 that 1/y^2 then yields in place of
    # a subnormal is far below the series' truncation error.
    psi, tri = np.zeros_like(x), np.zeros_like(x)
    y = x.copy()
    with np.errstate(over="ignore", divide="ignore"):
        for _ in range(6):
            psi -= 1.0 / y
            tri += 1.0 / (y * y)
            y += 1.0
        inv2 = 1.0 / (y * y)
    # psi + log(y) - 0.5 / y + Bernoulli tail to y^-14 (next term < 1.6e-13 at y > 6)
    psi += np.log(y)
    psi -= 0.5 / y
    psi += inv2 * _horner(inv2, _DIGAMMA_SERIES)
    # tri + inv * (1 + inv * (0.5 + inv * series(inv^2))), in place on y
    inv = np.divide(1.0, y, out=y)
    tail = _horner(inv * inv, _TRIGAMMA_SERIES)
    for c in (0.5, 1.0):
        tail *= inv
        tail += c
    tail *= inv
    return psi, np.add(tri, tail, out=tri)


def _powers(lead, series) -> tuple:
    """Coefficients of 1/y^0, 1/y^1, ..: ``lead``, then ``series`` in every other power."""
    coeffs = [*lead] + [0.0] * (2 * len(series) - 1)
    coeffs[len(lead) :: 2] = series
    return tuple(coeffs)


# The asymptotic series above in powers of 1/y: psi(y) = log(y) + F(1/y) and
# psi'(y) = G(1/y) at y >= 6.
_DIGAMMA_POWERS = _powers((0.0, -0.5), _DIGAMMA_SERIES)
_TRIGAMMA_POWERS = _powers((0.0, 1.0, 0.5), _TRIGAMMA_SERIES)


def _divided_difference(coeffs, a: float, b: float) -> float:
    """(P(a) - P(b)) / (a - b) for P(v) = sum_n coeffs[n] v^n (Horner at a and b at once)."""
    q, p_b = 0.0, coeffs[-1]
    for c in coeffs[-2::-1]:
        q = q * a + p_b
        p_b = p_b * b + c
    return q


def _differences(x: float, r: float) -> tuple[float, float]:
    """psi(x + r) - psi(x) and psi'(x) - psi'(x + r) for x, r > 0, free of cancellation.

    Each is differenced term by term: the recurrence's terms 1/(x+i) and
    1/(x+i)^2 as t = r / (x+i) / (x+r+i) and t (1/(x+i) + 1/(x+r+i)), then
    the series at y = x + 6 as log1p(r/y) and (a - b) times the divided
    difference of F or G at a = 1/y and b = 1/(y + r).
    """
    d_psi = d_trigamma = 0.0
    for i in range(6):
        t = r / (x + i) / (x + r + i)
        d_psi += t
        d_trigamma += t * (1.0 / (x + i) + 1.0 / (x + r + i))
    y = x + 6.0
    t = r / y / (y + r)
    a, b = 1.0 / y, 1.0 / (y + r)
    d_psi += math.log1p(r / y) - t * _divided_difference(_DIGAMMA_POWERS, a, b)
    d_trigamma += t * _divided_difference(_TRIGAMMA_POWERS, a, b)
    return d_psi, d_trigamma


def digamma(x):
    """psi(x) = d/dx log Gamma(x) for x > 0.  Accepts scalars or arrays."""
    return _like_input(_psi_raw(_as_positive_array(x, "digamma"))[0], x)


def _inverse_digamma_guess(y: np.ndarray) -> np.ndarray:
    """The standard piecewise first guess at psi^-1(y); the unused branch never divides by 0."""
    return np.where(y >= -2.22, np.exp(y) + 0.5, -1.0 / (np.minimum(y, -2.22) + EULER_GAMMA))


# psi of the smallest and largest normal doubles: the y whose psi^-1(y) is one.
_INVERSE_DIGAMMA_RANGE = _psi_raw(np.array([np.finfo(float).tiny, np.finfo(float).max]))[0]


def inverse_digamma(y):
    """The x > 0 with psi(x) = y, for y in [psi(DBL_MIN), psi(DBL_MAX)].  Scalars or arrays."""
    y_arr = np.atleast_1d(np.asarray(y, dtype=np.float64))
    lo, hi = _INVERSE_DIGAMMA_RANGE
    if not np.all((y_arr >= lo) & (y_arr <= hi)):  # NaN fails both
        raise ValueError(f"inverse_digamma requires finite arguments in [{lo:.4g}, {hi:.7g}]")
    # psi is concave: after the first step, iterates lie below the root and rise.
    x = _inverse_digamma_guess(y_arr)
    for _ in range(6):
        psi, tri = _psi_raw(x)
        x -= (psi - y_arr) / tri
    return _like_input(x, y)


def lgamma(x):
    """log Gamma(x) for x > 0.  Accepts scalars or arrays.

    Maps ``math.lgamma``, which raises ``OverflowError`` where log Gamma
    exceeds the float64 range (x above about 2.6e305).
    """
    arr = _as_positive_array(x, "lgamma")
    values = map(math.lgamma, arr.ravel().tolist())
    return _like_input(np.fromiter(values, np.float64, arr.size), x)


# A fit stops on the first step that moves no log alpha by more than
# _TOLERANCE, or reports status "max_iter" after _MAX_ITER steps.  The
# benchmark's LDMs take 4-7 steps, near-one-hot LDMs 5, and the test input
# whose second alpha ends 1e16 times the first 24.
_TOLERANCE = 1e-10
_MAX_ITER = 1000


@dataclass(frozen=True, eq=False)  # holds an array: == and hash() go by identity
class FitReport:
    """Outcome of a Dirichlet maximum-likelihood fit.

    ``status`` is ``"optimum"`` (the fit stopped at the maximum),
    ``"max_iter"`` (it ran out of steps first) or ``"no_optimum"`` (the
    likelihood has no maximum; ``alpha`` is the column mean, summing to 1,
    and no step was taken).  ``final_delta`` is the largest change in log
    alpha of the last step and ``gradient_norm`` the gradient's max-norm at
    ``alpha``; both are NaN for ``"no_optimum"``.
    """

    alpha: np.ndarray
    iterations: int
    status: str
    final_delta: float
    gradient_norm: float

    def __post_init__(self):
        arr = np.array(self.alpha, dtype=np.float64, copy=True)
        arr.setflags(write=False)
        object.__setattr__(self, "alpha", arr)

    @property
    def converged(self) -> bool:
        return self.status == "optimum"


def _gradient(alpha, log_p_bar):
    """The mean log-likelihood's gradient: psi(a0) - psi(alpha) + mean log p.

    The dominant component j (the largest alpha) takes psi(a0) - psi(alpha_j)
    from ``_differences`` in the sum r of the other alphas, where the two
    digammas would cancel once alpha_j dwarfs r.  Returns the gradient, j,
    psi'(alpha_j) - psi'(a0), psi'(alpha) and psi'(a0).
    """
    j = int(np.argmax(alpha))
    x = float(alpha[j])
    r = float(alpha[:j].sum() + alpha[j + 1 :].sum())  # not a0 - alpha_j, which cancels
    d_psi, d_trigamma = _differences(x, r)
    g, trigamma = _psi_raw(alpha)
    psi0, trigamma0 = _psi_raw(np.array([alpha.sum()]))
    np.subtract(psi0[0], g, out=g)
    g += log_p_bar
    g[j] = d_psi + log_p_bar[j]
    return g, j, d_trigamma, trigamma, trigamma0[0]


def _newton_step(alpha, log_p_bar):
    """Newton's step in log alpha.

    With ``g`` the gradient in alpha, the gradient in log alpha is ``u = alpha
    g`` and the Hessian ``diag(d) + z alpha alpha^T``, with ``z = psi'(a0)``
    and ``d = min(u, 0) - alpha^2 psi'(alpha)`` (the ``min`` keeps it negative
    definite).  So ``H^-1 u = (u - alpha b) / d`` with ``b = sum(alpha u / d)
    / (1/z + sum(alpha^2 / d))``, at O(m) cost.  Of the denominator, 1/z and
    the dominant component's alpha_j^2 / d_j cancel when alpha_j dwarfs the
    rest, so their sum is taken as ``(min(u_j, 0) - alpha_j^2 (psi'(alpha_j)
    - psi'(a0))) / (z d_j)``, with the trigamma difference from
    ``_differences``.  psi'(alpha) and psi'(a0) come from ``_gradient``'s
    shifted pass, alongside psi: a step evaluates no special function itself.
    """
    # u, alpha^2 and d are computed in place, so that a step holds few vectors
    u, j, d_trigamma, d, z = _gradient(alpha, log_p_bar)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u *= alpha
        square = alpha * alpha
        d *= square
        np.subtract(np.minimum(u, 0.0), d, out=d)
        lead = (min(u[j], 0.0) - square[j] * d_trigamma) / (z * d[j])
        b = np.sum(alpha * u / d)
        np.divide(square, d, out=square)
        square[j] = lead
        b /= np.sum(square)
        u -= alpha * b
        u /= d
    return u


def _initial_alpha(p, means, log_p_bar):
    """The fit's start: the fixed point's shape at a moment-matched scale.

    a0 moment-matches the first component's mean and variance.  At the
    optimum psi(alpha_j) = psi(a0) + mean_i log p_j^(i) (Minka 2000), so the
    start inverts that at this a0 with ``inverse_digamma``'s first guess.
    """
    second = float((p[0] ** 2).mean())
    variance = second - float(means[0]) ** 2
    if variance > 0.0:
        a0 = (float(means[0]) - second) / variance
    else:
        a0 = 0.0
    # The moment estimate degenerates on spiky data (near-Bernoulli first
    # component).  A start far from the optimum costs one capped step per
    # factor of e; clamping only changes the starting point.
    a0 = min(max(a0, 1.0), 1e6)
    return _inverse_digamma_guess(_psi_raw(np.array([a0]))[0][0] + log_p_bar)


def fit_dirichlet(samples) -> FitReport:
    """Fit Dirichlet concentration parameters to simplex samples by MLE.

    ``samples`` is an m x K matrix whose K columns are simplex vectors (every
    entry strictly positive — smooth zeros away first — and each column
    summing to 1 within 1e-6).  The fit starts from the fixed point's shape
    at a moment-matched scale (``_initial_alpha``).  Each iteration then
    takes a Newton step in log alpha (``_newton_step``), scaled to move no log
    alpha by more than 1.  The fit stops once a step moves none by more than
    1e-10 (``_TOLERANCE``; status ``"optimum"``), or at the step bound
    (``"max_iter"``, reported, not raised); a step or alpha that is not
    finite raises ``FitNumericalError``.  Input whose likelihood has no
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

    # log p is only reduced row by row, so it is taken one block of rows at a
    # time and never as a whole copy; a row's mean over its own contiguous
    # data is the same, bit for bit, in a block as in the whole matrix.
    # The likelihood has a maximum only where sum_j exp(mean log p_j) < 1.
    # Jensen's inequality guarantees that unless the columns are identical
    # (every row of log p constant); rounding can also push the sum to 1,
    # when a row is 1 to the last bit.  Otherwise there is no optimum.
    log_p_bar = np.empty(m)
    same = True
    for block in row_blocks(p):
        log_block = np.log(p[block])
        log_p_bar[block] = log_block.mean(axis=1)
        same = same and bool((log_block == log_block[:, :1]).all())
    no_optimum = same or np.exp(log_p_bar).sum() >= 1.0
    means = p.mean(axis=1)
    if no_optimum:
        # No alpha is best, and the moment-matched scale of identical columns
        # rests on the sign of rounding noise in their variance.
        return FitReport(means, 0, "no_optimum", final_delta=np.nan, gradient_norm=np.nan)
    alpha = _initial_alpha(p, means, log_p_bar)

    status = "max_iter"
    for iterations in range(1, _MAX_ITER + 1):
        step = _newton_step(alpha, log_p_bar)
        delta = float(np.max(np.abs(step)))
        if not np.isfinite(delta):
            raise FitNumericalError("Dirichlet fit produced a non-finite Newton step", iterations)
        alpha = alpha * np.exp(-step / max(delta, 1.0))
        if not np.all(np.isfinite(alpha)):
            raise FitNumericalError(
                "Dirichlet fit produced non-finite concentrations", iterations
            )
        if delta <= _TOLERANCE:
            status = "optimum"
            break
    gradient_norm = float(np.max(np.abs(_gradient(alpha, log_p_bar)[0])))
    return FitReport(alpha, iterations, status, min(delta, 1.0), gradient_norm)


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
    normalized by their sum, which is independent of the proportions.  So a
    column whose sum is 0 or subnormal (small alphas underflow every draw) is
    drawn again in log space, as log Gamma(alpha_j + 1) + log(U_j) / alpha_j
    normalized by log-sum-exp; every other column is the plain quotient.
    """
    arr = _as_positive_array(alpha, "sample_dirichlet")
    g = rng.gamma(shape=arr[:, None], scale=1.0, size=(arr.size, integer(size, "size", 1)))
    total = g.sum(axis=0)
    tiny = np.flatnonzero(total < np.finfo(np.float64).tiny)
    if tiny.size:
        shape = (arr.size, tiny.size)
        log_g = np.log(rng.gamma(arr[:, None] + 1.0, 1.0, shape))
        log_g += np.log1p(-rng.random(shape)) / arr[:, None]  # log U, U in (0, 1]
        g[:, tiny] = np.exp(log_g - log_g.max(axis=0))
        total[tiny] = g[:, tiny].sum(axis=0)
    return g / total


def fit_report_json(report: FitReport) -> dict:
    """The JSON-ready form of a fit report, including the implied entropy.

    A fit with no optimum has no entropy, last step or gradient: each is
    written as ``None`` (JSON ``null``).
    """
    found = report.status != "no_optimum"
    return {
        "alpha": report.alpha.tolist(),
        "iterations": report.iterations,
        "status": report.status,
        "converged": report.converged,
        "final_delta": report.final_delta if found else None,
        "gradient_norm": report.gradient_norm if found else None,
        "entropy": dirichlet_entropy(report.alpha) if found else None,
    }
