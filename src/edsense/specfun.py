"""Special functions backing the detection and rate formulas.

Everything here is self-contained (stdlib ``math`` plus the local quadrature
kernels): incomplete gamma and beta, the generalized Marcum-Q, the Kummer and
Gauss hypergeometric series, and the Tricomi U function evaluated through its
real integral representation.  All routines are pure and deterministic.  The
series and quadratures share one contract: 1e-12 relative (``_REL_TOL``), at
most 10,000 terms for the hypergeometric and Marcum-Q series (``_MAX_TERMS``)
and 20,000 for the incomplete gamma and beta loops, and ConvergenceError where
that cannot be met, never a silently truncated value.  The Poisson terms
y^z e^(-y) / Gamma(z+1) that the Marcum-Q and the detection series sum come
from one kernel, ``_poisson_terms``.  Whatever the hypergeometric series and
2F1's routes need that does not depend on z (term ratios and their tail
bounds, the ratios of a series' cancelling head, the 1-z series'
coefficients, their rounding sizes and tail bounds, and its reach, the Euler
integral's set-up and its exponent on the first tanh-sinh block),
and the incomplete beta's continued fraction that does not depend on x (its
partial numerators over x), is built once per parameter set and kept in
bounded LRU caches of immutable tuples or read-only arrays, so a sweep over
z or x pays for it once.
"""

from __future__ import annotations

import bisect
import math
import sys

import numpy as np

from ._memo import memo
from ._quad import (_REL_TOL, _TS_QUARTERS, _TS_REACH, _ts_trim, ln_peak_integral,
                    tanhsinh_01)
from .errors import ConvergenceError, DomainError

__all__ = [
    "ln_gamma",
    "lower_inc_gamma",
    "upper_inc_gamma",
    "reg_lower_gamma",
    "reg_upper_gamma",
    "beta",
    "ln_beta",
    "reg_inc_beta",
    "marcum_q",
    "kummer_1f1",
    "gauss_2f1",
    "tricomi_u",
    "ln_tricomi_u",
]


# The most terms a series may take before it raises ConvergenceError.
_MAX_TERMS = 10_000
_MAX_INNER_ITER = 20000
# The series take their z-free term ratios, and the incomplete beta's
# continued fraction its x-free partial numerators, from chunks of _CHUNK
# indices (the series in blocks of _BLOCK), and 2F1 its z-free set-up per
# (a, b, c); all are built on first use and the most recent _CACHED of each
# are kept.
_BLOCK = 5
_CHUNK = 50
_CACHED = 256


def ln_gamma(x: float) -> float:
    """ln Gamma(x) for finite x > 0; exp(result) is accurate to well under 1e-13."""
    if not 0.0 < x < math.inf:
        raise DomainError(f"ln_gamma requires finite x > 0, got {x}")
    return math.lgamma(x)


def _ln_gamma_weight(z: float, y):
    """ln(y^z e^(-y) / Gamma(z)), the factor in front of both incomplete-gamma
    expansions.  y may be a numpy array, taken elementwise at the one order z.

    For z >= 30 it is taken as -z (t - ln(1 + t)) + ln(z / 2 pi) / 2 - mu(z),
    t = y/z - 1, with mu Binet's function (``_binet``).  The direct form
    subtracts two numbers near z ln z, and its rounding error, about 1e-16
    z ln z, reaches 2e-12 relative at z = 2400.  ln(1 + t) is log1p(t) from
    y = z/2 up and ln(y/z) below, where t drops y's digits (y/z held at the
    least normal float, so that an underflow gives a weight far below exp's
    range).
    """
    array = isinstance(y, np.ndarray)
    if z < 30.0:
        return z * (np.log(y) if array else math.log(y)) - y - math.lgamma(z)
    t = (y - z) / z
    if array:
        ln_ratio = np.log(np.maximum(y / z, sys.float_info.min))
        np.log1p(t, out=ln_ratio, where=t >= -0.5)
    else:
        ln_ratio = math.log1p(t) if t >= -0.5 else math.log(max(y / z, sys.float_info.min))
    return 0.5 * math.log(z / (2.0 * math.pi)) - z * (t - ln_ratio) - _binet(z)


# Stirling's series for Binet's function, mu(z) = sum coef z^-m (``_binet``)
_BINET_TERMS = ((1, 1.0 / 12.0), (3, -1.0 / 360.0), (5, 1.0 / 1260.0), (7, -1.0 / 1680.0),
                (9, 1.0 / 1188.0), (11, -691.0 / 360360.0), (13, 1.0 / 156.0),
                (15, -3617.0 / 122400.0))


def _binet(z: float) -> float:
    """Binet's function mu(z) = ln Gamma(z) - (z - 1/2) ln z + z - ln(2 pi)/2,
    the remainder of Stirling's formula, for z > 0.

    From z = 10 up it is Stirling's series to the z^-15 term (truncation
    error below 2e-18); below, the recurrence mu(z) = mu(z+1) + (z + 1/2)
    log1p(1/z) - 1 carries it up there.  Each step adds one small term, so
    mu(z) is good to about 2e-15 absolute, where ln Gamma(z) itself is
    rounded at the scale of z ln z.
    """
    mu = 0.0
    while z < 10.0:
        mu += (z + 0.5) * math.log1p(1.0 / z) - 1.0
        z += 1.0
    w = 1.0 / (z * z)
    s = 0.0
    for _, coef in reversed(_BINET_TERMS):
        s = coef + w * s
    return mu + s / z


def _reg_lower_series(z: float, y: float) -> float:
    """Regularized lower gamma P(z, y) for y < z + 1."""
    ap = z
    term = 1.0 / z
    total = term
    for _ in range(_MAX_INNER_ITER):
        ap += 1.0
        term *= y / ap
        total += term
        if abs(term) < abs(total) * 1e-17:
            return math.exp(math.log(total) + _ln_gamma_weight(z, y))
    raise ConvergenceError(f"incomplete gamma series stalled at z={z}, y={y}")


def _reg_upper_cf(z: float, y: float) -> float:
    """Regularized upper gamma Q(z, y) for y >= z + 1, by Lentz's method.

    There the continued fraction is at most 1, so Q is at most the weight
    y^z e^-y / Gamma(z); where that lies below half the least subnormal, Q
    rounds to 0.0 and is returned at once.  (From y of about 1e16 on,
    b += 2 no longer moves b and the fraction would never settle.)
    """
    ln_weight = _ln_gamma_weight(z, y)
    if ln_weight < -745.2:
        return 0.0
    tiny = 1e-300
    b = y + 1.0 - z
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_INNER_ITER):
        an = -i * (i - z)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return math.exp(ln_weight) * h
    raise ConvergenceError(f"incomplete gamma continued fraction stalled at z={z}, y={y}")


def reg_lower_gamma(z: float, y: float) -> float:
    """Regularized lower incomplete gamma P(z, y) = G(z, y) / Gamma(z)."""
    if not (0.0 < z < math.inf and 0.0 <= y < math.inf):
        raise DomainError(f"reg_lower_gamma requires finite z > 0, y >= 0, got z={z}, y={y}")
    if y == 0.0:
        return 0.0
    if y < z + 1.0:
        return _reg_lower_series(z, y)
    return 1.0 - _reg_upper_cf(z, y)


def reg_upper_gamma(z: float, y: float) -> float:
    """Regularized upper incomplete gamma Q(z, y) = Gamma(z, y) / Gamma(z)."""
    if not (0.0 < z < math.inf and 0.0 <= y < math.inf):
        raise DomainError(f"reg_upper_gamma requires finite z > 0, y >= 0, got z={z}, y={y}")
    if y == 0.0:
        return 1.0
    if y < z + 1.0:
        return 1.0 - _reg_lower_series(z, y)
    return _reg_upper_cf(z, y)


def lower_inc_gamma(z: float, y: float) -> float:
    """Lower incomplete gamma G(z, y) = integral of x^(z-1) e^(-x) over [0, y].

    Relative error <= 1e-12 on the tested domain; tends to Gamma(z) as
    y grows.
    """
    return math.exp(ln_gamma(z)) * reg_lower_gamma(z, y)


def upper_inc_gamma(z: float, y: float) -> float:
    """Upper incomplete gamma Gamma(z, y); satisfies Gamma(z,y) = Gamma(z) - G(z,y)."""
    return math.exp(ln_gamma(z)) * reg_upper_gamma(z, y)


def beta(c1: float, c2: float) -> float:
    """Beta function B(c1, c2) = Gamma(c1) Gamma(c2) / Gamma(c1 + c2)."""
    return math.exp(ln_beta(c1, c2))


def ln_beta(c1: float, c2: float) -> float:
    """ln B(c1, c2) = ln Gamma(s) - s g(x, s), with s the smaller argument, x
    the larger and g the Gamma quotient (ln Gamma(x+s) - ln Gamma(x)) / s
    (``_ln_gamma_quotient``): three lgamma values near (c1+c2) ln(c1+c2)
    would leave it about 1e-16 (c1+c2) ln(c1+c2) off."""
    if not 0.0 < c1 < math.inf > c2 > 0.0:  # both finite and positive
        raise DomainError(f"beta requires finite positive arguments, got ({c1}, {c2})")
    small, big = sorted((c1, c2))
    return math.lgamma(small) - small * _ln_gamma_quotient(big, small)[1]


def _ln_beta_front(a: float, b: float, x: float, y: float) -> float:
    """ln(x^a y^b / B(a, b)), y = 1 - x as the caller knows it.  Where s =
    a + b >= 30 it is W(a, s x) + W(b, s y) - W(s, s), W = ``_ln_gamma_weight``
    (DiDonato and Morris, Algorithm 708, ACM TOMS 18 (1992) 360): no ln Gamma
    near s ln s is rounded, and near x = a/s the rounding of x and y cancels
    to first order.  Below s = 30, where all three weights would take their
    direct branch, it is a ln x + b ln y - ln B(a, b) from three lgamma
    values, the same sum less s (1 - x - y), which is only y's rounding.
    s x and s y must be normal floats, as subnormal ones have lost digits."""
    s = a + b
    sx, sy = s * x, s * y
    if not (sx >= sys.float_info.min and sy >= sys.float_info.min):  # NaN too
        raise DomainError(f"incomplete beta: (a+b) x, (a+b) (1-x) must be normal floats, x={x}")
    if s < 30.0:
        return (a * math.log(x) + b * math.log(y)
                - math.lgamma(a) - math.lgamma(b) + math.lgamma(s))
    return _ln_gamma_weight(a, sx) + _ln_gamma_weight(b, sy) - _ln_gamma_weight(s, s)


@memo(_CACHED)
def _beta_cf_steps(a: float, b: float, k: int) -> tuple:
    """Chunk k of ``_beta_cf``'s x-free partial numerators, for i from
    k _CHUNK + 1 to (k+1) _CHUNK, as a tuple of pairs (i (b-i) / ((a-1+2i)
    (a+2i)), -(a+i) (a+b+i) / ((a+2i) (a+1+2i)))."""
    i = np.arange(k * _CHUNK + 1.0, (k + 1) * _CHUNK + 1.0)
    odd = i * (b - i) / ((a - 1.0 + 2.0 * i) * (a + 2.0 * i))
    even = -(a + i) * (a + b + i) / ((a + 2.0 * i) * (a + 1.0 + 2.0 * i))
    return tuple(zip(odd.tolist(), even.tolist()))


def _beta_cf(a: float, b: float, x: float, y: float) -> float:
    """The continued fraction cf of I_x(a, b) = x^a y^b cf / (a B(a, b)), by
    Lentz's method, for 0 < x < (a+1)/(a+b+2), y = 1 - x as the caller knows
    it.  Only its first denominator, 1 - (a+b) x/(a+1), needs 1 - x: formed as
    ((a+1) y - (b-1) x)/(a+1), it loses nothing where y is small (at b = 1
    the fraction is exactly 1/y).  The partial numerators are x times
    x-free coefficients, read from chunks cached per (a, b)
    (``_beta_cf_steps``), so a sweep over x builds them once."""
    tiny = 1e-300
    qap = a + 1.0
    c = 1.0
    d = (qap * y - (b - 1.0) * x) / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for k in range(_MAX_INNER_ITER // _CHUNK):
        for odd, even in _beta_cf_steps(a, b, k):
            aa = odd * x
            d = 1.0 + aa * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + aa / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            h *= d * c
            aa = even * x
            d = 1.0 + aa * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + aa / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
            if abs(delta - 1.0) < 1e-16:
                return h
    raise ConvergenceError(f"incomplete beta continued fraction stalled at a={a}, b={b}, x={x}")


def _ln_inc_beta(a: float, b: float, x: float, y: float) -> float:
    """ln I_x(a, b), y = 1 - x as the caller knows it (as ``_gauss_2f1`` takes
    w): the front factor (``_ln_beta_front``) times the continued fraction in x
    below x = (a+1)/(a+b+2), and one minus that of I_y(b, a) from there up."""
    ln_front = _ln_beta_front(a, b, x, y)
    if x < (a + 1.0) / (a + b + 2.0):
        return ln_front + math.log(_beta_cf(a, b, x, y) / a)
    return math.log1p(-math.exp(ln_front) * _beta_cf(b, a, y, x) / b)


def reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b); (a+b) x must be a normal float."""
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise DomainError(f"reg_inc_beta requires finite positive parameters, got ({a}, {b})")
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"reg_inc_beta requires x in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return float(x)
    return math.exp(_ln_inc_beta(a, b, x, 1.0 - x))


def _poisson_terms(z0: float, y, n: int) -> np.ndarray:
    """y^(z0+j) e^(-y) / Gamma(z0+j+1) for j < n (n >= 1, y > 0): the
    Poisson(y) pmf at z0+j, and the increments P(z, y) - P(z+1, y) of the
    incomplete gamma at z = z0+j.  For a 1-D array y the result is a matrix
    with one such row per element.

    In each row the term nearest the mode z = y comes from
    ``_ln_gamma_weight``, the others from cumulative products of the term
    ratios outward from it, so each carries one rounding per step away from
    the mode and none overflows (per-term lgamma, or summed log ratios, lose
    a digit or more at y in the thousands).  In the matrix the mode column
    differs by row: each product runs over the whole row, with ones on the
    side of the mode it does not cover, and the two are joined at the mode.
    """
    # z0+j, turned into the anchor term and the ratios outward from it:
    # t_j/t_(j-1) = y/(z0+j) above j0, t_j/t_(j+1) = (z0+j+1)/y below it
    out = np.arange(z0, z0 + n - 0.5)
    if isinstance(y, np.ndarray):
        j0 = np.minimum(np.maximum(np.rint(y - z0), 0.0), n - 1.0).astype(np.intp)
        rows, col, mode = np.arange(len(y)), np.arange(n), j0[:, None]
        anchor = [math.exp(_ln_gamma_weight(z0 + j + 1.0, v) - math.log(v))
                  for j, v in zip(j0.tolist(), y.tolist())]
        right = np.divide(y[:, None], out, where=col > mode, out=np.ones((len(y), n)))
        # the products toward the left end span the columns up to the last mode
        w = int(j0.max()) + 1
        left = np.divide(out[:w] + 1.0, y[:, None], where=col[:w] < mode,
                         out=np.ones((len(y), w)))
        right[rows, j0] = left[rows, j0] = anchor
        np.multiply.accumulate(right, axis=1, out=right)
        np.multiply.accumulate(left[:, ::-1], axis=1, out=left[:, ::-1])
        np.copyto(right[:, :w], left, where=col[:w] < mode)
        return right
    j0 = min(max(round(y - z0), 0), n - 1)
    out[j0 + 1:] = y / out[j0 + 1:]
    out[:j0] = out[1:j0 + 1] / y
    out[j0] = math.exp(_ln_gamma_weight(z0 + j0 + 1.0, y) - math.log(y))
    np.multiply.accumulate(out[j0:], out=out[j0:])
    np.multiply.accumulate(out[j0::-1], out=out[j0::-1])
    return out


def _ln_poisson_tail(lam: float, k: int, upper: bool) -> float:
    """ln of a bound, monotone in k, on P[Poisson(lam) >= k] (``upper``) or
    P[Poisson(lam) <= k]: the pmf at k over 1 - r, r the bound lam/(k+1) or
    k/lam on the pmf ratios beyond k; 0 where r >= 1."""
    if k < 0:
        return 0.0 if upper else -math.inf
    ratio = lam / (k + 1.0) if upper else k / lam
    if ratio >= 1.0:
        return 0.0
    return min(0.0, _ln_gamma_weight(k + 1.0, lam) - math.log(lam) - math.log1p(-ratio))


def _poisson_tail_index(lam: float, ln_tol: float) -> int:
    """Smallest k whose Bernstein bound on P[Poisson(lam) >= k],
    exp(-t^2 / (2 (lam + t/3))) with t = k - lam, is at most e^-ln_tol."""
    if lam == 0.0:
        return 1
    return math.ceil(lam + ln_tol / 3.0
                     + math.sqrt(ln_tol * ln_tol / 9.0 + 2.0 * ln_tol * lam))


def marcum_q(u: int, a: float, b: float) -> float:
    """Generalized Marcum-Q Q_u(a, b) for integer order u >= 1.

    Evaluated as the Poisson mixture Q_u(a,b) = sum_k e^(-x) x^k / k! *
    Q(u+k, y), x = a^2/2, y = b^2/2, or for b < a as its complement with
    P(u+k, y) for Q(u+k, y): one dot product over lo <= k < hi of Poisson
    weights and a run of incomplete gammas, both from ``_poisson_terms``.
    Each edge is the tightest at which a bound on the dropped mass is at most
    3/8 of ``_REL_TOL``, which bounds the absolute error with room for
    rounding.  Where the factor is large the bound is a Poisson(x) tail
    (``_ln_poisson_tail``); where it is small, the factor is a Poisson(y)
    tail monotone in k, Q(u+k, y) = P[Poisson(y) <= u+k-1] or P(u+k, y) =
    P[Poisson(y) >= u+k], and the bound is the product of the two tails.
    A window longer than ``_MAX_TERMS`` raises ConvergenceError; at
    b ~ a that happens from noncentrality a^2 of about 1.4e6 on.
    """
    if not 1 <= u < math.inf or int(u) != u:
        raise DomainError(f"marcum_q requires integer order u >= 1, got {u}")
    if not (0.0 <= a < math.inf and 0.0 <= b < math.inf):
        raise DomainError(f"marcum_q requires finite a, b >= 0, got a={a}, b={b}")
    x, y = 0.5 * a * a, 0.5 * b * b
    if y == 0.0:
        return 1.0
    if x == 0.0:
        return reg_upper_gamma(u, y)
    ln_target = math.log(0.375 * _REL_TOL)
    direct = y >= x

    def dropped_below(k):  # ln bound on the terms before k
        below = _ln_poisson_tail(x, k - 1, False)
        return below + _ln_poisson_tail(y, u + k - 2, False) if direct else below

    def dropped_from(k):  # ln bound on the terms from k on
        above = _ln_poisson_tail(x, k, True)
        return above if direct else above + _ln_poisson_tail(y, u + k, True)

    # Bernstein's bound alone certifies the right edge at the end of the range
    end = _poisson_tail_index(x, -ln_target)
    hi = bisect.bisect_left(range(end), -ln_target, key=lambda k: -dropped_from(k))
    lo = bisect.bisect_right(range(hi + 1), ln_target, key=dropped_below) - 1
    n = hi - lo
    if n > _MAX_TERMS:
        raise ConvergenceError(
            f"marcum_q needs {n} terms, more than {_MAX_TERMS}, "
            f"at u={u}, a={a}, b={b}")
    if n == 0:
        return 0.0 if direct else 1.0
    weights = _poisson_terms(lo, x, n)
    steps = _poisson_terms(u + lo, y, n)
    if direct:
        # Q(u+lo+j, y) = Q(u+lo, y) + sum_(i<j) steps_i
        factor = np.concatenate(([0.0], np.cumsum(steps[:-1]))) + reg_upper_gamma(u + lo, y)
        return min(1.0, max(0.0, float(weights @ factor)))
    # P(u+lo+j, y) = P(u+hi, y) + sum_(i>=j) steps_i
    factor = np.cumsum(steps[::-1])[::-1] + reg_lower_gamma(u + hi, y)
    return min(1.0, max(0.0, 1.0 - float(weights @ factor)))


_SCALE_BITS = 600
_SCALE_LIMIT = 2.0 ** _SCALE_BITS
_LN2 = math.log(2.0)
# The series sum to the last bit: a relative stop of 2^-53.
_SERIES_TOL = 2.0 ** -53


def _ratios(p0: float, p1, q0: float, j: np.ndarray) -> np.ndarray:
    """The z-free term ratios rho_j = t_(j+1) / (z t_j) of 1F1(p0; q0; z)
    (p1 None) or 2F1(p0, p1; q0; z) at the (float) indices j."""
    if p1 is None:
        return (p0 + j) / (j + 1.0) / (q0 + j)
    return (p0 + j) / (j + 1.0) * (p1 + j) / (q0 + j)


def _ratio_blocks(p0: float, p1, q0: float, start: int, stop: int) -> list:
    """The term ratios (``_ratios``) for the indices start <= j < stop
    (multiples of _BLOCK), as one list [rho_j, ..., rho_(j+4), bound] per
    block: |z| bound bounds every term ratio after the block's last term
    t_(j+5).  The bound takes 1/(l+1) at the next index l = j + 5 and each
    (l+p)/(l+q), monotone in l beyond its pole with limit 1, as the larger of
    1 and its value at l; it is inf while the pole l = -q0 lies ahead."""
    blocks = np.empty(((stop - start) // _BLOCK, _BLOCK + 1))
    blocks[:, :_BLOCK] = _ratios(p0, p1, q0, np.arange(float(start), float(stop))).reshape(
        -1, _BLOCK)
    l = np.arange(float(start + _BLOCK), float(stop + 1), float(_BLOCK))
    if p1 is None:  # the ratio is z (l+p0)/(l+q0) / (l+1)
        bound = np.maximum(np.abs((l + p0) / (l + q0)), 1.0) / (l + 1.0)
    else:  # z (l+p0)/(l+1) (l+p1)/(l+q0)
        bound = (np.maximum(np.abs((l + p0) / (l + 1.0)), 1.0)
                 * np.maximum(np.abs((l + p1) / (l + q0)), 1.0))
    bound[l + q0 <= 0.0] = math.inf
    blocks[:, _BLOCK] = bound
    return blocks.tolist()


@memo(_CACHED)
def _series_ratios(p0: float, p1, q0: float, k: int):
    """Chunk k of ``_ratio_blocks``, the indices from k _CHUNK to (k+1)
    _CHUNK, as a tuple of tuples."""
    return tuple(map(tuple, _ratio_blocks(p0, p1, q0, k * _CHUNK, (k + 1) * _CHUNK)))


@memo(_CACHED)
def _series_head(p0: float, p1, q0: float):
    """The term ratios rho_0 .. rho_(J-1) (``_ratios``) of the series' head
    t_0 .. t_J: at z > 0 a term ratio is negative only while a factor p0+j,
    p1+j or q0+j is, so the terms from t_J on share one sign, J =
    floor(max(-p0, -p1, -q0)) + 1 (at most _MAX_TERMS).  Empty where every
    parameter is positive, so that such a series checks nothing."""
    lead = max(-p0, -q0) if p1 is None else max(-p0, -p1, -q0)
    heads = min(_MAX_TERMS, max(0, math.floor(lead) + 1))
    return tuple(_ratios(p0, p1, q0, np.arange(float(heads))).tolist())


def _head_cancels(head, z: float, s: float, bits: int) -> bool:
    """Whether the sum s 2^bits of a series whose head has the ratios
    ``head`` (``_series_head``) may be off by more than _REL_TOL.  The terms
    after the head share one sign, so sum |t| is the head's plus |sum t -
    head|; each head term carries up to about J + 1 rounding errors, so the
    sum is good to about (J + 1) eps sum |t|."""
    term = total = size = 1.0
    for rho in head:
        term *= z * rho
        total += term
        size += abs(term)
    size = math.ldexp(size, -bits) + abs(s - math.ldexp(total, -bits))
    return not (len(head) + 1) * sys.float_info.epsilon * size <= _REL_TOL * abs(s)


def _series_phq(p0: float, p1, q0: float, z: float, what: str):
    """The power series 1F1(p0; q0; z) (p1 None) or 2F1(p0, p1; q0; z), z > 0,
    as (s, bits), the sum being s 2^bits.

    The terms are taken _BLOCK at a time, and the stop rule is applied at
    the end of each block: the sum stops once the block's last three terms t
    are at most _SERIES_TOL (2^-53) of it and |t| R / (1 - R) also is at the
    last, which bounds the dropped tail, or at a last t = 0, after which
    every term is 0; R = |z| bound from ``_ratio_blocks``.  Where R <= 1/2
    the small terms imply the bound.  The term and the sum are scaled by
    2^-_SCALE_BITS (exactly) whenever a block's last term passes
    2^_SCALE_BITS, so neither overflows.  Where a parameter is negative,
    the first terms may cancel, and a sum they leave off by more than
    _REL_TOL (``_head_cancels``) raises ConvergenceError.
    """
    head = _series_head(p0, p1, q0)
    term = total = 1.0
    scale = 0
    az = abs(z)
    for k in range(_MAX_TERMS // _CHUNK):
        for r0, r1, r2, r3, r4, r in _series_ratios(p0, p1, q0, k):
            t1 = term * (z * r0)
            t2 = t1 * (z * r1)
            t3 = t2 * (z * r2)
            t4 = t3 * (z * r3)
            term = t4 * (z * r4)
            total += t1 + t2 + t3 + t4 + term
            if term > _SCALE_LIMIT or term < -_SCALE_LIMIT:
                term = math.ldexp(term, -_SCALE_BITS)
                total = math.ldexp(total, -_SCALE_BITS)
                scale += _SCALE_BITS
                continue  # terms this large are no stop
            bound = _SERIES_TOL * total
            if bound < 0.0:
                bound = -bound
            if -bound <= term <= bound and -bound <= t4 <= bound and -bound <= t3 <= bound:
                r *= az
                if term == 0.0 or r < 1.0 and abs(term) * r <= bound * (1.0 - r):
                    if head and _head_cancels(head, z, total, scale):
                        raise ConvergenceError(
                            f"{what} series cancels beyond its tolerance at z={z}")
                    return total, scale
    raise ConvergenceError(f"{what} series exceeded {_MAX_TERMS} terms")


def _to_float(s: float, ln_front: float, bits: int, what: str, z: float) -> float:
    """s 2^bits e^ln_front as a float.  The parts meet in log space only
    where e^ln_front underflows; a value beyond the float range raises
    ConvergenceError."""
    try:
        front = math.exp(ln_front)
        if front >= sys.float_info.min or s == 0.0:
            value = math.ldexp(front * s, bits)
        else:
            value = math.copysign(
                math.exp(ln_front + math.log(abs(s)) + bits * _LN2), s)
    except OverflowError:
        value = math.inf
    if math.isinf(value):
        raise ConvergenceError(f"{what} exceeds the float range at z={z}")
    return value


def kummer_1f1(a: float, b: float, z: float) -> float:
    """Confluent hypergeometric 1F1(a; b; z).

    Direct power series for z >= 0; for z < 0 the Kummer transformation
    1F1(a;b;z) = e^z 1F1(b-a; b; -z) avoids the alternating-series
    cancellation.  A value beyond the float range, a series longer than
    10,000 terms (from |z| of about 9,400 on), or one whose first terms
    cancel beyond 1e-12 (where b or b-a is negative), raises
    ConvergenceError; a non-finite argument raises DomainError.
    """
    if not all(map(math.isfinite, (a, b, z))):
        raise DomainError(f"kummer_1f1 requires finite arguments, got a={a}, b={b}, z={z}")
    if b <= 0.0 and b == round(b):
        raise DomainError(f"kummer_1f1 undefined for nonpositive integer b={b}")
    if z == 0.0:
        return 1.0
    if z < 0.0:
        s, bits = _series_phq(b - a, None, b, -z, "kummer_1f1")
        return _to_float(s, z, bits, "kummer_1f1", z)
    s, bits = _series_phq(a, None, b, z, "kummer_1f1")
    return _to_float(s, 0.0, bits, "kummer_1f1", z)


def _gamma_sign_ln(x: float):
    """(sign, ln|Gamma(x)|) for real non-pole x; None at a pole.  Below 0 it
    is the reflection formula, with sin(pi x) taken as (-1)^k sin(pi (x-k)),
    k = round(x), whose argument is exact: pi x rounded would cost about
    |x| 1e-16 / |sin(pi x)| near a pole."""
    if x > 0.0:
        return 1.0, math.lgamma(x)
    k = round(x)
    if x == k:
        return None
    s = math.sin(math.pi * (x - k))
    if k % 2:
        s = -s
    ln = math.log(math.pi) - math.log(abs(s)) - math.lgamma(1.0 - x)
    return (1.0 if s > 0 else -1.0), ln


# The 1-z series' error against mpmath 1.3.0 (mp.dps = 40) stayed below
# 8.4e-16 times its cancellation ratio, its terms' rounding size over the
# value (``_one_minus_z_2f1``), on about 3,300 random cells (a, b in [-30,
# 30], c in [-15, 40], z in (-3, 1), after the Pfaff step) and below 3.5e-16
# times it on the benchmark's Fisher rate shapes; besides that, e^ln_scale
# carries up to about 7e-14 where its exponent is in the hundreds.  It is
# used only while the ratio is at most 500, which keeps it within about
# 4.2e-13.  The worst eff_rate_f on the benchmark's 4,812 Fisher rate cells
# is then 1.5e-13 off.
_MAX_CANCELLATION = 500.0


def _ln_gamma_quotient(x: float, eps: float):
    """(sign, g): the sign of Gamma(x+eps) / Gamma(x) and g = (ln|Gamma(x+eps)|
    - ln|Gamma(x)|) / eps, psi(x) at eps = 0; None where x or x+eps is a
    pole.

    Below x = 10 it shifts x up one step at a time, each step taking off
    ln|1 + eps/x| / eps (log1p(u)/u / x, u = eps/x, unless a pole lies
    between x and x+eps); from there on it is the difference quotient of
    Stirling's formula, (x - 1/2) log1p(u)/eps + ln(x+eps) - 1 plus that of
    Binet's series (``_binet``), each power x^-m as x^-(m+1) expm1(-m
    log1p(u)) / u, so that no 1/eps is left to cancel."""
    sign, g = 1.0, 0.0
    while x < 10.0:
        if x == 0.0 or x + eps == 0.0:
            return None
        u = eps / x
        if u > -1.0:
            g -= _log1p_quotient(u) / x
        else:
            sign, g = -sign, g - math.log(-1.0 - u) / eps
        x += 1.0
    u = eps / x
    ln1p = math.log1p(u)
    g += (x - 0.5) * _log1p_quotient(u) / x + math.log(x + eps) - 1.0
    inv = 1.0 / x
    power = inv * inv
    for m, coef in _BINET_TERMS:
        g += coef * power * (math.expm1(-m * ln1p) / u if u else -m)
        power *= inv * inv
    return sign, g


def _ln_gamma_diff(x: float, y: float, direct: float) -> float:
    """ln Gamma(x) - ln Gamma(y): (x - y) times the quotient of
    ``_ln_gamma_quotient`` from the smaller up, which holds it where the two
    are large and close; ``direct`` where either is not positive."""
    lo, hi = min(x, y), max(x, y)
    return (x - y) * _ln_gamma_quotient(lo, hi - lo)[1] if lo > 0.0 else direct


def _log1p_quotient(u: float) -> float:
    """log1p(u) / u, 1 at u = 0."""
    return math.log1p(u) / u if u else 1.0


def _one_minus_z_start(a: float, b: float, n: int, eps: float):
    """(E_0, B_0) of ``_one_minus_z_chunk`` times Gamma(n+1+eps), for a+n
    and b+n clear of the Gamma function's poles.

    B_0 = -Gamma(1+eps) Gamma(1-eps) / Gamma(n+1+eps) and E_0 = -B_0 (r - 1)
    / eps, r = Gamma(n+1+eps) Gamma(a+n) Gamma(b+n) / (Gamma(1-eps) n!
    Gamma(a+n+eps) Gamma(b+n+eps)) = +-e^lam, lam / eps = g(n+1, eps) +
    g(1, -eps) - g(a+n, eps) - g(b+n, eps) (``_ln_gamma_quotient``): where
    r > 0, E_0 = -B_0 expm1(lam) / eps, with no 1/eps to cancel, and where
    a+n+eps or b+n+eps is a pole, r = 0.  The factor Gamma(n+1+eps), which
    keeps them in range at large n, goes into K (``_setup_2f1``)."""
    b0 = -math.exp(math.lgamma(1.0 + eps) + math.lgamma(1.0 - eps))
    quotients = (_ln_gamma_quotient(a + n, eps), _ln_gamma_quotient(b + n, eps))
    if None in quotients:  # a+n+eps or b+n+eps is a pole: r = 0
        return b0 / eps, b0
    (sign_a, g_a), (sign_b, g_b) = quotients
    slope = _ln_gamma_quotient(n + 1.0, eps)[1] + _ln_gamma_quotient(1.0, -eps)[1] - g_a - g_b
    lam = eps * slope
    if sign_a == sign_b:
        return -b0 * slope * (math.expm1(lam) / lam if lam else 1.0), b0
    return b0 * (math.exp(lam) + 1.0) / eps, b0


@memo(_CACHED)
def _one_minus_z_chunk(a: float, b: float, n: int, eps: float, k: int) -> tuple:
    """Chunk k (the indices from k _CHUNK to (k+1) _CHUNK) of the 1-z
    series' coefficients (``_one_minus_z_2f1``), one block of _BLOCK indices
    j .. j+4 per entry: (E_j .. E_(j+4), B_j .. B_(j+4), |E|'s .., |B|'s ..,
    r, D).

    B_(j+1) = rho_b B_j and E_(j+1) = rho_a E_j + B_j (rho_b - rho_a) / eps,
    with rho_a = (a+n+j) (b+n+j) / ((n+j+1) (j+1-eps)) and rho_b =
    (a+n+eps+j) (b+n+eps+j) / ((j+1) (n+1+eps+j)); (rho_b - rho_a) / eps is
    taken in a form free of 1/eps.  |E|_j and |B|_j bound the sizes that
    each coefficient's rounding scales with: |B|_(j+1) = |rho_b| |B|_j +
    |B_(j+1)|, about (j+1) |B_j|, and |E|_(j+1) = |rho_a| |E|_j +
    |rho_a E_j| + |B_j (rho_b - rho_a) / eps|, which also counts what
    cancels between the two parts of E.  For every i from the block's last
    index l on, r bounds |rho_a| and |rho_b| and D bounds |(rho_b - rho_a) /
    eps|: each factor (i+p)/(i+q) has q > -1 and is bounded by the larger of
    1 and its value at l, and each reciprocal falls.
    """
    # where a+n+eps or b+n+eps is a pole, E_j = B_j / eps exactly, which
    # the recurrence would give only up to its rounding
    only_b = any(x <= 0.0 and x == round(x) for x in (a + n + eps, b + n + eps))

    def step(j, *row):
        e, bj, size_e, size_b = _one_minus_z_step(a, b, n, eps, j, *row)
        return (bj / eps, bj, size_b / abs(eps), size_b) if only_b else (e, bj, size_e, size_b)

    if k == 0:
        e, bj = _one_minus_z_start(a, b, n, eps)
        row = (e, bj, abs(e), abs(bj))
    else:
        last = _one_minus_z_chunk(a, b, n, eps, k - 1)[-1]
        row = step(k * _CHUNK - 1.0, *last[_BLOCK - 1:4 * _BLOCK:_BLOCK])
    rows = []
    for j in range(k * _CHUNK, (k + 1) * _CHUNK):
        rows.append(row)
        row = step(float(j), *row)
    blocks = []
    for i in range(0, _CHUNK, _BLOCK):
        l = k * _CHUNK + i + _BLOCK - 1.0
        big, bn, nl = l + 1.0, b + n + l, n + l + 1.0
        r = max(max(1.0, abs((a + n + l) / nl)) * max(1.0, abs(bn / (big - eps))),
                max(1.0, abs((a + n + eps + l) / big)) * max(1.0, abs((bn + eps) / (nl + eps))))
        d = ((max(1.0, abs((a + n + l) / big)) * abs(1.0 - b - n)
              + max(1.0, abs(bn / nl)) * abs(1.0 - a)
              + abs(eps) * max(1.0, abs((1.0 - a - b - 2.0 * n - l) / big)) + eps * eps / big)
             / ((nl + eps) * (big - eps)))
        blocks.append((*(x for column in zip(*rows[i:i + _BLOCK]) for x in column), r, d))
    return tuple(blocks)


def _one_minus_z_step(a: float, b: float, n: int, eps: float, j: float, e: float, bj: float,
                      size_e: float, size_b: float) -> tuple:
    """(E, B, |E|, |B|) at index j+1 from those at j (``_one_minus_z_chunk``)."""
    big, nj = j + 1.0, n + j + 1.0
    aj, bq = a + n + j, b + n + j
    num = (aj * nj * (1.0 - b - n) + bq * big * (1.0 - a)
           + eps * nj * (1.0 - a - b - 2.0 * n - j) - eps * eps * nj)
    step = bj * num / (big * nj * (nj + eps) * (big - eps))
    rho_a = aj * bq / (nj * (big - eps))
    rho_b = (aj + eps) * (bq + eps) / (big * (nj + eps))
    grow = rho_a * e
    bj *= rho_b
    return (grow + step, bj, abs(rho_a) * size_e + abs(grow) + abs(step),
            abs(rho_b) * size_b + abs(bj))


@memo(_CACHED)
def _setup_2f1(a: float, b: float, c: float):
    """What 2F1(a, b; c; z) needs on (1/2, 1) that does not depend on z, as
    (series, euler).

    ``series`` is the 1-z series' set-up (a, b, n, eps, shift, ln_scale,
    factor, alphas, reach) for ``_one_minus_z_2f1``, or None where it cannot
    be set up.  Where d = c-a-b < -1/2, Euler's transformation 2F1(a, b; c;
    z) = w^d 2F1(c-a, c-b; c; z) is taken first (shift = d); then d = n +
    eps with n = round(d) >= 0 and |eps| <= 1/2.  K = (-1)^n Gamma(c) /
    (Gamma(a) Gamma(b)) and alpha_k = Gamma(c) Gamma(d) (a)_k (b)_k /
    (Gamma(c-a) Gamma(c-b) (1-d)_k k!), k < n, are kept as factor = K
    e^-ln_scale / Gamma(n+1+eps) (``_one_minus_z_start``) and alphas, each
    alpha_k e^-ln_scale, with ln_scale the larger of the two logs.  A pole
    of Gamma(c-a) or Gamma(c-b) makes every alpha_k 0; one of Gamma(a) or
    Gamma(b) makes K 0 and the value a polynomial in w of degree N = -a (or
    -b), so that alphas runs to k = N (None where its (1-d)_k meets 0).
    The series is also None where alphas would be longer than _MAX_TERMS,
    as every series is capped, or where a+n or b+n lies below -_MAX_TERMS,
    from which ``_ln_gamma_quotient`` would shift up one step at a time.
    reach is the largest w at which the series is tried
    (``_one_minus_z_reach``; 1 where no Euler integral could take over).
    ``euler`` is (p, q, ln of Gamma(c) / (Gamma(q) Gamma(c-q))) for the
    Euler integral, or None where neither ordering (p, q) of (a, b) has
    c > q > 0.  With s the smaller of q and c-q and x the other, that log is
    s g(x, s) - ln Gamma(s) (``_ln_gamma_quotient``): three lgamma values
    near c ln c would leave it about 1e-16 c ln c off.
    """
    # Of the orderings (p, q) of (a, b) with c > q > 0, take one with q and
    # c - q at least 1 where there is one, which keeps the endpoint powers
    # t^(q-1) and (1-t)^(c-q-1) bounded, and among those the larger q: the
    # gentler power where the mass gathers as z -> 1 lets the rule settle at
    # fewer levels.
    orderings = [(p, q) for p, q in ((a, b), (b, a)) if 0.0 < q < c]
    euler = None
    if orderings:
        p, q = max(orderings, key=lambda pq: (min(pq[1], c - pq[1], 1.0), pq[1]))
        small, big = sorted((q, c - q))
        euler = (p, q, small * _ln_gamma_quotient(big, small)[1] - math.lgamma(small))
    shift = 0.0
    if c - a - b < -0.5:
        a, b, shift = c - a, c - b, c - a - b
    d = c - a - b
    n = round(d)
    eps = d - n
    g_c, g_a, g_b, g_ca, g_cb = (_gamma_sign_ln(x) for x in (c, a, b, c - a, c - b))
    count, ln_k, ln_alpha = n, -math.inf, -math.inf
    if g_a is None or g_b is None:
        # K = 0: a polynomial in w of degree N, the first term of DLMF 15.8.4
        count = round(-max(x for x, g in ((a, g_a), (b, g_b)) if g is None)) + 1
        if eps == 0.0 and 1 <= n < count:
            return None, euler  # its (1-d)_k meets 0
    elif min(a, b) + n < -_MAX_TERMS:
        return None, euler
    else:
        ln_k = (_ln_gamma_diff(c, n + 1.0 + eps, g_c[1] - math.lgamma(n + 1.0 + eps))
                - g_a[1] - g_b[1])
    if count > _MAX_TERMS:
        return None, euler
    g_d = _gamma_sign_ln(d) if count else None
    if g_ca is not None and g_cb is not None and g_d is not None:
        ln_alpha = (_ln_gamma_diff(c, c - a, g_c[1] - g_ca[1])
                    - _ln_gamma_diff(c - b, d, g_cb[1] - g_d[1]))
    ln_scale = max(ln_k, ln_alpha)
    if ln_scale == -math.inf:
        return None, euler
    factor = 0.0
    if ln_k > -math.inf:
        factor = (-1.0 if n % 2 else 1.0) * g_c[0] * g_a[0] * g_b[0] * math.exp(ln_k - ln_scale)
    alphas = [0.0] * count
    if ln_alpha > -math.inf:
        alphas[0] = g_c[0] * g_d[0] * g_ca[0] * g_cb[0] * math.exp(ln_alpha - ln_scale)
        for j in range(1, count):
            alphas[j] = alphas[j - 1] * (a + j - 1.0) * (b + j - 1.0) / ((j - d) * j)
    series = (a, b, n, eps, shift, ln_scale, factor, tuple(alphas))
    return series + (_one_minus_z_reach(series) if euler else 1.0,), euler


def _euler_base(a: float, b: float, c: float, nodes) -> np.ndarray:
    """The z-free part of the Euler integrand's log on one node table:
    (b-1) ln t + (c-b-1-a) ln(1-t) + ln w, taken as b ln t + (c-b-a) ln(1-t)
    + (ln w - ln t - ln(1-t)) from the table."""
    base = b * nodes.ln_t
    base += (c - b - a) * nodes.ln_omt
    base += nodes.ln_w_logit
    return base


@memo(_CACHED)
def _euler_base0(a: float, b: float, c: float, lo: int, hi: int) -> np.ndarray:
    """``_euler_base`` on block 0 cut to its reach (``_ts_trim(0, lo, hi)``;
    all 385 nodes at lo = hi = 24), read-only: the block that every Euler
    integral evaluates.  Deeper blocks are built per call."""
    base = _euler_base(a, b, c, _ts_trim(0, lo, hi))
    base.flags.writeable = False
    return base


# The Euler integral's reach leaves out at most e^-_EULER_TRIM (4e-18) of a
# lower bound on the integral on each side.
_EULER_TRIM = 40.0


@memo(_CACHED)
def _euler_bounds(a: float, b: float, c: float) -> tuple:
    """The w-free constants of ``_euler_reach``: (k0, k1, k2) with ln g(u*)
    = k0 - k1 log1p(k2 w) at the point u* taken there, ln(1/L+ + 1/L-),
    max(0, -d) ln 2, and for each side ln r and 1/r of its rate r (left
    r = b, right r = e)."""
    d, e = c - a - b, c - b
    if d < 0.0:  # w e^u* = -d/e, and e^-u* = k2 w
        k0, k1, k2 = -d * math.log(-d / e) - a * math.log(a / e), b + d, e / -d
    elif d > 0.0:  # t* = b/(b+d), and w e^u* = k2 w
        k0, k1, k2 = b * math.log(b / (b + d)) + d * math.log(d / (b + d)), a, b / d
    else:  # u* = 0
        k0, k1, k2 = -b * _LN2, a, 1.0
    slopes = 1.0 / (b + max(0.0, -d) + max(0.0, -a)) + 1.0 / (max(0.0, d) + max(0.0, a))
    return (k0, k1, k2, math.log(slopes), max(0.0, -d) * _LN2,
            math.log(b), 1.0 / b, math.log(e), 1.0 / e)


def _euler_reach(a: float, b: float, c: float, w: float, ln_w: float, shift: float) -> tuple:
    """The reach (left, right, dropped) of the Euler integrand for
    ``tanhsinh_01``.  In u = ln(t/(1-t)) its log-density is ln g = b ln t +
    d ln(1-t) - a ln(1 + w e^u) - shift, d = c-a-b, e = c-b.  As ln t <=
    min(u, 0), ln(1-t) lies in [-max(u, 0) - ln 2, -max(u, 0)] and
    ln(1 + w e^u) in [max(0, u + ln w), ln(1 + w) + max(u, 0)]:
    - left of u = 0, ln g <= C_L + b u, C_L = max(0, -d) ln 2
      + max(0, -a) ln(1 + w) - shift;
    - right of it, ln g <= C_R - e u, C_R = max(0, -d) ln 2 - a ln w - shift
      (- a ln 2 in place of - a ln w for a < 0).
    On a side with rate r and reach U >= 1/r the nodes beyond U add at most
    the integral of pi cosh x e^(C - r pi sinh x) beyond it, e^(C - r U) / r,
    as that summand falls from U on.  The integral is at least e^ln_size =
    g(u*) (1/L+ + 1/L-) at any u*, since d ln g/du = b(1-t) - d t - a w e^u
    / (1 + w e^u) lies in [-L-, L+], L+ = b + max(0, -d) + max(0, -a), L- =
    max(0, d) + max(0, a) (``_euler_bounds``).  u* is where the factors other
    than t^b peak, at w e^u = -d/e, where d < 0, else the peak of t^b
    (1-t)^d, or 0 at d = 0.  Each reach is where e^(C - r U) / r falls to
    e^-_EULER_TRIM of e^ln_size, so dropped = 2 e^(ln_size - _EULER_TRIM)."""
    k0, k1, k2, slopes, rise, ln_rl, inv_rl, ln_rr, inv_rr = _euler_bounds(a, b, c)
    target = k0 - k1 * math.log1p(k2 * w) + slopes - _EULER_TRIM
    rise -= shift
    ln_left = rise - a * math.log1p(w) if a < 0.0 else rise
    ln_right = rise - a * (ln_w if a >= 0.0 else _LN2)
    return (max((ln_left - target - ln_rl) * inv_rl, inv_rl),
            max((ln_right - target - ln_rr) * inv_rr, inv_rr),
            2.0 * math.exp(target) if target < 700.0 else math.inf)


def _euler_2f1(a: float, b: float, c: float, w: float, ln_front: float):
    """Euler integral for 2F1(a, b; c; 1-w) when c > b > 0, as (s, ln_scale),
    value s e^ln_scale: e^ln_front times the integral over (0, 1) of
    t^(b-1) (1-t)^(c-b-1) (1-t+tw)^-a, robust for 0.5 < 1-w < 1.

    As 1-t+tw = (1-t)(1 + w t/(1-t)), the integrand's log is -a log1p(w t/(1-t))
    plus a z-free part (``_euler_base``), cached per (a, b, c) and reach for
    block 0.  The integrand is scaled by w^-min(0, c-a-b), which keeps the
    integral of order one as w -> 0.  The rule takes a reach
    (``_euler_reach``): in u = ln(t/(1-t)) the log-density lies below b u +
    C_L left of u = 0 and below -(c-b) u + C_R right of it, C_R holding
    -a ln w, and the integral above g(u*) (1/L+ + 1/L-), so ``tanhsinh_01``
    sums only the nodes where those bounds leave more than e^-40 of the
    integral's lower bound outside, checks its bound on the dropped nodes
    against 1e-13 of the sum, and sums again on the full table where that
    check fails.  For
    a > 0 the factor (1-t+tw)^-a gathers mass at 1-t of about w; where the
    part of it nearer t = 1 than the rule's nodes, about (e^-_TS_REACH /
    w)^(c-b), could pass e^-30 (1e-13), the rule cannot reach it:
    ConvergenceError.
    """
    ln_w = math.log(w)
    if a > 0.0 and (c - b) * (_TS_REACH + ln_w) < 30.0:
        raise ConvergenceError(f"gauss_2f1 Euler integral out of the rule's reach at 1-z={w}")
    shift = min(0.0, c - a - b) * ln_w

    def integrand(block, lo=_TS_QUARTERS, hi=_TS_QUARTERS):
        nodes = _ts_trim(block, lo, hi)
        x = nodes.odds * w
        np.log1p(x, out=x)
        x *= -a
        x += _euler_base0(a, b, c, lo, hi) if block == 0 else _euler_base(a, b, c, nodes)
        x -= shift
        return np.exp(x, out=x)

    return (tanhsinh_01(integrand, 1e-13, _euler_reach(a, b, c, w, ln_w, shift)),
            ln_front + shift)


def _one_minus_z_reach(series) -> float:
    """The largest w to which ``_one_minus_z_2f1`` is tried: 1 where it
    takes w = 1/2; otherwise where a bisection in 7 steps over (0, 1/2)
    finds its cancellation first beyond _MAX_CANCELLATION, which grows with
    w (at the Fisher rate's shapes from a few at w = 0.01 to thousands at
    w = 1/2).  A point beyond the reach goes straight to the Euler integral,
    without paying for the series first."""
    series += (1.0,)
    if _one_minus_z_2f1(series, 0.5) is not None:
        return 1.0
    lo, hi = 0.0, 0.5
    for _ in range(7):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _one_minus_z_2f1(series, mid) is not None else (lo, mid)
    return lo


def _one_minus_z_2f1(series, w: float):
    """2F1(a, b; c; 1-w) from the 1-z series' set-up ``series``
    (``_setup_2f1``), as (s, ln_scale), the value being s e^ln_scale; None
    where w lies beyond the set-up's reach, the series does not settle, or
    the size of its terms' rounding is more than _MAX_CANCELLATION times
    the value.

    The value is w^shift (sum_(k<n) alpha_k w^k + K w^n sum_j (E_j + L B_j)
    w^j), L = (w^eps - 1)/eps = ln w expm1(eps ln w)/(eps ln w), ln w at
    eps = 0: DLMF 15.8.4, with the poles at integer c-a-b taken out
    analytically (Michel and Stoitsov, Comput. Phys. Commun. 178 (2008)
    535).  E_j and B_j come from cached chunks (``_one_minus_z_chunk``), and
    one loop sums E_j w^j and B_j w^j a block at a time, and beside them
    |E|_j w^j and |B|_j w^j, the sizes their rounding scales with; size is
    sum (k+1) |alpha_k| w^k + |K| w^n sum_j (|E|_j + |L| |B|_j) w^j.  It
    stops once the bound on the rest, (|e| + |L b|) q/(1-q) + D w
    |b|/(1-q)^2 with e, b the block's last terms and q = r w < 1, is at most
    2^-53 of size, and gives up where size leaves the float range.
    """
    a, b, n, eps, shift, ln_scale, factor, alphas, reach = series
    if w > reach:
        return None
    ln_w = math.log(w)
    x = eps * ln_w
    el = ln_w * (math.expm1(x) / x if x else 1.0)
    al = abs(el)
    head = head_size = 0.0
    p = 1.0
    for i, alpha in enumerate(alphas, 1):
        t = alpha * p
        head += t
        head_size += i * abs(t)
        p *= w
    kwn = factor * p
    total, size = head, head_size  # where kwn is 0: a polynomial in w
    if kwn:
        akwn = abs(kwn)
        se = sb = size_e = size_b = 0.0
        p = 1.0
        for chunk in range(_MAX_TERMS // _CHUNK):
            for (e0, e1, e2, e3, e4, b0, b1, b2, b3, b4, f0, f1, f2, f3, f4,
                 g0, g1, g2, g3, g4, r, d) in _one_minus_z_chunk(a, b, n, eps, chunk):
                p1 = p * w
                p2 = p1 * w
                p3 = p2 * w
                p4 = p3 * w
                se += e0 * p + e1 * p1 + e2 * p2 + e3 * p3 + e4 * p4
                sb += b0 * p + b1 * p1 + b2 * p2 + b3 * p3 + b4 * p4
                size_e += f0 * p + f1 * p1 + f2 * p2 + f3 * p3 + f4 * p4
                size_b += g0 * p + g1 * p1 + g2 * p2 + g3 * p3 + g4 * p4
                p = p4 * w
                q = r * w
                if q < 1.0:
                    tb = abs(b4 * p4)
                    tail = ((abs(e4 * p4) + al * tb) * q / (1.0 - q)
                            + d * w * tb / ((1.0 - q) * (1.0 - q)))
                    size = head_size + akwn * (size_e + al * size_b)
                    if akwn * tail <= _SERIES_TOL * size:
                        total = head + kwn * (se + el * sb)
                        break
                    if not size < math.inf:
                        return None
            else:
                continue
            break
        else:
            return None
    if not (total and size <= _MAX_CANCELLATION * abs(total)):
        return None
    return total, ln_scale + shift * ln_w


def _gauss_2f1(a: float, b: float, c: float, z: float, w: float):
    """2F1(a, b; c; z) for z < 1 as (s, ln_scale), the value being
    s e^ln_scale, with w = 1 - z given exactly by the caller.

    Every route that needs 1 - z takes w, never 1 - z rounded: the Pfaff step
    maps z < 0 to z/(z-1), whose complement is 1/w, and the 1-z series and
    the Euler integral work in w.  The Pfaff step is taken in place, its
    front w^-a (or w^-b) added to the log scale that the route for z/(z-1)
    returns.  On (1/2, 1) the 1-z series (``_one_minus_z_2f1``) comes first;
    where it declines, the Euler integral, or where that does not apply the
    direct series.  The routes' z-free set-up comes from ``_setup_2f1``.
    Arguments are not checked.
    """
    ln_front = 0.0
    if z < 0.0:
        # Pfaff: w^-a 2F1(a, c-b; c; z/(z-1)), or the same with a and b swapped
        if abs(a) <= abs(b):
            ln_front, b = -a * math.log(w), c - b
        else:
            ln_front, a = -b * math.log(w), c - a
        z, w = -z / w, 1.0 / w
    if z <= 0.5:
        s, bits = _series_phq(a, b, c, z, "gauss_2f1")
        return s, bits * _LN2 + ln_front
    series, euler = _setup_2f1(a, b, c)
    if series is not None:
        found = _one_minus_z_2f1(series, w)
        if found is not None:
            return found[0], found[1] + ln_front
    if euler is not None:
        p, q, ln_euler = euler
        s, ln_scale = _euler_2f1(p, q, c, w, ln_euler)
        return s, ln_scale + ln_front
    s, bits = _series_phq(a, b, c, z, "gauss_2f1")
    return s, bits * _LN2 + ln_front


def gauss_2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric 2F1(a, b; c; z) for real z < 1.

    Direct series for z in [0, 0.5]; for z in (0.5, 1) the z -> 1-z
    transformation as one series in 1-z, with the poles at integer c-a-b
    taken out analytically, so that it holds at every c-a-b (where a, b, c-a
    or c-b is a pole of Gamma, a part of it vanishes); where its terms
    cancel beyond a factor 500 (about 4e-13), or it would take more than
    _MAX_TERMS terms, the Euler integral (or, where that does not apply, the
    direct series).  Every series raises
    ConvergenceError where its first terms cancel beyond 1e-12, which only a
    negative parameter allows.  The Pfaff transformation maps z < 0 into
    [0, 1), handing on 1/(1-z) as the new argument's complement, so that
    z/(z-1) rounding to 1 loses nothing.  A non-finite argument raises
    DomainError; a value beyond the float range, or an Euler integral whose
    mass lies nearer t = 1 than the rule's nodes (1-z below about 1e-262 at
    c-b = 1, after the Pfaff step), raises ConvergenceError.
    """
    if not all(map(math.isfinite, (a, b, c, z))):
        raise DomainError(
            f"gauss_2f1 requires finite arguments, got a={a}, b={b}, c={c}, z={z}")
    if c <= 0.0 and c == round(c):
        raise DomainError(f"gauss_2f1 undefined for nonpositive integer c={c}")
    if z >= 1.0:
        raise DomainError(f"gauss_2f1 requires z < 1, got {z}")
    if z == 0.0:
        return 1.0
    s, ln_scale = _gauss_2f1(a, b, c, z, 1.0 - z)
    return _to_float(s, ln_scale, 0, "gauss_2f1", z)


def ln_tricomi_u(a: float, b: float, z: float) -> float:
    """ln U(a; b; z) for finite a > 0, b, z > 0 via the Laplace-type integral.

    U(a;b;z) = (1/Gamma(a)) * integral over t > 0 of e^(-zt) t^(a-1)
    (1+t)^(b-a-1), on ``ln_peak_integral`` in s = ln t about the peak, the
    root t > 0 of z t^2 + (z - b + 1) t - a; in log space it stays finite
    where U underflows (very large a).  Near t = 0 the integrand falls only
    as t^a, too slowly for the rule below a = 0.05: ConvergenceError.
    """
    if not (0.0 < a < math.inf and 0.0 < z < math.inf and math.isfinite(b)):
        raise DomainError(f"tricomi_u requires finite a > 0, b, z > 0, got a={a}, b={b}, z={z}")
    if a < 0.05:
        raise ConvergenceError(f"tricomi_u integrand decays too slowly at a={a} < 0.05")
    cba = b - a - 1.0

    def h(s):
        return -z * np.exp(s) + a * s + cba * np.logaddexp(0.0, s)

    coeff = z - b + 1.0
    root = math.hypot(coeff, 2.0 * math.sqrt(z * a))
    t_star = 2.0 * a / (coeff + root) if coeff > 0.0 else (root - coeff) / (2.0 * z)
    return ln_peak_integral(h, math.log(t_star)) - math.lgamma(a)


def tricomi_u(a: float, b: float, z: float) -> float:
    """Tricomi confluent hypergeometric U(a; b; z), a > 0, z > 0.

    Relative error target 1e-10.
    """
    return math.exp(ln_tricomi_u(a, b, z))


# The Erlang moments' seeds (``_erlang_sums``): the exponential integral's
# series below x = _SERIES_BELOW (binomial below _BINOMIAL_BELOW, to A =
# _MAX_SEED), else a continued fraction, whose coefficients are kept for the
# _CF_CACHED latest (b, k).  No sum is taken past a + k = _MAX_ERLANG, where
# a call takes about 1 ms and a table holds about 4,700 pairs.
_SERIES_BELOW = 1.0
_BINOMIAL_BELOW = 0.25
_MAX_SEED = 16
_MAX_ERLANG = 1024
_CF_CACHED = 32


@memo(_CACHED)
def _exp_int_setup(p: float) -> tuple:
    """``_exp_int``'s (n, eps, c, terms): n = round(p), eps = p - n, c = Gamma(1-p)
    (n = 0) or (ln Gamma(1+eps) - ln Gamma(1-eps) - ln Gamma(n+eps) + ln
    Gamma(n)) / eps (``_ln_gamma_quotient``), and (-1)^j / (j! (j+1-p)) with
    its magnitude for j from 19 down."""
    n, eps = round(p), p - round(p)
    terms = [(0.0, 0.0) if j == n - 1 else ((-1) ** j / (math.factorial(j) * (j + 1.0 - p)),
                                             1.0 / (math.factorial(j) * abs(j + 1.0 - p)))
             for j in range(20)]
    c = math.gamma(1.0 - p) if n == 0 else (
        _ln_gamma_quotient(1.0, eps)[1] - _ln_gamma_quotient(1.0, -eps)[1]
        - _ln_gamma_quotient(float(n), eps)[1])
    return n, eps, c, tuple(reversed(terms))


def _exp_int(x: float, p: float) -> tuple:
    """(x e^x E_p(x), size) for x <= 1: x^(p-1) Gamma(1-p) - sum_j (-x)^j / (j!
    (j+1-p)) (DLMF 8.19.8), j < 4 + 16 x^(1/4) (x^j / j! < 1e-17).  At n =
    round(p) >= 1 the pole and term n-1 sum to (-x)^(n-1) / (n-1)! times -L
    expm1(eps L) / (eps L), L = ln x + c: no 1/eps is left."""
    n, eps, c, terms = _exp_int_setup(p)
    s = size = 0.0
    for t, t_abs in terms[16 - int(16.0 * x ** 0.25):]:
        s = s * x + t
        size = size * x + t_abs
    if n == 0:
        lead = c * x ** (p - 1.0)
    else:
        ln = math.log(x) + c
        lead = (-ln * (math.expm1(eps * ln) / (eps * ln) if eps * ln else 1.0)
                * (-x) ** (n - 1) / math.factorial(n - 1))
    front = x * math.exp(x)
    return front * (lead - s), front * (abs(lead) + size)


def _series_seeds(x: float, a: float, k: int) -> tuple:
    """((E_(k-1), size), (E_k, size)): E_k = x^k / k! sum_j C(k, j) (-1)^j
    F_(p+j), p = a - k > 0, F = x e^x E (``_exp_int``), F_(p+j+1) = x (1 -
    F_(p+j)) / (p+j), F_(p+1) from the series where p < 1/2."""
    p = a - k
    if not k:
        return (1.0, 0.0), _exp_int(x, p)
    fs = [_exp_int(x, p)]
    for j in range(k):
        f, size = fs[-1]
        fs.append(_exp_int(x, p + 1.0) if j == 0 and p < 0.5 else
                  (x * (1.0 - f) / (p + j), x * (1.0 + size) / (p + j)))
    rows = []
    for order in (k - 1, k):
        c, value, size = x ** order / math.factorial(order), 0.0, 0.0
        for j, (f, f_size) in enumerate(fs[k - order:]):
            value += c * f
            size += abs(c) * f_size
            c *= (j - order) / (j + 1.0)
        rows.append((value, size))
    return tuple(rows)


def _cf_depth(x: float, a: float, k: int) -> int:
    """The depth of ``_cf_seeds``' fraction below i = k+1 (2e-16 on random
    cells, x 1 to 1000, a to 10, k to 20)."""
    return int((100.0 + 4.0 * (a + k)) / x + 8.0 + 0.25 * k)


@memo(_CF_CACHED)
def _cf_coefficients(b: float, k: int) -> tuple:
    """``_cf_seeds``' (2i - b, i (i-b+1)) from the deepest i at x = 1 down to k+2."""
    top = k + 1 + _cf_depth(_SERIES_BELOW, k + 2.0 - b, k)
    return tuple((2.0 * i - b, i * (i - b + 1.0)) for i in range(top, k + 1, -1))


def _cf_seeds(x: float, a: float, k: int) -> tuple:
    """((D_(k-1), size), (D_k, size)).  With b = k+2-a and V_i = x^i U(i, b,
    x), U minimal in i (DLMF 13.3.7; Gautschi 1967): h_i = V_i / (x V_(i-1))
    = 1 / (x + t_i), t_i = 2i - b - i (i-b+1) h_(i+1), from h = 0.  E_k =
    V_(k+1), E_(k-1) = V_k - (k/x) V_(k+1) (DLMF 13.3.10), and D_k =
    -expm1(sum_(i<=k+1) log1p(-t_i h_i)) without cancellation."""
    b = k + 2.0 - a
    h = ln_v = spread = 0.0
    for r, q in _cf_coefficients(b, k)[-_cf_depth(x, a, k):]:
        h = 1.0 / (x + r - q * h)
    for i in range(k + 1, 0, -1):
        r, q = 2.0 * i - b, i * (i - b + 1.0)
        spread += 2.0 * (abs(r) + abs(q * h)) / (x + r - q * h)
        t = r - q * h
        h = 1.0 / (x + t)
        if i == k + 1:
            g_top, ln_top = x * h, math.log1p(-t * h)
        else:
            ln_v += math.log1p(-t * h)
    d_k = -math.expm1(ln_v + ln_top)
    if not k:
        return (0.0, 0.0), (d_k, d_k + (1.0 - d_k) * spread)
    d_v, r = -math.expm1(ln_v), k / x * g_top
    return ((d_v + (1.0 - d_v) * r, abs(d_v) + abs(1.0 - d_v) * (r + spread)),
            (d_k, d_k + (1.0 - d_k) * spread))


def _erlang_sums(x: float, a: float, lo: int, weights: tuple, total: float, total_abs: float):
    """(sum w_j E_(lo+j), size, sum w_j D_(lo+j), size), the w_j summing to
    ``total`` and |w_j| to ``total_abs``, for the Erlang moments E_k = E[(1 +
    G)^-a] = x^a U(a, a-k, x), G ~ Gamma(k+1, rate x), and D_k = 1 - E_k;
    None past a + k = _MAX_ERLANG, or below x = _SERIES_BELOW past a = _MAX_SEED.

    By parts, (k+1) E_(k+1) = x E_(k-1) + (k+1-a-x) E_k, E_(-1) = 1, and D
    the same plus a, D_(-1) = 0.  E is dominated below k = x and, at small
    x, below k = a-1, so the recurrence runs outward from seeds at k0-1 and
    k0: for E below _SERIES_BELOW from k0 = ceil(a) - 1 (0 from
    _BINOMIAL_BELOW), else for D, near 0, from k0 = min(hi, floor x).  Each
    value's size bounds its rounding: a step's summands plus its inputs'
    sizes, each carried through its coefficient's magnitude, which counts
    what the step cancels."""
    hi = lo + len(weights) - 1
    if a + hi > _MAX_ERLANG or (x < _SERIES_BELOW and a > _MAX_SEED):
        return None
    if x < _SERIES_BELOW:
        k0, inh = (math.ceil(a) - 1 if x < _BINOMIAL_BELOW else 0), 0.0
        prev, cur = _series_seeds(x, a, k0)
    else:
        k0, inh = min(hi, int(x)), a
        prev, cur = _cf_seeds(x, a, k0)
    value = size = 0.0
    for k, (v, s) in ((k0 - 1, prev), (k0, cur)):
        if lo <= k <= hi:
            value += weights[k - lo] * v
            size += abs(weights[k - lo]) * s
    # forward, (k+1) X_(k+1) = inh + x X_(k-1) + f X_k, from (v0, v1) =
    # (X_(k-1), X_k); then backward, x X_(k-1) = (k+1) X_(k+1) - inh - f X_k
    (v0, s0), (v1, s1) = prev, cur
    for k in range(k0, hi):
        f = k + 1.0 - a - x
        new = (inh + x * v0 + f * v1) / (k + 1.0)
        s0, s1 = s1, (inh + x * (abs(v0) + s0) + abs(f) * (abs(v1) + s1)) / (k + 1.0)
        v0, v1 = v1, new
        if k >= lo - 1:
            value += weights[k + 1 - lo] * new
            size += abs(weights[k + 1 - lo]) * s1
    (v0, s0), (v1, s1) = cur, prev
    for k in range(k0 - 1, lo, -1):
        f = k + 1.0 - a - x
        new = ((k + 1.0) * v0 - inh - f * v1) / x
        s0, s1 = s1, ((k + 1.0) * (abs(v0) + s0) + inh + abs(f) * (abs(v1) + s1)) / x
        v0, v1 = v1, new
        if k <= hi + 1:
            value += weights[k - 1 - lo] * new
            size += abs(weights[k - 1 - lo]) * s1
    if inh:  # the sums are over D
        return total - value, total_abs + size, value, size
    return value, size, total - value, total_abs + size
