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
bounds, the ratios of a series' cancelling head, connection coefficients,
the Euler integral's set-up and its exponent on the first tanh-sinh block),
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
    return mu + (1.0 / 12.0 - w * (1.0 / 360.0 - w * (1.0 / 1260.0 - w * (
        1.0 / 1680.0 - w * (1.0 / 1188.0 - w * (691.0 / 360360.0 - w * (
            1.0 / 156.0 - w * 3617.0 / 122400.0))))))) / z


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
    if not 0.0 < c1 < math.inf > c2 > 0.0:  # both finite and positive
        raise DomainError(f"beta requires finite positive arguments, got ({c1}, {c2})")
    return math.lgamma(c1) + math.lgamma(c2) - math.lgamma(c1 + c2)


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
    """(sign, ln|Gamma(x)|) for real non-pole x; None at a pole."""
    if x > 0.0:
        return 1.0, math.lgamma(x)
    if x == round(x):
        return None
    s = math.sin(math.pi * x)
    ln = math.log(math.pi) - math.log(abs(s)) - math.lgamma(1.0 - x)
    return (1.0 if s > 0 else -1.0), ln


# The 1-z connection formula's error stayed below 1.4e-14 times the
# cancellation ratio sum |t| / |sum t| of its two terms (measured against
# mpmath's hyp2f1 over 1,303 Fisher rate cells); it is used only while that
# ratio keeps the result within about 1.4e-10.  Beyond it the Euler integral
# costs about ten series evaluations.
_MAX_CANCELLATION = 1e4


@memo(_CACHED)
def _setup_2f1(a: float, b: float, c: float):
    """What 2F1(a, b; c; z) needs on (1/2, 1) that does not depend on z, as
    (connection, euler).

    ``connection`` holds the terms of the z -> 1-z formula (DLMF 15.8.4), each
    (p0, p1, q0, sign, ln, shift) for sign e^ln w^shift 2F1(p0, p1; q0; w),
    w = 1-z, with a term whose 1/Gamma has a pole left out; it is None where
    c-a-b is within 0.05 of an integer.  ``euler`` is (p, q, ln of
    Gamma(c) / (Gamma(q) Gamma(c-q))) for the Euler integral, or None where
    neither ordering (p, q) of (a, b) has c > q > 0.
    """
    connection = None
    d = c - a - b
    if abs(d - round(d)) > 0.05:
        gc = _gamma_sign_ln(c)
        connection = []
        for (p0, p1, q0, coef_args, shift) in ((a, b, 1.0 - d, (d, c - a, c - b), 0.0),
                                               (c - a, c - b, 1.0 + d, (-d, a, b), d)):
            gn, g1, g2 = map(_gamma_sign_ln, coef_args)
            if g1 is None or g2 is None:
                continue  # 1/Gamma(pole) kills the term
            connection.append((p0, p1, q0, gc[0] * gn[0] * g1[0] * g2[0],
                               gc[1] + gn[1] - g1[1] - g2[1], shift))
        connection = tuple(connection)
    # Of the orderings (p, q) of (a, b) with c > q > 0, take one with q and
    # c - q at least 1 where there is one, which keeps the endpoint powers
    # t^(q-1) and (1-t)^(c-q-1) bounded, and among those the larger q: the
    # gentler power where the mass gathers as z -> 1 lets the rule settle at
    # fewer levels.
    orderings = [(p, q) for p, q in ((a, b), (b, a)) if 0.0 < q < c]
    euler = None
    if orderings:
        p, q = max(orderings, key=lambda pq: (min(pq[1], c - pq[1], 1.0), pq[1]))
        euler = (p, q, math.lgamma(c) - math.lgamma(q) - math.lgamma(c - q))
    return connection, euler


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


def _connection_2f1(connection, w: float):
    """The z -> 1-z formula at w = 1-z from its terms ``connection``
    (``_setup_2f1``), as (s, ln_scale), the value being s e^ln_scale; None
    where its two terms cancel beyond _MAX_CANCELLATION or the series of one
    of them cancels in its head (ConvergenceError from ``_series_phq``).
    The terms are scaled to the larger of their log scales and summed in
    order; a term left out counts as 0 e^-inf."""
    ln_w = math.log(w)
    s1 = s2 = 0.0
    ln1 = ln2 = -math.inf
    for p0, p1, q0, sign, ln, shift in connection:
        try:
            s, bits = _series_phq(p0, p1, q0, w, "gauss_2f1")
        except ConvergenceError:
            return None
        s1, ln1, s2, ln2 = s2, ln2, sign * s, ln + shift * ln_w + bits * _LN2
    top = max(ln1, ln2)
    piece1 = s1 * math.exp(ln1 - top)
    piece2 = s2 * math.exp(ln2 - top)
    total = piece1 + piece2
    return (total, top) if abs(piece1) + abs(piece2) <= _MAX_CANCELLATION * abs(total) else None


def _gauss_2f1(a: float, b: float, c: float, z: float, w: float):
    """2F1(a, b; c; z) for z < 1 as (s, ln_scale), the value being
    s e^ln_scale, with w = 1 - z given exactly by the caller.

    Every route that needs 1 - z takes w, never 1 - z rounded: the Pfaff step
    maps z < 0 to z/(z-1), whose complement is 1/w, and the 1-z formula and
    the Euler integral work in w.  The Pfaff step is taken in place, its
    front w^-a (or w^-b) added to the log scale that the route for z/(z-1)
    returns.  The route and the z-free set-up come from ``_setup_2f1``.
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
    connection, euler = _setup_2f1(a, b, c)
    if connection is not None:
        found = _connection_2f1(connection, w)
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

    Direct series for z in [0, 0.5]; for z in (0.5, 1) the z -> 1-z linear
    transformation, unless its parameters are near the integer degeneracy or
    its two terms, or the first terms of one of its series, cancel, in which
    case the Euler integral (or, where that does not apply, the direct
    series); every series raises ConvergenceError where its first terms
    cancel beyond 1e-12, which only a negative parameter allows.  The Pfaff
    transformation maps z < 0
    into [0, 1), handing on 1/(1-z) as the new argument's complement, so
    that z/(z-1) rounding to 1 loses nothing.  A non-finite argument raises
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
