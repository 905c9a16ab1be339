"""Special functions backing the detection and rate formulas.

Everything here is self-contained (stdlib ``math`` plus the local quadrature
kernels): incomplete gamma and beta, the generalized Marcum-Q, the Kummer and
Gauss hypergeometric series, and the Tricomi U function evaluated through its
real integral representation.  All routines are pure and deterministic.  The
series and quadratures share one contract: 1e-12 relative (``_REL_TOL``), at
most 10,000 terms for the hypergeometric and Marcum-Q series (``_MAX_TERMS``)
and 20,000 for the incomplete gamma and beta loops, and ConvergenceError where
that cannot be met, never a silently truncated value.  The Poisson terms
y^z e^(-y) / Gamma(z+1) that the Marcum-Q, the detection series and the
kappa-mu distribution function sum come from one kernel, ``_poisson_terms``.
"""

from __future__ import annotations

import bisect
import math
import sys

import numpy as np

from ._quad import _REL_TOL, ln_peak_integral, tanhsinh_01
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


def ln_gamma(x: float) -> float:
    """ln Gamma(x) for finite x > 0; exp(result) is accurate to well under 1e-13."""
    if not 0.0 < x < math.inf:
        raise DomainError(f"ln_gamma requires finite x > 0, got {x}")
    return math.lgamma(x)


def _ln_gamma_weight(z: float, y):
    """ln(y^z e^(-y) / Gamma(z)), the factor in front of both incomplete-gamma
    expansions.  y may be a numpy array, taken elementwise at the one order z.

    For z >= 30 it is taken as -z (t - ln(1 + t)) + ln(z / 2 pi) / 2 - S(z),
    t = y/z - 1, with S the Stirling remainder of ln Gamma(z) to the z^-7
    term (truncation error below 1e-16).  The direct form subtracts two
    numbers near z ln z, and its rounding error, about 1e-16 z ln z, reaches
    2e-12 relative at z = 2400.  ln(1 + t) is log1p(t) from y = z/2 up and
    ln(y/z) below, where t drops y's digits (y/z held at the least normal
    float, so that an underflow gives a weight far below exp's range).
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
    w = 1.0 / (z * z)
    stirling = (1.0 / 12.0 - w * (1.0 / 360.0 - w * (1.0 / 1260.0 - w / 1680.0))) / z
    return 0.5 * math.log(z / (2.0 * math.pi)) - z * (t - ln_ratio) - stirling


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
    """Regularized upper gamma Q(z, y) for y >= z + 1, by Lentz's method."""
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
            return math.exp(_ln_gamma_weight(z, y)) * h
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


def _beta_cf(a: float, b: float, x: float) -> float:
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for i in map(float, range(1, _MAX_INNER_ITER)):  # float + float is the fast addition
        m2 = 2.0 * i
        aa = i * (b - i) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + i) * (qab + i) * x / ((a + m2) * (qap + m2))
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


def reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise DomainError(f"reg_inc_beta requires finite positive parameters, got ({a}, {b})")
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"reg_inc_beta requires x in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(-ln_beta(a, b) + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


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


def _series_phq(p0: float, p1, q0: float, z: float, what: str,
                ln_front: float = 0.0) -> float:
    """e^ln_front times the power series 1F1(p0; q0; z) (p1 None) or
    2F1(p0, p1; q0; z).

    The sum stops once three successive terms t are at most _REL_TOL of it
    and |t| R / (1 - R) also is, which bounds the dropped tail, or at t = 0,
    after which every term is 0.  R bounds every later term ratio: |z| times
    a bound on each factor, 1/(j+1) by its value at the next index n and
    each (j+p)/(j+q), monotone in j beyond its pole with limit 1, by the
    larger of 1 and its value at n.  Where R <= 1/2 the three small terms
    imply the bound.  The term and the sum are scaled by 2^-_SCALE_BITS
    (exactly) whenever the term passes 2^_SCALE_BITS, so neither overflows.
    The sum meets the front factor in log space only where e^ln_front
    underflows; a result beyond the float range raises ConvergenceError.
    """
    term = total = 1.0
    scale = small = 0
    for l in map(float, range(_MAX_TERMS)):  # float + float is the fast addition
        if p1 is None:
            term *= z / (l + 1.0) * (p0 + l) / (q0 + l)
        else:
            term *= z / (l + 1.0) * (p0 + l) * (p1 + l) / (q0 + l)
        total += term
        if term > _SCALE_LIMIT or term < -_SCALE_LIMIT:
            term = math.ldexp(term, -_SCALE_BITS)
            total = math.ldexp(total, -_SCALE_BITS)
            scale += _SCALE_BITS
        bound = _REL_TOL * total
        if -bound <= term <= bound or bound <= term <= -bound:
            small += 1
            n = l + 1.0  # the next index
            if small < 3 or n + q0 <= 0.0:  # too few, or the ratio's pole j = -q0 ahead
                continue
            if p1 is None:  # the ratio is z (j+p0)/(j+q0) / (j+1)
                r = abs(z) * max(abs((n + p0) / (n + q0)), 1.0) / (n + 1.0)
            else:  # z (j+p0)/(j+1) (j+p1)/(j+q0)
                r = (abs(z) * max(abs((n + p0) / (n + 1.0)), 1.0)
                     * max(abs((n + p1) / (n + q0)), 1.0))
            if term == 0.0 or r < 1.0 and abs(term) * r <= abs(bound) * (1.0 - r):
                break
        else:
            small = 0
    else:
        raise ConvergenceError(f"{what} series exceeded {_MAX_TERMS} terms")
    front = math.exp(ln_front)
    try:
        if front >= sys.float_info.min:
            return math.ldexp(front * total, scale)
        return math.copysign(
            math.exp(ln_front + math.log(abs(total)) + scale * math.log(2.0)), total)
    except OverflowError:
        raise ConvergenceError(f"{what} exceeds the float range at z={z}") from None


def kummer_1f1(a: float, b: float, z: float) -> float:
    """Confluent hypergeometric 1F1(a; b; z).

    Direct power series for z >= 0; for z < 0 the Kummer transformation
    1F1(a;b;z) = e^z 1F1(b-a; b; -z) avoids the alternating-series
    cancellation.  A value beyond the float range, or a series longer than
    10,000 terms (from |z| of about 9,400 on), raises ConvergenceError; a
    non-finite argument raises DomainError.
    """
    if not all(map(math.isfinite, (a, b, z))):
        raise DomainError(f"kummer_1f1 requires finite arguments, got a={a}, b={b}, z={z}")
    if b <= 0.0 and b == round(b):
        raise DomainError(f"kummer_1f1 undefined for nonpositive integer b={b}")
    if z == 0.0:
        return 1.0
    if z < 0.0:
        return _series_phq(b - a, None, b, -z, "kummer_1f1", ln_front=z)
    return _series_phq(a, None, b, z, "kummer_1f1")


def _gamma_sign_ln(x: float):
    """(sign, ln|Gamma(x)|) for real non-pole x; None at a pole."""
    if x > 0.0:
        return 1.0, math.lgamma(x)
    if x == round(x):
        return None
    s = math.sin(math.pi * x)
    ln = math.log(math.pi) - math.log(abs(s)) - math.lgamma(1.0 - x)
    return (1.0 if s > 0 else -1.0), ln


# The 1-z connection formula's error stayed below 7e-14 times the
# cancellation ratio sum |t| / |sum t| of its two terms (measured against
# scipy's hyp2f1 over the Fisher rate cells); it is used only while that
# ratio keeps the result within 1e-9.  Beyond it the Euler integral costs
# about ten series evaluations.
_MAX_CANCELLATION = 1e4


def _euler_2f1(a: float, b: float, c: float, z: float) -> float:
    """Euler integral for 2F1 when c > b > 0; handles 0.5 < z < 1 robustly."""
    bm1 = b - 1.0
    cbm1 = c - b - 1.0

    def integrand(t, omt, ln_t, ln_omt, w):
        return w * np.exp(bm1 * ln_t + cbm1 * ln_omt - a * np.log(omt + t * (1.0 - z)))

    integral = tanhsinh_01(integrand, rel_tol=1e-13)
    return math.exp(math.lgamma(c) - math.lgamma(b) - math.lgamma(c - b)) * integral


def gauss_2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric 2F1(a, b; c; z) for real z < 1.

    Direct series for z in [0, 0.5]; for z in (0.5, 1) the z -> 1-z linear
    transformation, unless its parameters are near the integer degeneracy or
    its two terms cancel, in which case the Euler integral (or, where that
    does not apply, the direct series); the Pfaff transformation maps z < 0
    into [0, 1).  A non-finite argument raises DomainError.
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
    if z < 0.0:
        w = z / (z - 1.0)
        if abs(a) <= abs(b):
            return (1.0 - z) ** (-a) * gauss_2f1(a, c - b, c, w)
        return (1.0 - z) ** (-b) * gauss_2f1(c - a, b, c, w)
    if z <= 0.5:
        return _series_phq(a, b, c, z, "gauss_2f1")

    d = c - a - b
    if abs(d - round(d)) > 0.05:
        w = 1.0 - z
        total = size = 0.0
        gc = _gamma_sign_ln(c)
        for (p0, p1, q0, coef_args, shift) in ((a, b, 1.0 - d, (d, c - a, c - b), 0.0),
                                               (c - a, c - b, 1.0 + d, (-d, a, b), d)):
            gn, g1, g2 = map(_gamma_sign_ln, coef_args)
            if g1 is None or g2 is None:
                continue  # 1/Gamma(pole) kills the term
            sign = gc[0] * gn[0] * g1[0] * g2[0]
            ln = gc[1] + gn[1] - g1[1] - g2[1] + shift * math.log(w)
            piece = sign * math.exp(ln) * _series_phq(p0, p1, q0, w, "gauss_2f1")
            total += piece
            size += abs(piece)
        if size <= _MAX_CANCELLATION * abs(total):
            return total

    for (p, q) in ((a, b), (b, a)):
        if q > 0.0 and c - q > 0.0:
            return _euler_2f1(p, q, c, z)
    return _series_phq(a, b, c, z, "gauss_2f1")


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
