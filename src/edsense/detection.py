"""Energy-detection performance over the two fading channels.

The detector compares received energy against a threshold; under the
signal-present hypothesis with instantaneous SNR gamma the detection
probability is the generalized Marcum-Q Q_u(sqrt(2 gamma), sqrt(lambda)),
and the false-alarm probability is the regularized upper incomplete gamma
of (u, lambda/2).

Both channels are averaged through one identity, the Poisson mixture form
of the Marcum-Q,

    1 - Q_u(sqrt(2 gamma), sqrt(lambda))
      = sum_k e^(-gamma) gamma^k / k! * P(u + k, lambda/2),

with P the regularized lower incomplete gamma.  Averaged over the channel it
gives the missed-detection probability

    P_md = sum_k pi_k P(u + k, lambda/2),    pi_k = E[e^(-gamma) gamma^k / k!],

where pi is the channel's mixed-Poisson pmf (``_poisson_pmf``): a
convolution of two negative binomial pmfs for shadowed kappa-mu fading, and
for Fisher-Snedecor fading a negative binomial averaged over the shadowing
V ~ Gamma(m_s, 1), one trapezoid sum in sigma = ln V on a closed-form grid
for every k at once; its step is halved until two levels agree.  (The
coefficient's closed form in the Tricomi U, one quadrature per term, now
serves only as a reference in the tests.)  Every term is positive, and
since P(u + k, lambda/2) falls with k and pi sums to at most one, the tail
after S terms is at most P(u + S, lambda/2) on any channel.  That bound
depends on (u, lambda) alone and certifies the truncation.  The factors
P(u + k, lambda/2) are a cumulative sum of the Poisson terms that
``marcum_q`` also sums (``specfun._poisson_terms``).  The ROC area uses the
same pmf at half the SNR: A = 1 - sum_{i<u} pi_i w_i, with the weights
w_i = P[Bin(2u-1, 1/2) >= u+i] (``_roc_weights``).

The complementary ROC (``croc_curve``) works on its whole false-alarm grid
at once: every threshold comes from one Newton iteration over numpy arrays
(``_thresholds``, whose one-point case is ``threshold_for_pf``), with the
false-alarm tails of integer order u as Poisson sums along the rows of one
matrix per round (``_tails``), and every P_md from one matrix of P(u+k,
lam/2), one row per threshold (``_gamma_matrix``).  The thresholds, the
term count and that matrix depend on the detector alone; ``_croc_operator``
keeps them for the 16 most recent (u, grid, tol) keys whose matrix is at
most 1 MiB, so a curve for another channel at the same detector costs one
pmf and one matrix-vector product.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from ._memo import memo
from .channels import FisherFParams, KappaMuShadowedParams
from .errors import ConvergenceError, DomainError
from .specfun import (
    _CACHED,
    _MAX_TERMS,
    _REL_TOL,
    _binet,
    _ln_gamma_weight,
    _ln_poisson_tail,
    _poisson_terms,
    marcum_q,
    reg_lower_gamma,
    reg_upper_gamma,
)

__all__ = [
    "DetectorConfig",
    "TruncationReport",
    "RocPoint",
    "prob_false_alarm",
    "threshold_for_pf",
    "prob_detect_instant",
    "avg_pd_kms",
    "avg_pd_f",
    "truncation_bound_f",
    "auc_instant",
    "avg_auc_kms",
    "avg_auc_f",
    "croc_curve",
]


@dataclass(frozen=True)
class DetectorConfig:
    """Energy detector: time-bandwidth product u and decision threshold lam."""

    u: int
    lam: float

    def __post_init__(self):
        if not 1 <= self.u < math.inf or int(self.u) != self.u:
            raise DomainError(f"u must be a positive integer, got {self.u}")
        if not 0.0 <= self.lam < math.inf:
            raise DomainError(f"lam must be finite and >= 0, got {self.lam}")


@dataclass(frozen=True)
class TruncationReport:
    """Certificate for a truncated series: terms kept and the tail bound."""

    terms_used: int
    error_bound: float

    def __post_init__(self):
        if self.error_bound < 0.0:
            raise DomainError("error_bound must be >= 0")


class RocPoint(NamedTuple):
    """One operating point, a named tuple: false-alarm probability, average
    detection probability and average missed-detection probability.

    ``pmd`` is summed directly and ``pd`` is 1 - pmd, so pmd keeps its
    relative accuracy where it is small.  ``croc_curve`` checks that every
    pmd lies in [0, 1].
    """

    pf: float
    pd: float
    pmd: float


def prob_false_alarm(cfg: DetectorConfig) -> float:
    """False-alarm probability; channel-independent, decreasing in lam."""
    return reg_upper_gamma(cfg.u, cfg.lam / 2.0)


# Largest y = lam/2 that the threshold inversion searches.
_Y_MAX = 5e3
# Relative truncation of the false-alarm tails in _tails, as e^-_TAIL_DROP.
_TAIL_DROP = 45.0


def threshold_for_pf(u: int, pf_target: float) -> float:
    """Threshold lam achieving the requested false-alarm probability: the
    one-point case of the batched inversion ``_thresholds``.

    The returned threshold reproduces pf_target to within 1e-12; thresholds
    above lam = 1e4 raise ConvergenceError.
    """
    if not 0.0 < pf_target < 1.0:
        raise DomainError(f"pf_target must be in (0, 1), got {pf_target}")
    if not 1 <= u < math.inf or int(u) != u:
        raise DomainError(f"u must be a positive integer, got {u}")
    return float(_thresholds(int(u), np.array([float(pf_target)]))[0])


@memo(None)
def _tail_columns(u: int) -> tuple[np.ndarray, np.ndarray]:
    """u-1-j and u+j for the W columns j that ``_tails`` sums (read-only).

    W is the smallest width at which u^W u!/(u+W)!, times the geometric
    factor (u+W+1)/(W+1), is at most e^-_TAIL_DROP.  That product bounds the
    terms of P(u, y) past column W relative to its first term for every
    y <= u, and the terms of Q(u, y) past column W for every y >= u-1, since
    each ratio of the one is at most u/(u+i) and each of the other at most
    1 - i/(u-1) <= u/(u+i) there.
    """
    lg = math.lgamma(u + 1.0)

    def ln_bound(w):
        return (w * math.log(u) + lg - math.lgamma(u + w + 1.0)
                + math.log((u + w + 1.0) / (w + 1.0)))

    end = 12 * math.isqrt(u) + 64
    width = 1 + bisect.bisect_left(range(1, end), _TAIL_DROP, key=lambda w: -ln_bound(w))
    j = np.arange(width, dtype=float)
    columns = (u - 1.0 - j, u + j)
    for arr in columns:
        arr.flags.writeable = False
    return columns


def _tails(u: int, y: np.ndarray, upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched false-alarm tails at integer order u, one row per y: ln T
    with T = Q(u, y) = P[Poisson(y) <= u-1] where ``upper``, else P(u, y) =
    P[Poisson(y) >= u], and T over the anchor term y^(u-1) e^(-y) / Gamma(u)
    (from ``_ln_gamma_weight``), which is -1 / (d ln Q/dy) or 1 / (d ln P/dy).

    Relative to the anchor, Q sums the cumulative products of (u-1-j)/y,
    plus the anchor itself (finite: the products are zero from j = u-1 on),
    and P those of y/(u+j), each along one row of a matrix.  The columns of
    ``_tail_columns`` hold either to e^-_TAIL_DROP in the rows' brackets,
    y >= u-1 for Q and y <= u for P.
    """
    falling, rising = _tail_columns(u)
    col_y = y[:, None]
    terms = np.where(upper[:, None], falling / col_y, col_y / rising)
    ratio = np.multiply.accumulate(terms, axis=1).sum(axis=1) + upper
    return _ln_gamma_weight(u, y) - np.log(y) + np.log(ratio), ratio


def _thresholds(u: int, pf: np.ndarray) -> np.ndarray:
    """Thresholds lam for the false-alarm targets pf (each in (0, 1)), all
    solved at once.

    Solves P_f = Q(u, y) for y = lam/2 by Newton steps on ln T, where T is
    the smaller tail: Q(u, y) = pf for pf <= 1/2, else P(u, y) = 1 - pf, so
    that lam keeps its relative accuracy as pf -> 1.  Both ln Q and ln P are
    concave in y (the Gamma(u) density is log-concave), and their slopes
    come with the tails from ``_tails``.  Each row keeps a bracket known to
    hold its root: Q rows start on [u-1, _Y_MAX] and P rows on [0, u], since
    the Gamma(u) median lies in (u-1/3, u) (Chen & Rubin, Stat. Probab.
    Lett. 1986).  A step that leaves the bracket is replaced by bisection.
    The rounds end with the one in which every Newton step is below 1e-9 y,
    and a last evaluation checks that every threshold reproduces its pf to
    within 1e-12.  Thresholds above lam = 1e4 raise ConvergenceError.
    """
    upper = pf <= 0.5
    target = np.minimum(pf, 1.0 - pf)
    ln_target, sign = np.log(target), np.where(upper, -1.0, 1.0)
    lo = np.where(upper, min(u - 1.0, _Y_MAX), 0.0)
    hi = np.where(upper, _Y_MAX, min(float(u), _Y_MAX))
    y = np.minimum(np.maximum(_threshold_guess(u, ln_target, sign), lo), hi)
    for _ in range(100):
        ln_t, ratio = _tails(u, y, upper)
        step = (ln_target - ln_t) * ratio * sign
        right = step > 0.0  # the root lies right of y
        lo = np.where(right, y, lo)
        hi = np.where(right, hi, y)
        if lo.max() == _Y_MAX:
            raise ConvergenceError(
                f"threshold for pf={pf[lo == _Y_MAX][0]} exceeds lam = {2.0 * _Y_MAX:g}")
        last = np.abs(step) <= 1e-9 * y
        nxt = y + step
        y = np.where(last | ((lo < nxt) & (nxt < hi)), nxt, 0.5 * (lo + hi))
        if last.all():
            break
    else:
        raise ConvergenceError(f"threshold inversion stalled at pf={pf[~last][0]}")
    off = np.abs(np.exp(_tails(u, y, upper)[0]) - target) > 1e-12
    if off.any():
        raise ConvergenceError(f"threshold inversion stalled at pf={pf[off][0]}")
    return 2.0 * y


def _threshold_guess(u: int, ln_target: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """Starting y = lam/2 for ``_thresholds``, from the log of the smaller
    tail and the sign of the slope of ln T: the Wilson-Hilferty quantile of
    chi-square(2u), or the root of y^u / u! = T where that lies further
    right.  That root is never right of the threshold: P(u, y) <= y^u / u!,
    and for Q rows it lies below (u!/2)^(1/u) < u - 1/3, below the median
    (Wilson-Hilferty fails in the lower tail).

    The normal quantile is the rational approximation of Abramowitz & Stegun
    26.2.23 (absolute error below 4.5e-4).
    """
    t = np.sqrt(-2.0 * ln_target)
    z = t - ((2.515517 + t * (0.802853 + 0.010328 * t))
             / (1.0 + t * (1.432788 + t * (0.189269 + 0.001308 * t))))
    c = 1.0 / (9.0 * u)
    wilson_hilferty = u * np.maximum(1.0 - c - sign * z * math.sqrt(c), 0.0) ** 3
    return np.maximum(wilson_hilferty, np.exp((ln_target + math.lgamma(u + 1.0)) / u))


def prob_detect_instant(cfg: DetectorConfig, gamma: float) -> float:
    """Detection probability at instantaneous SNR ``gamma``."""
    if not 0.0 <= gamma < math.inf:
        raise DomainError(f"gamma must be finite and >= 0, got {gamma}")
    return marcum_q(cfg.u, math.sqrt(2.0 * gamma), math.sqrt(cfg.lam))


@memo(_CACHED)
def _ln_nb_binom(r: float, n: int) -> np.ndarray:
    """ln C(r+k-1, k) for k < n, a running sum of ln((r+k) / (k+1)); fixed by
    the shape parameter r and the term count n alone, so built once per
    (r, n) and kept, read-only, for the _CACHED most recent."""
    k = np.arange(n - 1.0)
    out = np.zeros(n)
    np.add.accumulate(np.log((r + k) / (k + 1.0)), out=out[1:])
    out.flags.writeable = False
    return out


def _nb_pmf(r: int, rate: float, n: int) -> np.ndarray:
    """pmf at 0..n-1 of Poisson(G), G ~ Gamma(r, rate): the negative binomial
    NB(r, rate/(1+rate)); r = 0 gives the point mass at zero."""
    if r == 0:
        return np.eye(1, n)[0]
    return np.exp(_ln_nb_binom(r, n) + r * (math.log(rate) - math.log1p(rate))
                  - np.arange(n) * math.log1p(rate))


def _poisson_pmf(channel: KappaMuShadowedParams | FisherFParams, n: int,
                 scale: float) -> np.ndarray:
    """pi_k = E[e^(-s gamma) (s gamma)^k / k!] for k < n, at SNR scale s.

    Shadowed kappa-mu: the SNR is Gamma(mu-m, theta1) + Gamma(m, theta2), so
    pi is the convolution of two negative binomial pmfs, positive at any
    kappa.  Fisher-Snedecor: a negative binomial averaged over the shadowing
    (``_fisher_pmf``), to relative accuracy 1e-12 (``specfun._REL_TOL``).
    """
    if isinstance(channel, KappaMuShadowedParams):
        return np.convolve(
            _nb_pmf(channel.mu - channel.m, channel.theta1 / scale, n),
            _nb_pmf(channel.m, channel.theta2 / scale, n))[:n]
    return _fisher_pmf(channel.m, channel.m_s, channel.omega / scale, n, _REL_TOL)


# The Fisher pmf's trapezoid range ends where every row's log-integrand lies
# this far below its peak (e^-45 < 3e-20).
_TRAP_DROP = 45.0
# Trapezoid levels 0..2 are strided slices of one grid of step h/4, and each
# deeper level is a block of its own: most pmfs settle by level 3, and a
# block past the settling level evaluates its nodes for nothing.
_TRAP_MAX_LEVEL = 12
_TRAP_FIRST_BLOCK = (np.s_[::4], np.s_[2::4], np.s_[1::2])
# Largest (k, node) block evaluated at once.
_TRAP_BLOCK = 1 << 15


def _fisher_range(m: float, ms: float, w: float, n: int) -> tuple[float, float, float]:
    """(lo, hi, h): the range in d = sigma - ln m_s and the first step of
    ``_fisher_pmf``'s trapezoid sum.  Row k's log-integrand g is concave,
    with g' = c - e^sigma - (m+k) p, c = m + m_s and 0 < p < w e^sigma:
    - g' <= c - e^sigma puts every peak at or below ln c, and every row has
      fallen at least c (e^x - 1 - x) >= 45 by ln c + x, x = 1 + log1p(45/c);
    - g' >= c - A e^sigma, A = 1 + (m+n-1) w, puts the peak of every row
      below n at or above ln(c/A), and each has fallen at least
      c (x - 1 + e^-x) >= 45 by ln(c/A) - x, x = 1 + 45/c;
    - at any peak -g'' = c - (m+k) p^2 <= c, so h = 2^floor(log2(2/sqrt(c)))
      is at most about twice every row's width there.
    """
    c = m + ms
    right = math.log(c / ms)
    left = right - float(np.logaddexp(0.0, math.log(m + n - 1) + math.log(w)))
    return (left - 1.0 - _TRAP_DROP / c, right + 1.0 + math.log1p(_TRAP_DROP / c),
            2.0 ** math.floor(math.log2(2.0 / math.sqrt(c))))


def _fisher_pmf(m: float, ms: float, w: float, n: int, tol: float) -> np.ndarray:
    """pi_0..pi_{n-1} for Fisher-Snedecor fading at w = omega / s.

    The SNR given V ~ Gamma(m_s, 1) is Gamma(m, rate omega V), so pi is a
    negative binomial averaged over sigma = ln V.  Taken in d = sigma - ln m_s,

        pi_k = Gamma(m+k) / (Gamma(m) k!) * m_s^m_s e^-m_s / Gamma(m_s)
               * int exp(m_s (d - expm1 d)) p^m (1-p)^k dd,

    p = w e^sigma / (1 + w e^sigma): the terms of order m_s ln m_s cancel in
    closed form, the factor in front being exp(ln(m_s / 2 pi)/2 - mu(m_s)),
    mu Binet's function (``specfun._binet``).  The integrand is analytic and
    decays exponentially at both ends, so the uniform trapezoid rule
    converges exponentially in 1/h (Trefethen & Weideman, SIAM Review 2014),
    and one node set serves every k as rows of one log-space matrix, each
    shifted by its own maximum before exponentiating.  The range and first
    step come from ``_fisher_range``; h is halved, reusing every node, until
    two levels agree to ``tol`` relative in every row (T_l = T_(l-1)/2 +
    h_l c_l, c_l the sums over the new nodes), or raises ConvergenceError
    after level 12.
    """
    lo, hi, h = _fisher_range(m, ms, w, n)
    ln_wms = math.log(w) + math.log(ms)
    count = math.ceil((hi - lo) / h)
    k = np.arange(n, dtype=float)
    shift = np.empty(n)

    def node_sums(d: np.ndarray, slices: tuple, first: bool) -> np.ndarray:
        """Per-slice row sums of exp(g_k - shift_k) over nodes d; the first sets shift."""
        t = d + ln_wms
        e = np.log1p(np.exp(-np.abs(t)))  # ln p = min(t, 0) - e, ln(1-p) = -max(t, 0) - e
        a = ms * (d - np.expm1(d)) + m * (np.minimum(t, 0.0) - e)
        b = -np.maximum(t, 0.0) - e
        out = np.empty((len(slices), n))
        rows = max(1, _TRAP_BLOCK // len(d))
        for r in range(0, n, rows):
            g = np.multiply.outer(k[r:r + rows], b)
            g += a
            if first:
                shift[r:r + rows] = np.maximum.reduce(g, axis=1)
            g -= shift[r:r + rows, None]
            np.exp(g, out=g)
            for j, s in enumerate(slices):
                out[j, r:r + rows] = np.add.reduce(g[:, s], axis=1)
        return out

    def level_sums():
        yield from node_sums(lo + h / 4 * np.arange(4 * count + 1), _TRAP_FIRST_BLOCK, True)
        for level in range(3, _TRAP_MAX_LEVEL + 1):
            yield from node_sums(lo + h / 2 ** level * np.arange(1, 2 ** level * count, 2),
                                 (np.s_[:],), False)

    total = 0.0
    for level, sums in enumerate(level_sums()):
        prev, total = total, 0.5 * total + h / 2 ** level * sums
        if level and (np.abs(total - prev) <= tol * total).all():
            ln_front = 0.5 * math.log(ms / (2.0 * math.pi)) - _binet(ms)
            return np.exp(_ln_nb_binom(m, n) + ln_front + shift + np.log(total))
    raise ConvergenceError(f"Fisher pmf trapezoid sum did not settle by h = {h / 2 ** level:g}")


def _check_tol(tol: float) -> None:
    """Refuse a truncation tolerance outside (0, inf): NaN would stop every
    series after one term, and inf would certify nothing."""
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol must be positive and finite, got {tol}")


def _terms_needed(u: int, y: float, tol: float) -> int:
    """Smallest S >= 1 at which a bound on the tail P(u+S, y) =
    P[Poisson(y) >= u+S] lies below tol: the Poisson pmf at u+S times a
    geometric majorant of the pmf ratios (``specfun._ln_poisson_tail``).
    An S beyond 10,000 (``specfun._MAX_TERMS``) raises ConvergenceError.
    """
    _check_tol(tol)
    if y == 0.0:
        return 1
    ln_tol = math.log(tol)
    s = bisect.bisect_left(range(1, _MAX_TERMS + 1), -ln_tol,
                           key=lambda s: -_ln_poisson_tail(y, u + s, True))
    if s == _MAX_TERMS:
        raise ConvergenceError(
            f"detection series needs more than {_MAX_TERMS} terms "
            f"for tol={tol} at u={u}, lam={2.0 * y}")
    return s + 1


# Relative truncation of the tails P(u+n, y) in _gamma_matrix, as e^-_PMD_DROP.
_PMD_DROP = 42.0


def _gamma_matrix(u: int, y: np.ndarray, n: int) -> np.ndarray:
    """P(u+k, y) for k = 0..n at each y = lam/2 > 0, one row per y, where
    u + n > y: column n bounds the tail of a mixed-Poisson series cut after
    n terms.

    Each row is the reverse cumulative sum of the Poisson terms pois(y, u+k)
    from ``_poisson_terms``, run on past n until ``_ln_poisson_tail`` bounds
    the rest by e^-_PMD_DROP times pois(y, u+n) <= P(u+n, y).  The largest y
    sets that length, since the bound over pois(y, u+n) grows with y.  The
    matrix returned is a reversed view with more than n + 1 columns; callers
    slice it where they use it.  A contiguous copy of the first n columns
    changes how the matrix-vector product sums, which moved 7,316 of 10,136
    benchmark P_md values by up to 1.1e-15 relative.
    """
    top = float(y.max())
    k = u + n
    ln_stop = _ln_gamma_weight(k + 1.0, top) - math.log(top) - _PMD_DROP
    extra = 1 + bisect.bisect_left(range(1, k + 128), -ln_stop,
                                   key=lambda e: -_ln_poisson_tail(top, k + e, True))
    terms = _poisson_terms(u, y, n + extra)
    return np.cumsum(terms[:, ::-1], axis=1)[:, ::-1]


def _pmd_from_pmf(pmf: np.ndarray,
                  gammas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P_md, tail bound) at each row's threshold from the mixed-Poisson
    series cut after n = len(pmf) terms, with the rows of P(u+k, lam/2)
    from ``_gamma_matrix``: column n is the tail bound P(u+n, lam/2)."""
    n = len(pmf)
    return np.minimum(1.0, gammas[:, :n] @ pmf), gammas[:, n]


def _avg_pd(channel, cfg: DetectorConfig, tol: float) -> tuple[float, TruncationReport]:
    """Detection probability, truncated where the tail bound falls below tol."""
    n = _terms_needed(cfg.u, cfg.lam / 2.0, tol)
    if cfg.lam == 0.0:
        return 1.0, TruncationReport(terms_used=n, error_bound=0.0)
    pmd, bound = _pmd_from_pmf(_poisson_pmf(channel, n, 1.0),
                               _gamma_matrix(cfg.u, np.array([cfg.lam]) / 2.0, n))
    return 1.0 - float(pmd[0]), TruncationReport(terms_used=n, error_bound=float(bound[0]))


def avg_pd_kms(p: KappaMuShadowedParams, cfg: DetectorConfig) -> float:
    """Channel-averaged detection probability, shadowed kappa-mu model.

    The mixed-Poisson series is truncated where its tail bound falls below
    1e-12 (``specfun._REL_TOL``).
    """
    return _avg_pd(p, cfg, _REL_TOL)[0]


def truncation_bound_f(p: FisherFParams, cfg: DetectorConfig, S: int) -> float:
    """Certified upper bound on the discarded tail of the detection series
    when it is truncated to S terms.

    The tail sum_{k>=S} pi_k P(u+k, lam/2) is at most P(u+S, lam/2), because
    P falls with its first argument and pi sums to at most one.  The bound
    holds for every channel; ``p`` does not enter it.
    """
    if not 1 <= S < math.inf or int(S) != S:
        raise DomainError(f"S must be a positive integer, got {S}")
    return reg_lower_gamma(cfg.u + S, cfg.lam / 2.0)


def avg_pd_f(p: FisherFParams, cfg: DetectorConfig,
             tol: float = 1e-8) -> tuple[float, TruncationReport]:
    """Channel-averaged detection probability over Fisher-Snedecor fading.

    Sums the mixed-Poisson series until the certified tail bound drops below
    ``tol``; the report carries the number of terms and that bound.
    """
    return _avg_pd(p, cfg, tol)


@memo(_CACHED)
def _roc_weights(u: int) -> tuple[float, ...]:
    """w_i = P[Bin(2u-1, 1/2) >= u+i] for i < u, in O(u) work with no
    factorial to overflow: up to a constant the pmf from u up is a running
    product of the ratios (2u-1-k)/(k+1), and w its reverse running sum,
    scaled so that w_0 is exactly 1/2 (the binomial is symmetric).  Fixed
    by u, so built once per u and kept as a tuple."""
    pmf, b = [1.0], 1.0
    for k in range(u, 2 * u - 1):
        b *= (2 * u - 1 - k) / (k + 1)
        pmf.append(b)
    tails = list(accumulate(reversed(pmf)))[::-1]
    return tuple(t / (2.0 * tails[0]) for t in tails)


def _roc_miss(pmf: np.ndarray, u: int) -> float:
    """1 - A = sum_{i<u} pmf_i w_i (``_roc_weights``), summed directly, where
    pmf_i is the probability of i under Poisson(gamma/2), or its channel
    average; a pmf shorter than u stands for zeros beyond its end."""
    return math.fsum(p * w for p, w in zip(pmf.tolist(), _roc_weights(u)))


def auc_instant(cfg: DetectorConfig, gamma: float) -> float:
    """Area under the ROC at instantaneous SNR ``gamma``; lies in [1/2, 1].
    The Poisson(gamma/2) pmf is a point mass at gamma = 0, where A = 1/2."""
    if not 0.0 <= gamma < math.inf:
        raise DomainError(f"gamma must be finite and >= 0, got {gamma}")
    pmf = _poisson_terms(0, gamma / 2.0, cfg.u) if gamma > 0.0 else np.ones(1)
    return 1.0 - _roc_miss(pmf, cfg.u)


def avg_auc_kms(p: KappaMuShadowedParams, cfg: DetectorConfig) -> float:
    """Average area under the ROC over shadowed kappa-mu fading."""
    return 1.0 - _roc_miss(_poisson_pmf(p, cfg.u, 0.5), cfg.u)


def avg_auc_f(p: FisherFParams, cfg: DetectorConfig) -> float:
    """Average area under the ROC over Fisher-Snedecor fading."""
    return 1.0 - _roc_miss(_poisson_pmf(p, cfg.u, 0.5), cfg.u)


# Largest matrix, in bytes, that _croc_operator keeps (a 50-point grid's is
# at most 71 KB, a 20,000-point grid's 17-25 MB).
_CROC_KEEP_BYTES = 1 << 20


class _NotKept(Exception):
    """Carries (n, matrix) past _CROC_KEEP_BYTES out of the cache, which keeps no exception."""


@memo(16)
def _croc_operator(u: int, grid: tuple[float, ...], tol: float) -> tuple[int, np.ndarray]:
    """The detector side of a CROC curve, which no channel enters: the term
    count n that the grid's largest threshold needs for a tail bound below
    tol, and the ``_gamma_matrix`` of P(u+k, lam/2) at every threshold
    (read-only).  Kept for the 16 most recent keys; an exception is not
    kept, so a key that failed fails again, and a larger matrix comes in
    ``_NotKept``."""
    lams = _thresholds(u, np.array(grid))
    n = _terms_needed(u, float(lams.max()) / 2.0, tol)
    gammas = _gamma_matrix(u, lams / 2.0, n)
    gammas.flags.writeable = False
    if gammas.nbytes > _CROC_KEEP_BYTES:
        raise _NotKept(n, gammas)
    return n, gammas


def croc_curve(channel: KappaMuShadowedParams | FisherFParams, cfg_u: int,
               pf_grid, tol: float = 1e-8) -> list[RocPoint]:
    """Complementary ROC sweep: for each false-alarm target, the threshold
    and the channel-averaged detection probability.

    ``pf_grid`` must be strictly increasing inside (0, 1), and ``tol`` lie
    in (0, inf).  A curve is split into a detector side and a channel side.
    The detector side depends only on (u, pf_grid, tol):
    every threshold by one batched Newton inversion (``_thresholds``), the
    number n of terms that the largest threshold needs for a tail bound
    below ``tol``, and one read-only matrix of P(u+k, lam/2), one row per
    threshold (``_gamma_matrix``).  It is built once per key and kept for
    the 16 most recent keys whose matrix is at most 1 MiB
    (``_croc_operator``), so curves for many channels at one detector share
    it.  The channel side runs on every call: the channel's pmf with n
    terms, and one matrix-vector product (``_pmd_from_pmf``).  Every point
    shares those terms, so its error is at most ``tol``.  Each returned
    point is a ``RocPoint`` named tuple (pf, pd, pmd); one check on the
    whole P_md vector raises DomainError unless every pmd lies in [0, 1].
    """
    grid = tuple(map(float, pf_grid))
    if not grid:
        raise DomainError("pf_grid must be nonempty")
    if not all(map(operator.lt, (0.0,) + grid, grid + (1.0,))):  # 0 < g_0 < ... < 1
        if not all(0.0 < x < 1.0 for x in grid):
            raise DomainError("pf_grid values must lie strictly inside (0, 1)")
        raise DomainError("pf_grid must be strictly increasing")
    if not 1 <= cfg_u < math.inf or int(cfg_u) != cfg_u:
        raise DomainError(f"u must be a positive integer, got {cfg_u}")
    _check_tol(tol)
    try:
        n, gammas = _croc_operator(int(cfg_u), grid, float(tol))
    except _NotKept as big:
        n, gammas = big.args
    pmds, _ = _pmd_from_pmf(_poisson_pmf(channel, n, 1.0), gammas)
    lowest, highest = np.minimum.reduce(pmds), np.maximum.reduce(pmds)
    if not 0.0 <= lowest <= highest <= 1.0:  # NaN fails too
        raise DomainError(f"probabilities must lie in [0, 1], got pmd {lowest}..{highest}")
    return list(map(RocPoint._make, zip(grid, (1.0 - pmds).tolist(), pmds.tolist())))
