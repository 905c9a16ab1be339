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
V ~ Gamma(m_s, 1), one uniform trapezoid sum in sigma = ln V that serves
every k at once; its step is halved until two levels agree.  (The
coefficient's closed form in the Tricomi U, one quadrature per term, now
serves only as a reference in the tests.)  Every term is positive, and
since P(u + k, lambda/2) falls with k and pi sums to at most one, the tail
after S terms is at most P(u + S, lambda/2) on any channel.  That bound
depends on (u, lambda) alone and certifies the truncation.  The factors
P(u + k, lambda/2) are a cumulative sum of the Poisson terms that
``marcum_q`` also sums (``specfun._poisson_terms``).  The ROC area uses the
same pmf at half the SNR: A = 1 - sum_{i<u} pi_i w_i, with the weights
w_i = P[Bin(2u-1, 1/2) >= u+i] (``_roc_weights``).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .channels import FisherFParams, KappaMuShadowedParams
from .errors import ConvergenceError, DomainError
from .specfun import (
    AccuracyPolicy,
    DEFAULT_POLICY,
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
        if self.u < 1 or int(self.u) != self.u:
            raise DomainError(f"u must be a positive integer, got {self.u}")
        if self.lam < 0.0:
            raise DomainError(f"lam must be >= 0, got {self.lam}")


@dataclass(frozen=True)
class TruncationReport:
    """Certificate for a truncated series: terms kept and the tail bound."""

    terms_used: int
    error_bound: float
    converged: bool

    def __post_init__(self):
        if self.error_bound < 0.0:
            raise DomainError("error_bound must be >= 0")


@dataclass(frozen=True)
class RocPoint:
    """One operating point: false-alarm probability, average detection
    probability and average missed-detection probability.

    ``pmd`` is summed directly rather than taken as 1 - pd, so it keeps its
    relative accuracy where it is small.
    """

    pf: float
    pd: float
    pmd: float

    def __post_init__(self):
        if not all(0.0 <= v <= 1.0 for v in (self.pf, self.pd, self.pmd)):
            raise DomainError(f"probabilities must lie in [0, 1], got {self}")


def prob_false_alarm(cfg: DetectorConfig) -> float:
    """False-alarm probability; channel-independent, decreasing in lam."""
    return reg_upper_gamma(cfg.u, cfg.lam / 2.0)


# Largest y = lam/2 that threshold_for_pf searches.
_Y_MAX = 5e3


def threshold_for_pf(u: int, pf_target: float) -> float:
    """Threshold lam achieving the requested false-alarm probability.

    Solves P_f = Q(u, y) for y = lam/2 by Newton steps on ln T, where T is
    the smaller tail: Q(u, y) = pf_target for pf_target <= 1/2, else
    P(u, y) = 1 - pf_target, so that lam keeps its relative accuracy as
    pf_target -> 1.  Both ln Q and ln P are concave in y (the Gamma(u)
    density is log-concave), and d ln T/dy = -/+ y^(u-1) e^(-y) / (Gamma(u) T)
    in closed form.  A step that leaves the bracket known to hold the root is
    replaced by bisection.  The returned threshold reproduces pf_target to
    within 1e-12; thresholds above lam = 1e4 raise ConvergenceError.
    """
    if not 0.0 < pf_target < 1.0:
        raise DomainError(f"pf_target must be in (0, 1), got {pf_target}")
    if u < 1 or int(u) != u:
        raise DomainError(f"u must be a positive integer, got {u}")
    upper = pf_target <= 0.5
    tail, target = ((reg_upper_gamma, pf_target) if upper
                    else (reg_lower_gamma, 1.0 - pf_target))
    ln_target, ln_gamma_u = math.log(target), math.lgamma(u)
    lo, hi = 0.0, _Y_MAX
    y = min(_threshold_guess(u, pf_target), hi)
    for _ in range(100):
        t = tail(u, y)
        ln_t = math.log(t) if t > 0.0 else -math.inf
        if (ln_t > ln_target) == upper:
            lo = y
        else:
            hi = y
        if lo == _Y_MAX:
            raise ConvergenceError(
                f"threshold for pf={pf_target} exceeds lam = {2.0 * _Y_MAX:g}")
        if ln_t == -math.inf:
            y = 0.5 * (lo + hi)
            continue
        slope = math.exp((u - 1) * math.log(y) - y - ln_gamma_u - ln_t)
        step = (ln_target - ln_t) / (-slope if upper else slope)
        if abs(step) <= 1e-9 * y:
            y += step
            break
        y = y + step if lo < y + step < hi else 0.5 * (lo + hi)
    else:
        raise ConvergenceError(f"threshold inversion stalled at pf={pf_target}")
    if abs(reg_upper_gamma(u, y) - pf_target) > 1e-12:
        raise ConvergenceError(f"threshold inversion stalled at pf={pf_target}")
    return 2.0 * y


def _threshold_guess(u: int, pf_target: float) -> float:
    """Starting y = lam/2 for threshold_for_pf: the Wilson-Hilferty quantile
    of chi-square(2u), or for pf_target > 1/2 the root of y^u / u! =
    1 - pf_target where that lies further right (P(u, y) <= y^u / u!, so the
    threshold is never to its left; Wilson-Hilferty fails in the lower tail).

    The normal quantile is the rational approximation of Abramowitz & Stegun
    26.2.23 (absolute error below 4.5e-4).
    """
    t = math.sqrt(-2.0 * math.log(min(pf_target, 1.0 - pf_target)))
    z = t - ((2.515517 + 0.802853 * t + 0.010328 * t * t)
             / (1.0 + 1.432788 * t + 0.189269 * t * t + 0.001308 * t ** 3))
    c = 1.0 / (9.0 * u)
    if pf_target <= 0.5:
        return u * (1.0 - c + z * math.sqrt(c)) ** 3
    wilson_hilferty = u * max(1.0 - c - z * math.sqrt(c), 0.0) ** 3
    return max(wilson_hilferty,
               math.exp((math.log1p(-pf_target) + math.lgamma(u + 1.0)) / u))


def prob_detect_instant(cfg: DetectorConfig, gamma: float,
                        policy: AccuracyPolicy = DEFAULT_POLICY) -> float:
    """Detection probability at instantaneous SNR ``gamma``."""
    if gamma < 0.0:
        raise DomainError(f"gamma must be >= 0, got {gamma}")
    return marcum_q(cfg.u, math.sqrt(2.0 * gamma), math.sqrt(cfg.lam), policy)


def _nb_pmf(r: int, rate: float, n: int) -> np.ndarray:
    """pmf at 0..n-1 of Poisson(G), G ~ Gamma(r, rate): the negative binomial
    NB(r, rate/(1+rate)); r = 0 gives the point mass at zero."""
    k = np.arange(n)
    with np.errstate(divide="ignore"):
        ln_binom = np.concatenate(
            ([0.0], np.cumsum(np.log((r + k) / (k + 1.0)))))[:n]
    return np.exp(ln_binom + r * (math.log(rate) - math.log1p(rate))
                  - k * math.log1p(rate))


def _poisson_pmf(channel: KappaMuShadowedParams | FisherFParams, n: int,
                 scale: float, policy: AccuracyPolicy = DEFAULT_POLICY) -> np.ndarray:
    """pi_k = E[e^(-s gamma) (s gamma)^k / k!] for k < n, at SNR scale s.

    Shadowed kappa-mu: the SNR is Gamma(mu-m, theta1) + Gamma(m, theta2), so
    pi is the convolution of two negative binomial pmfs, positive at any
    kappa.  Fisher-Snedecor: a negative binomial averaged over the shadowing
    (``_fisher_pmf``), to relative accuracy min(1e-12, ``policy.rel_tol``).
    """
    if isinstance(channel, KappaMuShadowedParams):
        return np.convolve(
            _nb_pmf(channel.mu - channel.m, channel.theta1 / scale, n),
            _nb_pmf(channel.m, channel.theta2 / scale, n))[:n]
    return _fisher_pmf(channel.m, channel.m_s, channel.omega / scale, n,
                       min(1e-12, policy.rel_tol))


# The Fisher pmf's trapezoid range ends where every row's log-integrand lies
# this far below its peak (e^-45 < 3e-20).
_TRAP_DROP = 45.0
_TRAP_MAX_LEVEL = 12
# Largest (k, node) block evaluated at once.
_TRAP_BLOCK = 1 << 15


def _softplus(x: float) -> float:
    """ln(1 + e^x) without overflow."""
    return max(x, 0.0) + math.log1p(math.exp(-abs(x)))


def _fisher_log_weight(sigma: float, k: int, m: float, ms: float,
                       ln_w: float) -> tuple[float, float, float]:
    """(g, g', g'') at sigma of g = m_s sigma - e^sigma + m ln p + k ln(1-p),
    p = w e^sigma / (1 + w e^sigma): the log-integrand of row k of the
    Fisher pmf, strictly concave in sigma."""
    t = sigma + ln_w
    ln_p, ln_q = -_softplus(-t), -_softplus(t)
    p, q, v = math.exp(ln_p), math.exp(ln_q), math.exp(sigma)
    return (ms * sigma - v + m * ln_p + k * ln_q,
            ms - v + m * q - k * p,
            -v - (m + k) * p * q)


def _fisher_peak(k: int, m: float, ms: float, ln_w: float) -> float:
    """Maximum of row k's log-integrand, by Newton steps kept inside the
    bracket [ln(m_s / (1 + k w)), ln(m_s + m)] on which g' changes sign."""
    lo = math.log(ms) - math.log1p(k * math.exp(ln_w))
    hi = math.log(ms + m)
    sigma = hi
    for _ in range(100):
        _, slope, curve = _fisher_log_weight(sigma, k, m, ms, ln_w)
        if slope > 0.0:
            lo = sigma
        else:
            hi = sigma
        nxt = sigma - slope / curve
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - sigma) <= 1e-9:
            return nxt
        sigma = nxt
    raise ConvergenceError(f"Fisher pmf: no peak found for row {k}")


def _fisher_edge(k: int, peak: float, side: float, m: float, ms: float,
                 ln_w: float) -> float:
    """A point on the given side of row k's peak where its log-integrand
    has fallen at least _TRAP_DROP below the peak value.

    Steps out by doubling, then takes Newton steps back toward the crossing;
    by concavity each Newton step stays outside it.
    """
    target = _fisher_log_weight(peak, k, m, ms, ln_w)[0] - _TRAP_DROP
    step = 1.0
    while _fisher_log_weight(sigma := peak + side * step, k, m, ms, ln_w)[0] > target:
        step *= 2.0
    for _ in range(3):
        g, slope, _ = _fisher_log_weight(sigma, k, m, ms, ln_w)
        sigma -= (g - target) / slope
    return sigma


def _fisher_pmf(m: float, ms: float, w: float, n: int, tol: float) -> np.ndarray:
    """pi_0..pi_{n-1} for Fisher-Snedecor fading at w = omega / s.

    The SNR given V ~ Gamma(m_s, 1) is Gamma(m, rate omega V), so pi is a
    negative binomial averaged over sigma = ln V:

        pi_k = Gamma(m+k) / (Gamma(m) k! Gamma(m_s))
               * int exp(m_s sigma - e^sigma) p^m (1-p)^k dsigma,

    p = w e^sigma / (1 + w e^sigma).  The integrand is analytic and decays
    exponentially at both ends, so the uniform trapezoid rule converges
    exponentially in 1/h (Trefethen & Weideman, SIAM Review 2014), and one
    node set serves every k as rows of one log-space matrix, each shifted
    by its own maximum before exponentiating.  Each row's log-integrand is
    concave, and its peak moves left as k grows; so the range runs from
    where row n-1 has fallen _TRAP_DROP below its peak on the left to where
    row 0 has on the right, and holds every row down to e^-_TRAP_DROP of its
    peak.  The first step is about twice the width of row n-1 at its peak;
    h is halved, reusing every node, until two levels agree to ``tol``
    relative in every row.
    """
    ln_w, top = math.log(w), n - 1
    peak = _fisher_peak(top, m, ms, ln_w)
    lo = _fisher_edge(top, peak, -1.0, m, ms, ln_w)
    hi = _fisher_edge(0, _fisher_peak(0, m, ms, ln_w), 1.0, m, ms, ln_w)
    curve = _fisher_log_weight(peak, top, m, ms, ln_w)[2]
    h = 2.0 ** math.floor(math.log2(2.0 / math.sqrt(-curve)))
    count = math.ceil((hi - lo) / h)
    k = np.arange(n, dtype=float)
    shift = np.empty(n)

    def row_sums(sigma: np.ndarray, first: bool) -> np.ndarray:
        """Sum over the nodes sigma of exp(g_k - shift_k) for every row k, in
        blocks of rows; the first level sets each shift to the row maximum."""
        t = sigma + ln_w
        a = ms * sigma - np.exp(sigma) - m * np.logaddexp(0.0, -t)
        b = -np.logaddexp(0.0, t)
        out = np.empty(n)
        rows = max(1, _TRAP_BLOCK // len(sigma))
        for r in range(0, n, rows):
            g = np.multiply.outer(k[r:r + rows], b)
            g += a
            if first:
                shift[r:r + rows] = g.max(axis=1)
            g -= shift[r:r + rows, None]
            out[r:r + rows] = np.exp(g, out=g).sum(axis=1)
        return out

    total = h * row_sums(lo + h * np.arange(count + 1), True)
    for _ in range(_TRAP_MAX_LEVEL):
        h *= 0.5
        prev, total = total, 0.5 * total + h * row_sums(
            lo + h * np.arange(1, 2 * count, 2), False)
        count *= 2
        if np.all(np.abs(total - prev) <= tol * total):
            break
    else:
        raise ConvergenceError(
            f"Fisher pmf trapezoid sum did not settle by h = {h:g}")
    ln_binom = np.concatenate(([0.0], np.cumsum(np.log((m + k[:-1]) / (k[:-1] + 1.0)))))
    return np.exp(ln_binom - math.lgamma(ms) + shift + np.log(total))


def _terms_needed(u: int, y: float, tol: float, max_terms: int) -> int:
    """Smallest S >= 1 at which a bound on the tail P(u+S, y) =
    P[Poisson(y) >= u+S] lies below tol: the Poisson pmf at u+S times a
    geometric majorant of the pmf ratios (``specfun._ln_poisson_tail``).
    """
    if tol <= 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    if y == 0.0:
        return 1
    ln_tol = math.log(tol)
    s = bisect.bisect_left(range(1, max_terms + 1), -ln_tol,
                           key=lambda s: -_ln_poisson_tail(y, u + s, True))
    if s == max_terms:
        raise ConvergenceError(
            f"detection series needs more than {max_terms} terms "
            f"for tol={tol} at u={u}, lam={2.0 * y}")
    return s + 1


def _pmd_from_pmf(pmf: np.ndarray, u: int, lam: float) -> tuple[float, float]:
    """(P_md, tail bound) from the mixed-Poisson series cut after n =
    len(pmf) terms; P(u+k, y) = P(u+n, y) + sum_(k<=i<n) y^(u+i) e^(-y) /
    (u+i)!, and P(u+n, y) is the tail bound."""
    y = lam / 2.0
    if y == 0.0:
        return 0.0, 0.0
    n = len(pmf)
    tail = reg_lower_gamma(u + n, y)
    gammas = np.cumsum(_poisson_terms(u, y, n)[::-1])[::-1] + tail
    return min(1.0, float(np.dot(pmf, gammas))), tail


def _avg_pd(channel, cfg: DetectorConfig, tol: float,
            policy: AccuracyPolicy) -> tuple[float, TruncationReport]:
    """Detection probability, truncated where the tail bound falls below tol."""
    n = _terms_needed(cfg.u, cfg.lam / 2.0, tol, policy.max_terms)
    pmd, bound = _pmd_from_pmf(_poisson_pmf(channel, n, 1.0, policy), cfg.u, cfg.lam)
    return 1.0 - pmd, TruncationReport(terms_used=n, error_bound=bound, converged=True)


def avg_pd_kms(p: KappaMuShadowedParams, cfg: DetectorConfig,
               policy: AccuracyPolicy = DEFAULT_POLICY) -> float:
    """Channel-averaged detection probability, shadowed kappa-mu model.

    The mixed-Poisson series is truncated where its tail bound falls below
    ``policy.rel_tol``.
    """
    return _avg_pd(p, cfg, policy.rel_tol, policy)[0]


def truncation_bound_f(p: FisherFParams, cfg: DetectorConfig, S: int) -> float:
    """Certified upper bound on the discarded tail of the detection series
    when it is truncated to S terms.

    The tail sum_{k>=S} pi_k P(u+k, lam/2) is at most P(u+S, lam/2), because
    P falls with its first argument and pi sums to at most one.  The bound
    holds for every channel; ``p`` does not enter it.
    """
    if S < 1 or int(S) != S:
        raise DomainError(f"S must be a positive integer, got {S}")
    return reg_lower_gamma(cfg.u + S, cfg.lam / 2.0)


def avg_pd_f(p: FisherFParams, cfg: DetectorConfig, tol: float = 1e-8,
             policy: AccuracyPolicy = DEFAULT_POLICY) -> tuple[float, TruncationReport]:
    """Channel-averaged detection probability over Fisher-Snedecor fading.

    Sums the mixed-Poisson series until the certified tail bound drops below
    ``tol``; the report carries the number of terms and that bound.
    """
    return _avg_pd(p, cfg, tol, policy)


def _roc_weights(u: int) -> list[float]:
    """w_i = P[Bin(2u-1, 1/2) >= u+i] for i < u, in O(u) work with no
    factorial to overflow: up to a constant the pmf from u up is a running
    product of the ratios (2u-1-k)/(k+1), and w its reverse running sum,
    scaled so that w_0 is exactly 1/2 (the binomial is symmetric)."""
    pmf, b = [1.0], 1.0
    for k in range(u, 2 * u - 1):
        b *= (2 * u - 1 - k) / (k + 1)
        pmf.append(b)
    tails = list(accumulate(reversed(pmf)))[::-1]
    return [t / (2.0 * tails[0]) for t in tails]


def _auc_from_pmf(pmf: np.ndarray, u: int) -> float:
    """1 - sum_{i<u} pmf_i w_i (``_roc_weights``), where pmf_i is the
    probability of i under Poisson(gamma/2), or its channel average; a pmf
    shorter than u stands for zeros beyond its end."""
    return 1.0 - math.fsum(p * w for p, w in zip(pmf.tolist(), _roc_weights(u)))


def auc_instant(cfg: DetectorConfig, gamma: float) -> float:
    """Area under the ROC at instantaneous SNR ``gamma``; lies in [1/2, 1].
    The Poisson(gamma/2) pmf is a point mass at gamma = 0, where A = 1/2."""
    if gamma < 0.0:
        raise DomainError(f"gamma must be >= 0, got {gamma}")
    pmf = _poisson_terms(0, gamma / 2.0, cfg.u) if gamma > 0.0 else np.ones(1)
    return _auc_from_pmf(pmf, cfg.u)


def avg_auc_kms(p: KappaMuShadowedParams, cfg: DetectorConfig) -> float:
    """Average area under the ROC over shadowed kappa-mu fading."""
    return _auc_from_pmf(_poisson_pmf(p, cfg.u, 0.5), cfg.u)


def avg_auc_f(p: FisherFParams, cfg: DetectorConfig,
              policy: AccuracyPolicy = DEFAULT_POLICY) -> float:
    """Average area under the ROC over Fisher-Snedecor fading."""
    return _auc_from_pmf(_poisson_pmf(p, cfg.u, 0.5, policy), cfg.u)


def croc_curve(channel: KappaMuShadowedParams | FisherFParams, cfg_u: int,
               pf_grid, tol: float = 1e-8,
               policy: AccuracyPolicy = DEFAULT_POLICY) -> list[RocPoint]:
    """Complementary ROC sweep: for each false-alarm target, invert the
    threshold and average the detection probability over the channel.

    ``pf_grid`` must be strictly increasing inside (0, 1).  The channel's
    pmf is built once, with as many terms as the largest threshold needs for
    a tail bound below ``tol``; every point shares those terms, so its error
    is at most ``tol``.  Each returned point carries (pf, pd, pmd).
    """
    grid = [float(x) for x in pf_grid]
    if not grid:
        raise DomainError("pf_grid must be nonempty")
    if any(not 0.0 < x < 1.0 for x in grid):
        raise DomainError("pf_grid values must lie strictly inside (0, 1)")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError("pf_grid must be strictly increasing")
    lams = [threshold_for_pf(cfg_u, pf) for pf in grid]
    n = _terms_needed(cfg_u, max(lams) / 2.0, tol, policy.max_terms)
    pmf = _poisson_pmf(channel, n, 1.0, policy)
    pmds = [_pmd_from_pmf(pmf, cfg_u, lam)[0] for lam in lams]
    return [RocPoint(pf=pf, pd=1.0 - pmd, pmd=pmd) for pf, pmd in zip(grid, pmds)]
