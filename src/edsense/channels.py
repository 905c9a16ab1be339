"""SNR distributions for the two composite fading models.

The shadowed kappa-mu model (integer mu and m) has the moment generating
function M(s) = (1 - s/theta1)^-(mu-m) * (1 - s/theta2)^-m, i.e. the SNR is
the independent sum of Gamma(mu - m, rate theta1) and Gamma(m, rate theta2)
variates, with theta2 <= theta1.  Since a Gamma(m, theta2) variate is a
negative binomial mixture of Gamma(m + j, theta1) variates (Moschopoulos,
Ann. Inst. Stat. Math. 1985), the SNR is the Gamma mixture

    gamma ~ Gamma(mu + N, theta1),  N ~ NB(m, q),  q = 1 - theta2/theta1,

and its density and distribution function are sums of positive terms, with
no cancellation at any kappa or mu; kappa = 0 and mu = m are the one-term
cases.  Each sum is cut with a certified bound on its tail.

The Fisher-Snedecor model is the scaled central F distribution: the SNR is
mean_snr * (G1/m) / (G2/m_s) with independent unit-scale Gamma variates.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from ._memo import memo
from .errors import ConvergenceError, DomainError
from .specfun import (_BLOCK, _CACHED, _CHUNK, _ln_beta_front, _ln_gamma_weight, _ln_inc_beta,
                      _ln_poisson_tail, _ratios)

__all__ = [
    "KappaMuShadowedParams",
    "FisherFParams",
    "kms_mgf",
    "kms_pdf",
    "kms_cdf",
    "kms_sample",
    "f_pdf",
    "f_cdf",
    "f_sample",
]

# Truncation target of the Gamma-mixture sums, as L in the bound e^-L: a
# relative bound for the density, an absolute one for the distribution.
_LN_TOL = 37.0
_TOL = math.exp(-_LN_TOL)
# exp(x) is 0.0 below about -745.13.
_LN_UNDERFLOW = -746.0
# The most indices a mixture walk takes, and the largest x = rate gamma for
# which kms_cdf sums its terms.
_MAX_INDEX = 1 << 20
_MAX_CHUNKS = _MAX_INDEX // _CHUNK
# Draws handled at a time: the samplers draw their second Gamma factor in
# blocks of this size, and ``oracle.mc_average`` applies its metric to them
# in such blocks, so that neither holds more than one full-length array plus
# temporaries of one block.
_DRAW_BLOCK = 1 << 16


@dataclass(frozen=True)
class KappaMuShadowedParams:
    """Shadowed kappa-mu fading parameters (integer mu and m, mu >= m).

    kappa: dominant-to-scattered power ratio (>= 0).
    mu: number of multipath clusters.
    m: shadowing severity index.
    mean_snr: average SNR, linear scale.
    """

    kappa: float
    mu: int
    m: int
    mean_snr: float
    theta1: float = field(init=False)
    theta2: float = field(init=False)

    def __post_init__(self):
        if not 0.0 <= self.kappa < math.inf:
            raise DomainError(f"kappa must be finite and >= 0, got {self.kappa}")
        if not 1 <= self.mu < math.inf or int(self.mu) != self.mu:
            raise DomainError(f"mu must be a positive integer, got {self.mu}")
        if not 1 <= self.m < math.inf or int(self.m) != self.m:
            raise DomainError(f"m must be a positive integer, got {self.m}")
        if self.mu < self.m:
            raise DomainError(f"mu >= m is required, got mu={self.mu}, m={self.m}")
        if not 0.0 < self.mean_snr < math.inf:
            raise DomainError(f"mean_snr must be finite and positive, got {self.mean_snr}")
        th1 = self.mu * (1.0 + self.kappa) / self.mean_snr
        th2 = self.m * th1 / (self.mu * self.kappa + self.m)
        object.__setattr__(self, "theta1", th1)
        object.__setattr__(self, "theta2", th2)


@dataclass(frozen=True)
class FisherFParams:
    """Fisher-Snedecor F fading parameters.

    m: number of multipath clusters (positive real).
    m_s: shadowing shape parameter; the SNR mean is finite only for m_s > 1,
        which ``has_finite_mean`` reports.
    mean_snr: average SNR, linear scale.
    """

    m: float
    m_s: float
    mean_snr: float
    omega: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.m < math.inf:
            raise DomainError(f"m must be finite and positive, got {self.m}")
        if not 0.0 < self.m_s < math.inf:
            raise DomainError(f"m_s must be finite and positive, got {self.m_s}")
        if not 0.0 < self.mean_snr < math.inf:
            raise DomainError(f"mean_snr must be finite and positive, got {self.mean_snr}")
        object.__setattr__(self, "omega", self.m / (self.m_s * self.mean_snr))

    @property
    def has_finite_mean(self) -> bool:
        return self.m_s > 1.0


def kms_mgf(p: KappaMuShadowedParams, s: float) -> float:
    """MGF E[exp(s * gamma)] of the shadowed kappa-mu SNR, for finite s < theta2."""
    if not -math.inf < s < p.theta2:
        raise DomainError(f"MGF requires finite s < theta2 = {p.theta2}, got s={s}")
    return math.exp(-(p.mu - p.m) * math.log1p(-s / p.theta1)
                    - p.m * math.log1p(-s / p.theta2))


def _gamma_mixture(p: KappaMuShadowedParams) -> tuple[int, float, int, float, float]:
    """(a, rate, r, q, qc): the SNR is Gamma(a + N, rate) with N ~ NB(r, q),
    P[N = j] = C(r+j-1, j) qc^r q^j, qc = 1 - q.

    A Gamma(m, theta2) variate is Gamma(m + N, theta1) with N ~ NB(m, q),
    q = 1 - theta2/theta1 = mu kappa / (mu kappa + m), so the sum of the two
    factors is a Gamma(mu + N, theta1) mixture.  For mu = m only the second
    factor is present, and N = 0.  qc = m / (mu kappa + m) comes from the
    parameters, not as 1 - q from a rounded q, which would cost it eps / qc.
    """
    if p.mu == p.m:
        return p.m, p.theta2, p.m, 0.0, 1.0
    d = p.mu * p.kappa + p.m
    return p.mu, p.theta1, p.m, p.mu * p.kappa / d, p.m / d


def _blocks(rho: np.ndarray):
    """The ratios of one chunk as a tuple of blocks of five."""
    return tuple(map(tuple, rho.reshape(-1, _BLOCK).tolist()))


@memo(_CACHED)
def _pdf_ratios(shape: tuple[int, int], k: int):
    """Chunk k of the density's z-free term ratios rho_j = (r+j) / ((j+1)(a+j))
    (``specfun._ratios`` of 1F1(r; a; z)), for k _CHUNK <= j < (k+1) _CHUNK,
    as a tuple of blocks of five.  The cache is the density's own, so that a
    long walk does not evict the chunks of the hypergeometric series.
    ``shape`` is (r, a)."""
    r, a = shape
    return _blocks(_ratios(r, None, a, np.arange(float(k * _CHUNK), float((k + 1) * _CHUNK))))


def _mixture_sum(chunks, shape: tuple, z: float, lo: int, top: int, ln_scale: float,
                 s: float) -> float:
    """e^ln_scale times the sum of the log-concave terms t_i, i >= lo, whose
    ratios t_(i+1)/t_i = z rho_i fall with i; rho_i comes from
    ``chunks(shape, k)``, chunk k holding i from k _CHUNK to (k+1) _CHUNK in
    blocks of five, and lo is a multiple of five.

    The terms are carried relative to t_lo with no rescaling.  ln_scale is
    ln t_(top _CHUNK), top _CHUNK >= lo, and drops ln(t_(top _CHUNK) / t_lo)
    when the walk reaches chunk top.  The sum stops at the end of the first
    block of five whose last ratio is below 1 and whose tail, at most its
    last term times ratio / (1 - ratio), is below e^-L of the sum (L =
    _LN_TOL).  The ratios shrink going down, so the dropped head is at most
    t_lo s / (1 - s) for s >= t_(lo-1) / t_lo (0 for lo = 0); where that is not
    below e^-L of a finite sum, or the walk passes _MAX_INDEX indices, the
    call raises ConvergenceError.
    """
    k, b = divmod(lo, _CHUNK)
    blocks = chunks(shape, k)[b // _BLOCK:]
    stop = k + _MAX_CHUNKS
    term = total = 1.0
    while k < stop:
        if k == top:
            ln_scale -= math.log(term)  # term = t_top / t_lo
        for r0, r1, r2, r3, r4 in blocks:
            t1 = term * (z * r0)
            t2 = t1 * (z * r1)
            t3 = t2 * (z * r2)
            t4 = t3 * (z * r3)
            ratio = z * r4
            term = t4 * ratio
            total += t1 + t2 + t3 + t4 + term
            if ratio < 1.0 and term * ratio <= _TOL * (1.0 - ratio) * total:
                if not s <= _TOL * (1.0 - s) * total < math.inf:
                    raise ConvergenceError(f"the mixture's window from {lo} is not certified")
                return math.exp(ln_scale + math.log(total))
        k += 1
        blocks = chunks(shape, k)
    raise ConvergenceError(f"the mixture's window from {lo} is longer than {_MAX_INDEX}")


def kms_pdf(p: KappaMuShadowedParams, gamma: float) -> float:
    """SNR density of the shadowed kappa-mu model at finite ``gamma`` >= 0.

    f(gamma) = rate sum_j P[N = j] Pois(x; a-1+j), x = rate gamma, over the
    Gamma mixture of ``_gamma_mixture``: 1F1(r; a; qx) times a front factor.
    The terms t_j have ratios q x (r+j) / ((j+1)(a+j)), falling with j, and
    are summed by ``_mixture_sum`` from lo, the chunk start at or below
    j* - sqrt(2 L v) (j* the mode, where q x (r+j) = (j+1)(a+j), v the
    inverse curvature of ln t_j there, L = _LN_TOL; lo = 0 for q x <= 2 L +
    50), with the head bound s = t_(lo-1)/t_lo.  The z-free ratios come from
    the density's chunk cache (``_pdf_ratios``); the scale is taken in log
    space (``specfun._ln_gamma_weight``) at the chunk start below j* (above
    lo, as j* - lo > 2 L), where the rounding of q x that all ratios share
    cancels.  Where ln t_0 + q x underflows exp, as 1F1(r; a; qx) <= e^qx
    (r <= a), the density is 0.0 without a walk.
    """
    if not 0.0 <= gamma < math.inf:
        raise DomainError(f"gamma must be finite and >= 0, got {gamma}")
    a, rate, r, q, qc = _gamma_mixture(p)
    if gamma == 0.0:
        return rate if a == 1 else 0.0  # a = 1 only for mu = m = 1
    x = rate * gamma
    qx = q * x
    ln_scale = (r * math.log(qc) + math.log(rate) + (a - 1) * math.log(x)
                - x - math.lgamma(a))
    if not ln_scale + qx >= _LN_UNDERFLOW:  # NaN where x overflows
        return 0.0
    lo = top = s = 0
    if qx > 2.0 * _LN_TOL + _CHUNK:  # lo >= _CHUNK needs j* - _CHUNK >= sqrt(2 L v) > 2 L
        half_b = 0.5 * (qx - a - 1.0)  # j* solves j^2 - 2 half_b j = qx r - a
        mode = max(0.0, half_b + math.sqrt(max(0.0, half_b * half_b + qx * r - a)))
        v = 1.0 / (1.0 / (mode + 1.0) + 1.0 / (a + mode) - 1.0 / (r + mode))
        lo = max(0, int(mode - math.sqrt(2.0 * _LN_TOL * v)) // _CHUNK * _CHUNK)
    if lo:  # q > 0, so mu > m: rate = theta1 and (1 - q) x = theta2 gamma
        top = int(mode) // _CHUNK
        ln_scale = (_ln_gamma_weight(a + top * _CHUNK, qx) - a * math.log(q)
                    + math.log(math.comb(r + top * _CHUNK - 1, r - 1))
                    + r * math.log(qc) - math.log(gamma) - p.theta2 * gamma)
        s = lo * (a + lo - 1.0) / (qx * (r + lo - 1.0))
    return _mixture_sum(_pdf_ratios, (r, a), qx, lo, top, ln_scale, s)


@memo(_CACHED)
def _nb_cdf_start(r: int, q: float, qc: float, k: int) -> tuple[float, float]:
    """(ln P[N <= n], P[N = n] / P[N <= n]) at n = k _CHUNK, N ~ NB(r, q),
    qc = 1 - q: P[N <= n] = I_qc(r, n+1) (``specfun._ln_inc_beta``), whose
    front factor qc^r q^(n+1) / B(r, n+1) is P[N = n] q (r+n)."""
    n = k * _CHUNK
    if n == 0 or q == 0.0:  # P[N <= 0] = qc^r; q = 0 puts all the mass at 0
        return r * math.log(qc), float(n == 0)
    ln_cdf = _ln_inc_beta(r, n + 1.0, qc, q)
    return ln_cdf, math.exp(_ln_beta_front(r, n + 1.0, qc, q) - ln_cdf) / (q * (r + n))


@memo(_CACHED)
def _cdf_ratios(shape: tuple[int, int, float, float], k: int):
    """Chunk k of the distribution function's z-free term ratios rho_i =
    P[N <= i+1] / (P[N <= i] (a+i+1)), k _CHUNK <= i < (k+1) _CHUNK, as a
    tuple of blocks of five: the negative binomial cdf from its value at the
    chunk start (``_nb_cdf_start``) on by the pmf's term ratios, so that no
    chunk runs from index 0.  ``shape`` is (a, r, q, qc)."""
    a, r, q, qc = shape
    n = k * _CHUNK
    i = np.arange(float(n), float(n + _CHUNK))
    cdf = np.empty(_CHUNK + 1)  # P[N <= i] / P[N <= n] for n <= i <= n + _CHUNK
    cdf[0] = 1.0
    cdf[1:] = (q * (r + i) / (i + 1.0)).cumprod()
    cdf[1:] *= _nb_cdf_start(r, q, qc, k)[1]
    np.cumsum(cdf, out=cdf)
    return _blocks(cdf[1:] / cdf[:-1] / (a + i + 1.0))


def kms_cdf(p: KappaMuShadowedParams, gamma: float) -> float:
    """SNR distribution function, F(gamma) = sum_j P[N = j] P(a+j, x).

    Summed the other way round, F = sum_i Pois(x; a+i) P[N <= i]: positive,
    log-concave terms whose ratios x rho_i, rho_i = P[N <= i+1] / (P[N <= i]
    (a+i+1)), depend on x only through the factor x.  They are summed by
    ``_mixture_sum`` from lo, the multiple of five at or below
    x - a - sqrt(2 L x) (L = _LN_TOL), with the head bound s = (a+lo)/x, to
    the same relative stop as the density, over chunks of rho cached per
    shape (``_cdf_ratios``).  The scale is taken in log space at the chunk
    start at or below the Poisson mode x - a, from ``_ln_gamma_weight`` and
    the cached ``_nb_cdf_start``.

    Past x = _MAX_INDEX the result is 1.0 where 1 - F is at most e^-L by the
    bound Q(mu-m, theta1 gamma/2) + Q(m, theta2 gamma/2) (one of the two
    Gamma factors passes gamma/2), each Q(k, y) = P[Poisson(y) <= k-1]
    bounded by ``_ln_poisson_tail``, and ConvergenceError elsewhere.
    """
    if not 0.0 <= gamma < math.inf:
        raise DomainError(f"gamma must be finite and >= 0, got {gamma}")
    a, rate, r, q, qc = _gamma_mixture(p)
    x = rate * gamma
    if x > _MAX_INDEX:
        half = min(0.5 * gamma, sys.float_info.max / p.theta1)  # theta * half stays finite
        tail = sum(math.exp(_ln_poisson_tail(theta * half, k - 1, False))
                   for k, theta in ((p.m, p.theta2), (p.mu - p.m, p.theta1)) if k > 0)
        if tail <= _TOL:
            return 1.0
        raise ConvergenceError(
            f"kms_cdf needs about {x:.3g} mixture indices, more than {_MAX_INDEX}")
    if gamma == 0.0:
        return 0.0
    lo = max(0, math.floor(x - math.sqrt(2.0 * _LN_TOL * x)) - a) // _BLOCK * _BLOCK
    top = max(0, math.floor(x) - a) // _CHUNK  # top _CHUNK >= lo: lo > 0 needs x > 2 L

    ln_scale = (_ln_gamma_weight(a + top * _CHUNK + 1.0, x) - math.log(x)
                + _nb_cdf_start(r, q, qc, top)[0])
    return min(1.0, _mixture_sum(_cdf_ratios, (a, r, q, qc), x, lo, top, ln_scale,
                                 (a + lo) / x if lo else 0.0))


def kms_sample(p: KappaMuShadowedParams, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw ``n`` SNR variates as the sum of the two Gamma factors."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if p.mu == p.m:
        return rng.gamma(p.m, 1.0 / p.theta2, size=n)
    first = rng.gamma(p.mu - p.m, 1.0 / p.theta1, size=n)
    for start in range(0, n, _DRAW_BLOCK):
        block = first[start:start + _DRAW_BLOCK]
        block += rng.gamma(p.m, 1.0 / p.theta2, size=block.size)
    return first


def f_pdf(p: FisherFParams, gamma: float) -> float:
    """Fisher-Snedecor SNR density x^m y^m_s / (B(m, m_s) gamma) at finite
    ``gamma`` >= 0, x = t/(1+t), y = 1/(1+t), t = omega gamma.

    gamma = 0 is only in the domain for m >= 1 (the density has an
    integrable singularity at the origin when m < 1).
    """
    if not 0.0 <= gamma < math.inf:
        raise DomainError(f"gamma must be finite and >= 0, got {gamma}")
    if gamma == 0.0:
        if p.m < 1.0:
            raise DomainError("density is singular at gamma = 0 for m < 1")
        return p.omega * p.m_s if p.m == 1.0 else 0.0  # 1/B(1, m_s) = m_s
    t = p.omega * gamma
    return math.exp(_ln_beta_front(p.m, p.m_s, t / (1.0 + t), 1.0 / (1.0 + t))
                    - math.log(gamma))


def f_cdf(p: FisherFParams, gamma: float) -> float:
    """Fisher-Snedecor SNR distribution function I_x(m, m_s), x = t/(1+t) and
    y = 1/(1+t), t = omega gamma (``specfun._ln_inc_beta``)."""
    if not 0.0 <= gamma < math.inf:
        raise DomainError(f"gamma must be finite and >= 0, got {gamma}")
    if gamma == 0.0:
        return 0.0
    t = p.omega * gamma
    return math.exp(_ln_inc_beta(p.m, p.m_s, t / (1.0 + t), 1.0 / (1.0 + t)))


def f_sample(p: FisherFParams, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw ``n`` SNR variates via the Gamma-ratio construction."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    g1 = rng.gamma(p.m, 1.0, size=n)
    g1 /= p.m
    g1 *= p.mean_snr
    for start in range(0, n, _DRAW_BLOCK):
        block = g1[start:start + _DRAW_BLOCK]
        g2 = rng.gamma(p.m_s, 1.0, size=block.size)
        g2 /= p.m_s
        block /= g2
    return g1
