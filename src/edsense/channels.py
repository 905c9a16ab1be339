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
from .specfun import (_CHUNK, _ln_poisson_tail, _poisson_tail_index, _poisson_terms,
                      _ratio_blocks, _series_ratios, ln_beta, reg_inc_beta)

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
# The density's running terms are scaled down by this factor once a block of
# five ends past it.  A block grows them by less than 1e58 while its term
# ratios, at most q x, stay below 1e11; a walk runs to j ~ q x, so only one of
# 1e11 terms could pass that.
_RESCALE = 1e250
_LN_RESCALE = math.log(_RESCALE)
# The density takes its first _PDF_CHUNKS chunks of term ratios from the
# series' cache, and builds later ones _PDF_RUN chunks at a time.
_PDF_CHUNKS = 64
_PDF_RUN = 20
# exp(x) is 0.0 below about -745.13.
_LN_UNDERFLOW = -746.0
# The most mixture indices kms_cdf sums, each array of them about 8 MB.
_MAX_INDEX = 1 << 20
# The lengths of the negative binomial cdfs that kms_cdf caches per shape.
_NB_MIN_LEN = 64
_NB_CACHED_LEN = 1 << 14
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


def _gamma_mixture(p: KappaMuShadowedParams) -> tuple[int, float, int, float]:
    """(a, rate, r, q): the SNR is Gamma(a + N, rate) with N ~ NB(r, q),
    P[N = j] = C(r+j-1, j) (1-q)^r q^j.

    A Gamma(m, theta2) variate is Gamma(m + N, theta1) with N ~ NB(m, q),
    q = 1 - theta2/theta1 = mu kappa / (mu kappa + m), so the sum of the two
    factors is a Gamma(mu + N, theta1) mixture.  For mu = m only the second
    factor is present, and N = 0.
    """
    if p.mu == p.m:
        return p.m, p.theta2, p.m, 0.0
    return p.mu, p.theta1, p.m, p.mu * p.kappa / (p.mu * p.kappa + p.m)


def kms_pdf(p: KappaMuShadowedParams, gamma: float) -> float:
    """SNR density of the shadowed kappa-mu model at finite ``gamma`` >= 0.

    f(gamma) = rate sum_j P[N = j] Pois(x; a-1+j), x = rate gamma, over the
    Gamma mixture of ``_gamma_mixture``.  The terms are positive with ratios
    t_(j+1)/t_j = q x (r+j) / ((j+1)(a+j)), which fall with j, so once a
    ratio is below 1 the rest of the sum is at most the last term times
    ratio / (1 - ratio); the sum stops when that bound is below e^-_LN_TOL of
    the partial sum.  The sum is 1F1(r; a; qx), and its z-free ratios
    (r+j) / ((j+1)(a+j)) are the series' own (``specfun._series_ratios``,
    five a block): the first _PDF_CHUNKS chunks come from that shared cache,
    later ones, which only walks of thousands of terms reach, are built per
    call in runs of _PDF_RUN chunks.  The stop rule is applied at the end of
    each block.  The terms are carried relative to the first one and rescaled
    once a block ends past _RESCALE.  As 1F1(r; a; qx) <= e^qx (r <= a),
    where the log of the first term plus qx lies below exp's underflow the
    density is 0.0 without a walk.
    """
    if not 0.0 <= gamma < math.inf:
        raise DomainError(f"gamma must be finite and >= 0, got {gamma}")
    a, rate, r, q = _gamma_mixture(p)
    if gamma == 0.0:
        return rate if a == 1 else 0.0  # a = 1 only for mu = m = 1
    x = rate * gamma
    qx = q * x
    ln_scale = (r * math.log1p(-q) + math.log(rate) + (a - 1) * math.log(x)
                - x - math.lgamma(a))
    if not ln_scale + qx >= _LN_UNDERFLOW:  # NaN where x overflows
        return 0.0
    term = total = 1.0
    tol = _TOL
    k = 0
    while True:
        if k < _PDF_CHUNKS:
            blocks = _series_ratios(r, None, a, k)
            k += 1
        else:
            blocks = _ratio_blocks(r, None, a, k * _CHUNK, (k + _PDF_RUN) * _CHUNK)
            k += _PDF_RUN
        for r0, r1, r2, r3, r4, _ in blocks:
            t1 = term * (qx * r0)
            t2 = t1 * (qx * r1)
            t3 = t2 * (qx * r2)
            t4 = t3 * (qx * r3)
            term = t4 * (qx * r4)
            total += t1 + t2 + t3 + t4 + term
            ratio = qx * r4
            if ratio >= 1.0:
                if term > _RESCALE:
                    ln_scale += _LN_RESCALE
                    term /= _RESCALE
                    total /= _RESCALE
            elif term * ratio <= tol * (1.0 - ratio) * total:
                return math.exp(ln_scale + math.log(total))


@memo(64)
def _nb_cdf(r: int, q: float, n: int) -> np.ndarray:
    """P[N <= i] / P[N = 0] for i < n, N ~ NB(r, q), as a read-only array:
    1 plus the cumulative sum of the pmf's cumulative products of term
    ratios.  ``kms_cdf`` keeps the most recent 64, of lengths 2^k from
    _NB_MIN_LEN to _NB_CACHED_LEN (at most 128 KB each)."""
    out = np.ones(n)
    out[1:] += (q * (r - 1) / np.arange(1.0, n) + q).cumprod().cumsum()
    out.flags.writeable = False
    return out


def kms_cdf(p: KappaMuShadowedParams, gamma: float) -> float:
    """SNR distribution function, F(gamma) = sum_j P[N = j] P(a+j, x).

    Summed the other way round, F = sum_i Pois(x; a+i) P[N <= i]: positive
    terms, Poisson weights from ``_poisson_terms``, the negative binomial pmf
    by cumulative products of its term ratios, its cdf by a cumulative sum.
    Poisson indices below x - sqrt(2 L x) and from ``_poisson_tail_index(x, L)``
    on are dropped; each side carries at most e^-L of probability
    (L = _LN_TOL), which bounds the absolute error.

    The negative binomial cdf depends on the shape alone, so it comes from
    ``_nb_cdf``'s cache for up to _NB_CACHED_LEN indices.  It runs over all
    indices from 0, so past x = _MAX_INDEX the result is 1.0 where 1 - F is
    at most e^-L by the bound
    Q(mu-m, theta1 gamma/2) + Q(m, theta2 gamma/2) (one of the two Gamma
    factors passes gamma/2), each Q(k, y) = P[Poisson(y) <= k-1] bounded
    by ``_ln_poisson_tail``, and ConvergenceError elsewhere.
    """
    if not 0.0 <= gamma < math.inf:
        raise DomainError(f"gamma must be finite and >= 0, got {gamma}")
    a, rate, r, q = _gamma_mixture(p)
    x = rate * gamma
    if x > _MAX_INDEX:
        half = min(0.5 * gamma, sys.float_info.max / p.theta1)  # theta * half stays finite
        tail = sum(math.exp(_ln_poisson_tail(theta * half, k - 1, False))
                   for k, theta in ((p.m, p.theta2), (p.mu - p.m, p.theta1)) if k > 0)
        if tail <= _TOL:
            return 1.0
        raise ConvergenceError(
            f"kms_cdf needs about {x:.3g} mixture indices, more than {_MAX_INDEX}")
    n = _poisson_tail_index(x, _LN_TOL) - a
    if gamma == 0.0 or n <= 0:
        return 0.0
    lo = max(0, math.floor(x - math.sqrt(2.0 * _LN_TOL * x)) - a)
    # Pois(x; a+i) for i = lo..n-1
    pois = _poisson_terms(a + lo, x, n - lo)
    size = max(_NB_MIN_LEN, 1 << (n - 1).bit_length())
    nb = _nb_cdf(r, q, size) if size <= _NB_CACHED_LEN else _nb_cdf.__wrapped__(r, q, n)
    return min(1.0, math.exp(r * math.log1p(-q)) * float(pois.dot(nb[lo:n])))


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
    """Fisher-Snedecor SNR density at finite ``gamma`` >= 0.

    gamma = 0 is only in the domain for m >= 1 (the density has an
    integrable singularity at the origin when m < 1).
    """
    if not 0.0 <= gamma < math.inf:
        raise DomainError(f"gamma must be finite and >= 0, got {gamma}")
    ln_norm = p.m * math.log(p.omega) - ln_beta(p.m, p.m_s)
    if gamma == 0.0:
        if p.m < 1.0:
            raise DomainError("density is singular at gamma = 0 for m < 1")
        return math.exp(ln_norm) if p.m == 1.0 else 0.0
    return math.exp(ln_norm + (p.m - 1.0) * math.log(gamma)
                    - (p.m + p.m_s) * math.log1p(p.omega * gamma))


def f_cdf(p: FisherFParams, gamma: float) -> float:
    """Fisher-Snedecor SNR distribution function (regularized incomplete beta)."""
    if not 0.0 <= gamma < math.inf:
        raise DomainError(f"gamma must be finite and >= 0, got {gamma}")
    if gamma == 0.0:
        return 0.0
    x = p.omega * gamma / (1.0 + p.omega * gamma)
    return reg_inc_beta(p.m, p.m_s, x)


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
