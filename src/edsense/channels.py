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
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .specfun import _poisson_tail_index, _poisson_terms, ln_beta, reg_inc_beta

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
# The density's running terms are scaled down by this factor once they pass it.
_RESCALE = 1e250
_LN_RESCALE = math.log(_RESCALE)
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
    the partial sum.  The terms are carried relative to the first one and
    rescaled before they can overflow.
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
    term = total = 1.0
    tol = _TOL
    # r + j and (j+1)(a+j) at j = 0; both stay exact integers
    rj, den, step = float(r), float(a), a + 2.0
    while True:
        ratio = qx * rj / den
        term *= ratio
        total += term
        if ratio >= 1.0:
            if term > _RESCALE:
                ln_scale += _LN_RESCALE
                term /= _RESCALE
                total /= _RESCALE
        elif term * ratio <= tol * (1.0 - ratio) * total:
            return math.exp(ln_scale + math.log(total))
        rj += 1.0
        den += step
        step += 2.0


def kms_cdf(p: KappaMuShadowedParams, gamma: float) -> float:
    """SNR distribution function, F(gamma) = sum_j P[N = j] P(a+j, x).

    Summed the other way round, F = sum_i Pois(x; a+i) P[N <= i]: positive
    terms, Poisson weights from ``_poisson_terms``, the negative binomial pmf
    by cumulative products of its term ratios, its cdf by a cumulative sum.
    Poisson indices below x - sqrt(2 L x) and from ``_poisson_tail_index(x, L)``
    on are dropped; each side carries at most e^-L of probability
    (L = _LN_TOL), which bounds the absolute error.
    """
    if not 0.0 <= gamma < math.inf:
        raise DomainError(f"gamma must be finite and >= 0, got {gamma}")
    a, rate, r, q = _gamma_mixture(p)
    x = rate * gamma
    n = _poisson_tail_index(x, _LN_TOL) - a
    if gamma == 0.0 or n <= 0:
        return 0.0
    lo = max(0, math.floor(x - math.sqrt(2.0 * _LN_TOL * x)) - a)
    # Pois(x; a+i) for i = lo..n-1
    pois = _poisson_terms(a + lo, x, n - lo)
    # P[N <= i] / P[N = 0] - 1 for i = 1..n-1
    nb = (q * (r - 1) / np.arange(1.0, n) + q).cumprod().cumsum()
    total = pois.sum() + (pois[1:].dot(nb) if lo == 0 else pois.dot(nb[lo - 1:]))
    return min(1.0, math.exp(r * math.log1p(-q)) * float(total))


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
