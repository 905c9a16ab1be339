"""Independent reference machinery: adaptive quadrature up to a cutoff from
scipy's inverse tails, the mass past it counted in the error, and Monte Carlo.

Nothing in this module calls ``detection`` or ``capacity``.  Channel
densities and samplers come from ``channels``, and the instantaneous metrics
that both references average are built here: the detection probability from
the Boost noncentral chi-square kernel in ``scipy.special`` (the one
``scipy.stats.ncx2.sf`` calls), the ROC area from its own double sum over the
Poisson(gamma/2) terms, and the rate-moment integrand (1 + gamma)^-A.  None
of them shares code with the closed forms they are used to check.

scipy is imported only inside ``channel_cutoff``, ``quad_average`` and
``detect_metric``, so ``import edsense`` and the CLI subcommands other than
``verify`` load no scipy.  ``verify`` loads ``scipy.special`` and
``scipy.integrate`` but not ``scipy.stats``, which would add about 20 MB of
resident memory.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .channels import (
    _DRAW_BLOCK,
    FisherFParams,
    KappaMuShadowedParams,
    f_pdf,
    f_sample,
    kms_pdf,
    kms_sample,
)
from .errors import ConvergenceError, DomainError

__all__ = [
    "QuadratureSpec",
    "MonteCarloSpec",
    "QuadResult",
    "McResult",
    "channel_cutoff",
    "channel_density",
    "channel_sampler",
    "quad_average",
    "average_over_channel",
    "mc_average",
    "detect_metric",
    "auc_metric",
    "rate_metric",
]


def channel_cutoff(params, abs_tol: float) -> float:
    """Upper limit L with P[gamma > L] <= abs_tol / 20, from scipy's inverse tails.

    Kappa-mu: L puts each half of the union bound Q(mu-m, theta1 L/2) +
    Q(m, theta2 L/2) at abs_tol / 40.  Fisher: 1/(1 + omega gamma) is
    Beta(m_s, m), so the tail is I_y(m_s, m) at y = 1/(1 + omega L), exactly
    (at abs_tol / 10 its rounding leaves slightly more than abs_tol / 10).
    A cut that is not positive and finite raises ConvergenceError.
    """
    from scipy import special

    if not 0.0 < abs_tol < math.inf:
        raise DomainError(f"abs_tol must be finite and positive, got {abs_tol}")
    t = abs_tol / 20.0
    if isinstance(params, KappaMuShadowedParams):
        halves = ((params.m, params.theta2), (params.mu - params.m, params.theta1))
        L = max(2.0 * special.gammainccinv(a, t / 2.0) / rate for a, rate in halves if a > 0)
    elif isinstance(params, FisherFParams):
        # where y underflows, scipy returns the smallest normal float
        y = special.betaincinv(params.m_s, params.m, t)
        L = (1.0 - y) / (params.omega * y) if y > sys.float_info.min else math.inf
    else:
        raise DomainError(f"no cutoff policy for parameter type {type(params)!r}")
    if not 0.0 < L < math.inf:
        raise ConvergenceError(f"no finite cutoff for {params!r} at abs_tol={abs_tol}")
    return float(L)


_MAX_SUBDIVISIONS = 2000  # QUADPACK's limit on each geometric piece


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances for the averaging quadrature."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10

    def __post_init__(self):
        if not (0.0 < self.abs_tol < math.inf and 0.0 < self.rel_tol < math.inf):
            raise DomainError("quadrature tolerances must be finite and positive")


@dataclass(frozen=True)
class MonteCarloSpec:
    """Seeded Monte Carlo budget; results are reproducible for a fixed
    (seed, n_streams)."""

    seed: int
    n_samples: int = 10**6
    n_streams: int = 1

    def __post_init__(self):
        try:
            list(map(operator.index, (self.seed, self.n_samples, self.n_streams)))
        except TypeError:
            raise DomainError("seed, n_samples and n_streams must be integers") from None
        if not 0 <= self.seed < 2**64:
            raise DomainError("seed must fit in 64 unsigned bits")
        if self.n_samples < 10**4:
            raise DomainError("n_samples must be >= 1e4 for statistical use")
        if self.n_streams < 1:
            raise DomainError("n_streams must be >= 1")


class QuadResult(NamedTuple):
    value: float
    error: float


class McResult(NamedTuple):
    mean: float
    std_error: float


def channel_density(params) -> Callable[[float], float]:
    if isinstance(params, KappaMuShadowedParams):
        return lambda g: kms_pdf(params, g)
    if isinstance(params, FisherFParams):
        return lambda g: f_pdf(params, g)
    raise DomainError(f"no density for parameter type {type(params)!r}")


def channel_sampler(params) -> Callable[[np.random.Generator, int], np.ndarray]:
    if isinstance(params, KappaMuShadowedParams):
        return lambda rng, n: kms_sample(params, rng, n)
    if isinstance(params, FisherFParams):
        return lambda rng, n: f_sample(params, rng, n)
    raise DomainError(f"no sampler for parameter type {type(params)!r}")


def quad_average(metric: Callable[[float], float],
                 density: Callable[[float], float],
                 spec: QuadratureSpec = QuadratureSpec(),
                 *,
                 params=None) -> QuadResult:
    """Integral of metric(gamma) * density(gamma) over [0, cutoff].

    The cutoff is ``channel_cutoff(params, spec.abs_tol)``; ``params`` is
    required.  The interval is split geometrically so heavy-tailed densities
    integrate accurately piece by piece.  ``error`` adds the tail mass past the
    cutoff (abs_tol / 20) to scipy's estimates: a bound for any metric in [0, 1].
    """
    from scipy import integrate

    if params is None:
        raise DomainError("quad_average needs the channel params for its cutoff")
    upper = channel_cutoff(params, spec.abs_tol)

    edges = [upper]
    e = upper
    while e > 1e-2:
        e /= 6.0
        edges.append(e)
    edges.append(0.0)
    edges.reverse()

    def integrand(g: float) -> float:
        return metric(g) * density(g)

    total = 0.0
    err = spec.abs_tol / 20.0  # the tail that channel_cutoff leaves
    per_piece = spec.abs_tol / (2.0 * len(edges))
    for lo, hi in zip(edges, edges[1:]):
        v, a = integrate.quad(integrand, lo, hi, epsabs=per_piece,
                              epsrel=spec.rel_tol,
                              limit=_MAX_SUBDIVISIONS)
        total += v
        err += a
    if err > spec.abs_tol + spec.rel_tol * abs(total):
        raise ConvergenceError(
            f"quadrature error estimate {err:.2e} exceeds the requested tolerance")
    return QuadResult(value=total, error=err)


def average_over_channel(metric: Callable[[float], float], params,
                         spec: QuadratureSpec = QuadratureSpec()) -> QuadResult:
    """Convenience wrapper wiring the channel density and cutoff."""
    return quad_average(metric, channel_density(params), spec, params=params)


def mc_average(metric: Callable[[np.ndarray], np.ndarray],
               sampler: Callable[[np.random.Generator, int], np.ndarray],
               spec: MonteCarloSpec) -> McResult:
    """Sample mean and standard error of metric(gamma) over channel draws.

    The sample budget is split across ``n_streams`` deterministic
    sub-streams spawned from the seed; streams are reduced in index order,
    so the result is bit-identical for a fixed (seed, n_streams).

    Each stream's draws come from one ``sampler`` call, and ``metric`` is
    applied to consecutive blocks of them (2^16 draws), its values written
    over the draws.  So ``metric`` must act elementwise, as ``detect_metric``,
    ``auc_metric`` and ``rate_metric`` do.  The working memory is one
    stream's draws (8 bytes each) plus the metric's temporaries for one
    block; the channel samplers stay within one array of draws plus one
    block as well.
    """
    seq = np.random.SeedSequence(spec.seed)
    children = seq.spawn(spec.n_streams)
    base = spec.n_samples // spec.n_streams
    remainder = spec.n_samples % spec.n_streams
    total = 0.0
    total_sq = 0.0
    count = 0
    for idx, child in enumerate(children):
        n = base + (1 if idx < remainder else 0)
        if n == 0:
            continue
        values = np.asarray(sampler(np.random.default_rng(child), n), dtype=float)
        for start in range(0, n, _DRAW_BLOCK):
            block = values[start:start + _DRAW_BLOCK]
            block[...] = metric(block)
        total += float(np.sum(values))
        values *= values
        total_sq += float(np.sum(values))
        count += n
    mean = total / count
    var = max(0.0, (total_sq - count * mean * mean) / (count - 1))
    return McResult(mean=mean, std_error=math.sqrt(var / count))


def _positive_int(u) -> int:
    if not 1 <= u < math.inf or int(u) != u:
        raise DomainError(f"u must be a positive integer, got {u}")
    return int(u)


def detect_metric(u: int, lam: float) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized instantaneous detection probability gamma -> P_d.

    Uses the noncentral chi-square survival function (the detector statistic
    X under the signal hypothesis has 2u degrees of freedom and noncentrality
    nc = 2 gamma), an implementation independent of the series Marcum-Q.  The
    values are those of ``scipy.stats.ncx2.sf(lam, 2u, nc)``, bit for bit,
    taken from the Boost kernel it wraps: ``chdtrc(2u, lam)`` at nc = 0, nan
    where nc is nan or negative, the kernel's nan at nc = +inf, and 1.0 on the
    whole support nc >= 0 when lam = 0.

    Far above the threshold, P_d is 1.0 without the kernel: the Chernoff bound
    at s = 1/2 on the lower tail, P[X <= lam] <= 2^-u e^(lam/2 - nc/4), is
    below 2^-54 (half the spacing of doubles under 1) once nc > 2 lam + 152,
    so P_d rounds to 1.0 there.  That is where the kernel fails: it is ``nan``
    from nc of about 1e19 on, and for lam <= 2e-8 it overflows from nc of
    about 400 on.  A u that is not a positive integer, or a lam that is not
    finite and >= 0, raises DomainError.
    """
    from scipy import special
    from scipy.special._ufuncs import _ncx2_sf

    df = 2 * _positive_int(u)
    if not 0.0 <= lam < math.inf:
        raise DomainError(f"lam must be finite and >= 0, got {lam}")
    nc_one = 2.0 * lam + 152.0
    sf_central = special.chdtrc(df, lam)

    def metric(g):
        nc = 2.0 * np.asarray(g, dtype=float)
        pd = np.ones_like(nc)
        # at lam = 0, P_d is 1.0 on the whole support
        one = (nc > nc_one) & (nc < math.inf) if lam > 0.0 else nc >= 0.0
        central = nc == 0.0  # where the kernel can overflow and stats uses chi2
        _ncx2_sf(lam, df, nc, out=pd, where=~(one | central))
        np.copyto(pd, sf_central, where=central)
        return pd
    return metric


def auc_metric(u: int) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized instantaneous ROC area gamma -> A(gamma)
    = 1 - sum_{l<u} sum_{i<=l} C(l+u-1, l-i) 2^-(l+i+u) gamma^i e^(-gamma/2) / i!,
    summed by i: A = 1 - sum_{i<u} c_i gamma^i e^(-gamma/2) / i!, where
    c_i = 2^-i sum_{l=i}^{u-1} C(l+u-1, l-i) 2^-(l+u).  Each term is formed
    in log space, so no factorial overflows and gamma = 0 stays finite.
    A u that is not a positive integer raises DomainError."""
    u = _positive_int(u)
    ln_fact = np.array([math.lgamma(k + 1.0) for k in range(2 * u)])
    ln_coef = np.empty(u)
    for i in range(u):
        ell = np.arange(i, u)
        ln_c = (ln_fact[ell + u - 1] - ln_fact[ell - i] - ln_fact[u + i - 1]
                - (ell + i + u) * math.log(2.0))
        top = ln_c.max()
        ln_coef[i] = top + math.log(np.exp(ln_c - top).sum()) - ln_fact[i]

    def metric(g):
        g = np.asarray(g, dtype=float)
        with np.errstate(divide="ignore"):
            ln_g = np.log(g)
        half = g / 2.0
        total = np.exp(ln_coef[0] - half)
        for i in range(1, u):
            total += np.exp(ln_coef[i] + i * ln_g - half)
        return 1.0 - total
    return metric


def rate_metric(a_exponent: float) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized rate-moment integrand gamma -> (1 + gamma)^-A, for a
    finite A > 0 (any other A raises DomainError)."""
    if not 0.0 < a_exponent < math.inf:
        raise DomainError(f"A must be finite and positive, got {a_exponent}")

    def metric(g):
        return np.exp(-a_exponent * np.log1p(np.asarray(g, dtype=float)))
    return metric
