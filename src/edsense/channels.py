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

At integer mu > m and kappa > 0 the same law also has a closed form, the
partial fractions of the MGF (``_partial_fractions``): mu - m terms in
Pois(theta1 gamma; k) and m in Pois(theta2 gamma; k), whose weights
alternate in sign and cancel as kappa -> 0 and at large mu below a few
times the mean.  kms_pdf and kms_cdf take it where a per-call guard on the
size of its rounding certifies it (``_closed_form``) and walk the mixture
elsewhere; a per-shape reach in theta1 gamma spares the points below it the
attempt.

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
                      _ln_poisson_tail, _ratios, ln_beta)

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
# The most spread, the size of its terms' rounding over its value, at which
# kms_pdf and kms_cdf take the closed form (``_closed_form``).  Against the
# exact partial-fraction sum in mpmath 1.3.0, on 3,000 random cells (mu
# 2-60, m < mu, kappa 0.1-1000, mean 0.1-1000, gamma / mean 0.1-30) and 200
# with mu 100-1000, its error stayed below 8.8e-15 per unit of spread
# wherever the spread passed 16, so 64 keeps it within 5.7e-13.  The worst
# accepted cells were 2.8e-13 off (density) and 3.3e-13 (1 - F, relative;
# F itself within 6.1e-15); at the worst density cell with mu <= 60 (2.7e-13,
# mu = 35) most of the error is the rounding of theta2 gamma, which the walk
# shares.
_MAX_SPREAD = 64.0
_LN2 = math.log(2.0)
# The closed form is set up for mu up to _MAX_PF_ORDER: a shape keeps 4 mu
# weights and sizes (about 0.3 MB at mu = 1000), and its set-up sums about
# 30 mu terms and builds binomials of up to 0.3 mu digits.  The most recent
# _PF_CACHED shapes are kept.
_MAX_PF_ORDER = 1000
_PF_CACHED = 64
# A reach is bisected in ln(theta1 gamma) over [2^-20, 2^64] in 12 steps.
_REACH_BRACKET = (-20.0 * _LN2, 64.0 * _LN2)
_REACH_STEPS = 12
# Draws handled at a time: the samplers draw their second Gamma factor in
# blocks of this size, and ``oracle.mc_average`` applies its metric to them
# in such blocks, so that neither holds more than one full-length array plus
# temporaries of one block.
_DRAW_BLOCK = 1 << 16


def _set_scales(params, **scales) -> None:
    """Set the channel scales on the frozen ``params``, each a finite normal float."""
    for name, value in scales.items():
        if not sys.float_info.min <= value < math.inf:
            raise DomainError(f"channel scale {name} = {value} is not a finite normal float")
        object.__setattr__(params, name, value)


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
    # derived once below; the scales theta1 and theta2 must be finite normal floats
    theta1: float = field(init=False)  # mu (1 + kappa) / mean_snr
    theta2: float = field(init=False)  # m theta1 / (mu kappa + m)
    q: float = field(init=False)  # mu kappa / (mu kappa + m)
    qc: float = field(init=False)  # m / (mu kappa + m), not 1 - q from a rounded q

    def __post_init__(self):
        if not 0.0 <= self.kappa < math.inf:
            raise DomainError(f"kappa must be finite and >= 0, got {self.kappa}")
        for name in ("mu", "m"):  # an integral float such as 2.0 is stored as an int
            value = getattr(self, name)
            if not 1 <= value < math.inf or int(value) != value:
                raise DomainError(f"{name} must be a positive integer, got {value}")
            object.__setattr__(self, name, int(value))
        if self.mu < self.m:
            raise DomainError(f"mu >= m is required, got mu={self.mu}, m={self.m}")
        if not 0.0 < self.mean_snr < math.inf:
            raise DomainError(f"mean_snr must be finite and positive, got {self.mean_snr}")
        th1 = self.mu * (1.0 + self.kappa) / self.mean_snr
        d = self.mu * self.kappa + self.m  # finite, as theta1 is: qc > 0
        _set_scales(self, theta1=th1, theta2=self.m * th1 / d)
        object.__setattr__(self, "q", self.mu * self.kappa / d)
        object.__setattr__(self, "qc", self.m / d)


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
    omega: float = field(init=False)  # m / (m_s mean_snr), a finite normal float

    def __post_init__(self):
        if not 0.0 < self.m < math.inf:
            raise DomainError(f"m must be finite and positive, got {self.m}")
        if not 0.0 < self.m_s < math.inf:
            raise DomainError(f"m_s must be finite and positive, got {self.m_s}")
        if not 0.0 < self.mean_snr < math.inf:
            raise DomainError(f"mean_snr must be finite and positive, got {self.mean_snr}")
        den = self.m_s * self.mean_snr  # 0.0 where the product underflows
        _set_scales(self, omega=self.m / den if den else math.inf)

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
    q = 1 - theta2/theta1, so the sum of the two factors is a Gamma(mu + N,
    theta1) mixture, with the parameters' q = mu kappa / (mu kappa + m) and
    qc = m / (mu kappa + m), not 1 - q from a rounded q, which would cost it
    eps / qc.  For mu = m only the second factor is present, and N = 0.
    """
    if p.mu == p.m:
        return p.m, p.theta2, p.m, 0.0, 1.0
    return p.mu, p.theta1, p.m, p.q, p.qc


def _running_sums(values: list) -> list:
    """The running sums of the floats ``values``, each correctly rounded:
    summed exactly as integer multiples of the least power of two among
    them."""
    den = max(v.as_integer_ratio()[1] for v in values)
    total, sums = 0, []
    for v in values:
        num, d = v.as_integer_ratio()
        total += num * (den // d)
        sums.append(total / den)
    return sums


def _ln_binomials(n: int, count: int) -> list:
    """ln C(n+l-1, l) for l < count, each binomial an exact integer."""
    c, out = 1, []
    for l in range(count):
        out.append(math.log(c))
        c = c * (n + l) // (l + 1)
    return out


def _pf_sum(n: int, ln_abs: list, signs: list, cumulative: bool) -> tuple:
    """One sum of ``_partial_fractions``, sum_(k<n) w_k Pois(t; k), as (n,
    lgamma(n) below n = 30 else None, ln scale, terms): the terms are (k,
    w_k, s_k) from k = 0 up, w_k and its rounding size s_k scaled by
    e^-(ln scale).  ln_abs and signs give the weights' logs and signs from
    k = n-1 down; ``cumulative`` takes their sums over j >= k
    (``_running_sums``) and the sums of their magnitudes as the sizes, which
    bound the rounding of the ones that cancel."""
    ln_scale = max(ln_abs)
    weights = [s * math.exp(v - ln_scale) for v, s in zip(ln_abs, signs)]
    sizes = list(map(abs, weights))
    if cumulative:
        weights, sizes = _running_sums(weights), _running_sums(sizes)
    return (n, math.lgamma(n) if n < 30 else None, ln_scale,
            tuple(zip(map(float, range(n)), reversed(weights), reversed(sizes))))


def _closed_form(sums: tuple, x: float, y: float):
    """ln of sum_(k<n1) u_k Pois(x; k) + sum_(k<n2) v_k Pois(y; k), the two
    sums of ``_pf_sum``, or None where the size of its terms' rounding,
    sum s_k Pois(x; k) + ..., is more than _MAX_SPREAD times the value.

    Each sum is taken relative to its top term, whose log ln Pois(t; n-1)
    comes from ``specfun._ln_gamma_weight`` from n = 30 up (the direct form
    would leave it 1e-16 n ln n off), and nested from there down, w_(n-1) +
    (n-1)/t (w_(n-2) + (n-2)/t (...)), the sizes alongside.  A term that
    leaves the float range makes the value or its size inf or NaN, and the
    call declines."""
    (n1, lg1, ln_w1, terms1), (n2, lg2, ln_w2, terms2) = sums
    value1 = size1 = value2 = size2 = 0.0
    for k, w, s in terms1:
        r = k / x
        value1 = w + value1 * r
        size1 = s + size1 * r
    for k, w, s in terms2:
        r = k / y
        value2 = w + value2 * r
        size2 = s + size2 * r
    ln_x, ln_y = math.log(x), math.log(y)
    ln1 = ln_w1 + ((n1 - 1) * ln_x - x - lg1 if lg1 is not None
                   else _ln_gamma_weight(n1, x) - ln_x)
    ln2 = ln_w2 + ((n2 - 1) * ln_y - y - lg2 if lg2 is not None
                   else _ln_gamma_weight(n2, y) - ln_y)
    if ln1 <= ln2:
        f = math.exp(ln1 - ln2)
        ln_scale, value, size = ln2, value1 * f + value2, size1 * f + size2
    else:
        f = math.exp(ln2 - ln1)
        ln_scale, value, size = ln1, value1 + value2 * f, size1 + size2 * f
    if 0.0 < value and size <= _MAX_SPREAD * value < math.inf:
        return ln_scale + math.log(value)
    return None


def _reach(passes) -> float:
    """The least x = theta1 gamma at which a bisection in ln x, _REACH_STEPS
    steps over _REACH_BRACKET, finds ``passes(x)``; inf where it fails at
    the bracket's top.  At the bracket's foot both guards fail: f(0) = 0
    for mu >= 2 cancels the density's terms, and 1 - F is near 1."""
    lo, hi = _REACH_BRACKET
    if not passes(math.exp(hi)):
        return math.inf
    for _ in range(_REACH_STEPS):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if passes(math.exp(mid)) else (mid, hi)
    return math.exp(hi)


@memo(_PF_CACHED)
def _partial_fractions(mu: int, m: int, q: float, qc: float) -> tuple:
    """(pdf, cdf, pdf reach, cdf reach, rate): the closed form of the SNR law
    for integer mu > m and kappa > 0, read-only, one per shape, with n1 = mu
    - m, n2 = m and the parameters' q and qc.  It needs no mean SNR, so
    kms_pdf, kms_cdf and the effective rate look it up before
    ``_gamma_mixture``.

    The partial fractions of the MGF (theta1/(theta1+s))^n1 (theta2 /
    (theta2+s))^n2, theta2 = qc theta1, give, with x = theta1 gamma and
    y = qc x,

        f(gamma) / theta1 = sum_(k<n1) a_k Pois(x; k) + qc sum_(k<n2) b_k Pois(y; k),
        1 - F(gamma) = sum_(k<n1) abar_k Pois(x; k) + sum_(k<n2) bbar_k Pois(y; k),

    a_k = (-1)^n2 qc^n2 C(n2+l-1, l) / q^(n2+l), l = n1-1-k, b_k =
    C(n1+l-1, l) (-qc)^l / q^(n1+l), l = n2-1-k, and abar_k, bbar_k their
    sums over j >= k; abar_0 + bbar_0 = 1: a_k and b_k weigh Erlang laws,
    Gamma(k+1, rate theta1) and Gamma(k+1, rate theta2).  Each weight comes
    from its log once, with C(., .) an exact integer (``_ln_binomials``), and
    every metric's sums from them: ``pdf`` and ``cdf`` hold two sums of
    ``_pf_sum`` each, for ``_closed_form``; ``rate`` holds (a_k, sum a, sum
    |a|) and (b_k, ...) as floats from k = 0 for ``capacity._ln_moment_pf``,
    or None past e^700.  Each reach is the x from which its guard passes
    (``_reach``): the density's, that ``_closed_form`` gives a value; the
    distribution function's, also that 1 - F <= 1/2.  A reach only spares
    the points below it the attempt.  Past mu = _MAX_PF_ORDER both reaches
    are inf and nothing is set up."""
    n1, n2 = mu - m, m
    if mu > _MAX_PF_ORDER:
        return None, None, math.inf, math.inf, None
    # ln q from qc where q > 1/2, and ln qc from q where qc > 1/2: log(q) of a
    # q near 1 keeps only eps of |ln q|, which n1 + n2 multiplies
    ln_q = math.log1p(-qc) if q > 0.5 else math.log(q)
    ln_qc = math.log1p(-q) if qc > 0.5 else math.log(qc)
    ln_a = [n2 * ln_qc + c - (n2 + l) * ln_q for l, c in enumerate(_ln_binomials(n2, n1))]
    ln_b = [c + l * ln_qc - (n1 + l) * ln_q for l, c in enumerate(_ln_binomials(n1, n2))]
    sign_a = [-1.0 if n2 % 2 else 1.0] * n1
    sign_b = [-1.0 if l % 2 else 1.0 for l in range(n2)]
    pdf = (_pf_sum(n1, ln_a, sign_a, False),
           _pf_sum(n2, [v + ln_qc for v in ln_b], sign_b, False))  # qc b_k
    cdf = (_pf_sum(n1, ln_a, sign_a, True), _pf_sum(n2, ln_b, sign_b, True))

    rate = None
    if max(ln_a + ln_b) < 700.0:
        rate = tuple((w, math.fsum(w), math.fsum(map(abs, w))) for w in (
            tuple(s * math.exp(v) for v, s in zip(ln[::-1], sign[::-1]))
            for ln, sign in ((ln_a, sign_a), (ln_b, sign_b))))

    def tail_passes(x):
        ln_tail = _closed_form(cdf, x, qc * x)
        return ln_tail is not None and ln_tail <= -_LN2

    return (pdf, cdf, _reach(lambda x: _closed_form(pdf, x, qc * x) is not None),
            _reach(tail_passes), rate)


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

    For mu > m and kappa > 0 the closed form (``_partial_fractions``) is
    tried first, from the density's reach on, and taken where its spread is
    at most _MAX_SPREAD: with it the density is within 3.5e-13 of mpmath on
    280 frozen random cells up to mu = 1000, the walk alone 4.5e-13.  On
    the benchmark's ``table-kms-mu4-m2`` rows it takes 779 of 800
    densities; at kappa = 1e-5 (cancellation about 1/q^3 = 1e14) and on the
    mu = 60 rows below theta1 gamma of about 530 it declines and the walk
    answers, as before.
    """
    if not 0.0 <= gamma < math.inf:
        raise DomainError(f"gamma must be finite and >= 0, got {gamma}")
    if p.kappa > 0.0 and p.mu > p.m:
        form = _partial_fractions(p.mu, p.m, p.q, p.qc)
        x = p.theta1 * gamma
        if form[2] <= x < math.inf:
            ln_f = _closed_form(form[0], x, p.qc * x)
            if ln_f is not None:
                return math.exp(ln_f + math.log(p.theta1))
    a, rate, r, q, qc = _gamma_mixture(p)
    x = rate * gamma
    if x == 0.0:
        return rate if a == 1 else 0.0  # a = 1 only for mu = m = 1
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
    bounded by ``_ln_poisson_tail``, and ConvergenceError elsewhere.  Where
    the walk fails, the result is 0.0 if F <= P(m, theta2 gamma), the law of
    the second factor alone, is below e^-746 by the same bound.

    Before both, for mu > m and kappa > 0, the closed form of 1 - F
    (``_partial_fractions``) is tried from the distribution function's reach
    on; where its spread is at most _MAX_SPREAD and 1 - F <= 1/2 the result
    is F = -expm1(ln(1 - F)), whose relative error is at most that of 1 - F:
    within 6.1e-15 of mpmath on the random cells of _MAX_SPREAD (3.3e-13
    for 1 - F).  It answers cells past _MAX_INDEX too, where the walk cannot.
    """
    if not 0.0 <= gamma < math.inf:
        raise DomainError(f"gamma must be finite and >= 0, got {gamma}")
    if p.kappa > 0.0 and p.mu > p.m:
        form = _partial_fractions(p.mu, p.m, p.q, p.qc)
        x = p.theta1 * gamma
        if form[3] <= x < math.inf:
            ln_tail = _closed_form(form[1], x, p.qc * x)
            if ln_tail is not None and ln_tail <= -_LN2:
                return -math.expm1(ln_tail)
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
    if x == 0.0:
        return 0.0
    lo = max(0, math.floor(x - math.sqrt(2.0 * _LN_TOL * x)) - a) // _BLOCK * _BLOCK
    top = max(0, math.floor(x) - a) // _CHUNK  # top _CHUNK >= lo: lo > 0 needs x > 2 L

    ln_scale = (_ln_gamma_weight(a + top * _CHUNK + 1.0, x) - math.log(x)
                + _nb_cdf_start(r, q, qc, top)[0])
    try:
        return min(1.0, _mixture_sum(_cdf_ratios, (a, r, q, qc), x, lo, top, ln_scale,
                                     (a + lo) / x if lo else 0.0))
    except ConvergenceError:
        if _ln_poisson_tail(p.theta2 * gamma, p.m, True) < _LN_UNDERFLOW:
            return 0.0
        raise


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
    integrable singularity at the origin when m < 1).  Where (m + m_s) t is
    below the normal range, which the incomplete beta's front factor
    declines, the log of the density is m ln t - (m + m_s) log1p(t) -
    ln B(m, m_s) - ln gamma with ln t = ln omega + ln gamma, which keeps the
    digits that a subnormal t has lost.
    """
    if not 0.0 <= gamma < math.inf:
        raise DomainError(f"gamma must be finite and >= 0, got {gamma}")
    if gamma == 0.0:
        if p.m < 1.0:
            raise DomainError("density is singular at gamma = 0 for m < 1")
        return p.omega * p.m_s if p.m == 1.0 else 0.0  # 1/B(1, m_s) = m_s
    t = p.omega * gamma
    try:
        ln_front = _ln_beta_front(p.m, p.m_s, t / (1.0 + t), 1.0 / (1.0 + t))
    except DomainError:
        if not (p.m + p.m_s) * t < sys.float_info.min:
            raise
        ln_t = math.log(p.omega) + math.log(gamma)
        ln_front = p.m * ln_t - (p.m + p.m_s) * math.log1p(t) - ln_beta(p.m, p.m_s)
    return math.exp(ln_front - math.log(gamma))


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
