"""Effective rate of the cognitive link under a statistical delay constraint.

The rate is R = -(1/A) log2 E[(1 + gamma)^-A] with A the dimensionless
delay-QoS exponent.  For the shadowed kappa-mu channel the expectation (the
"rate moment" below) is one positive integral of the channel's MGF (cf. Di
Renzo, Graziosi & Santucci, IEEE TVT 2010), evaluated by tanh-sinh
quadrature in log space on only the nodes that closed-form bounds on the
integrand leave within reach (``_ln_rate_moment_mgf``); for the
Fisher-Snedecor channel it is a single
Gauss hypergeometric value, taken with its argument's complement omega
exactly and its SNR-free set-up cached per shape (``_ln_rate_moment_f``):
where the argument exceeds 1/2 (after the Pfaff step at low SNR), one
power series in its complement that holds at every A - m (the 1-z series),
and where that cancels, the Euler integral.
Both paths work with the logarithm of the moment, so large A or a high SNR
only shrinks the moment instead of underflowing it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._memo import memo
from ._quad import ln_peak_integral
from .channels import FisherFParams, KappaMuShadowedParams
from .errors import ConvergenceError, DomainError
from .specfun import _CACHED, _EULER_TRIM, _gauss_2f1, ln_beta

__all__ = [
    "DelayQoS",
    "rate_moment_kms",
    "rate_moment_f",
    "eff_rate_kms",
    "eff_rate_f",
]

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class DelayQoS:
    """Delay-QoS exponent A = Theta * T * B / ln 2 (only the product matters)."""

    a_exponent: float

    def __post_init__(self):
        if not 0.0 < self.a_exponent < math.inf:
            raise DomainError(f"a_exponent must be finite and positive, got {self.a_exponent}")


def _ln_rate_moment_mgf(p: KappaMuShadowedParams, a: float) -> float:
    """ln E[(1 + gamma)^-A] from the MGF M(-t) = E[e^(-t gamma)].

    Since (1 + gamma)^-A = Gamma(A)^-1 int t^(A-1) e^(-t (1 + gamma)) dt, the
    moment is Gamma(A)^-1 int t^(A-1) phi(t) dt with phi(t) = e^-t M(-t).
    Integrating by parts, with -phi'(t) = phi(t) psi(t) and
    psi(t) = 1 + (mu-m)/(theta1+t) + m/(theta2+t), gives

        E[(1 + gamma)^-A] = Gamma(A+1)^-1 int t^A phi(t) psi(t) dt,

    whose integrand is positive and, unlike t^(A-1) phi(t), bounded at t = 0
    for every A > 0.  The integral runs in s = ln t, centred on the peak s0
    of the log-integrand ln f (``ln_peak_integral``), and passes a reach
    from two bounds, with a1 = A+1, psi0 = psi(0) and peak = ln f(s0).  As
    e^-t and each (1 + t/theta)^-n are at most 1 and psi falls in t, and
    with the Euler integral's margin e^-40 (``_EULER_TRIM``):
    - ln f(s) <= a1 s + ln psi0, so the left end goes where the tail bound
      e^(C_L - a1 U) / a1, C_L = a1 s0 + ln psi0 - peak, is e^-40;
    - ln f(s) <= a1 s - e^s + ln psi0, which is concave and so lies below
      its tangent at s_R, falling at rate e^(s_R) - a1 beyond it; the right
      end goes to s_R = ln T with T >= a1 ln T + ln psi0 - peak + 40, from
      a few fixed-point steps down from a T that satisfies it.
    ``dropped`` is the sum of the two tail bounds, at most e^-40 (1 + 1/40)
    of the peak's value (T - a1 >= 40); ``tanhsinh_01`` checks it against
    the sum and sums the full table where the check fails.
    """
    n1, th1, n2, th2 = p.mu - p.m, p.theta1, p.m, p.theta2
    a1 = a + 1.0
    ln_psi0 = math.log1p(n1 / th1 + n2 / th2)

    def ln_integrand(s):
        t = np.exp(s)
        return (a1 * s - t - n1 * np.log1p(t / th1) - n2 * np.log1p(t / th2)
                + np.log1p(n1 / (th1 + t) + n2 / (th2 + t)))

    # The log-integrand's slope in s lies within 1 of A + 1/2 - t
    # - sum n t / (theta + t), whose root lies in [(A + 1/2)/(1 + E gamma), A + 1/2].
    target = a + 0.5
    lo = math.log(target) - ln_psi0
    hi = math.log(target)
    for _ in range(8):
        s0 = 0.5 * (lo + hi)
        t = math.exp(s0)
        if target - t - n1 * t / (th1 + t) - n2 * t / (th2 + t) > 0.0:
            lo = s0
        else:
            hi = s0
    s0 = 0.5 * (lo + hi)

    def reach(peak):
        left = (a1 * s0 + ln_psi0 - peak - math.log(a1) + _EULER_TRIM) / a1
        # T0 meets T - a1 ln T >= k (as ln T <= ln 2a1 + T/2a1 - 1), and each
        # step T <- a1 ln T + k keeps that while moving T down to the root
        k = ln_psi0 - peak + _EULER_TRIM
        t_right = 2.0 * (k + a1 * (math.log(2.0 * a1) - 1.0))
        for _ in range(3):
            t_right = a1 * math.log(t_right) + k
        s_right = math.log(t_right)
        return (left, s_right - s0, math.exp(-_EULER_TRIM)
                + math.exp(a1 * s_right - t_right + k - _EULER_TRIM) / (t_right - a1))

    return ln_peak_integral(ln_integrand, s0, reach) - math.lgamma(a1)


def _guard_moment(ln_moment: float) -> float:
    """The moment E[(1+gamma)^-A] must sit in (0, 1]."""
    if ln_moment > 1e-9:
        raise ConvergenceError(
            f"rate moment exceeded 1 (ln = {ln_moment:.3e}); evaluation unstable")
    return min(ln_moment, 0.0)


def rate_moment_kms(p: KappaMuShadowedParams, q: DelayQoS) -> float:
    """E[(1 + gamma)^-A] over the shadowed kappa-mu channel."""
    return math.exp(_guard_moment(_ln_rate_moment_mgf(p, q.a_exponent)))


def rate_moment_f(p: FisherFParams, q: DelayQoS) -> float:
    """E[(1 + gamma)^-A] over the Fisher-Snedecor channel."""
    return math.exp(_guard_moment(_ln_rate_moment_f(p, q.a_exponent)))


@memo(_CACHED)
def _ln_beta_ratio(m: float, ms: float, a: float) -> float:
    """ln B(m, m_s + A) - ln B(m, m_s), the SNR-free factor of the Fisher moment."""
    return ln_beta(m, ms + a) - ln_beta(m, ms)


def _ln_rate_moment_f(p: FisherFParams, a: float) -> float:
    """ln E[(1 + gamma)^-A] over the Fisher-Snedecor channel:

        m ln omega + ln B(m, m_s+A) - ln B(m, m_s)
            + ln 2F1(m+m_s, m; m+m_s+A; 1-omega).

    omega goes to the 2F1 core as the argument's complement, so no digit of
    it is lost to 1 - (1 - omega) at high SNR; the core's scale factor, which
    carries the Pfaff front omega^-m at low SNR and the 1-z series'
    omega^(A-m) at high SNR, is added in log space, so the moment may
    underflow while its logarithm stays finite.  At low SNR ln M is a
    difference of O(1) terms and keeps an absolute, not a relative, error of
    about 1e-16 (8e-10 relative at -60 dB for m = 2, m_s = 3, A = 1).
    """
    m, ms, omega = p.m, p.m_s, p.omega
    if not 0.0 < omega < math.inf:
        raise ConvergenceError(f"Fisher scale omega = {omega} outside the float range")
    hyp, ln_scale = _gauss_2f1(m + ms, m, m + ms + a, 1.0 - omega, omega)
    if hyp <= 0.0:
        raise ConvergenceError("hypergeometric factor of the rate moment not positive")
    return m * math.log(omega) + ln_scale + _ln_beta_ratio(m, ms, a) + math.log(hyp)


def eff_rate_kms(p: KappaMuShadowedParams, q: DelayQoS) -> float:
    """Effective rate in bits/s/Hz over shadowed kappa-mu fading."""
    ln_moment = _guard_moment(_ln_rate_moment_mgf(p, q.a_exponent))
    return -ln_moment / (q.a_exponent * _LN2)


def eff_rate_f(p: FisherFParams, q: DelayQoS) -> float:
    """Effective rate in bits/s/Hz over Fisher-Snedecor fading."""
    ln_moment = _guard_moment(_ln_rate_moment_f(p, q.a_exponent))
    return -ln_moment / (q.a_exponent * _LN2)
