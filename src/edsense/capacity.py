"""Effective rate of the cognitive link under a statistical delay constraint.

The rate is R = -(1/A) log2 E[(1 + gamma)^-A] with A the dimensionless
delay-QoS exponent.  For the shadowed kappa-mu channel the expectation (the
"rate moment" below) is one positive integral of the channel's MGF (cf. Di
Renzo, Graziosi & Santucci, IEEE TVT 2010), evaluated by tanh-sinh
quadrature in log space; for the Fisher-Snedecor channel it is a single
Gauss hypergeometric value.  Both paths work with the logarithm of the
moment, so large A only shrinks the moment instead of underflowing it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quad import ln_peak_integral
from .channels import FisherFParams, KappaMuShadowedParams
from .errors import ConvergenceError, DomainError
from .specfun import gauss_2f1, ln_beta

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
    for every A > 0.  The integral runs in s = ln t, centred on the peak of
    the log-integrand (``ln_peak_integral``).
    """
    n1, th1, n2, th2 = p.mu - p.m, p.theta1, p.m, p.theta2
    a1 = a + 1.0

    def ln_integrand(s):
        t = np.exp(s)
        return (a1 * s - t - n1 * np.log1p(t / th1) - n2 * np.log1p(t / th2)
                + np.log1p(n1 / (th1 + t) + n2 / (th2 + t)))

    # The log-integrand's slope in s lies within 1 of A + 1/2 - t
    # - sum n t / (theta + t), whose root lies in [(A + 1/2)/(1 + E gamma), A + 1/2].
    target = a + 0.5
    lo = math.log(target) - math.log1p(n1 / th1 + n2 / th2)
    hi = math.log(target)
    for _ in range(8):
        s0 = 0.5 * (lo + hi)
        t = math.exp(s0)
        if target - t - n1 * t / (th1 + t) - n2 * t / (th2 + t) > 0.0:
            lo = s0
        else:
            hi = s0
    return ln_peak_integral(ln_integrand, 0.5 * (lo + hi)) - math.lgamma(a1)


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
    a = q.a_exponent
    m, ms, omega = p.m, p.m_s, p.omega
    hyp = gauss_2f1(m + ms, m, m + ms + a, 1.0 - omega)
    if hyp <= 0.0:
        raise ConvergenceError("hypergeometric factor of the rate moment not positive")
    ln_moment = (m * math.log(omega) + ln_beta(m, ms + a) - ln_beta(m, ms)
                 + math.log(hyp))
    return math.exp(_guard_moment(ln_moment))


def eff_rate_kms(p: KappaMuShadowedParams, q: DelayQoS) -> float:
    """Effective rate in bits/s/Hz over shadowed kappa-mu fading."""
    ln_moment = _guard_moment(_ln_rate_moment_mgf(p, q.a_exponent))
    return -ln_moment / (q.a_exponent * _LN2)


def eff_rate_f(p: FisherFParams, q: DelayQoS) -> float:
    """Effective rate in bits/s/Hz over Fisher-Snedecor fading."""
    moment = rate_moment_f(p, q)
    return -math.log(moment) / (q.a_exponent * _LN2)
