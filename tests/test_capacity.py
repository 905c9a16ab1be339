"""Effective rate: closed-form rate moments against quadrature, limits,
monotonicity, and a property test against the scipy-only oracle.

Frozen [reference] values: scipy adaptive quadrature of
(1 + gamma)^-A times the density at epsabs 1e-13.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from edsense.capacity import (
    DelayQoS,
    eff_rate_f,
    eff_rate_kms,
    rate_moment_f,
    rate_moment_kms,
)
from edsense.channels import FisherFParams, KappaMuShadowedParams, f_pdf, kms_pdf
from edsense.errors import DomainError
from edsense.oracle import average_over_channel, rate_metric
from edsense.specfun import beta


def test_delay_qos_validation():
    DelayQoS(0.5)
    with pytest.raises(DomainError):
        DelayQoS(0.0)
    with pytest.raises(DomainError):
        DelayQoS(-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            DelayQoS(bad)


def test_rate_moment_kms_reference():
    p = KappaMuShadowedParams(2.0, 2, 1, 10.0)
    q = DelayQoS(1.0)
    assert math.isclose(rate_moment_kms(p, q), 0.156479199790769, rel_tol=1e-10)
    assert math.isclose(eff_rate_kms(p, q), -math.log2(0.156479199790769), rel_tol=1e-10)


def test_rate_moment_f_reference():
    p = FisherFParams(m=2.0, m_s=3.0, mean_snr=10.0)
    q = DelayQoS(1.0)
    assert math.isclose(rate_moment_f(p, q), 0.1338504173398, rel_tol=1e-10)
    assert math.isclose(eff_rate_f(p, q), -math.log2(0.1338504173398), rel_tol=1e-10)


@pytest.mark.parametrize("params,a", [
    (KappaMuShadowedParams(2.0, 3, 2, 5.0), 0.5),
    (KappaMuShadowedParams(0.5, 4, 2, 20.0), 5.0),
    (KappaMuShadowedParams(8.0, 3, 3, 2.0), 1.0),
])
def test_rate_moment_kms_quadrature(params, a):
    quad, _ = integrate.quad(lambda g: (1 + g) ** (-a) * kms_pdf(params, g),
                             0, np.inf, limit=400)
    assert math.isclose(rate_moment_kms(params, DelayQoS(a)), quad, rel_tol=1e-8)


@pytest.mark.parametrize("params,a", [
    (FisherFParams(m=2.5, m_s=1.2, mean_snr=1.0), 0.5),
    (FisherFParams(m=1.0, m_s=10.0, mean_snr=100.0), 1.0),
    (FisherFParams(m=0.8, m_s=3.0, mean_snr=5.0), 5.0),
    (FisherFParams(m=1.0, m_s=3.0, mean_snr=10.0), 1.0),  # integer-degenerate route
    (FisherFParams(m=2.373, m_s=10.15, mean_snr=10 ** -0.32), 2.132),  # 1-z terms cancel
])
def test_rate_moment_f_quadrature(params, a):
    lo = 0.0 if params.m >= 1 else 1e-12
    quad, _ = integrate.quad(lambda g: (1 + g) ** (-a) * f_pdf(params, g),
                             lo, np.inf, limit=400)
    assert math.isclose(rate_moment_f(params, DelayQoS(a)), quad, rel_tol=1e-8)


@settings(max_examples=20)
@given(m=st.floats(0.5, 20.0), ms=st.floats(1.1, 20.0),
       snr_db=st.floats(-10.0, 40.0), a=st.floats(0.1, 10.0))
def test_rate_moment_f_property(m, ms, snr_db, a):
    # the draws reach gauss_2f1's series, 1-z and Euler routes
    p = FisherFParams(m=m, m_s=ms, mean_snr=10.0 ** (snr_db / 10.0))
    metric = rate_metric(a)
    want = average_over_channel(lambda g: float(metric(g)), p).value
    assert abs(rate_moment_f(p, DelayQoS(a)) - want) <= 1e-9


def test_f_moment_at_unit_omega():
    # mean_snr = m/m_s makes the hypergeometric argument vanish
    p = FisherFParams(m=2.0, m_s=3.0, mean_snr=2.0 / 3.0)
    got = rate_moment_f(p, DelayQoS(1.0))
    assert math.isclose(got, beta(2.0, 4.0) / beta(2.0, 3.0), rel_tol=1e-12)


def test_rate_vanishes_at_zero_snr():
    assert eff_rate_kms(KappaMuShadowedParams(2.0, 3, 2, 1e-9), DelayQoS(1.0)) < 1e-8
    assert eff_rate_f(FisherFParams(m=2.0, m_s=3.0, mean_snr=1e-9), DelayQoS(1.0)) < 1e-7


def test_small_exponent_approaches_ergodic_capacity():
    p = KappaMuShadowedParams(2.0, 3, 2, 5.0)
    ergodic, _ = integrate.quad(lambda g: math.log2(1 + g) * kms_pdf(p, g),
                                0, np.inf, limit=400)
    assert math.isclose(eff_rate_kms(p, DelayQoS(1e-4)), ergodic, rel_tol=1e-3)


def test_rate_monotone_in_mean_snr():
    qos = DelayQoS(1.0)
    kms_rates = [eff_rate_kms(KappaMuShadowedParams(2.0, 2, 1, 10 ** (db / 10)), qos)
                 for db in range(0, 21, 2)]
    assert all(b >= a - 1e-9 for a, b in zip(kms_rates, kms_rates[1:]))
    f_rates = [eff_rate_f(FisherFParams(m=2.0, m_s=3.0, mean_snr=10 ** (db / 10)), qos)
               for db in range(0, 21, 2)]
    assert all(b >= a - 1e-9 for a, b in zip(f_rates, f_rates[1:]))


def test_ms_increase_alone_lowers_rate_at_fixed_scale():
    # Pinned model fact: with omega = m/(m_s * mean_snr), the log-SNR mean
    # falls as m_s grows (psi(m_s) - ln m_s is increasing), so the effective
    # rate at fixed mean_snr decreases with m_s at every SNR; the shadowing
    # relief shows up only under mean-normalized comparisons.
    qos = DelayQoS(1.0)
    for snr in (1.0, 10.0, 100.0):
        lo = eff_rate_f(FisherFParams(m=2.0, m_s=1.2, mean_snr=snr), qos)
        hi = eff_rate_f(FisherFParams(m=2.0, m_s=10.0, mean_snr=snr), qos)
        assert hi < lo


def test_large_exponent_stays_finite():
    # log-space accumulation: A = 200 must neither underflow nor go negative
    r = eff_rate_kms(KappaMuShadowedParams(2.0, 3, 2, 5.0), DelayQoS(200.0))
    assert 0.0 < r < 10.0
    r = eff_rate_f(FisherFParams(m=2.0, m_s=3.0, mean_snr=5.0), DelayQoS(200.0))
    assert 0.0 < r < 10.0
