"""Effective rate: closed-form rate moments against quadrature, limits,
monotonicity, and a property test against the scipy-only oracle.

Frozen [reference] values: scipy adaptive quadrature of
(1 + gamma)^-A times the density at epsabs 1e-13, and the mpmath values
noted where they are used.
"""

import json
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from edsense import _memo, capacity, specfun
from edsense.capacity import (
    DelayQoS,
    eff_rate_f,
    eff_rate_kms,
    rate_moment_f,
    rate_moment_kms,
)
from edsense.channels import FisherFParams, KappaMuShadowedParams, f_pdf, kms_pdf
from edsense.errors import ConvergenceError, DomainError
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


# E[(1+gamma)^-A] = omega^m B(m, m_s+A) / B(m, m_s) 2F1(m+m_s, m; m+m_s+A; 1-omega)
# from mpmath 1.3.0 at mp.dps = 40, with omega the float m / (m_s * mean_snr)
# and mean_snr = 10 ** (snr_db / 10).  Shapes (m, m_s, A): variant 0 of the
# benchmark's three Fisher rate sweeps, its Fisher verify cell with A = 1,
# and (2, 3, 1).
_RATE_F_DB = (20, 30, 60, 80, 120, 160, 200)
_RATE_F_REF = [
    ((1.112, 3.029, 1.004), (0.033669921294834676, 0.004770923085732081, 7.333031774385826e-06,
                             8.13631946902749e-08, 8.725361495519322e-12, 8.724624472654674e-16,
                             8.521281278880502e-20)),
    ((4.057, 1.468, 1.119), (0.008130261123389923, 0.0006398210907776726, 2.8238021075117474e-07,
                             1.6324355084245924e-09, 5.4555187259675717e-14, 1.8232072989954783e-18,
                             6.093068362636989e-23)),
    ((2.5, 10.1, 1.528), (0.002471980849624715, 8.206705998685591e-05, 2.1901379984121634e-09,
                          1.925298024827338e-12, 1.4876417732692573e-18, 1.1494719159724998e-24,
                          8.881746325847282e-31)),
    ((2.114, 15.47, 1.0), (0.017827985254466813, 0.0018804229791092185, 1.897637827788902e-06,
                           1.8976657481429646e-08, 1.8976660681870667e-12, 1.897666068222618e-16,
                           1.897666068222622e-20)),
    ((2.0, 3.0, 1.0), (0.018371041521153784, 0.0019719998444437574, 1.9999352656775557e-06,
                       1.9999991070499678e-08, 1.9999999998615833e-12, 1.9999999999999812e-16,
                       2e-20)),
]


@pytest.mark.parametrize("shape,want", _RATE_F_REF, ids=[str(s) for s, _ in _RATE_F_REF])
def test_rate_moment_f_against_mpmath_up_to_200_db(shape, want):
    # omega reaches the 2F1 as 1 - z exactly: rebuilt as 1 - (1 - omega) it
    # was 1e-11 off at 60 dB, up to 2e-4 at 120 dB, and raised at 160 dB
    m, ms, a = shape
    for db, ref in zip(_RATE_F_DB, want):
        got = rate_moment_f(FisherFParams(m, ms, 10.0 ** (db / 10.0)), DelayQoS(a))
        assert math.isclose(got, ref, rel_tol=1e-12), db


# eff_rate_f at the benchmark's rate-f-m2.5-ms10 cells at -9.2 dB (variants
# 3 and 1), where the two-term 1-z formula, taken while its terms cancelled
# by up to a factor 1e4, was 1.75e-10 and 4.5e-11 off.  Rows (m, m_s,
# mean_snr, A, rate) from mpmath 1.3.0 at mp.dps = 40, with rate = -ln M /
# (A ln 2) and M = omega^m B(m, m_s+A) / B(m, m_s) 2F1(m+m_s, m; m+m_s+A;
# 1-omega), omega the float m / (m_s mean_snr).
_RATE_F_CANCELLING = [
    (2.5, 9.129, 0.12022644346174131, 1.498, 0.16988466192535126),
    (2.5, 9.208, 0.12022644346174131, 1.481, 0.1698384922908301),
]


@pytest.mark.parametrize("m,ms,mean,a,want", _RATE_F_CANCELLING)
def test_eff_rate_f_where_the_two_term_formula_cancelled(m, ms, mean, a, want):
    assert math.isclose(eff_rate_f(FisherFParams(m, ms, mean), DelayQoS(a)), want, rel_tol=1e-12)


def test_eff_rate_f_on_the_benchmark_cells():
    # every 24th SNR point of the four stored variants of the benchmark's
    # three Fisher rate sweeps, and the 20 cells the two-term 1-z formula
    # had furthest off (1.75e-10 to 9.2e-12); rows (m, m_s, mean_snr, A,
    # rate) as in _RATE_F_CANCELLING, mpmath 1.3.0 at mp.dps = 40
    rows = json.loads(Path(__file__).with_name("fisher_rate_mpmath_cells.json").read_text())
    assert len(rows) == 223
    for m, ms, mean, a, want in rows:
        got = eff_rate_f(FisherFParams(m, ms, mean), DelayQoS(a))
        assert math.isclose(got, want, rel_tol=1e-12), (m, ms, mean, a)


def test_eff_rate_f_when_the_moment_underflows():
    # the moment is 2.2e-803, below the float range; the rate comes from its
    # logarithm (mpmath 1.3.0, mp.dps = 50: 13.331829025754604 bits/s/Hz)
    p, q = FisherFParams(m=100.0, m_s=3.0, mean_snr=1e9), DelayQoS(200.0)
    assert rate_moment_f(p, q) == 0.0
    assert math.isclose(eff_rate_f(p, q), 13.331829025754604, rel_tol=1e-12)


@pytest.mark.parametrize("shape", [(1.112, 3.029, 1.004), (2.5, 10.1, 1.528), (2.0, 3.0, 1.0),
                                   (100.0, 3.0, 200.0), (100.0, 3.0, 1.0), (0.5, 0.5, 0.01)])
def test_fisher_rate_over_the_whole_snr_range(shape):
    # a value or ConvergenceError for every mean_snr in [1e-300, 1e300]; the
    # parent raised DomainError beyond about +-150 dB and ValueError where
    # the moment underflowed
    m, ms, a = shape
    for k in range(-300, 301, 10):
        p, q = FisherFParams(m, ms, 10.0 ** k), DelayQoS(a)
        for fn in (rate_moment_f, eff_rate_f):
            try:
                value = fn(p, q)
            except ConvergenceError:
                continue
            assert math.isfinite(value) and value >= 0.0, (k, fn.__name__)


def _rate_caches():
    # the caches that the Fisher rate fills: those of specfun and capacity
    return [cache for cache in _memo.REGISTRY
            if cache.__module__ in (specfun.__name__, capacity.__name__)]


def _fisher_sweep(m, ms, a):
    q = DelayQoS(a)
    return [eff_rate_f(FisherFParams(m, ms, 10.0 ** (db / 100.0)), q)
            for db in range(-100, 301)]


def test_fisher_rate_caches_cold_and_warm_agree():
    for cache in _rate_caches():
        cache.cache_clear()
    for shape in ((1.112, 3.029, 1.004), (2.5, 10.1, 1.528)):
        cold = _fisher_sweep(*shape)
        assert _fisher_sweep(*shape) == cold


def test_fisher_rate_caches_stay_bounded():
    q = DelayQoS(1.3)
    for i in range(10_000):
        eff_rate_f(FisherFParams(1.0 + i * 1e-4, 3.0, 10.0), q)
    for cache in _rate_caches():
        info = cache.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize


def test_fisher_rate_caches_filled_by_threads_agree():
    shape = (1.7320508, 2.2360679, 1.4142136)  # a shape no other test uses
    for cache in _rate_caches():
        cache.cache_clear()
    results = [None] * 8

    def work(k):
        results[k] = _fisher_sweep(*shape)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(results))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    warm = _fisher_sweep(*shape)
    assert all(r == warm for r in results)
