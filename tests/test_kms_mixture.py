"""Shadowed kappa-mu rate moment, density, distribution function and
detection metrics in the regions where the former alternating expansion
failed: small kappa, mu = 60, large kappa at high SNR.

Every reference here uses scipy alone and neither the MGF integral nor the
Gamma mixture: the SNR is G1 + G2 with G1 ~ Gamma(mu-m, theta1) and
G2 ~ Gamma(m, theta2); the inner expectation over G2 is closed for the
distribution function (the regularized incomplete gamma) and adaptive
quadrature for the rate moment, and the outer one over G1 is adaptive
quadrature.  (The rate moment's closed inner form, a Tricomi U, is too noisy
in scipy's hyperu for the outer quadrature to reach its tolerance: U(2; -2; 6)
is 3.9e-9 off, which left the reference at kappa = 1e-5, mu = 4, m = 2, 0 dB,
A = 5 2e-9 off.)
The detection references come from the oracle, which averages scipy's
noncentral chi-square over the channel density by QUADPACK.
"""

import math
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from edsense import channels
from edsense.capacity import DelayQoS, eff_rate_kms, rate_moment_kms
from edsense.channels import KappaMuShadowedParams, kms_cdf, kms_pdf
from edsense.detection import (
    DetectorConfig,
    avg_auc_kms,
    avg_pd_kms,
    croc_curve,
    threshold_for_pf,
)
from edsense.errors import ConvergenceError, DomainError
from edsense.oracle import auc_metric, average_over_channel, detect_metric


def _over_g1(f, p, upper=math.inf):
    """E[f(G1)] (restricted to G1 < upper) by quadrature; f(0) if mu = m."""
    if p.mu == p.m:
        return f(0.0)
    g1 = stats.gamma(p.mu - p.m, scale=1.0 / p.theta1)
    lo, hi = g1.ppf(1e-16), min(upper, g1.isf(1e-16))
    return integrate.quad(lambda g: f(g) * g1.pdf(g), lo, hi,
                          epsabs=0.0, epsrel=1e-11, limit=200)[0]


def ref_moment(p, a):
    """E[(1 + G1 + G2)^-A], the inner E[(c + G2)^-A] by quadrature too, in
    s = ln G2, where the scales 1/theta2 and c of its two factors both
    resolve."""
    g2 = stats.gamma(p.m, scale=1.0 / p.theta2)
    lo, hi = math.log(g2.ppf(1e-16)), math.log(g2.isf(1e-16))
    ln_norm = p.m * math.log(p.theta2) - math.lgamma(p.m)

    def inner(g):
        def f(s):
            x = math.exp(s)
            return (1.0 + g + x) ** -a * math.exp(ln_norm + p.m * s - p.theta2 * x)
        return integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
    return _over_g1(inner, p)


def ref_cdf(p, gamma):
    """P[G1 + G2 <= gamma] = E[P(m, theta2 (gamma - G1)); G1 <= gamma]."""
    return _over_g1(lambda g: special.gammainc(p.m, p.theta2 * (gamma - g)), p,
                    upper=gamma)


def ref_pdf(p, gamma):
    """Convolution of the two Gamma densities."""
    g2 = stats.gamma(p.m, scale=1.0 / p.theta2)
    return _over_g1(lambda g: g2.pdf(gamma - g), p, upper=gamma)


def _kms(kappa, mu, m, snr_db):
    return KappaMuShadowedParams(kappa, mu, m, 10.0 ** (snr_db / 10.0))


@pytest.mark.parametrize("params,a", [
    (_kms(0.5, 60, 30, -10.0), 1.0),   # ConvergenceError before
    (_kms(0.5, 60, 30, 0.0), 1.0),
    (_kms(1.0, 60, 30, -10.0), 1.0),   # off by 0.09 before
    (_kms(1.0, 60, 30, 0.0), 1.0),     # off by 0.1 before
    (_kms(1.352, 60, 30, -10.0), 0.7071),
    (_kms(0.05, 12, 6, -10.0), 0.5),   # "rate moment exceeded 1" before
    (_kms(1e-5, 4, 2, 0.0), 5.0),      # relative error 130 before
    (_kms(1e-5, 4, 2, 20.0), 5.0),
    (_kms(50.0, 40, 1, 40.0), 5.0),    # relative error 5.6e-7 before
])
def test_rate_moment_kms_weak_regions(params, a):
    want = ref_moment(params, a)
    assert math.isclose(rate_moment_kms(params, DelayQoS(a)), want, rel_tol=1e-8)
    assert math.isclose(eff_rate_kms(params, DelayQoS(a)),
                        -math.log2(want) / a, rel_tol=1e-8)


def test_rate_moment_kms_mu60_value():
    # 0.9349532 before; nested Gauss-Legendre quadrature gives 0.9349300 and
    # a 2e6-sample Monte Carlo 0.934935 +- 6e-6
    got = rate_moment_kms(_kms(1.352, 60, 30, -10.0), DelayQoS(0.7071))
    assert abs(got - 0.934929988) < 1e-9


def test_kms_small_kappa_cdf_and_pdf():
    # the CDF was 0.0 here before (the reference is 0.5665299)
    p = _kms(1e-5, 4, 2, 10.0)
    assert math.isclose(kms_cdf(p, 10.0), ref_cdf(p, 10.0), abs_tol=1e-12)
    for g in (0.2, 3.0, 10.0, 40.0):
        assert math.isclose(kms_pdf(p, g), ref_pdf(p, g), rel_tol=1e-9)


@pytest.mark.parametrize("params,gamma", [
    # Poisson orders theta1 gamma of 4,000-8,000: off by 1.2e-12 to 4.8e-12
    # before, when the first Poisson weight came from k ln x - lgamma(k+1)
    (_kms(50.0, 30, 9, 30.0), 3000.0),
    (_kms(40.0, 38, 1, 30.0), 5000.0),
    (_kms(50.0, 40, 10, 20.0), 200.0),
])
def test_kms_cdf_large_poisson_order(params, gamma):
    assert abs(kms_cdf(params, gamma) - ref_cdf(params, gamma)) <= 1e-13


def _check_detection(p, u, pf):
    """avg_pd_kms, croc_curve's pmd and avg_auc_kms against the oracle."""
    lam = threshold_for_pf(u, pf)
    want = average_over_channel(detect_metric(u, lam), p).value
    assert abs(avg_pd_kms(p, DetectorConfig(u=u, lam=lam)) - want) <= 1e-9
    (point,) = croc_curve(p, u, [pf], tol=1e-11)
    assert abs(point.pmd - (1.0 - want)) <= 1e-9
    auc = avg_auc_kms(p, DetectorConfig(u=u, lam=0.0))
    assert abs(auc - average_over_channel(auc_metric(u), p).value) <= 1e-9


@pytest.mark.parametrize("kappa", [1e-4, 1e-2])
@pytest.mark.parametrize("snr_db,u,pf", [(0.0, 2, 0.1), (20.0, 5, 1e-3)])
def test_kms_detection_small_kappa_cells(kappa, snr_db, u, pf):
    _check_detection(_kms(kappa, 6, 3, snr_db), u, pf)


@st.composite
def _channels(draw):
    kappa = 10.0 ** draw(st.floats(-6.0, math.log10(50.0)))
    mu = draw(st.integers(1, 40))
    m = draw(st.integers(1, mu))
    return _kms(kappa, mu, m, draw(st.floats(-10.0, 40.0)))


@settings(max_examples=40)
@given(p=_channels(), a=st.floats(0.1, 10.0), frac=st.floats(0.05, 3.0))
def test_rate_moment_and_cdf_property(p, a, frac):
    assert abs(rate_moment_kms(p, DelayQoS(a)) - ref_moment(p, a)) <= 1e-9
    gamma = frac * p.mean_snr
    assert abs(kms_cdf(p, gamma) - ref_cdf(p, gamma)) <= 1e-9


@settings(max_examples=30)
@given(p=_channels(), u=st.integers(1, 20),
       log_pf=st.floats(-4.0, math.log10(0.9)))
def test_kms_detection_property(p, u, log_pf):
    _check_detection(p, u, 10.0 ** log_pf)


def test_kms_pdf_and_cdf_reject_non_finite_gamma():
    # the density's term loop would never stop on NaN or infinity
    p = _kms(2.0, 3, 2, 10.0)
    for bad in (math.nan, math.inf, -1.0):
        with pytest.raises(DomainError):
            kms_pdf(p, bad)
        with pytest.raises(DomainError):
            kms_cdf(p, bad)


def test_kms_pdf_returns_at_once_far_in_the_tail():
    # the term walk toward j ~ q x overflowed to inf at 1e300 and never stopped
    p = _kms(2.0, 3, 2, 10.0)
    assert kms_pdf(p, 1e300) == 0.0
    assert kms_pdf(p, 1e6) == 0.0


def test_kms_cdf_past_the_index_window():
    # the negative binomial cdf ran from index 0 to about theta1 gamma
    assert kms_cdf(_kms(2.0, 3, 2, 10.0), 1e300) == 1.0
    # a Gamma(2, 2e-300) factor: F(1e300) is about 0.6, not within e^-37 of 1
    with pytest.raises(ConvergenceError):
        kms_cdf(KappaMuShadowedParams(1e300, 3, 2, 1e300), 1e300)


def _cdf_sweep(p):
    return [kms_cdf(p, p.mean_snr * k / 40.0) for k in range(241)]


def _nb_cdf_from_zero(r, q, n):
    """P[N <= i], i < n, N ~ NB(r, q), by one running sum of the pmf from
    index 0, each term from the last by the ratio q (r+i) / (i+1)."""
    pmf = (1.0 - q) ** r
    out = []
    total = 0.0
    for i in range(n):
        total += pmf
        out.append(total)
        pmf *= q * (r + i) / (i + 1.0)
    return out


def test_kms_cdf_cache_cold_and_warm_agree():
    for shape in ((2.644, 4, 2, 1.6), (2.066, 60, 30, 10.8), (1e-5, 4, 2, 10.0)):
        p = _kms(*shape)
        cold = _cdf_sweep(p)
        assert _cdf_sweep(p) == cold
    # every cached chunk of term ratios, each started from the negative
    # binomial cdf at its first index, agrees with the ratios of one cdf
    # summed from index 0, on both sides of the incomplete beta's switch
    # 1 - q = (r+1)/(r+n+3): q = 0.7 is above it from index 5 on, q = 0.999
    # below it up to about 31,000 and above it from there
    for a, r, q, chunks in ((4, 2, 0.7, range(20)), (60, 30, 0.999, range(500, 700, 7))):
        cdf = _nb_cdf_from_zero(r, q, (chunks[-1] + 1) * channels._CHUNK + 1)
        for k in chunks:
            got = [rho for block in channels._cdf_ratios((a, r, q, 1.0 - q), k) for rho in block]
            assert got == [rho for block in channels._cdf_ratios.__wrapped__((a, r, q, 1.0 - q), k)
                           for rho in block]
            for j, rho in enumerate(got):
                i = k * channels._CHUNK + j
                assert math.isclose(rho, cdf[i + 1] / cdf[i] / (a + i + 1.0), rel_tol=1e-13)


def test_kms_cdf_cache_stays_bounded(monkeypatch):
    # the closed form takes every point from x = 5e5 down to about 10
    # (1 - F = 0.0 at 5e5, far below e^-L); the walk's caches are checked
    # with it off
    p = _kms(2.0, 4, 2, 10.0)
    assert kms_cdf(p, 5e5 / p.theta1) == 1.0
    monkeypatch.setattr(channels, "_MAX_SPREAD", 0.0)
    for i in range(300):
        _cdf_sweep(_kms(1.0 + i * 1e-3, 3, 2, 10.0))
    for cache in (channels._cdf_ratios, channels._nb_cdf_start):
        info = cache.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize
    # a cached chunk holds _CHUNK ratios; at x ~ 5e5 kms_cdf reads the
    # chunks of its window, about 2 sqrt(2 L x) indices, and none from index
    # 0, and the cache keeps at most maxsize of them
    reads = []
    ratios = channels._cdf_ratios

    def counted(shape, k):
        reads.append(k)
        chunk = ratios(shape, k)
        assert sum(map(len, chunk)) == channels._CHUNK
        return chunk

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(channels, "_cdf_ratios", counted)
        assert kms_cdf(p, 5e5 / p.theta1) == 1.0
    width = math.sqrt(2.0 * channels._LN_TOL * 5e5)
    assert min(reads) * channels._CHUNK >= 5e5 - width - channels._CHUNK
    assert len(reads) <= 2.0 * width / channels._CHUNK + 3
    info = ratios.cache_info()
    assert info.currsize <= info.maxsize


def test_kms_cdf_cache_filled_by_threads_agree():
    p = _kms(1.7320508, 5, 3, 2.2360679)  # a shape no other test uses
    results = [None] * 8

    def work(k):
        results[k] = _cdf_sweep(p)

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
    warm = _cdf_sweep(p)
    assert all(r == warm for r in results)


def test_nb_cdf_start_closed_form():
    # P[N <= n] = I_p(1, n+1) = 1 - q^(n+1) for r = 1, p = 1 - q: at
    # p = 1/100001 and n = 200,000 the former chunk start, from 1 minus a
    # rounded q, was 1.7e-12 off in ln P
    p = 1.0 / 100001.0
    ln_cdf, ratio = channels._nb_cdf_start(1, 1.0 - p, p, 4000)
    want = -math.expm1(200001.0 * math.log1p(-p))
    assert abs(ln_cdf - math.log(want)) <= 1e-15
    # P[N = n] / P[N <= n] = p q^n / P[N <= n]
    assert math.isclose(ratio, p * math.exp(200000.0 * math.log1p(-p)) / want, rel_tol=1e-13)


def test_kms_cdf_cached_chunks_are_read_only():
    chunk = channels._cdf_ratios((4, 3, 0.4, 0.6), 0)
    assert isinstance(chunk, tuple) and all(isinstance(block, tuple) for block in chunk)
    with pytest.raises(TypeError):
        chunk[0] = ()
    with pytest.raises(TypeError):
        chunk[0][1] = 0.0
    assert isinstance(channels._nb_cdf_start(3, 0.4, 0.6, 1), tuple)
