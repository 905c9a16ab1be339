"""Channel models: parameter invariants, density/CDF/MGF agreement with
independent references, and sampler statistics.

Frozen [reference] values: the kappa-mu density value comes from mpmath
quadrature of the Gamma-Gamma convolution integral (the inverse Laplace
route), the density far from the mean from mpmath's 1F1, its CDF value from
quadrature of that convolution density, and the Fisher-Snedecor values from
the scaled central-F identity and quadrature of the density.
"""

import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import gammaln

from edsense import _memo, channels
from edsense.capacity import DelayQoS, eff_rate_f
from edsense.channels import (
    FisherFParams,
    KappaMuShadowedParams,
    f_cdf,
    f_pdf,
    f_sample,
    kms_cdf,
    kms_mgf,
    kms_pdf,
    kms_sample,
)
from edsense.errors import ConvergenceError, DomainError


def test_kms_params_invariants():
    p = KappaMuShadowedParams(kappa=2.0, mu=3, m=2, mean_snr=8.0)
    assert p.theta1 == 3 * 3.0 / 8.0
    assert p.theta2 == 2 * p.theta1 / (3 * 2.0 + 2)
    assert p.theta2 < p.theta1
    z = KappaMuShadowedParams(kappa=0.0, mu=3, m=2, mean_snr=8.0)
    assert z.theta1 == z.theta2  # equality exactly at kappa = 0


@pytest.mark.parametrize("kwargs", [
    dict(kappa=-0.1, mu=2, m=1, mean_snr=1.0),
    dict(kappa=1.0, mu=0, m=1, mean_snr=1.0),
    dict(kappa=1.0, mu=2, m=3, mean_snr=1.0),   # mu < m
    dict(kappa=1.0, mu=2, m=1, mean_snr=0.0),
    dict(kappa=math.nan, mu=2, m=1, mean_snr=1.0),
    dict(kappa=math.inf, mu=2, m=1, mean_snr=1.0),
    dict(kappa=1.0, mu=math.inf, m=1, mean_snr=1.0),
    dict(kappa=1.0, mu=2, m=math.nan, mean_snr=1.0),
    dict(kappa=1.0, mu=2, m=1, mean_snr=math.nan),
    dict(kappa=1.0, mu=2, m=1, mean_snr=math.inf),
])
def test_kms_params_validation(kwargs):
    with pytest.raises(DomainError):
        KappaMuShadowedParams(**kwargs)


@pytest.mark.parametrize("kwargs", [
    dict(m=0.0, m_s=3.0, mean_snr=1.0),
    dict(m=math.nan, m_s=3.0, mean_snr=1.0),
    dict(m=math.inf, m_s=3.0, mean_snr=1.0),
    dict(m=2.0, m_s=math.nan, mean_snr=1.0),
    dict(m=2.0, m_s=math.inf, mean_snr=1.0),
    dict(m=2.0, m_s=3.0, mean_snr=math.nan),
    dict(m=2.0, m_s=3.0, mean_snr=math.inf),
])
def test_fisher_params_validation(kwargs):
    with pytest.raises(DomainError):
        FisherFParams(**kwargs)


def test_kms_pdf_gamma_branches():
    # mu = m = 1 is the exponential channel: pdf(0) = theta2
    p = KappaMuShadowedParams(kappa=1.5, mu=1, m=1, mean_snr=5.0)
    assert math.isclose(kms_pdf(p, 0.0), p.theta2, rel_tol=1e-14)
    # kappa = 0 reduces to Gamma(mu, rate theta1)
    p = KappaMuShadowedParams(kappa=0.0, mu=2, m=1, mean_snr=4.0)
    for g in (0.3, 1.0, 5.0):
        want = stats.gamma.pdf(g, 2, scale=1.0 / p.theta1)
        assert math.isclose(kms_pdf(p, g), want, rel_tol=1e-12)


def test_kms_pdf_reference_value():
    # reference: mpmath quadrature of the convolution integral (inverse
    # Laplace of the two-factor MGF) to 1e-13
    p = KappaMuShadowedParams(kappa=3.0, mu=4, m=2, mean_snr=10.0)
    assert math.isclose(kms_pdf(p, 2.5), 0.046986485169255488, rel_tol=1e-11)


# [reference] mpmath 1.3.0, dps 40: theta1 (1-q)^m x^(mu-1) e^-x / Gamma(mu)
# 1F1(m; mu; q x), x = theta1 gamma, with theta1 and q exact from the
# parameters.  The walk from j = 0 was 1.4e-11, 1.5e-8 and 1.7e-6 off on the
# last three cells (10x the mean, q x = 3.0e4; 1x and 8x, q x = 1.0e6, 8.0e6).
@pytest.mark.parametrize("kappa,mu,m,mean,gamma,want", [
    (50.0, 60, 30, 10.0, 10.0, 0.2200509626531220346),
    (50.0, 60, 30, 10.0, 33.0, 1.597221534330764602e-16),
    (50.0, 60, 30, 10.0, 100.0, 1.082192006772221205e-90),
    (1e3, 1000, 1, 3.0, 3.0, 0.12274898418320016859),
    (1e3, 1000, 1, 3.0, 24.0, 0.00011115257167529259766),
    # qx = 100 near the origin: 5.4e-12 off when the front factor took
    # (1-q)^m from 1 minus a rounded q = 1 - 1e-5
    (1e3, 100, 1, 10.0, 0.01, 0.055760796038806893207),
])
def test_kms_pdf_far_from_the_mean(kappa, mu, m, mean, gamma, want):
    p = KappaMuShadowedParams(kappa=kappa, mu=mu, m=m, mean_snr=mean)
    assert math.isclose(kms_pdf(p, gamma), want, rel_tol=1e-12)


def test_kms_pdf_walks_only_its_window(monkeypatch):
    # q theta1 gamma = 30,297 at 10x the mean: the walk from j = 0 took about
    # 600 chunks' worth of terms, the window about 0.35 sqrt(q x) chunks
    p = KappaMuShadowedParams(kappa=50.0, mu=60, m=30, mean_snr=10.0)
    # the closed form takes this cell; [reference] as test_kms_pdf_far_from_the_mean
    assert math.isclose(kms_pdf(p, 100.0), 1.082192006772221205e-90, rel_tol=1e-12)
    reads = []
    ratios = channels._pdf_ratios

    def counted(shape, k):
        reads.append(k)
        return ratios(shape, k)

    monkeypatch.setattr(channels, "_pdf_ratios", counted)
    monkeypatch.setattr(channels, "_MAX_SPREAD", 0.0)  # the closed form declines
    kms_pdf(p, 100.0)
    assert len(set(reads)) == len(reads) <= 61
    assert min(reads) * channels._CHUNK > 0.9 * 30_297


@pytest.mark.parametrize("ln_tol,certified", [(37.0, True), (18.0, False)])
def test_kms_pdf_head_certificate(monkeypatch, ln_tol, certified):
    # kappa 10, mu 3, m 2 at 6x the mean (q theta1 gamma = 185.6): the window
    # starts at lo = 50, whose head bound is e^-36 inside the e^-37 bound
    # (_TOL); one chunk higher, at lo = 100, it is e^11 outside and must
    # raise.  A start rule (_LN_TOL) narrowed to 18 begins there.
    # [reference] mpmath 1.3.0, dps 40, as test_kms_pdf_far_from_the_mean
    p = KappaMuShadowedParams(kappa=10.0, mu=3, m=2, mean_snr=10.0)
    monkeypatch.setattr(channels, "_LN_TOL", ln_tol)
    # the closed form, which does not depend on _LN_TOL, takes this cell
    assert math.isclose(kms_pdf(p, 60.0), 1.143477744972560777e-5, rel_tol=1e-12)
    monkeypatch.setattr(channels, "_MAX_SPREAD", 0.0)  # the walk
    if certified:
        assert math.isclose(kms_pdf(p, 60.0), 1.143477744972560777e-5, rel_tol=1e-12)
    else:
        with pytest.raises(ConvergenceError):
            kms_pdf(p, 60.0)


def _ln_kms_pdf(p, gamma):
    """ln f(gamma) as a log-sum-exp of the mixture's terms, each from scipy's
    gammaln (good to about 1e-8 at indices of 1e6), over the indices within
    60 sqrt(J) of the largest term, J = q x + 60 sqrt(q x) + 100 bounding
    the mode."""
    a, rate, r, q, _ = channels._gamma_mixture(p)
    x = rate * gamma

    def ln_terms(j):
        ln_t = (gammaln(r + j) - gammaln(j + 1.0) - gammaln(r) + r * math.log1p(-q)
                + (a - 1.0 + j) * math.log(x) - x - gammaln(a + j) + math.log(rate))
        return ln_t + j * math.log(q) if q > 0.0 else np.where(j == 0, ln_t, -np.inf)

    big = q * x + 60.0 * math.sqrt(q * x) + 100.0
    step = max(1.0, math.floor(big / 1000.0))
    grid = np.arange(0.0, big + step, step)
    peak = grid[np.argmax(ln_terms(grid))]
    width = 60.0 * math.sqrt(big) + step
    ln_t = ln_terms(np.arange(max(0.0, math.floor(peak - width)), math.ceil(peak + width)))
    return ln_t.max() + math.log(np.exp(ln_t - ln_t.max()).sum())


@pytest.mark.parametrize("kappa", [1e-5, 1e-2, 1.0, 10.0, 100.0, 1e3])
def test_kms_pdf_window_stays_in_range(kappa):
    # with no rescaling, the terms relative to t_lo stay finite and every
    # window's head is certified, from q x ~ 0 to q x = 8e6
    for mu, m in ((1, 1), (2, 1), (4, 2), (12, 6), (60, 30), (100, 1), (1000, 1), (1000, 500)):
        p = KappaMuShadowedParams(kappa=kappa, mu=mu, m=m, mean_snr=10.0)
        for frac in (0.001, 0.01, 0.1, 0.5, 1.0, 2.0, 4.0, 8.0):
            got, want = kms_pdf(p, 10.0 * frac), _ln_kms_pdf(p, 10.0 * frac)
            if want < math.log(sys.float_info.min):  # subnormal or 0.0
                assert got < sys.float_info.min
            else:
                assert abs(math.log(got) - want) <= 1e-7


def test_kms_pdf_walk_is_capped(monkeypatch):
    # q theta1 gamma is about 1.5e14 and the window about 2e8 indices wide;
    # the walk stops with ConvergenceError once it passes 2^20 indices
    p = KappaMuShadowedParams(kappa=1e12, mu=3, m=2, mean_snr=1.0)
    # the closed form gives the density there: [reference] mpmath 1.3.0 at
    # dps 100, the partial-fraction sum of test_kms_closed_form.py
    assert math.isclose(kms_pdf(p, 50.0), 7.440151951803537e-42, rel_tol=1e-12)
    monkeypatch.setattr(channels, "_MAX_SPREAD", 0.0)  # the walk
    start = time.perf_counter()
    with pytest.raises(ConvergenceError):
        kms_pdf(p, 50.0)
    assert time.perf_counter() - start < 1.0


def test_kms_pdf_walk_keeps_the_series_chunks(monkeypatch):
    # a 955-chunk density walk (q theta1 gamma = 8e6) has a cache of its own,
    # so a warm Fisher rate point, whose 2F1 series share the series chunk
    # cache, still finds every chunk and set-up it needs
    monkeypatch.setattr(channels, "_MAX_SPREAD", 0.0)  # the closed form takes the cell
    rate = (FisherFParams(m=2.5, m_s=10.1, mean_snr=10.0 ** -0.92), DelayQoS(1.528))
    eff_rate_f(*rate)
    kms_pdf(KappaMuShadowedParams(kappa=1e3, mu=1000, m=1, mean_snr=3.0), 24.0)
    before = [cache.cache_info() for cache in _memo.REGISTRY]
    eff_rate_f(*rate)
    after = [cache.cache_info() for cache in _memo.REGISTRY]
    assert [info.misses for info in after] == [info.misses for info in before]
    assert sum(info.hits for info in after) > sum(info.hits for info in before)


# [reference] mpmath 1.3.0, dps 40: sum over i of Pois(x; a+i) P[N <= i],
# x = theta1 gamma, both factors by recurrences from i = 0 until past x a
# term is below 1e-45 of the sum, with theta1 and q exact from the
# parameters.  The last two cells (mu = 1000, m = 500) were 1.0 and 0.494 in
# the former sum, whose negative binomial cdf from index 0 overflowed.
@pytest.mark.parametrize("kappa,mu,m,mean,gamma,want", [
    (2.0, 4, 2, 10.0, 0.5, 0.00016284518115938347163),
    (2.0, 4, 2, 10.0, 5.0, 0.19848111550331753047),
    (2.0, 4, 2, 10.0, 20.0, 0.93184740718541776118),
    (2.0, 4, 2, 10.0, 60.0, 0.99998702325546544539),
    (2.0, 4, 2, 10.0, 150.0, 0.99999999999998677147),
    (50.0, 60, 30, 10.0, 10.0, 0.52427947610361380535),
    (50.0, 60, 30, 10.0, 33.0, 0.99999999999999992606),
    (1e-5, 4, 2, 10.0, 1.0, 0.00077625137633857454016),
    (1e-5, 4, 2, 10.0, 8.0, 0.39748027560726527575),
    (1e-5, 4, 2, 10.0, 30.0, 0.99770820879072219964),
    (10.0, 1000, 500, 10.0, 5.0, 2.8188484124088905668e-49),
    (10.0, 1000, 500, 10.0, 10.0, 0.50592761598582457712),
    # 1 - q = 1e-5 and 1e-8: 1.5e-12, 5.4e-12 (relative) and 3.9e-11 off
    # when the negative binomial cdf took 1 - q from a rounded q
    (1e3, 100, 1, 10.0, 20.0, 0.86479863038689852134),
    (1e3, 100, 1, 10.0, 0.01, 4.5545850018478152799e-5),
    (1e6, 100, 1, 10.0, 0.1, 0.0099491959025191730371),
])
def test_kms_cdf_against_mpmath(kappa, mu, m, mean, gamma, want):
    p = KappaMuShadowedParams(kappa=kappa, mu=mu, m=m, mean_snr=mean)
    got = kms_cdf(p, gamma)
    assert abs(got - want) <= 2e-14
    if want < 1e-3:
        assert math.isclose(got, want, rel_tol=1e-12)


def test_kms_cdf_walks_only_its_window(monkeypatch):
    # theta1 gamma = 10,098 (kappa 50, mu 60, m 30 at 3.3x the mean): the
    # window runs from about x - mu - sqrt(2 L x) to as far above the mode,
    # about 36 chunks of the 203 from index 0, each read once
    reads = []
    ratios = channels._cdf_ratios

    def counted(shape, k):
        reads.append(k)
        return ratios(shape, k)

    p = KappaMuShadowedParams(kappa=50.0, mu=60, m=30, mean_snr=10.0)
    # the closed form takes this cell; [reference] as test_kms_cdf_against_mpmath
    assert abs(kms_cdf(p, 33.0) - 0.99999999999999992606) <= 2e-14
    monkeypatch.setattr(channels, "_cdf_ratios", counted)
    monkeypatch.setattr(channels, "_MAX_SPREAD", 0.0)  # the walk
    x = p.theta1 * 33.0
    kms_cdf(p, 33.0)
    width = math.sqrt(2.0 * channels._LN_TOL * x)
    assert len(set(reads)) == len(reads) <= 2.0 * width / channels._CHUNK + 3
    assert min(reads) * channels._CHUNK >= x - p.mu - width - channels._CHUNK


def test_kms_pdf_normalizes():
    for (k, mu, m, gb) in [(0.5, 2, 1, 1.0), (2.0, 4, 3, 10.0), (8.0, 4, 2, 1.0)]:
        p = KappaMuShadowedParams(kappa=k, mu=mu, m=m, mean_snr=gb)
        total, _ = integrate.quad(lambda g: kms_pdf(p, g), 0, np.inf, limit=300)
        assert math.isclose(total, 1.0, abs_tol=1e-9)
        mean, _ = integrate.quad(lambda g: g * kms_pdf(p, g), 0, np.inf, limit=300)
        assert math.isclose(mean, gb, rel_tol=1e-8)


def test_kms_mgf():
    p = KappaMuShadowedParams(kappa=2.0, mu=3, m=1, mean_snr=5.0)
    assert kms_mgf(p, 0.0) == 1.0
    with pytest.raises(DomainError):
        kms_mgf(p, p.theta2)
    z = KappaMuShadowedParams(kappa=0.0, mu=3, m=2, mean_snr=5.0)
    s = -0.7
    assert math.isclose(kms_mgf(z, s), (1.0 - s / z.theta1) ** -3, rel_tol=1e-13)


def test_kms_mgf_roundtrip_quadrature():
    for (k, mu, m, gb) in [(2.0, 3, 2, 8.0), (0.5, 4, 1, 2.0)]:
        p = KappaMuShadowedParams(kappa=k, mu=mu, m=m, mean_snr=gb)
        for s in (-0.5, -1.0, -2.0):
            quad, _ = integrate.quad(lambda g: math.exp(s * g) * kms_pdf(p, g),
                                     0, np.inf, limit=300)
            assert math.isclose(quad, kms_mgf(p, s), abs_tol=1e-9)


def test_kms_mgf_monte_carlo():
    # law of large numbers against the sampler, 1e7 draws, 3 standard errors
    p = KappaMuShadowedParams(kappa=2.0, mu=3, m=1, mean_snr=5.0)
    rng = np.random.default_rng(998877)
    g = kms_sample(p, rng, 10**7)
    vals = np.exp(-1.0 * g)
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - kms_mgf(p, -1.0)) <= 3.0 * se


def test_kms_pdf_continuity_at_kappa_zero():
    base = KappaMuShadowedParams(kappa=0.0, mu=3, m=2, mean_snr=5.0)
    tiny = KappaMuShadowedParams(kappa=1e-9, mu=3, m=2, mean_snr=5.0)
    just_above = KappaMuShadowedParams(kappa=1e-5, mu=3, m=2, mean_snr=5.0)
    for g in np.linspace(0.1, 10.0, 12):
        ref = kms_pdf(base, float(g))
        assert math.isclose(kms_pdf(tiny, float(g)), ref, rel_tol=1e-5)
        assert math.isclose(kms_pdf(just_above, float(g)), ref, rel_tol=1e-4)


def test_kms_cdf_properties():
    p = KappaMuShadowedParams(kappa=2.0, mu=3, m=2, mean_snr=8.0)
    assert kms_cdf(p, 0.0) == 0.0
    # reference: quadrature of the convolution density over [0, 5]
    assert math.isclose(kms_cdf(p, 5.0), 0.322279169236836, rel_tol=1e-10)
    assert kms_cdf(p, 500.0) > 1.0 - 1e-12
    grid = np.linspace(0.0, 30.0, 40)
    vals = [kms_cdf(p, float(g)) for g in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    # kappa = 0 branch equals the regularized incomplete gamma
    z = KappaMuShadowedParams(kappa=0.0, mu=2, m=1, mean_snr=4.0)
    assert math.isclose(kms_cdf(z, 3.0), stats.gamma.cdf(3.0, 2, scale=1 / z.theta1),
                        rel_tol=1e-12)


def test_kms_cdf_matches_pdf_derivative():
    p = KappaMuShadowedParams(kappa=1.5, mu=4, m=2, mean_snr=6.0)
    h = 1e-5
    for g in np.linspace(0.5, 15.0, 10):
        derivative = (kms_cdf(p, float(g + h)) - kms_cdf(p, float(g - h))) / (2 * h)
        assert math.isclose(derivative, kms_pdf(p, float(g)), rel_tol=1e-6)


@pytest.mark.parametrize("mu", [3, 2])
@pytest.mark.parametrize("n", [1, 1000, 200_003])
def test_kms_sample_matches_whole_array_draws(mu, n):
    # the sampler adds its second Gamma factor in place, block by block;
    # the draws must equal the two whole-array draws summed
    p = KappaMuShadowedParams(kappa=2.0, mu=mu, m=2, mean_snr=8.0)
    rng = np.random.default_rng(61)
    first = rng.gamma(p.mu - p.m, 1.0 / p.theta1, size=n) if mu > 2 else np.zeros(n)
    want = first + rng.gamma(p.m, 1.0 / p.theta2, size=n)
    assert np.array_equal(kms_sample(p, np.random.default_rng(61), n), want)


def test_kms_sampling_determinism_and_mean():
    p = KappaMuShadowedParams(kappa=2.0, mu=3, m=2, mean_snr=10.0)
    a = kms_sample(p, np.random.default_rng(7), 1000)
    b = kms_sample(p, np.random.default_rng(7), 1000)
    assert np.array_equal(a, b)
    g = kms_sample(p, np.random.default_rng(31), 10**7)
    se = g.std(ddof=1) / math.sqrt(len(g))
    assert abs(g.mean() - 10.0) <= 3.0 * se


@pytest.mark.parametrize("params", [
    KappaMuShadowedParams(kappa=2.0, mu=3, m=2, mean_snr=10.0),
    KappaMuShadowedParams(kappa=0.5, mu=2, m=1, mean_snr=1.0),
    KappaMuShadowedParams(kappa=5.0, mu=4, m=4, mean_snr=3.0),
])
def test_kms_sampler_ks(params):
    n = 10**5
    g = np.sort(kms_sample(params, np.random.default_rng(2024), n))
    model = np.array([kms_cdf(params, float(x)) for x in g])
    empirical = np.arange(1, n + 1) / n
    ks = float(np.max(np.abs(empirical - model)))
    assert ks < 1.95 / math.sqrt(n)  # significance 0.001


def test_kms_high_m_convolution_fallback():
    p = KappaMuShadowedParams(kappa=1.5, mu=30, m=26, mean_snr=12.0)
    total, _ = integrate.quad(lambda g: kms_pdf(p, g), 0, 80, limit=300)
    assert math.isclose(total, 1.0, abs_tol=1e-8)


def test_fisher_params():
    p = FisherFParams(m=2.0, m_s=3.0, mean_snr=4.0)
    assert p.omega == 2.0 / 12.0
    assert p.has_finite_mean
    assert not FisherFParams(m=2.0, m_s=0.9, mean_snr=4.0).has_finite_mean
    with pytest.raises(DomainError):
        FisherFParams(m=0.0, m_s=1.0, mean_snr=1.0)


def test_f_pdf_values():
    p = FisherFParams(m=1.0, m_s=2.0, mean_snr=4.0)
    assert math.isclose(f_pdf(p, 0.0), p.omega * 2.0, rel_tol=1e-13)
    # the SNR is mean_snr times a central F(2m, 2m_s) variate
    p = FisherFParams(m=2.0, m_s=3.0, mean_snr=4.0)
    for g in (0.2, 1.5, 6.0):
        want = stats.f.pdf(g / 4.0, 4, 6) / 4.0
        assert math.isclose(f_pdf(p, g), want, rel_tol=1e-12)
    assert math.isclose(f_pdf(p, 1.5), 0.16384, rel_tol=1e-13)
    with pytest.raises(DomainError):
        f_pdf(FisherFParams(m=0.8, m_s=3.0, mean_snr=1.0), 0.0)


def test_f_pdf_normalizes():
    for (m, ms, gb) in [(0.8, 1.2, 5.0), (2.3, 1.7, 5.0), (2.5, 10.0, 1.0)]:
        p = FisherFParams(m=m, m_s=ms, mean_snr=gb)
        lo = 0.0 if m >= 1 else 1e-12
        total, _ = integrate.quad(lambda g: f_pdf(p, g), lo, np.inf, limit=400)
        assert math.isclose(total, 1.0, abs_tol=1e-9)


def test_f_pdf_matches_scipy_over_the_parameter_box():
    # the SNR is mean_snr times an F(2m, 2m_s) variate; over m, m_s in
    # [0.3, 20] and gamma from 1e-6 to 1e6 times mean_snr.  Both are
    # log-space evaluations; where |ln f| is in the hundreds (m or m_s near
    # 20, far tails) scipy's value is itself up to 7.5e-14 off mpmath and
    # the two differ by up to 1.5e-13, so 1e-13 is checked against frozen
    # mpmath values (next test) and scipy against 2e-13
    x = np.geomspace(1e-6, 1e6, 49)
    for m in np.geomspace(0.3, 20.0, 9):
        for ms in np.geomspace(0.3, 20.0, 9):
            for mean in (0.01, 1.0, 100.0):
                p = FisherFParams(float(m), float(ms), mean)
                want = stats.f.pdf(x, 2.0 * m, 2.0 * ms) / mean
                got = [f_pdf(p, float(g)) for g in x * mean]
                np.testing.assert_allclose(got, want, rtol=2e-13, atol=0.0)


@pytest.mark.parametrize("m,ms,mean,g,want", [
    # [reference mpmath 40 digits] of w^m g^(m-1) (1+w g)^-(m+m_s) / B(m, m_s)
    (20.0, 20.0, 100.0, 1e8, 1.3784101507187977e-116),
    (20.0, 0.9, 10.0, 1e7, 3.3808071779821394e-13),
    (20.0, 20.0, 100.0, 1e-4, 1.378410150718799e-104),
    (0.3, 0.3, 1.0, 1e-6, 2637.2570479188382),
    (0.3, 20.0, 1.0, 1e6, 2.4530682182211204e-90),
    (7.0, 20.0, 100.0, 5.6e7, 1.1744178105852134e-107),
    # mpmath 1.3.0, dps 40, w the float m / (m_s mean): 2.3e-12 and 7.3e-13
    # off when 1/B(m, m_s) came from lgamma values near m_s
    (4.0, 3000.0, 10.0, 10.0, 0.078094677259436515152),
    (7.11, 1720.0, 10.0, 10.0, 0.10492093630443716956),
])
def test_f_pdf_corners_of_the_parameter_box(m, ms, mean, g, want):
    assert math.isclose(f_pdf(FisherFParams(m, ms, mean), g), want, rel_tol=1e-13)


def test_f_pdf_at_zero():
    # m = 1: omega / B(1, m_s) = omega m_s; m > 1: 0; m < 1: singular
    p = FisherFParams(m=1.0, m_s=2.5, mean_snr=4.0)
    assert math.isclose(f_pdf(p, 0.0), p.omega * 2.5, rel_tol=1e-13)
    p = FisherFParams(m=1.0, m_s=2e4, mean_snr=4.0)
    assert f_pdf(p, 0.0) == p.omega * 2e4  # 3.3e-12 off through ln_beta
    assert f_pdf(FisherFParams(m=1.5, m_s=2.5, mean_snr=4.0), 0.0) == 0.0
    with pytest.raises(DomainError, match="singular"):
        f_pdf(FisherFParams(m=0.8, m_s=2.5, mean_snr=4.0), 0.0)


def test_f_pdf_rejects_non_finite_gamma():
    # NaN and infinity used to come back as nan
    p = FisherFParams(m=2.0, m_s=3.0, mean_snr=4.0)
    for bad in (math.nan, math.inf, -1.0):
        with pytest.raises(DomainError, match="gamma"):
            f_pdf(p, bad)


def test_f_cdf_rejects_non_finite_gamma():
    # NaN and infinity used to raise an error about reg_inc_beta's x
    p = FisherFParams(m=2.0, m_s=3.0, mean_snr=4.0)
    for bad in (math.nan, math.inf, -1.0):
        with pytest.raises(DomainError, match="gamma"):
            f_cdf(p, bad)


def test_f_cdf():
    p = FisherFParams(m=2.0, m_s=3.0, mean_snr=4.0)
    assert f_cdf(p, 0.0) == 0.0
    # reference: quadrature of the density over [0, 4]
    assert math.isclose(f_cdf(p, 4.0), 0.5248, rel_tol=1e-12)
    h = 1e-6
    for g in (0.4, 2.0, 9.0):
        derivative = (f_cdf(p, g + h) - f_cdf(p, g - h)) / (2 * h)
        assert math.isclose(derivative, f_pdf(p, g), rel_tol=1e-6)


@pytest.mark.parametrize("m,ms,mean,g,want", [
    # mpmath 1.3.0, dps 40: I_x(m, m_s), x = w g / (1 + w g), w the float
    # m / (m_s mean).  1.3e-12 and 4.0e-13 off when the incomplete beta's
    # front factor came from lgamma values near m_s
    (4.0, 3000.0, 10.0, 10.0, 0.56639972906402898854),
    (7.11, 1720.0, 10.0, 10.0, 0.54959327076318877566),
])
def test_f_cdf_against_mpmath(m, ms, mean, g, want):
    assert abs(f_cdf(FisherFParams(m, ms, mean), g) - want) <= 1e-13


def test_f_cdf_and_pdf_on_random_cells():
    # 240 cells drawn log-uniformly: m from 0.3 to 1000, m_s from 0.3 to
    # 3000, mean from 0.1 to 1000, gamma = mean 10^U(-2, 2), each to 4
    # significant digits.  Rows are (m, m_s, mean, gamma, F, f) from mpmath
    # 1.3.0 at dps 40 (the same at dps 70), with w the float m / (m_s mean):
    # F = betainc(m, m_s, 0, w g / (1 + w g), regularized=True) and f the
    # density w^m g^(m-1) (1+w g)^-(m+m_s) / B(m, m_s).  With the front factor
    # from lgamma the worst cells were 4.8e-13 (F, absolute), 1.8e-12 (F,
    # relative) and 5.0e-12 (f) off.
    rows = json.loads(Path(__file__).with_name("fisher_mpmath_cells.json").read_text())
    assert len(rows) >= 200
    for m, ms, mean, g, cdf, pdf in rows:
        p = FisherFParams(m, ms, mean)
        got = f_cdf(p, g)
        assert abs(got - cdf) <= 1e-13
        if cdf > 1e-300:
            assert math.isclose(got, cdf, rel_tol=1e-12)
        assert math.isclose(f_pdf(p, g), pdf, rel_tol=1e-12)


def test_f_pdf_and_cdf_need_a_normal_omega_gamma():
    # x = w g / (1 + w g) and its complement must be normal floats: below
    # that range they keep only some of their digits, and w g = inf has no x
    for p, g in ((FisherFParams(0.5, 1000.0, 1e6), 1e-310),
                 (FisherFParams(3.0, 2.0, 1e-300), 1e300)):
        with pytest.raises(DomainError, match="normal floats"):
            f_cdf(p, g)
    with pytest.raises(DomainError, match="normal floats"):
        f_pdf(FisherFParams(3.0, 2.0, 1e-300), 1e300)


# [reference] mpmath 1.3.0 at dps 40, w^m g^(m-1) (1 + w g)^-(m+m_s) /
# B(m, m_s) with w the float m / (m_s mean): (m + m_s) w g is subnormal,
# where the first cell raised DomainError from the incomplete beta's front
@pytest.mark.parametrize("m,m_s,mean,gamma,want", [
    (0.5, 1000.0, 1e6, 1e-310, 3.9889241573506739031e+151),
    (0.3, 0.2, 1.0, 1e-308, 5.8024416720096958991e+214),
    (1.0, 2.5, 1e10, 1e-300, 9.999999999999999395e-11),
])
def test_f_pdf_where_omega_gamma_is_subnormal(m, m_s, mean, gamma, want):
    assert math.isclose(f_pdf(FisherFParams(m, m_s, mean), gamma), want, rel_tol=1e-13)


def test_f_cdf_median_monte_carlo():
    p = FisherFParams(m=2.0, m_s=3.0, mean_snr=4.0)
    g = f_sample(p, np.random.default_rng(55), 10**7)
    median = float(np.median(g))
    assert abs(f_cdf(p, median) - 0.5) < 1e-3


@pytest.mark.parametrize("m,m_s", [(2.0, 3.0), (0.8, 0.3), (4.5, 7.5)])
@pytest.mark.parametrize("n", [1, 1000, 200_003])
def test_f_sample_matches_whole_array_draws(m, m_s, n):
    # same float operations as the whole-array expression, done in place
    p = FisherFParams(m=m, m_s=m_s, mean_snr=4.0)
    rng = np.random.default_rng(62)
    g1 = rng.gamma(p.m, 1.0, size=n)
    g2 = rng.gamma(p.m_s, 1.0, size=n)
    want = p.mean_snr * (g1 / p.m) / (g2 / p.m_s)
    assert np.array_equal(f_sample(p, np.random.default_rng(62), n), want)


def test_f_sampler_statistics():
    p = FisherFParams(m=2.0, m_s=5.0, mean_snr=10.0)
    a = f_sample(p, np.random.default_rng(11), 500)
    b = f_sample(p, np.random.default_rng(11), 500)
    assert np.array_equal(a, b)
    g = f_sample(p, np.random.default_rng(77), 10**7)
    se = g.std(ddof=1) / math.sqrt(len(g))
    # scaled-F mean: mean_snr * m_s / (m_s - 1)
    assert abs(g.mean() - 12.5) <= 3.0 * se


@pytest.mark.parametrize("params", [
    FisherFParams(m=2.0, m_s=3.0, mean_snr=4.0),
    FisherFParams(m=0.8, m_s=1.2, mean_snr=1.0),
    FisherFParams(m=2.5, m_s=10.0, mean_snr=10.0),
])
def test_f_sampler_ks(params):
    n = 10**5
    g = np.sort(f_sample(params, np.random.default_rng(909), n))
    model = np.array([f_cdf(params, float(x)) for x in g])
    empirical = np.arange(1, n + 1) / n
    assert float(np.max(np.abs(empirical - model))) < 1.95 / math.sqrt(n)


def test_f_nakagami_limit():
    # m_s -> inf removes shadowing: the SNR tends to Gamma(m, rate m/mean)
    p = FisherFParams(m=2.0, m_s=1e4, mean_snr=6.0)
    n = 10**5
    g = np.sort(f_sample(p, np.random.default_rng(404), n))
    gamma_cdf = stats.gamma.cdf(g, 2.0, scale=6.0 / 2.0)
    empirical = np.arange(1, n + 1) / n
    assert float(np.max(np.abs(empirical - gamma_cdf))) < 0.02
