"""Channel models: parameter invariants, density/CDF/MGF agreement with
independent references, and sampler statistics.

Frozen [reference] values: the kappa-mu density value comes from mpmath
quadrature of the Gamma-Gamma convolution integral (the inverse Laplace
route), its CDF value from quadrature of that convolution density, and the
Fisher-Snedecor values from the scaled central-F identity and quadrature of
the density.
"""

import math

import numpy as np
import pytest
from scipy import integrate, stats

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
from edsense.errors import DomainError


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
])
def test_f_pdf_corners_of_the_parameter_box(m, ms, mean, g, want):
    assert math.isclose(f_pdf(FisherFParams(m, ms, mean), g), want, rel_tol=1e-13)


def test_f_pdf_at_zero():
    # m = 1: omega / B(1, m_s) = omega m_s; m > 1: 0; m < 1: singular
    p = FisherFParams(m=1.0, m_s=2.5, mean_snr=4.0)
    assert math.isclose(f_pdf(p, 0.0), p.omega * 2.5, rel_tol=1e-13)
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
