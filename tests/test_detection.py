"""Detection metrics: threshold handling, closed-form averages against
frozen quadrature references and live oracles, and the certified series
truncation.

Frozen [reference] values were computed with scipy adaptive quadrature of
the averaging integrals (the instantaneous detection probability supplied
by the noncentral chi-square survival function) at epsabs 1e-13, and the
ROC-area value by integrating the detection probability over the
false-alarm measure.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from edsense import detection, specfun
from edsense.channels import FisherFParams, KappaMuShadowedParams, f_pdf, kms_pdf
from edsense.detection import (
    DetectorConfig,
    RocPoint,
    TruncationReport,
    auc_instant,
    avg_auc_f,
    avg_auc_kms,
    avg_pd_f,
    avg_pd_kms,
    croc_curve,
    prob_detect_instant,
    prob_false_alarm,
    threshold_for_pf,
    truncation_bound_f,
)
from edsense.errors import ConvergenceError, DomainError
from edsense.oracle import average_over_channel
from edsense.specfun import ln_beta, ln_tricomi_u, reg_lower_gamma

LAM_PF10_U2 = 7.7794403397348581  # threshold for pf = 0.1 at u = 2 (root-solve)


def test_detector_config_validation():
    DetectorConfig(u=1, lam=0.0)
    with pytest.raises(DomainError):
        DetectorConfig(u=0, lam=1.0)
    with pytest.raises(DomainError):
        DetectorConfig(u=2, lam=-0.5)
    for bad in (dict(u=2, lam=math.nan), dict(u=2, lam=math.inf), dict(u=math.nan, lam=1.0)):
        with pytest.raises(DomainError):
            DetectorConfig(**bad)


def test_prob_false_alarm_values():
    assert prob_false_alarm(DetectorConfig(u=3, lam=0.0)) == 1.0
    assert math.isclose(prob_false_alarm(DetectorConfig(u=1, lam=2.0)),
                        math.exp(-1.0), rel_tol=1e-13)
    assert math.isclose(prob_false_alarm(DetectorConfig(u=2, lam=5.0)),
                        3.5 * math.exp(-2.5), rel_tol=1e-13)
    grid = [prob_false_alarm(DetectorConfig(u=2, lam=x)) for x in np.linspace(0, 30, 50)]
    assert all(b < a for a, b in zip(grid, grid[1:]))


def test_threshold_for_pf():
    assert math.isclose(threshold_for_pf(1, math.exp(-1.0)), 2.0, abs_tol=1e-10)
    # reference: root of (1 + lam/2) e^{-lam/2} = 1/2
    assert math.isclose(threshold_for_pf(2, 0.5), 3.3566939800333213, abs_tol=1e-9)
    for u in (1, 2, 4):
        for pf in (0.01, 0.1, 0.9):
            lam = threshold_for_pf(u, pf)
            assert abs(prob_false_alarm(DetectorConfig(u=u, lam=lam)) - pf) <= 1e-12
    with pytest.raises(DomainError):
        threshold_for_pf(2, 1.5)


def _bisection_threshold(u, pf):
    """lam for P_f = pf by bisection to adjacent floats on scipy's regularized
    gamma, on the smaller tail so that lam keeps its relative accuracy as
    pf -> 1."""
    if pf <= 0.5:
        def right_of_root(y):
            return special.gammaincc(u, y) <= pf
    else:
        def right_of_root(y):
            return special.gammainc(u, y) >= 1.0 - pf
    lo, hi = 0.0, 1.0
    while not right_of_root(hi):
        lo, hi = hi, 2.0 * hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if right_of_root(mid):
            hi = mid
        else:
            lo = mid
    return 2.0 * hi


# Batched false-alarm tail evaluations (``detection._tails``) allowed per
# threshold inversion, and per whole grid inverted at once (a bisection to
# 1e-15 needs about 56).
THRESHOLD_EVALS_MAX = 6


@pytest.mark.parametrize("u", [1, 2, 5, 20, 200])
def test_threshold_for_pf_newton(u, monkeypatch):
    calls = []
    tails = detection._tails
    monkeypatch.setattr(detection, "_tails", lambda *args: calls.append(1) or tails(*args))
    for pf in (1e-9, 1e-6, 1e-3, 0.1, 0.5, 0.9, 0.999999):
        calls.clear()
        lam = threshold_for_pf(u, pf)
        assert len(calls) <= THRESHOLD_EVALS_MAX, (u, pf, len(calls))
        assert abs(prob_false_alarm(DetectorConfig(u=u, lam=lam)) - pf) <= 1e-12
        assert math.isclose(lam, _bisection_threshold(u, pf), rel_tol=1e-12)
    # the CLI's 50-point grid, inverted in one batch
    grid = np.geomspace(1e-3, 0.999, 50)
    calls.clear()
    lams = detection._thresholds(u, grid)
    assert len(calls) <= THRESHOLD_EVALS_MAX, (u, len(calls))
    for pf, lam in zip(grid, lams):
        assert math.isclose(lam, threshold_for_pf(u, float(pf)), rel_tol=1e-15)


def test_threshold_for_pf_large_u():
    # near P_f = 1/2 at u in the thousands, the 1e-12 false-alarm check needs
    # the incomplete gamma's prefactor without its 2e-12 rounding noise of
    # z ln y - y - ln Gamma(z)
    for u in (2000, 2400):
        for pf in np.linspace(0.3, 0.7, 9):
            lam = threshold_for_pf(u, float(pf))
            assert math.isclose(lam, _bisection_threshold(u, float(pf)), rel_tol=1e-13)


def test_prob_detect_instant():
    assert prob_detect_instant(DetectorConfig(u=3, lam=0.0), 4.0) == 1.0
    assert math.isclose(prob_detect_instant(DetectorConfig(u=1, lam=2.0), 0.0),
                        math.exp(-1.0), rel_tol=1e-12)
    # independent noncentral chi-square implementation
    want = stats.ncx2.sf(4.0, 4, 6.0)
    assert math.isclose(prob_detect_instant(DetectorConfig(u=2, lam=4.0), 3.0),
                        want, abs_tol=1e-12)
    grid = [prob_detect_instant(DetectorConfig(u=2, lam=4.0), g)
            for g in np.linspace(0, 20, 30)]
    assert all(b >= a - 1e-12 for a, b in zip(grid, grid[1:]))


@pytest.mark.parametrize("y", [30.0, 300.0, 3000.0])
@pytest.mark.parametrize("u", [1, 5, 20])
def test_lower_gamma_run_matches_scipy(u, y):
    # the series' factors P(u+k, y), k < n, read back one at a time through a
    # one-hot pmf, and its tail bound P(u+n, y); the batch also carries
    # smaller thresholds, whose rows have their modes elsewhere
    ys = np.array([y, 0.5 * y, 0.1 * y])
    n = math.ceil(y + 12.0 * math.sqrt(y)) + 20
    gammas = detection._gamma_matrix(u, ys, n)
    for k in range(0, n, max(1, n // 200)):
        pmf = np.zeros(n)
        pmf[k] = 1.0
        got, tail = detection._pmd_from_pmf(pmf, gammas)
        assert np.all(np.abs(got - special.gammainc(u + k, ys)) <= 1e-13), k
    want = special.gammainc(u + n, ys)
    assert np.all(np.abs(tail - want) <= 1e-13)
    # the tail keeps its relative accuracy, which P_md needs where it is small
    normal = want > 1e-300
    assert np.allclose(tail[normal], want[normal], rtol=1e-11, atol=0.0)


def test_avg_pd_kms_reference_values():
    cfg = DetectorConfig(u=2, lam=LAM_PF10_U2)
    assert avg_pd_kms(KappaMuShadowedParams(2.0, 3, 2, 10.0),
                      DetectorConfig(u=2, lam=0.0)) == 1.0
    # kappa -> 0 with mu = m = 1: exponential channel [reference quadrature]
    exp_channel = KappaMuShadowedParams(0.0, 1, 1, 5.0)
    assert math.isclose(avg_pd_kms(exp_channel, cfg), 0.623438946859693, abs_tol=1e-10)
    # CROC operating point at u=2, mean SNR 10 dB [reference quadrature]
    p = KappaMuShadowedParams(2.0, 3, 2, 10.0)
    assert math.isclose(avg_pd_kms(p, cfg), 0.885838071395197, abs_tol=1e-10)


@pytest.mark.parametrize("params", [
    KappaMuShadowedParams(0.5, 2, 2, 4.0),
    KappaMuShadowedParams(8.0, 4, 3, 10.0),
    KappaMuShadowedParams(3.0, 5, 2, 2.0),
])
def test_avg_pd_kms_against_quadrature(params):
    cfg = DetectorConfig(u=2, lam=LAM_PF10_U2)
    quad, _ = integrate.quad(
        lambda g: stats.ncx2.sf(cfg.lam, 2 * cfg.u, 2.0 * g) * kms_pdf(params, g),
        0, np.inf, limit=400)
    assert math.isclose(avg_pd_kms(params, cfg), quad, abs_tol=1e-9)


def test_avg_pd_f_reference_value():
    cfg = DetectorConfig(u=2, lam=LAM_PF10_U2)
    p = FisherFParams(m=2.0, m_s=3.0, mean_snr=1.0)
    value, report = avg_pd_f(p, cfg, tol=1e-8)
    # CROC operating point at u=2, mean SNR 0 dB [reference quadrature]
    assert abs(value - 0.325302891783316) <= 1e-8 + 1e-10
    assert report.error_bound <= 1e-8
    assert isinstance(report, TruncationReport)


def test_avg_pd_f_threshold_zero_is_certain_detection():
    p = FisherFParams(m=2.0, m_s=10.0, mean_snr=2.0)
    value, _ = avg_pd_f(p, DetectorConfig(u=3, lam=0.0), tol=1e-9)
    assert math.isclose(value, 1.0, abs_tol=1e-9)


def test_avg_pd_f_truncation_consistency():
    cfg = DetectorConfig(u=2, lam=LAM_PF10_U2)
    p = FisherFParams(m=2.0, m_s=3.0, mean_snr=1.0)
    v7, _ = avg_pd_f(p, cfg, tol=1e-7)
    v10, _ = avg_pd_f(p, cfg, tol=1e-10)
    assert abs(v7 - v10) <= 1e-7


def test_avg_pd_f_unreachable_tolerance_raises():
    # lam = 25000 needs over 10,000 terms before the certified tail bound
    # reaches tol; the failure must be reported, not silently truncated
    p = FisherFParams(m=2.0, m_s=1.2, mean_snr=10.0)
    with pytest.raises(ConvergenceError):
        avg_pd_f(p, DetectorConfig(u=2, lam=25000.0), tol=1e-8)


def test_avg_pd_kms_unreachable_tolerance_raises():
    p = KappaMuShadowedParams(2.0, 3, 2, 10.0)
    with pytest.raises(ConvergenceError):
        avg_pd_kms(p, DetectorConfig(u=2, lam=25000.0))


def _series_tail(p, cfg, start, count):
    # tail of the mixed-Poisson series sum_k pi_k P(u+k, lam/2), with pi_k
    # the Tricomi-U coefficient of the Fisher-Snedecor channel
    y = cfg.lam / 2.0
    total = 0.0
    for j in range(start, start + count):
        q = reg_lower_gamma(j + cfg.u, y)
        if q == 0.0:
            break  # P falls with j: every later factor underflows too
        ln_c = (math.lgamma(j + p.m) - j * math.log(p.omega)
                - math.lgamma(j + 1.0) - ln_beta(p.m, p.m_s))
        total += q * math.exp(ln_c + ln_tricomi_u(j + p.m, j - p.m_s + 1.0,
                                                  1.0 / p.omega))
    return total


@pytest.mark.parametrize("m,ms,gb,u,pf,S", [
    (2.0, 3.0, 10.0, 2, None, 20),   # lam fixed to 4 below per the None marker
    (2.0, 3.0, 1.0, 2, 0.1, 20),
    (3.0, 2.0, 1.0, 1, 0.5, 10),
    (1.0, 10.0, 2.0, 4, 0.01, 25),
])
def test_truncation_bound_dominates_brute_tail(m, ms, gb, u, pf, S):
    p = FisherFParams(m=m, m_s=ms, mean_snr=gb)
    lam = 4.0 if pf is None else threshold_for_pf(u, pf)
    cfg = DetectorConfig(u=u, lam=lam)
    bound = truncation_bound_f(p, cfg, S)
    assert bound >= 0.0
    assert bound >= _series_tail(p, cfg, S, 3000)


@pytest.mark.parametrize("params", [
    FisherFParams(m=2.0, m_s=3.0, mean_snr=1.0),
    FisherFParams(m=2.0, m_s=10.0, mean_snr=0.3),
    FisherFParams(m=1.0, m_s=10.0, mean_snr=2.0),
    FisherFParams(m=3.0, m_s=2.0, mean_snr=1.0),
    FisherFParams(m=2.5, m_s=1.5, mean_snr=1.0),
])
def test_truncation_bound_monotone_in_terms(params):
    cfg = DetectorConfig(u=2, lam=4.0)
    for S in (5, 12, 30, 80, 200):
        assert truncation_bound_f(params, cfg, S + 10) <= truncation_bound_f(params, cfg, S)


def _db(x):
    return 10.0 ** (x / 10.0)


@pytest.mark.parametrize("metric,params,want", [
    # small kappa, where the two Gamma rates of the kappa-mu SNR nearly
    # coincide, and mu = 60
    ("avg_pd_kms", KappaMuShadowedParams(1e-5, 6, 3, _db(0.0)), 0.269751988424),
    ("avg_pd_kms", KappaMuShadowedParams(1e-5, 6, 3, _db(10.0)), 0.941020198824),
    ("avg_pd_kms", KappaMuShadowedParams(1e-3, 6, 3, _db(10.0)), 0.941020167540),
    ("avg_pd_kms", KappaMuShadowedParams(0.5, 60, 30, _db(10.0)), 0.978341575491),
    ("avg_auc_kms", KappaMuShadowedParams(1e-5, 6, 3, _db(0.0)), 0.654997679068),
    ("avg_auc_kms", KappaMuShadowedParams(1e-5, 6, 3, _db(10.0)), 0.977853737722),
    # heavy shadowing and high SNR on the Fisher-Snedecor channel
    ("avg_pd_f", FisherFParams(m=2.0, m_s=3.0, mean_snr=_db(10.0)), 0.863325231069),
    ("avg_pd_f", FisherFParams(m=1.0, m_s=1.5, mean_snr=_db(-5.0)), 0.210912006543),
    ("avg_pd_f", FisherFParams(m=1.0, m_s=1.5, mean_snr=_db(10.0)), 0.792820210144),
])
def test_weak_region_reference_values(metric, params, want):
    # [reference quadrature], u = 2 and P_f = 0.1
    cfg = DetectorConfig(u=2, lam=threshold_for_pf(2, 0.1))
    if metric == "avg_pd_kms":
        got = avg_pd_kms(params, cfg)
    elif metric == "avg_auc_kms":
        got = avg_auc_kms(params, cfg)
    else:
        got, _ = avg_pd_f(params, cfg)
    assert math.isclose(got, want, abs_tol=1e-9)


def test_auc_instant():
    assert auc_instant(DetectorConfig(u=1, lam=0.0), 0.0) == 0.5
    assert math.isclose(auc_instant(DetectorConfig(u=2, lam=0.0), 700.0), 1.0,
                        abs_tol=1e-12)
    # reference: integral of P_d over the false-alarm measure at u=2, g=5
    assert math.isclose(auc_instant(DetectorConfig(u=2, lam=0.0), 5.0),
                        0.933305938618082, abs_tol=1e-12)
    grid = [auc_instant(DetectorConfig(u=2, lam=0.0), g) for g in np.linspace(0, 30, 40)]
    assert all(0.5 <= v <= 1.0 for v in grid)
    assert all(b >= a - 1e-12 for a, b in zip(grid, grid[1:]))


def _auc_by_integral(u, gamma):
    """ROC area as P[T1 > T0], T0 ~ chi2(2u) the noise-only statistic and T1
    its noncentral counterpart: the detection probability integrated over
    the false-alarm density, within 40 standard deviations of T0's mean."""
    sd = math.sqrt(4.0 * u)
    value, _ = integrate.quad(
        lambda x: stats.ncx2.sf(x, 2 * u, 2.0 * gamma) * stats.chi2.pdf(x, 2 * u),
        max(0.0, 2 * u - 40.0 * sd), 2 * u + 40.0 * sd, points=[2 * u],
        epsabs=1e-14, epsrel=1e-13, limit=400)
    return value


@pytest.mark.parametrize("u,gamma", [(172, 5.0), (200, 10.0), (600, 40.0)])
def test_auc_instant_large_u(u, gamma):
    # i! overflows a float from i = 171 on; the area must not need it
    assert math.isclose(auc_instant(DetectorConfig(u=u, lam=0.0), gamma),
                        _auc_by_integral(u, gamma), abs_tol=1e-12)


def test_avg_auc_large_u():
    kms = KappaMuShadowedParams(2.0, 3, 2, 10.0)
    assert 0.5 <= avg_auc_kms(kms, DetectorConfig(u=516, lam=0.0)) <= 1.0
    fisher = FisherFParams(m=2.0, m_s=3.0, mean_snr=10.0)
    assert 0.5 <= avg_auc_f(fisher, DetectorConfig(u=600, lam=0.0)) <= 1.0


def test_avg_auc_kms():
    cfg = DetectorConfig(u=2, lam=0.0)
    # reference: quadrature of the instantaneous area against the density
    p = KappaMuShadowedParams(2.0, 2, 1, 5.0)
    assert math.isclose(avg_auc_kms(p, cfg), 0.857780159285817, abs_tol=1e-10)
    # u = 1 collapses to 1 - MGF(-1/2)/2
    from edsense.channels import kms_mgf
    q = KappaMuShadowedParams(0.5, 4, 3, 4.0)
    assert math.isclose(avg_auc_kms(q, DetectorConfig(u=1, lam=0.0)),
                        1.0 - 0.5 * kms_mgf(q, -0.5), rel_tol=1e-12)
    # density concentrating at zero drives the area to the zero-SNR value
    tiny = KappaMuShadowedParams(2.0, 3, 2, 1e-7)
    assert math.isclose(avg_auc_kms(tiny, cfg), auc_instant(cfg, 0.0), abs_tol=1e-5)


def test_avg_auc_f():
    cfg = DetectorConfig(u=2, lam=0.0)
    p = FisherFParams(m=2.0, m_s=3.0, mean_snr=5.0)
    # reference: quadrature of the instantaneous area against the density
    assert math.isclose(avg_auc_f(p, cfg), 0.882290516495037, abs_tol=1e-10)
    # u = 1 term equals the quadrature single term
    q = FisherFParams(m=0.8, m_s=3.0, mean_snr=2.0)
    quad, _ = integrate.quad(
        lambda g: auc_instant(DetectorConfig(u=1, lam=0.0), g) * f_pdf(q, g),
        1e-12, np.inf, limit=400)
    assert math.isclose(avg_auc_f(q, DetectorConfig(u=1, lam=0.0)), quad, abs_tol=1e-9)
    # unbounded mean SNR drives the area to 1
    rich = FisherFParams(m=2.0, m_s=3.0, mean_snr=1e6)
    assert avg_auc_f(rich, cfg) > 0.999


def test_kappa_increase_alone_degrades_under_heavy_shadowing():
    # Pinned model fact: with m < mu fixed, raising kappa moves the SNR law
    # from Gamma(mu, mu/snr) toward the heavier Gamma(m, m/snr) (the
    # dominant power it adds is the shadowed part), so detection gets worse.
    # Improvement with kappa requires a joint mu/m increase, or mu = m where
    # kappa cancels from the distribution entirely.
    cfg = DetectorConfig(u=2, lam=threshold_for_pf(2, 0.1))
    lo = avg_pd_kms(KappaMuShadowedParams(1.0, 2, 1, 10.0), cfg)
    hi = avg_pd_kms(KappaMuShadowedParams(4.0, 2, 1, 10.0), cfg)
    assert hi < lo - 1e-3
    flat_lo = avg_pd_kms(KappaMuShadowedParams(1.0, 2, 2, 10.0), cfg)
    flat_hi = avg_pd_kms(KappaMuShadowedParams(4.0, 2, 2, 10.0), cfg)
    assert math.isclose(flat_lo, flat_hi, rel_tol=1e-12)


def test_ms_increase_alone_degrades_at_low_snr():
    # Pinned model fact: the scale omega = m/(m_s * mean_snr) makes the true
    # mean SNR equal mean_snr * m_s/(m_s - 1), so raising m_s at fixed
    # mean_snr removes shadowing but also removes mean power; at 0 dB the
    # mean loss wins across the whole threshold range.
    cfg = DetectorConfig(u=2, lam=threshold_for_pf(2, 0.1))
    lo, _ = avg_pd_f(FisherFParams(m=2.0, m_s=2.0, mean_snr=1.0), cfg, tol=1e-6)
    hi, _ = avg_pd_f(FisherFParams(m=2.0, m_s=10.0, mean_snr=1.0), cfg, tol=1e-6)
    assert hi < lo - 1e-3


def test_detection_never_below_chance():
    p = KappaMuShadowedParams(2.0, 3, 2, 10.0)
    for pf in (0.01, 0.1, 0.5, 0.9):
        cfg = DetectorConfig(u=2, lam=threshold_for_pf(2, pf))
        assert avg_pd_kms(p, cfg) >= pf - 1e-9


def test_croc_curve():
    p = KappaMuShadowedParams(2.0, 3, 2, 10.0)
    grid = [0.001, 0.01, 0.1, 0.5, 0.999]
    points = croc_curve(p, 2, grid)
    assert [pt.pf for pt in points] == grid
    pmds = [pt.pmd for pt in points]
    assert all(b <= a + 1e-12 for a, b in zip(pmds, pmds[1:]))
    assert pmds[-1] < 1e-3  # pf near 1 forces the threshold toward zero
    single = croc_curve(p, 2, [0.5])
    assert len(single) == 1 and isinstance(single[0], RocPoint)
    f = FisherFParams(m=2.0, m_s=10.0, mean_snr=1.0)
    fpoints = croc_curve(f, 2, [0.05, 0.3], tol=1e-7)
    assert fpoints[0].pmd >= fpoints[1].pmd


def test_croc_curve_validation():
    p = KappaMuShadowedParams(2.0, 3, 2, 10.0)
    with pytest.raises(DomainError):
        croc_curve(p, 2, [])
    with pytest.raises(DomainError):
        croc_curve(p, 2, [0.5, 0.2])
    with pytest.raises(DomainError):
        croc_curve(p, 2, [0.0, 0.5])
    # a value outside (0, 1) is named before the order, NaN included
    for grid in ([0.5, 1.5, 0.2], [0.1, math.nan, 0.5], [0.3, 0.2, 1.0]):
        with pytest.raises(DomainError, match="strictly inside"):
            croc_curve(p, 2, grid)
    with pytest.raises(DomainError, match="nonempty"):
        croc_curve(p, 2, np.array([]))
    with pytest.raises(DomainError, match="strictly increasing"):
        croc_curve(p, 2, [0.1, 0.5, 0.5])


@pytest.mark.parametrize("bad", [math.nan, 1.5])
def test_croc_curve_checks_every_pmd(bad, monkeypatch):
    # RocPoint checks nothing itself: croc_curve checks its whole P_md vector
    real = detection._pmd_from_pmf

    def corrupt(pmf, gammas):
        pmds, bound = real(pmf, gammas)
        return np.where(np.arange(len(pmds)) == 1, bad, pmds), bound

    monkeypatch.setattr(detection, "_pmd_from_pmf", corrupt)
    with pytest.raises(DomainError, match="must lie in \\[0, 1\\]"):
        croc_curve(KappaMuShadowedParams(2.0, 3, 2, 10.0), 2, [1e-3, 0.1, 0.5])


def test_roc_point_is_a_named_tuple():
    assert RocPoint._fields == ("pf", "pd", "pmd")
    point = RocPoint(pf=0.1, pd=0.75, pmd=0.25)
    assert isinstance(point, RocPoint) and point == (0.1, 0.75, 0.25)
    for channel in (KappaMuShadowedParams(2.0, 3, 2, 10.0), FisherFParams(2.0, 3.0, 10.0)):
        for pt in croc_curve(channel, 2, np.geomspace(1e-3, 0.999, 50)):
            assert isinstance(pt, RocPoint)
            assert pt.pd == 1.0 - pt.pmd


def test_croc_pmd_keeps_relative_accuracy():
    # P_md near 1e-11 must be summed directly, not taken as 1 - P_d (which
    # gave 4.702405132e-11 here).  Reference, scipy only: E[ncx2.cdf(lam;
    # 2u, 2 gamma)] with the density of gamma = Gamma(mu-m, theta1) +
    # Gamma(m, theta2) from a convolution quadrature of scipy Gamma densities.
    p = KappaMuShadowedParams(2.0, 3, 2, 1000.0)
    lam = threshold_for_pf(2, 0.999)

    def density(g):
        return integrate.quad(
            lambda s: stats.gamma.pdf(s, p.mu - p.m, scale=1.0 / p.theta1)
            * stats.gamma.pdf(g - s, p.m, scale=1.0 / p.theta2),
            0.0, g, epsabs=0.0, epsrel=1e-13)[0]

    want = integrate.quad(lambda g: stats.ncx2.cdf(lam, 4, 2.0 * g) * density(g),
                          0.0, 60.0, epsabs=0.0, epsrel=1e-12, limit=200)[0]
    (point,) = croc_curve(p, 2, [0.999], tol=1e-12)
    assert math.isclose(point.pmd, 4.702406095e-11, rel_tol=1e-9)
    assert point.pd == 1.0 - point.pmd
    # tol bounds the absolute truncation error (1.5e-9 relative at 1e-12);
    # a tighter tol brings the direct sum to the reference in relative terms
    assert abs(point.pmd - want) <= 1e-12
    (point,) = croc_curve(p, 2, [0.999], tol=1e-16)
    assert math.isclose(point.pmd, want, rel_tol=1e-9)


@st.composite
def _croc_cases(draw):
    """A channel, an order u and a strictly increasing false-alarm grid of
    2-60 points in [1e-12, 1 - 1e-9]: s <= 0 maps to 0.5 * 10^s and s > 0 to
    1 - 0.5 * 10^-s, so both tails are drawn down to their ends."""
    if draw(st.booleans()):
        mu = draw(st.integers(1, 12))
        channel = KappaMuShadowedParams(10.0 ** draw(st.floats(-3.0, 1.5)), mu,
                                        draw(st.integers(1, mu)),
                                        10.0 ** draw(st.floats(-0.5, 2.5)))
    else:
        channel = FisherFParams(draw(st.floats(0.5, 10.0)), draw(st.floats(1.1, 20.0)),
                                10.0 ** draw(st.floats(-0.5, 2.5)))
    size = draw(st.integers(2, 60))
    s = draw(st.lists(st.floats(-11.69, 8.69), min_size=size, max_size=size))
    grid = sorted({0.5 * 10.0 ** x if x <= 0.0 else 1.0 - 0.5 * 10.0 ** -x for x in s})
    if len(grid) < 2:
        grid = [1e-12, 1.0 - 1e-9]
    return channel, draw(st.integers(1, 200)), grid


@settings(max_examples=5)
@given(case=_croc_cases())
def test_croc_curve_batched_property(case):
    # every threshold of the batch against scipy bisection, every P_md
    # against the channel average of scipy's noncentral chi-square CDF (its
    # survival function overflows at lam below about 2e-8 once the
    # noncentrality passes 500)
    channel, u, grid = case
    tol = 1e-9
    lams = detection._thresholds(u, np.array(grid))
    points = croc_curve(channel, u, grid, tol=tol)
    for pf, lam, point in zip(grid, lams, points):
        assert math.isclose(lam, _bisection_threshold(u, pf), rel_tol=1e-12), (u, pf)
        want = average_over_channel(
            lambda g, lam=lam: stats.ncx2.cdf(lam, 2 * u, 2.0 * np.asarray(g)), channel)
        assert abs(point.pmd - want.value) <= tol, (u, pf)


@pytest.mark.parametrize("channel", [KappaMuShadowedParams(1.7, 12, 3, 10.0),
                                     FisherFParams(2.0, 3.0, 10.0)])
def test_croc_curve_work_is_batched(channel, monkeypatch):
    # no scalar incomplete gamma, and as many kernel calls for 200 points as
    # for 4: one Poisson-term matrix and one tail matrix per Newton round
    calls = []

    def count(module, name):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, fn=fn: calls.append(name) or fn(*a))

    for name in ("reg_upper_gamma", "reg_lower_gamma"):
        count(detection, name)
        count(specfun, name)
    count(detection, "_tails")
    count(detection, "_poisson_terms")
    counts = []
    for n in (4, 200):
        calls.clear()
        croc_curve(channel, 2, np.geomspace(1e-3, 0.999, n))
        counts.append(sorted(calls))
    assert counts[0] == counts[1]
    assert set(counts[0]) == {"_tails", "_poisson_terms"}
    assert counts[0].count("_poisson_terms") == 1
    assert counts[0].count("_tails") <= THRESHOLD_EVALS_MAX
    # the detector side is kept: a curve on the other channel at the same
    # (u, grid, tol) builds only its pmf
    other = (FisherFParams(2.0, 3.0, 10.0) if isinstance(channel, KappaMuShadowedParams)
             else KappaMuShadowedParams(1.7, 12, 3, 10.0))
    calls.clear()
    croc_curve(other, 2, np.geomspace(1e-3, 0.999, 200))
    assert calls == []


CROC_CHANNELS = [KappaMuShadowedParams(2.0, 3, 2, 10.0), FisherFParams(2.0, 3.0, 10.0)]


def _croc_uncached(channel, u, grid, tol):
    """P_md of a CROC curve from the detector-side steps called directly."""
    lams = detection._thresholds(u, np.array(grid))
    n = detection._terms_needed(u, float(lams.max()) / 2.0, tol)
    pmds, _ = detection._pmd_from_pmf(detection._poisson_pmf(channel, n, 1.0),
                                      detection._gamma_matrix(u, lams / 2.0, n))
    return pmds.tolist()


@pytest.mark.parametrize("tol", [1e-8, 1e-12])
@pytest.mark.parametrize("channel", CROC_CHANNELS)
def test_croc_operator_cold_and_warm_agree_bitwise(channel, tol):
    grid = np.geomspace(1e-3, 0.999, 50)
    cold = croc_curve(channel, 2, grid, tol=tol)
    warm = croc_curve(channel, 2, grid, tol=tol)
    info = detection._croc_operator.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert cold == warm
    assert [pt.pmd for pt in cold] == _croc_uncached(channel, 2, grid, tol)


def test_croc_operator_keys_are_distinct():
    # each of tol, u and the grid changes the detector side, and no entry is
    # reused for another key: every warm curve equals its cold rebuild
    p = CROC_CHANNELS[0]
    grid = [1e-3, 0.1, 0.5]
    cases = [(2, grid, 1e-8), (2, grid, 1e-12), (3, grid, 1e-8), (2, grid[:2] + [0.6], 1e-8)]
    curves = [croc_curve(p, u, g, tol=t) for u, g, t in cases]
    info = detection._croc_operator.cache_info()
    assert (info.misses, info.hits, info.currsize) == (4, 0, 4)
    (n0, g0), (n1, _), (_, g2), (_, g3) = [
        detection._croc_operator(u, tuple(g), t) for u, g, t in cases]
    assert n1 > n0
    for other in (g2, g3):
        assert other.shape != g0.shape or not np.array_equal(other, g0)
    for (u, g, t), curve in zip(cases, curves):
        detection._croc_operator.cache_clear()
        assert croc_curve(p, u, g, tol=t) == curve


def test_croc_operator_list_and_array_share_an_entry():
    grid = [1e-3, 0.01, 0.1, 0.9]
    first = croc_curve(CROC_CHANNELS[0], 2, grid)
    second = croc_curve(CROC_CHANNELS[1], 2, np.array(grid))
    info = detection._croc_operator.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    assert [pt.pf for pt in first] == [pt.pf for pt in second] == grid


def test_croc_operator_is_read_only_and_bounded():
    _, gammas = detection._croc_operator(2, (0.1, 0.5), 1e-8)
    assert not gammas.flags.writeable
    with pytest.raises(ValueError):
        gammas[0, 0] = 0.0
    assert detection._croc_operator.cache_info().maxsize == 16
    for k in range(17):
        croc_curve(CROC_CHANNELS[0], 2, [0.01 + 0.01 * k])
    assert detection._croc_operator.cache_info().currsize == 16


def test_croc_operator_keeps_no_large_matrix():
    # a 2,000-point grid's matrix (2000 x 107 at u = 2, 1.7 MB) is past the
    # byte limit: it is built on every call and never kept, and the curve
    # still equals the uncached steps
    p = CROC_CHANNELS[0]
    grid = np.geomspace(1e-12, 0.999, 2000)
    first = croc_curve(p, 2, grid)
    second = croc_curve(p, 2, grid)
    info = detection._croc_operator.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 0, 0)
    assert first == second
    assert [pt.pmd for pt in first] == _croc_uncached(p, 2, grid, 1e-8)
    # a small key is still kept next to it
    croc_curve(p, 2, grid[::100])
    assert detection._croc_operator.cache_info().currsize == 1


def test_croc_operator_keeps_no_failure():
    # a key whose build raises raises again on the next call: nothing is kept
    p = CROC_CHANNELS[0]
    for _ in range(2):
        with pytest.raises(ConvergenceError):
            croc_curve(p, 6000, [1e-3, 0.5])
    assert detection._croc_operator.cache_info().currsize == 0


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-8])
def test_tol_outside_open_interval_raises(tol):
    # NaN used to stop the series after one term, with P_md 0.01596 for
    # 0.4379 here; the check comes before the cache is consulted
    with pytest.raises(DomainError):
        croc_curve(CROC_CHANNELS[0], 2, [1e-3, 0.1], tol=tol)
    assert detection._croc_operator.cache_info().misses == 0
    with pytest.raises(DomainError):
        avg_pd_f(CROC_CHANNELS[1], DetectorConfig(u=2, lam=9.0), tol=tol)
