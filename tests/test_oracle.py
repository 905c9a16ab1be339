"""Reference machinery: quadrature normalization, cutoff certification,
Monte Carlo reproducibility and error scaling, and oracle self-consistency."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, stats

import edsense
from edsense.channels import FisherFParams, KappaMuShadowedParams, f_cdf, kms_cdf
from edsense.detection import DetectorConfig, avg_auc_f, avg_pd_f, threshold_for_pf
from edsense.errors import ConvergenceError, DomainError
from edsense.oracle import (
    McResult,
    MonteCarloSpec,
    QuadratureSpec,
    auc_metric,
    channel_cutoff,
    channel_sampler,
    average_over_channel,
    detect_metric,
    mc_average,
    quad_average,
    rate_metric,
)

KMS = KappaMuShadowedParams(2.0, 3, 2, 8.0)
FISHER = FisherFParams(m=2.0, m_s=3.0, mean_snr=1.0)


def test_spec_validation():
    with pytest.raises(DomainError):
        QuadratureSpec(abs_tol=0.0)
    with pytest.raises(DomainError):
        MonteCarloSpec(seed=1, n_samples=100)
    with pytest.raises(DomainError):
        MonteCarloSpec(seed=-1)
    # a NaN abs_tol used to give QuadResult(0.0, 0.0) for any metric
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            QuadratureSpec(abs_tol=bad)
        with pytest.raises(DomainError):
            QuadratureSpec(rel_tol=bad)
        with pytest.raises(DomainError):
            channel_cutoff(FISHER, bad)
    # a float seed used to fail later, with a TypeError inside numpy
    for bad in (dict(seed=1.5), dict(seed=1, n_samples=1e5),
                dict(seed=1, n_streams=2.0), dict(seed="1")):
        with pytest.raises(DomainError, match="integer"):
            MonteCarloSpec(**bad)


def test_cutoff_certified_by_cdf_complement():
    for params, cdf in ((KMS, kms_cdf), (FISHER, f_cdf)):
        L = channel_cutoff(params, 1e-10)
        assert 1.0 - cdf(params, L) <= 1e-11


def test_quad_average_normalization():
    for params in (KMS, FISHER, FisherFParams(m=0.8, m_s=1.2, mean_snr=10.0)):
        res = average_over_channel(lambda g: 1.0, params)
        assert math.isclose(res.value, 1.0, abs_tol=2e-10)
        assert res.error <= 1e-10 + 1e-10 * abs(res.value)


@pytest.mark.parametrize("params", [
    KMS,
    KappaMuShadowedParams(0.0, 2, 2, 1.0),  # mu == m: one Gamma factor
    KappaMuShadowedParams(10.0, 6, 6, 1000.0),
    FISHER,
    FisherFParams(2.0, 0.125, 10.0),
    FisherFParams(0.5, 0.1, 1e6),
])
def test_cutoff_is_closed_form_and_counted_in_error(params):
    cdf = kms_cdf if isinstance(params, KappaMuShadowedParams) else f_cdf
    L = channel_cutoff(params, 1e-10)
    assert math.isfinite(L)
    assert 1.0 - cdf(params, L) <= 5e-12 + 1e-15
    res = average_over_channel(lambda g: 1.0, params)
    assert res.error >= 5e-12  # the dropped tail is part of the error
    assert abs(res.value - 1.0) <= res.error


def test_cutoff_beyond_the_float_range_raises():
    # the tail 5e-12 starts beyond omega gamma = 1e308, where scipy's
    # betaincinv returns its smallest normal float instead of the quantile
    with pytest.raises(ConvergenceError, match="finite cutoff"):
        channel_cutoff(FisherFParams(2.0, 0.01, 10.0), 1e-10)


@pytest.mark.parametrize("ms", [0.125, 0.3, 0.6])
def test_heavy_shadowing_reference_within_its_error(ms):
    # the searched cutoff stopped near omega L = 1e16 and dropped up to 1e-2
    # of the mass, while the error reported about 5e-12
    params = FisherFParams(2.0, ms, 10.0)
    cfg = DetectorConfig(u=2, lam=threshold_for_pf(2, 0.1))
    one = average_over_channel(lambda g: 1.0, params)
    assert abs(one.value - 1.0) <= one.error
    pd = average_over_channel(detect_metric(cfg.u, cfg.lam), params)
    closed, _ = avg_pd_f(params, cfg, tol=1e-12)
    assert abs(pd.value - closed) <= pd.error
    auc = average_over_channel(auc_metric(cfg.u), params)
    assert abs(auc.value - avg_auc_f(params, cfg)) <= auc.error


def test_reference_independent_of_closed_forms(monkeypatch):
    def stub(*args, **kwargs):
        raise AssertionError("the reference called a function it checks")

    names = ("reg_upper_gamma", "reg_lower_gamma", "reg_inc_beta", "_ln_inc_beta",
             "marcum_q", "kms_cdf", "f_cdf")
    for module in (edsense, edsense.specfun, edsense.channels, edsense.detection,
                   edsense.capacity, edsense.oracle, edsense.verify):
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, stub)
    for params in (KMS, FISHER):
        res = average_over_channel(auc_metric(2), params)
        assert 0.5 <= res.value <= 1.0


def test_quad_average_recovers_mgf():
    from edsense.channels import kms_mgf, kms_pdf
    res = quad_average(lambda g: math.exp(-1.0 * g), lambda g: kms_pdf(KMS, g),
                       QuadratureSpec(), params=KMS)
    assert math.isclose(res.value, kms_mgf(KMS, -1.0), abs_tol=1e-9)


def test_quad_average_needs_limit_information():
    with pytest.raises(DomainError):
        quad_average(lambda g: 1.0, lambda g: math.exp(-g), QuadratureSpec())


def test_mc_average_constant_metric():
    res = mc_average(lambda g: np.full_like(g, 3.5), channel_sampler(KMS),
                     MonteCarloSpec(seed=5, n_samples=10**4))
    assert res == McResult(3.5, 0.0)


def test_mc_average_reproducibility():
    spec = MonteCarloSpec(seed=123, n_samples=10**5, n_streams=4)
    metric = rate_metric(1.0)
    a = mc_average(metric, channel_sampler(KMS), spec)
    b = mc_average(metric, channel_sampler(KMS), spec)
    assert a == b  # bit-identical
    c = mc_average(metric, channel_sampler(KMS),
                   MonteCarloSpec(seed=123, n_samples=10**5, n_streams=2))
    assert a != c  # stream layout is part of the reproducibility contract


def test_mc_mean_matches_channel_mean():
    res = mc_average(lambda g: g, channel_sampler(KMS),
                     MonteCarloSpec(seed=9, n_samples=10**6))
    assert abs(res.mean - 8.0) <= 4.0 * res.std_error


def test_mc_standard_error_scaling():
    metric = rate_metric(1.0)
    small = mc_average(metric, channel_sampler(KMS), MonteCarloSpec(seed=77, n_samples=10**5))
    large = mc_average(metric, channel_sampler(KMS), MonteCarloSpec(seed=78, n_samples=2 * 10**5))
    ratio = large.std_error / small.std_error
    assert abs(ratio - 1.0 / math.sqrt(2.0)) < 0.1 / math.sqrt(2.0)


def test_oracle_self_consistency_detection_cell():
    # quadrature and Monte Carlo must agree with each other on the raw metric
    metric_vec = detect_metric(2, 4.0)
    quad = average_over_channel(lambda g: float(metric_vec(np.array([g]))[0]), FISHER)
    mc = mc_average(metric_vec, channel_sampler(FISHER),
                    MonteCarloSpec(seed=2718, n_samples=10**6))
    # reference quadrature value for this cell: 0.650807023237729
    assert math.isclose(quad.value, 0.650807023237729, abs_tol=1e-9)
    assert abs(quad.value - mc.mean) <= 4.0 * mc.std_error


# mc_average as computed with the metric applied to all of a stream's draws
# at once: (channel, metric, n_streams, mean, std_error), 200,003 draws at
# seed 2024, so one stream spans several blocks and a partial one, and each
# of four streams is shorter than one block.
_MC_FROZEN = [
    ("kms", "detect", 1, "0x1.add979cebf63cp-1", "0x1.b7de36a6c864ep-12"),
    ("kms", "detect", 4, "0x1.ae2d293f7a4fap-1", "0x1.b6493990528b7p-12"),
    ("kms", "auc", 1, "0x1.dfcc45c57cc9bp-1", "0x1.73b32f029416bp-13"),
    ("kms", "auc", 4, "0x1.dff2244554079p-1", "0x1.7209ea75b9329p-13"),
    ("kms", "rate", 1, "0x1.38cc877f86dbcp-3", "0x1.c1032b4e2ee8cp-13"),
    ("kms", "rate", 4, "0x1.3811a4785b570p-3", "0x1.bef734b84f14cp-13"),
    ("fisher", "detect", 1, "0x1.4da5335f0eb4ap-2", "0x1.d55ba2179f2cfp-12"),
    ("fisher", "detect", 4, "0x1.4ca2101fa5085p-2", "0x1.d452440ef6acap-12"),
    ("fisher", "auc", 1, "0x1.5b05ac919bce4p-1", "0x1.16c9b25284a2ep-12"),
    ("fisher", "auc", 4, "0x1.5aba4316221c9p-1", "0x1.15f8b739744a9p-12"),
    ("fisher", "rate", 1, "0x1.08b54305491c2p-1", "0x1.e7fa7a7d7d1a6p-12"),
    ("fisher", "rate", 4, "0x1.09144d36f9531p-1", "0x1.e65dd254893d1p-12"),
]


@pytest.mark.parametrize("channel,metric,n_streams,mean,std_error", _MC_FROZEN)
def test_mc_average_bit_identical_to_whole_array_form(channel, metric, n_streams,
                                                       mean, std_error):
    params = {"kms": KMS, "fisher": FISHER}[channel]
    vec = {"detect": detect_metric(2, 7.78), "auc": auc_metric(2),
           "rate": rate_metric(1.0)}[metric]
    res = mc_average(vec, channel_sampler(params),
                     MonteCarloSpec(seed=2024, n_samples=200_003, n_streams=n_streams))
    assert (res.mean.hex(), res.std_error.hex()) == (mean, std_error)


def test_mc_average_memory_is_one_array_plus_one_block():
    # 10^6 draws are 8 MB; applied to all of them at once, scipy's noncentral
    # chi-square held about 72 MB of temporaries
    metric = detect_metric(2, 7.78)
    metric(np.ones(8))  # scipy's import and first-call set-up are not counted
    for params in (KMS, FISHER):
        tracemalloc.start()
        try:
            mc_average(metric, channel_sampler(params),
                       MonteCarloSpec(seed=31, n_samples=10**6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20, (params, peak)


def test_detect_metric_tiny_threshold_at_large_noncentrality():
    # scipy's ncx2.sf overflows for lam <= 2e-8 once nc reaches about 400
    lam = 2e-9
    res = average_over_channel(detect_metric(1, lam), FisherFParams(1, 2, 1))
    pf = math.exp(-lam / 2.0)  # Q(1, lam/2)
    assert pf - 1e-10 <= res.value <= 1.0


def test_detect_metric_far_above_threshold():
    # P[X <= lam] <= 2^-u e^(lam/2 - nc/4) < 2^-54 once nc > 2 lam + 152, so
    # P_d is 1.0 there; scipy returns nan from nc of about 1e19 on
    u, lam = 2, 7.78
    g = np.array([0.0, 0.5, 5.0, 83.0, 83.78, 83.79, 1e3, 5e18, 1e20, 1e300])
    got = detect_metric(u, lam)(g)
    near = 2.0 * g <= 2.0 * lam + 152.0
    assert near.sum() == 5
    assert np.array_equal(got[near], stats.ncx2.sf(lam, 2 * u, 2.0 * g[near]))
    assert np.all(got[~near] == 1.0)
    assert float(detect_metric(u, lam)(1e20)) == 1.0
    # Fisher draws at m_s = 0.3 reach SNRs near 1e20
    params = FisherFParams(2, 0.3, 10.0)
    mc = mc_average(detect_metric(u, lam), channel_sampler(params), MonteCarloSpec(seed=1))
    assert math.isfinite(mc.mean) and math.isfinite(mc.std_error)
    closed, _ = avg_pd_f(params, DetectorConfig(u=u, lam=lam))
    assert abs(mc.mean - closed) <= 4.0 * mc.std_error


@pytest.mark.parametrize("u", [1, 2, 4, 10, 50])
def test_detect_metric_bit_identical_to_stats(u):
    # detect_metric calls the Boost kernel behind stats.ncx2.sf directly; if a
    # scipy release moves that private name, this fails instead of the
    # reference changing without notice
    rng = np.random.default_rng(u)
    for lam in (0.0, 1e-9, 0.5, 7.78, 60.0, 1e4):
        cut = 2.0 * lam + 152.0
        edges = np.array([0.0, 1e-323, np.nextafter(cut, 0.0), cut,
                          np.nextafter(cut, np.inf), np.inf, -np.inf, np.nan])
        nc = np.concatenate([edges, rng.gamma(2.0, (lam + 2.0 * u) / 2.0, 2000)])
        assert np.array_equal(2.0 * (nc / 2.0), nc, equal_nan=True)  # gamma = nc / 2 is exact
        near = ~((nc > cut) & (nc < np.inf))
        want = np.ones_like(nc)
        with np.errstate(invalid="ignore"):
            want[near] = stats.ncx2.sf(lam, 2 * u, nc[near])
        # the 0-d call is the one the quadrature makes
        for got in (detect_metric(u, lam)(nc / 2.0),
                    np.array([detect_metric(u, lam)(x) for x in nc / 2.0])):
            nan = np.isnan(want)
            assert np.array_equal(np.isnan(got), nan), (u, lam)
            assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64)), (u, lam)
        assert np.ndim(detect_metric(u, lam)(np.asarray(1.5))) == 0


@pytest.mark.parametrize("build", [
    lambda: detect_metric(2, math.nan),
    lambda: detect_metric(2, -1.0),
    lambda: detect_metric(2, math.inf),
    lambda: detect_metric(0, 7.78),
    lambda: auc_metric(0),
    lambda: auc_metric(-1),
    lambda: auc_metric(1.5),
    lambda: rate_metric(-1.0),
    lambda: rate_metric(math.nan),
], ids=["detect-lam-nan", "detect-lam-negative", "detect-lam-inf", "detect-u-0",
        "auc-u-0", "auc-u-negative", "auc-u-fraction", "rate-a-negative", "rate-a-nan"])
def test_metric_builders_reject_bad_arguments(build):
    # each used to return 1.0, 0.0, nan or 1 + gamma at every gamma, or to
    # raise IndexError, ValueError or TypeError
    with pytest.raises(DomainError):
        build()


def _auc_double_sum(u, g):
    """The ROC area's double sum term by term, with float factorials (which
    overflow from i = 171 on)."""
    total = 0.0
    for ell in range(u):
        for i in range(ell + 1):
            total += (math.comb(ell + u - 1, ell - i) * 0.5 ** (ell + i + u)
                      / math.factorial(i)) * g ** i * math.exp(-g / 2.0)
    return 1.0 - total


@pytest.mark.parametrize("u", [1, 2, 5, 30, 150])
def test_auc_metric_matches_double_sum(u):
    gammas = [0.0, 1e-3, 0.3, 5.0, 40.0, 100.0]
    got = auc_metric(u)(np.array(gammas))
    for g, a in zip(gammas, got):
        assert math.isclose(a, _auc_double_sum(u, g), rel_tol=1e-13), g


@pytest.mark.parametrize("u,gamma", [(172, 5.0), (172, 200.0), (600, 40.0)])
def test_auc_metric_large_u(u, gamma):
    # P[T1 > T0] with T0 ~ chi2(2u) and T1 ~ ncx2(2u, 2 gamma), within 40
    # standard deviations of T0's mean
    sd = math.sqrt(4.0 * u)
    want, _ = integrate.quad(
        lambda x: stats.ncx2.sf(x, 2 * u, 2.0 * gamma) * stats.chi2.pdf(x, 2 * u),
        max(0.0, 2 * u - 40.0 * sd), 2 * u + 40.0 * sd, points=[2 * u],
        epsabs=1e-14, epsrel=1e-13, limit=400)
    assert math.isclose(float(auc_metric(u)(gamma)), want, abs_tol=1e-12)
    assert float(auc_metric(u)(0.0)) == pytest.approx(0.5, abs=1e-13)
