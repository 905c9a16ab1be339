"""Fisher-Snedecor detection through the mixed-Poisson pmf: the pmf itself
against the Tricomi-U coefficient it replaced (also where the trapezoid
settles past its first level block), its level budget, the certificate of
its closed-form range and step, frozen mpmath values at large m_s, fixed
cells in the heavy-shadowing and high-SNR regions, a property test against
the scipy-only oracle, and a guard that no per-term quadrature comes back.

The oracle averages scipy's noncentral chi-square survival function over
the F density by QUADPACK; it shares no code with the series.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from edsense import _quad, detection, specfun
from edsense.channels import FisherFParams
from edsense.detection import (
    DetectorConfig,
    avg_auc_f,
    avg_pd_f,
    croc_curve,
    threshold_for_pf,
)
from edsense.errors import ConvergenceError
from edsense.oracle import auc_metric, average_over_channel, detect_metric
from edsense.specfun import ln_beta, ln_tricomi_u


def _fisher(m, ms, snr_db):
    return FisherFParams(m=m, m_s=ms, mean_snr=10.0 ** (snr_db / 10.0))


def _tricomi_pmf(m, ms, omega, k):
    """pi_k = Gamma(k+m) / (k! omega^k B(m, m_s)) U(k+m; k-m_s+1; 1/omega)."""
    return math.exp(math.lgamma(k + m) - k * math.log(omega)
                    - math.lgamma(k + 1.0) - ln_beta(m, ms)
                    + ln_tricomi_u(k + m, k - ms + 1.0, 1.0 / omega))


PMF_KS = list(range(12)) + [20, 37, 64, 100, 150, 200, 280, 350, 399]


@pytest.mark.parametrize("scale", [1.0, 0.5])
@pytest.mark.parametrize("snr_db", [-10.0, 0.0, 10.0, 20.0, 30.0, 40.0])
@pytest.mark.parametrize("ms", [1.1, 30.0])
@pytest.mark.parametrize("m", [0.5, 4.7])
def test_pmf_matches_tricomi_coefficient(m, ms, snr_db, scale):
    p = _fisher(m, ms, snr_db)
    pmf = detection._poisson_pmf(p, 400, scale)
    for k in PMF_KS:
        want = _tricomi_pmf(m, ms, p.omega / scale, k)
        assert math.isclose(pmf[k], want, rel_tol=1e-11), (k, pmf[k], want)


@pytest.mark.parametrize("m,ms,snr_db,n", [
    (0.5, 0.3, -20.0, 30),  # settles at level 4
    (0.5, 0.3, 20.0, 2),  # settles at level 4
])
def test_pmf_that_settles_past_the_first_block(m, ms, snr_db, n, monkeypatch):
    p = _fisher(m, ms, snr_db)
    pmf = detection._poisson_pmf(p, n, 1.0)
    for k in range(n):
        want = _tricomi_pmf(m, ms, p.omega, k)
        assert math.isclose(pmf[k], want, rel_tol=1e-11), (k, pmf[k], want)
    # it needs the deeper blocks: with levels 0..3 alone it does not settle
    monkeypatch.setattr(detection, "_TRAP_MAX_LEVEL", 3)
    with pytest.raises(ConvergenceError, match="did not settle"):
        detection._poisson_pmf(p, n, 1.0)


def test_pmf_unreachable_tol_raises():
    # two levels of 30 rows never agree to 1e-20: the level budget ends it
    p = _fisher(4.7, 30.0, -20.0)
    with pytest.raises(ConvergenceError, match="did not settle"):
        detection._fisher_pmf(p.m, p.m_s, p.omega, 30, 1e-20)


def _log_weights(sigma, k, m, ms, ln_w):
    """(g, g', g'') of row k's log-integrand ms sigma - e^sigma + m ln p +
    k ln(1-p), p = w e^sigma / (1 + w e^sigma), from its definition."""
    t = sigma + ln_w
    p = special.expit(t)
    v = np.exp(sigma)
    g = ms * sigma - v - m * np.logaddexp(0.0, -t) - k * np.logaddexp(0.0, t)
    return g, ms + m - v - (m + k) * p, -v - (m + k) * p * (1.0 - p)


@pytest.mark.parametrize("ms", [0.3, 1.1, 30.0, 1e3])
@pytest.mark.parametrize("m", [0.5, 4.7, 100.0])
def test_fisher_range_certifies_every_row(m, ms):
    # every row's peak, by bisection on its slope over a bracket far wider
    # than the range; the range must hold every row down to 45 below its
    # peak at both ends, and c bound every row's -g'' there, so that the
    # step is at most twice every row's width at its peak
    c = m + ms
    for snr_db in range(-40, 41, 10):
        w = _fisher(m, ms, snr_db).omega
        for n in (1, 4, 30, 400):
            lo, hi, h = detection._fisher_range(m, ms, w, n)
            k = np.arange(n, dtype=float)
            left, right = np.full(n, -800.0), np.full(n, 50.0)
            for _ in range(80):
                mid = 0.5 * (left + right)
                rising = _log_weights(mid, k, m, ms, math.log(w))[1] > 0.0
                left, right = np.where(rising, mid, left), np.where(rising, right, mid)
            peak, _, curve = _log_weights(left, k, m, ms, math.log(w))
            for edge in (lo, hi):
                g = _log_weights(edge + math.log(ms), k, m, ms, math.log(w))[0]
                assert (g <= peak - detection._TRAP_DROP).all(), (snr_db, n, edge)
            assert (-curve <= c * (1.0 + 1e-12)).all(), (snr_db, n)
            assert (h * np.sqrt(-curve) <= 2.0).all(), (snr_db, n)


# pi_0..pi_3 at FisherFParams(2, m_s, 10) and scale 0.5, from mpmath 1.3.0 at
# mp.dps = 40 by quadrature of the defining integral in sigma = ln m_s +
# x / sqrt(m_s), split at x = 0, +-3, +-8, +-20, +-60.  Here m_s sigma -
# e^sigma and ln Gamma(m_s) are each of order m_s ln m_s, so the pmf must
# not be left to their difference.
@pytest.mark.parametrize("ms,want", [
    (1e3, (0.081640976804082105, 0.11659191350179613, 0.12488933881292439,
           0.11892282137532529)),
    (1e4, (0.081633485986281431, 0.11661545801783391, 0.12494207395115249,
           0.11899050877898248)),
    (1e5, (0.081632736359238067, 0.11661781400779799, 0.12494735187364831,
           0.11899728369461488)),
    (1e6, (0.081632661391080922, 0.11661804962219852, 0.12494787971003432,
           0.11899796124799451)),
])
def test_pmf_at_large_ms_against_mpmath(ms, want):
    try:
        pmf = detection._poisson_pmf(FisherFParams(2.0, ms, 10.0), 4, 0.5)
    except ConvergenceError:
        return
    for got, ref in zip(pmf, want):
        assert math.isclose(got, ref, rel_tol=1e-12), (got, ref)


def _pd_reference(p, u, lam):
    return average_over_channel(detect_metric(u, lam), p).value


@pytest.mark.parametrize("m,ms,snr_db,u,pf", [
    # heavy shadowing
    (2.0, 1.2, 0.0, 2, 0.1),
    (4.0, 1.2, 10.0, 5, 1e-3),
    (1.0, 1.5, 20.0, 2, 0.01),
    # high SNR
    (2.0, 3.0, 40.0, 2, 0.1),
    (6.0, 10.0, 30.0, 10, 1e-4),
    (0.7, 1.5, 40.0, 1, 0.5),
])
def test_fixed_cells_against_oracle(m, ms, snr_db, u, pf):
    p = _fisher(m, ms, snr_db)
    lam = threshold_for_pf(u, pf)
    want = _pd_reference(p, u, lam)
    got, report = avg_pd_f(p, DetectorConfig(u=u, lam=lam), tol=1e-11)
    assert report.error_bound <= 1e-11
    assert abs(got - want) <= 1e-9
    (point,) = croc_curve(p, u, [pf], tol=1e-11)
    assert abs(point.pmd - (1.0 - want)) <= 1e-9


@pytest.mark.parametrize("m,ms,snr_db,u", [
    (2.0, 1.2, 10.0, 2),
    (1.5, 1.5, 40.0, 4),
])
def test_fixed_auc_cells_against_oracle(m, ms, snr_db, u):
    p = _fisher(m, ms, snr_db)
    want = average_over_channel(auc_metric(u), p).value
    assert abs(avg_auc_f(p, DetectorConfig(u=u, lam=0.0)) - want) <= 1e-9


@st.composite
def _channels(draw):
    return _fisher(draw(st.floats(0.5, 20.0)), draw(st.floats(0.1, 20.0)),
                   draw(st.floats(-30.0, 60.0)))


@settings(max_examples=15)
@given(p=_channels(), u=st.integers(1, 20),
       log_pf=st.floats(-4.0, math.log10(0.9)))
def test_fisher_detection_property(p, u, log_pf):
    pf = 10.0 ** log_pf
    lam = threshold_for_pf(u, pf)
    want = _pd_reference(p, u, lam)
    got, _ = avg_pd_f(p, DetectorConfig(u=u, lam=lam), tol=1e-11)
    assert abs(got - want) <= 1e-9
    (point,) = croc_curve(p, u, [pf], tol=1e-11)
    assert abs(point.pmd - (1.0 - want)) <= 1e-9
    auc = avg_auc_f(p, DetectorConfig(u=u, lam=0.0))
    assert abs(auc - average_over_channel(auc_metric(u), p).value) <= 1e-9


def test_fisher_detection_makes_no_quadrature_calls(monkeypatch):
    calls = []

    def count(module, name):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, fn=fn, **kw: calls.append(name) or fn(*a, **kw))

    for module in (specfun, _quad, detection):
        for name in ("ln_tricomi_u", "tanhsinh_01"):
            if hasattr(module, name):
                count(module, name)
    specfun.tricomi_u(1.5, 2.0, 1.0)
    assert calls == ["ln_tricomi_u", "tanhsinh_01"]  # the counters see calls

    calls.clear()
    p = _fisher(2.0, 1.5, 20.0)
    croc_curve(p, 4, [1e-4, 0.01, 0.5, 0.9])
    avg_pd_f(p, DetectorConfig(u=4, lam=threshold_for_pf(4, 1e-3)))
    avg_auc_f(p, DetectorConfig(u=4, lam=0.0))
    assert calls == []
