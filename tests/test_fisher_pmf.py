"""Fisher-Snedecor detection through the mixed-Poisson pmf: the pmf itself
against the Tricomi-U coefficient it replaced (also where the trapezoid
settles past its first level block), its level budget and peak search,
fixed cells in the heavy-shadowing and high-SNR regions, a property test
against the scipy-only oracle, and a guard that no per-term quadrature
comes back.

The oracle averages scipy's noncentral chi-square survival function over
the F density by QUADPACK; it shares no code with the series.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    (4.7, 30.0, -20.0, 30),  # settles at level 4
    (4.7, 1.1, -20.0, 2),  # settles at level 5
])
def test_pmf_that_settles_past_the_first_block(m, ms, snr_db, n, monkeypatch):
    p = _fisher(m, ms, snr_db)
    pmf = detection._poisson_pmf(p, n, 1.0)
    for k in range(n):
        want = _tricomi_pmf(m, ms, p.omega, k)
        assert math.isclose(pmf[k], want, rel_tol=1e-11), (k, pmf[k], want)
    # it needs the deeper blocks: with levels 0..3 alone it does not settle
    monkeypatch.setattr(detection, "_TRAP_LEVEL_BLOCKS",
                        tuple(b for b in detection._TRAP_LEVEL_BLOCKS if max(b) <= 3))
    with pytest.raises(ConvergenceError, match="did not settle"):
        detection._poisson_pmf(p, n, 1.0)


def test_pmf_unreachable_tol_raises():
    # two levels of 30 rows never agree to 1e-20: the level budget ends it
    p = _fisher(4.7, 30.0, -20.0)
    with pytest.raises(ConvergenceError, match="did not settle"):
        detection._fisher_pmf(p.m, p.m_s, p.omega, 30, 1e-20)


@pytest.mark.parametrize("m,ms,snr_db,n,scale", [
    (2.5, 10.0, 5.2, 30, 1.0),
    (1.0, 3.0, -5.1, 30, 1.0),
    (1.121, 3.073, 17.0, 2, 0.5),
])
def test_fisher_peak_stops_when_newton_converges(m, ms, snr_db, n, scale, monkeypatch):
    # on each of these cells one converged Newton step lands on the
    # bracket's end; bisecting the bracket shut from there took 31-34
    # log-weight evaluations
    calls = []
    weight = detection._fisher_log_weight
    monkeypatch.setattr(detection, "_fisher_log_weight",
                        lambda *a: calls.append(a) or weight(*a))
    ln_w = math.log(_fisher(m, ms, snr_db).omega / scale)
    for row in (0, n - 1):
        calls.clear()
        peak = detection._fisher_peak(row, m, ms, ln_w)
        assert len(calls) <= 8, (row, len(calls))
        _, slope, curve = weight(peak, row, m, ms, ln_w)
        assert abs(slope / curve) <= 1e-9


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
        for name in ("ln_tricomi_u", "adaptive_gk"):
            if hasattr(module, name):
                count(module, name)
    specfun.tricomi_u(1.5, 2.0, 1.0)
    assert calls == ["ln_tricomi_u", "adaptive_gk"]  # the counters see calls

    calls.clear()
    p = _fisher(2.0, 1.5, 20.0)
    croc_curve(p, 4, [1e-4, 0.01, 0.5, 0.9])
    avg_pd_f(p, DetectorConfig(u=4, lam=threshold_for_pf(4, 1e-3)))
    avg_auc_f(p, DetectorConfig(u=4, lam=0.0))
    assert calls == []
