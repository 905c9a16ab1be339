"""Three-way verification records: pass behavior, perturbation detection,
and dispatch validation."""

import math

import pytest

from edsense.capacity import DelayQoS
from edsense.channels import FisherFParams, KappaMuShadowedParams
from edsense.detection import DetectorConfig, threshold_for_pf
from edsense.errors import DomainError
from edsense.oracle import MonteCarloSpec
from edsense.verify import METRIC_NAMES, verify_closed_form

MC = MonteCarloSpec(seed=31415, n_samples=10**5)
DET = DetectorConfig(u=2, lam=threshold_for_pf(2, 0.1))
QOS = DelayQoS(1.0)


def test_all_metrics_pass_on_a_healthy_cell():
    kms = KappaMuShadowedParams(2.0, 3, 2, 10.0)
    fisher = FisherFParams(m=2.0, m_s=3.0, mean_snr=1.0)
    for name in METRIC_NAMES:
        channel = kms if name.endswith("kms") else fisher
        record = verify_closed_form(name, channel, detector=DET, qos=QOS, mc_spec=MC)
        assert record.quad_pass, record.line()
        assert record.mc_pass, record.line()
        assert record.passed
        assert "PASS" in record.line()


def test_zero_threshold_every_route_reports_one():
    # lam = 0 forces certain detection; closed form, quadrature, and Monte
    # Carlo must all sit at 1 and agree
    cfg = DetectorConfig(u=2, lam=0.0)
    kms = KappaMuShadowedParams(2.0, 3, 2, 10.0)
    rec = verify_closed_form("avg_pd_kms", kms, detector=cfg, mc_spec=MC)
    assert rec.passed and rec.closed_form == 1.0
    assert abs(rec.quad_value - 1.0) < 1e-9 and rec.mc_mean == 1.0
    fisher = FisherFParams(m=2.0, m_s=10.0, mean_snr=1.0)
    rec = verify_closed_form("avg_pd_f", fisher, detector=cfg, mc_spec=MC)
    assert rec.passed


def test_kappa_zero_cell_passes_through_analytic_branch():
    channel = KappaMuShadowedParams(0.0, 2, 2, 2.0)
    record = verify_closed_form("avg_pd_kms", channel, detector=DET, mc_spec=MC)
    assert record.passed


def test_perturbed_constant_is_caught():
    channel = KappaMuShadowedParams(2.0, 3, 2, 10.0)
    record = verify_closed_form("avg_pd_kms", channel, detector=DET, mc_spec=MC,
                                perturb=1e-3)
    assert not record.quad_pass
    assert not record.passed
    assert "FAIL" in record.line()


def test_non_finite_perturb_is_refused():
    channel = KappaMuShadowedParams(2.0, 3, 2, 10.0)
    with pytest.raises(DomainError, match="perturb must be finite"):
        verify_closed_form("avg_pd_kms", channel, detector=DET, mc_spec=MC,
                           perturb=math.nan)


def test_dispatch_validation():
    kms = KappaMuShadowedParams(2.0, 3, 2, 10.0)
    fisher = FisherFParams(m=2.0, m_s=3.0, mean_snr=1.0)
    with pytest.raises(DomainError):
        verify_closed_form("nonsense", kms, detector=DET)
    with pytest.raises(DomainError):
        verify_closed_form("avg_pd_kms", fisher, detector=DET)
    with pytest.raises(DomainError):
        verify_closed_form("avg_pd_kms", kms)  # missing detector
    with pytest.raises(DomainError):
        verify_closed_form("eff_rate_f", fisher)  # missing qos
