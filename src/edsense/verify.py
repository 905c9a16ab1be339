"""Three-way checks of each closed-form metric against its quadrature and
Monte Carlo references.

Every record compares on a common scale: detection and AUC metrics compare
the probability itself; the effective-rate metrics compare the rate moment
E[(1 + gamma)^-A], which is where the stated tolerance applies (the rate is
a monotone transform of it).  Both references average the instantaneous
metric built by ``oracle``, so no reference path calls ``detection`` or
``capacity``; only the closed form under test does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import capacity, detection, oracle
from .capacity import DelayQoS
from .channels import FisherFParams, KappaMuShadowedParams
from .detection import DetectorConfig
from .errors import DomainError
from .oracle import MonteCarloSpec

__all__ = ["VerificationRecord", "verify_closed_form", "METRIC_NAMES"]

METRIC_NAMES = (
    "avg_pd_kms",
    "avg_pd_f",
    "avg_auc_kms",
    "avg_auc_f",
    "eff_rate_kms",
    "eff_rate_f",
)


def _channel_label(channel) -> str:
    if isinstance(channel, KappaMuShadowedParams):
        return (f"kms kappa={channel.kappa:g} mu={channel.mu} m={channel.m} "
                f"snr={channel.mean_snr:g}")
    return f"fisher m={channel.m:g} ms={channel.m_s:g} snr={channel.mean_snr:g}"


@dataclass(frozen=True)
class VerificationRecord:
    metric: str
    label: str
    closed_form: float
    quad_value: float
    quad_error: float
    mc_mean: float
    mc_std_error: float
    quad_tol: float
    mc_sigma: float
    quad_pass: bool
    mc_pass: bool

    @property
    def passed(self) -> bool:
        return self.quad_pass and self.mc_pass

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status}  {self.metric:<12s} {self.label:<42s} "
                f"closed={self.closed_form:.9e} "
                f"quad={self.quad_value:.9e}+-{self.quad_error:.1e} "
                f"mc={self.mc_mean:.9e}+-{self.mc_std_error:.1e}")


# Absolute tolerance of the quadrature comparison, and the width of the
# Monte Carlo window in standard errors; both are recorded in every record.
_QUAD_TOL = 1e-7
_MC_SIGMA = 4.0


def _closed_form(name, channel, detector, qos, series_tol) -> tuple[float, float]:
    """The closed form under test, looked up by name when called, and the
    certified truncation error it carries (only ``avg_pd_f`` reports one)."""
    if name == "avg_pd_f":
        value, report = detection.avg_pd_f(channel, detector, tol=series_tol)
        return value, report.error_bound
    if name.startswith("eff_rate"):
        return getattr(capacity, name.replace("eff_rate", "rate_moment"))(channel, qos), 0.0
    return getattr(detection, name)(channel, detector), 0.0


def verify_closed_form(name: str,
                       channel: KappaMuShadowedParams | FisherFParams,
                       detector: DetectorConfig | None = None,
                       qos: DelayQoS | None = None,
                       mc_spec: MonteCarloSpec = MonteCarloSpec(seed=0),
                       series_tol: float = 1e-8,
                       perturb: float = 0.0) -> VerificationRecord:
    """Evaluate one closed form and both references; flag the comparison.

    Quadrature over the channel density and Monte Carlo over its sampler
    average the same instantaneous metric from ``oracle``.  The quadrature
    tolerance (1e-7, plus ``series_tol`` for ``avg_pd_f``) and the Monte
    Carlo window (4 standard errors, plus the series' certified truncation
    error) are fixed and recorded.  ``perturb`` multiplies the closed-form
    value by (1 + perturb) before comparison; the CLI exposes it so the
    verification machinery itself can be shown to catch a wrong constant; a
    non-finite ``perturb`` raises DomainError.
    """
    if not math.isfinite(perturb):
        raise DomainError(f"perturb must be finite, got {perturb}")
    if name not in METRIC_NAMES:
        raise DomainError(f"unknown metric {name!r}; choose from {METRIC_NAMES}")
    kind = KappaMuShadowedParams if name.endswith("kms") else FisherFParams
    if not isinstance(channel, kind):
        raise DomainError(f"{name} requires {kind.__name__}")
    if name.startswith("eff_rate"):
        if qos is None:
            raise DomainError(f"{name} needs a DelayQoS")
        metric_vec = oracle.rate_metric(qos.a_exponent)
        label = f"{_channel_label(channel)} A={qos.a_exponent:g}"
    elif detector is None:
        raise DomainError(f"{name} needs a DetectorConfig")
    elif name.startswith("avg_pd"):
        metric_vec = oracle.detect_metric(detector.u, detector.lam)
        label = f"{_channel_label(channel)} u={detector.u} lam={detector.lam:.6g}"
    else:
        metric_vec = oracle.auc_metric(detector.u)
        label = f"{_channel_label(channel)} u={detector.u}"

    closed, truncation = _closed_form(name, channel, detector, qos, series_tol)
    closed *= 1.0 + perturb
    tol = _QUAD_TOL + (series_tol if name == "avg_pd_f" else 0.0)
    quad = oracle.average_over_channel(lambda g: float(metric_vec(g)), channel)
    mc = oracle.mc_average(metric_vec, oracle.channel_sampler(channel), mc_spec)
    quad_pass = abs(closed - quad.value) <= tol + quad.error
    mc_window = _MC_SIGMA * max(mc.std_error, 1e-12) + truncation
    mc_pass = abs(closed - mc.mean) <= mc_window
    return VerificationRecord(
        metric=name, label=label, closed_form=closed,
        quad_value=quad.value, quad_error=quad.error,
        mc_mean=mc.mean, mc_std_error=mc.std_error,
        quad_tol=tol, mc_sigma=_MC_SIGMA,
        quad_pass=quad_pass, mc_pass=mc_pass)
