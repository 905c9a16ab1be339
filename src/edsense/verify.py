"""Three-way checks of each closed-form metric against its quadrature and
Monte Carlo references.

Every record compares on a common scale: detection and AUC metrics compare
the probability itself; the effective-rate metrics compare the rate moment
E[(1 + gamma)^-A], which is where the stated tolerance applies (the rate is
a monotone transform of it).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import capacity, detection, oracle
from .capacity import DelayQoS
from .channels import FisherFParams, KappaMuShadowedParams
from .detection import DetectorConfig
from .errors import DomainError
from .oracle import MonteCarloSpec, QuadratureSpec

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


def verify_closed_form(name: str,
                       channel: KappaMuShadowedParams | FisherFParams,
                       detector: DetectorConfig | None = None,
                       qos: DelayQoS | None = None,
                       quad_spec: QuadratureSpec = QuadratureSpec(),
                       mc_spec: MonteCarloSpec = MonteCarloSpec(seed=0),
                       quad_tol: float = 1e-7,
                       mc_sigma: float = 4.0,
                       series_tol: float = 1e-8,
                       perturb: float = 0.0) -> VerificationRecord:
    """Evaluate one closed form and both references; flag the comparison.

    ``perturb`` multiplies the closed-form value by (1 + perturb) before
    comparison; the CLI exposes it so the verification machinery itself can
    be shown to catch a wrong constant.
    """
    if name not in METRIC_NAMES:
        raise DomainError(f"unknown metric {name!r}; choose from {METRIC_NAMES}")
    is_kms = name.endswith("kms")
    if is_kms and not isinstance(channel, KappaMuShadowedParams):
        raise DomainError(f"{name} requires kappa-mu shadowed parameters")
    if not is_kms and not isinstance(channel, FisherFParams):
        raise DomainError(f"{name} requires Fisher-Snedecor parameters")

    tol = quad_tol
    truncation = 0.0  # certified truncation error carried by the closed form
    if name.startswith("avg_pd"):
        if detector is None:
            raise DomainError(f"{name} needs a DetectorConfig")
        if name == "avg_pd_kms":
            closed = detection.avg_pd_kms(channel, detector)
        else:
            closed, report = detection.avg_pd_f(channel, detector, tol=series_tol)
            truncation = report.error_bound
            tol = quad_tol + series_tol
        metric_vec = oracle.detect_metric(detector.u, detector.lam)
        metric_scalar = lambda g: float(metric_vec(g))
        label = f"{_channel_label(channel)} u={detector.u} lam={detector.lam:.6g}"
    elif name.startswith("avg_auc"):
        if detector is None:
            raise DomainError(f"{name} needs a DetectorConfig")
        if name == "avg_auc_kms":
            closed = detection.avg_auc_kms(channel, detector)
        else:
            closed = detection.avg_auc_f(channel, detector)
        metric_vec = oracle.auc_metric(detector.u)
        metric_scalar = lambda g: detection.auc_instant(detector, g)
        label = f"{_channel_label(channel)} u={detector.u}"
    else:
        if qos is None:
            raise DomainError(f"{name} needs a DelayQoS")
        if name == "eff_rate_kms":
            closed = capacity.rate_moment_kms(channel, qos)
        else:
            closed = capacity.rate_moment_f(channel, qos)
        metric_vec = oracle.rate_metric(qos.a_exponent)
        metric_scalar = lambda g: (1.0 + g) ** (-qos.a_exponent)
        label = f"{_channel_label(channel)} A={qos.a_exponent:g}"

    closed *= 1.0 + perturb
    quad = oracle.average_over_channel(metric_scalar, channel, quad_spec)
    mc = oracle.mc_average(metric_vec, oracle.channel_sampler(channel), mc_spec)
    quad_pass = abs(closed - quad.value) <= tol + quad.error
    mc_window = mc_sigma * max(mc.std_error, 1e-12) + truncation
    mc_pass = abs(closed - mc.mean) <= mc_window
    return VerificationRecord(
        metric=name, label=label, closed_form=closed,
        quad_value=quad.value, quad_error=quad.error,
        mc_mean=mc.mean, mc_std_error=mc.std_error,
        quad_tol=tol, mc_sigma=mc_sigma,
        quad_pass=quad_pass, mc_pass=mc_pass)
