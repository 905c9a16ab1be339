"""Energy-detection spectrum sensing and effective-rate metrics over
kappa-mu shadowed and Fisher-Snedecor F fading channels.

Closed-form channel averages (detection probability, ROC area, effective
rate) with self-contained special functions, plus quadrature and Monte
Carlo reference implementations for validating every closed form.
"""

__version__ = "0.1.0"

from .capacity import DelayQoS, eff_rate_f, eff_rate_kms, rate_moment_f, rate_moment_kms
from .channels import (
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
from .detection import (
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
from .errors import ConvergenceError, DomainError
from .oracle import (
    McResult,
    MonteCarloSpec,
    QuadratureSpec,
    QuadResult,
    average_over_channel,
    mc_average,
    quad_average,
)
from .verify import VerificationRecord, verify_closed_form

__all__ = [
    "__version__",
    "ConvergenceError",
    "DomainError",
    "KappaMuShadowedParams",
    "FisherFParams",
    "kms_mgf",
    "kms_pdf",
    "kms_cdf",
    "kms_sample",
    "f_pdf",
    "f_cdf",
    "f_sample",
    "DetectorConfig",
    "TruncationReport",
    "RocPoint",
    "prob_false_alarm",
    "threshold_for_pf",
    "prob_detect_instant",
    "avg_pd_kms",
    "avg_pd_f",
    "truncation_bound_f",
    "auc_instant",
    "avg_auc_kms",
    "avg_auc_f",
    "croc_curve",
    "DelayQoS",
    "rate_moment_kms",
    "rate_moment_f",
    "eff_rate_kms",
    "eff_rate_f",
    "QuadratureSpec",
    "MonteCarloSpec",
    "QuadResult",
    "McResult",
    "quad_average",
    "average_over_channel",
    "mc_average",
    "VerificationRecord",
    "verify_closed_form",
]
