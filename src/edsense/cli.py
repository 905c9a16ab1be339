"""Command-line front end: CSV parameter sweeps and a verification mode.

Subcommands
    croc     missed-detection vs false-alarm sweep at fixed average SNR
    auc      complementary ROC-area vs average-SNR sweep
    effrate  effective-rate vs average-SNR sweep
    pdf      density/distribution table for external plotting
    verify   closed form vs quadrature vs Monte Carlo report

SNR is given in dB on the command line and converted to linear scale once at
parse time.  Output is deterministic CSV (LF endings, 10 significant digits,
a provenance comment line) so identical invocations are byte-identical.

Exit codes: 0 success / all checks passed, 1 verification failure, 2 usage
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__, capacity, detection
from .capacity import DelayQoS
from .channels import FisherFParams, KappaMuShadowedParams, f_cdf, f_pdf, kms_cdf, kms_pdf
from .detection import DetectorConfig
from .errors import ConvergenceError, DomainError
from .oracle import MonteCarloSpec
from .verify import METRIC_NAMES, verify_closed_form

__all__ = ["main", "SweepConfig"]

# Environment hook used by the test suite to prove that verify catches a
# wrong constant: the closed form is scaled by (1 + value) before comparison.
_PERTURB_ENV = "EDSENSE_VERIFY_PERTURB"

@dataclass
class SweepConfig:
    """Validated run configuration shared by all subcommands."""

    command: str
    channel: str | None = None
    kappa: float | None = None
    mu: int | None = None
    m: float | None = None
    ms: float | None = None
    snr_db: list[float] = field(default_factory=list)
    u: int = 2
    a_exponent: float = 1.0
    pf_points: int = 50
    pf_min: float = 1e-3
    pf_max: float = 0.999
    tol: float = 1e-8
    seed: int = 42
    points: int = 200
    mc_samples: int = 10**6
    out: str = "-"

    def channel_params(self, snr_linear: float):
        if self.channel == "kms":
            if self.kappa is None or self.mu is None or self.m is None:
                raise DomainError("kms channel needs --kappa, --mu and --m")
            return KappaMuShadowedParams(self.kappa, self.mu, self.m, snr_linear)
        if self.channel == "fisher":
            if self.m is None or self.ms is None:
                raise DomainError("fisher channel needs --m and --ms")
            return FisherFParams(self.m, self.ms, snr_linear)
        raise DomainError("--channel must be 'kms' or 'fisher'")


def _db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def _parse_snr(text: str) -> list[float]:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise DomainError(f"SNR range must be start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        count = (stop - start) / step + 1e-9 if step > 0.0 else math.nan
        if not (stop >= start and all(map(math.isfinite, (start, step, count)))):
            raise DomainError(f"SNR range must be finite and non-empty, got {text!r}")
        return [start + k * step for k in range(int(count) + 1)]
    return [float(text)]


def _attach_negative_snr(argv: list[str]) -> list[str]:
    """argv with "--snr-db" joined to a following value such as -10:0:5,
    which argparse would otherwise take for a flag."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--snr-db" and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _integer(value) -> int:
    """int(value) of a flag's text or a --json number, refusing a
    non-integral number such as 2.5 rather than running it as 2."""
    if isinstance(value, float) and not value.is_integer():
        raise DomainError(f"expected an integer, got {value!r}")
    return int(value)


# Every field that a flag --name (with - for _) or --json may set, as (name,
# type, help); a, or theta_exp with block_t and bandwidth, sets a_exponent.
_FIELDS = (
    ("channel", str, "kms or fisher"),
    ("kappa", float, None),
    ("mu", _integer, None),
    ("m", float, None),
    ("ms", float, None),
    ("snr_db", lambda value: _parse_snr(str(value)),
     "average SNR in dB: a value or start:stop:step"),
    ("u", _integer, "time-bandwidth product"),
    ("a", float, "delay-QoS exponent A"),
    ("theta_exp", float, "delay exponent Theta (folded into A with --block-t --bandwidth)"),
    ("block_t", float, "block duration T"),
    ("bandwidth", float, "bandwidth B"),
    ("pf_points", _integer, None),
    ("pf_min", float, None),
    ("pf_max", float, None),
    ("tol", float, "series truncation tolerance"),
    ("seed", _integer, None),
    ("points", _integer, "rows in the pdf table"),
    ("mc_samples", _integer, "Monte Carlo samples in verify mode"),
    ("out", str, "output path, or - for stdout"),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edsense",
        description="Energy-detection and effective-rate metrics over "
                    "kappa-mu shadowed and Fisher-Snedecor F fading channels")
    parser.add_argument("command", choices=_RUNNERS)
    for name, _, text in _FIELDS:
        parser.add_argument("--" + name.replace("_", "-"), help=text)
    parser.add_argument("--json",
                        help="JSON file with the same field names; explicit "
                             "flags take precedence")
    return parser


def _typed(key: str, cast, value):
    """cast(value), with a value of the wrong type reported as a usage error."""
    try:
        return cast(value)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{key}: {exc}") from None


def _build_config(args: argparse.Namespace) -> SweepConfig:
    merged: dict = {}
    if args.json:
        with open(args.json) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise DomainError("--json must contain a single object")
        merged.update(loaded)
    merged.update((key, val) for key, val in vars(args).items() if val is not None)

    # flags and JSON fields that are left out keep the SweepConfig defaults
    given = {key: _typed(key, cast, merged[key]) for key, cast, _ in _FIELDS if key in merged}
    a, theta_exp, block_t, bandwidth = (given.pop(key, None)
                                        for key in ("a", "theta_exp", "block_t", "bandwidth"))
    if theta_exp is not None:
        if block_t is None or bandwidth is None:
            raise DomainError("--theta-exp requires --block-t and --bandwidth")
        a = theta_exp * block_t * bandwidth / math.log(2.0)
    if a is not None:
        given["a_exponent"] = a
    cfg = SweepConfig(command=args.command, **given)
    if cfg.command != "verify" and cfg.channel is None:
        raise DomainError(f"{cfg.command} requires --channel")
    if cfg.command in ("croc", "pdf") and len(cfg.snr_db) != 1:
        raise DomainError(f"{cfg.command} needs a single --snr-db value")
    if cfg.command in ("auc", "effrate") and not cfg.snr_db:
        raise DomainError(f"{cfg.command} needs an --snr-db value or range")
    if cfg.pf_points < 1 or not (0.0 < cfg.pf_min <= cfg.pf_max < 1.0):
        raise DomainError("invalid false-alarm grid")
    if cfg.points < 1:
        raise DomainError("--points must be at least 1")
    if not 0.0 < cfg.tol < math.inf:
        raise DomainError("--tol must be positive and finite")
    return cfg


def _fmt(x: float) -> str:
    return f"{x:.9e}"


def _provenance(cfg: SweepConfig, argv: list[str]) -> str:
    return f"# edsense {__version__} | edsense {' '.join(argv)} | seed={cfg.seed}"


def _pf_grid(cfg: SweepConfig) -> list[float]:
    if cfg.pf_points == 1:
        return [cfg.pf_min]
    lo, hi = math.log10(cfg.pf_min), math.log10(cfg.pf_max)
    return [10.0 ** (lo + k * (hi - lo) / (cfg.pf_points - 1))
            for k in range(cfg.pf_points)]


def run_croc(cfg: SweepConfig) -> tuple[list[str], bool]:
    params = cfg.channel_params(_db_to_linear(cfg.snr_db[0]))
    points = detection.croc_curve(params, cfg.u, _pf_grid(cfg), tol=cfg.tol)
    lines = ["pf,pmd"]
    lines += [f"{_fmt(pt.pf)},{_fmt(pt.pmd)}" for pt in points]
    return lines, True


def _snr_sweep(cfg: SweepConfig, header: str, metric) -> tuple[list[str], bool]:
    """One row of metric(channel params) per SNR of the sweep."""
    rows = [f"{_fmt(db)},{_fmt(metric(cfg.channel_params(_db_to_linear(db))))}"
            for db in cfg.snr_db]
    return [header] + rows, True


def run_auc(cfg: SweepConfig) -> tuple[list[str], bool]:
    """1 - A summed directly as sum_{i<u} pi_i w_i, rather than taken from A,
    so that it keeps its relative accuracy where A is close to 1."""
    det = DetectorConfig(u=cfg.u, lam=0.0)
    return _snr_sweep(cfg, "snr_db,comp_auc", lambda params: detection._roc_miss(
        detection._poisson_pmf(params, det.u, 0.5), det.u))


def run_effrate(cfg: SweepConfig) -> tuple[list[str], bool]:
    qos = DelayQoS(cfg.a_exponent)
    rate = capacity.eff_rate_kms if cfg.channel == "kms" else capacity.eff_rate_f
    return _snr_sweep(cfg, "snr_db,eff_rate_bits", lambda params: rate(params, qos))


def run_pdf(cfg: SweepConfig) -> tuple[list[str], bool]:
    params = cfg.channel_params(_db_to_linear(cfg.snr_db[0]))
    pdf, cdf = (kms_pdf, kms_cdf) if cfg.channel == "kms" else (f_pdf, f_cdf)
    upper = max(params.mean_snr, 1.0)
    while cdf(params, upper) < 0.999:
        upper *= 2.0
        if upper > 1e15:
            raise ConvergenceError("no finite range captures 99.9% of the density")
    grid = np.linspace(0.0, upper, cfg.points)
    if cfg.channel == "fisher" and params.m < 1.0:
        grid[0] = upper * 1e-9  # density singular at the origin
    lines = ["gamma,pdf,cdf"]
    for g in map(float, grid):
        lines.append(f"{_fmt(g)},{_fmt(pdf(params, g))},{_fmt(cdf(params, g))}")
    return lines, True


_VERIFY_DEFAULT_GRID = (
    dict(channel="kms", kappa=2.0, mu=3, m=2, snr_db=[10.0]),
    dict(channel="kms", kappa=0.5, mu=2, m=1, snr_db=[5.0]),
    dict(channel="kms", kappa=0.0, mu=2, m=2, snr_db=[0.0]),
    dict(channel="fisher", m=2.0, ms=3.0, snr_db=[0.0]),
    dict(channel="fisher", m=1.0, ms=10.0, snr_db=[10.0]),
    dict(channel="fisher", m=2.5, ms=10.0, snr_db=[5.0]),
    dict(channel="fisher", m=2.0, ms=0.3, snr_db=[10.0]),  # heavy shadowing
)


def _verify_cells(cfg: SweepConfig):
    """(channel, params) for the configured channel at its first SNR (10 dB
    if none is given), or for every cell of the default grid."""
    cells = ([cfg] if cfg.channel is not None
             else [replace(cfg, **cell) for cell in _VERIFY_DEFAULT_GRID])
    for cell in cells:
        db = cell.snr_db[0] if cell.snr_db else 10.0
        yield cell.channel, cell.channel_params(_db_to_linear(db))


def run_verify(cfg: SweepConfig) -> tuple[list[str], bool]:
    raw = os.environ.get(_PERTURB_ENV, "0") or "0"
    try:
        perturb = float(raw)
    except ValueError:
        raise DomainError(f"{_PERTURB_ENV} must be a number, got {raw!r}") from None
    det = DetectorConfig(u=cfg.u, lam=detection.threshold_for_pf(cfg.u, 0.1))
    qos = DelayQoS(cfg.a_exponent)
    lines = ["metric,label,closed,quad,quad_err,mc,mc_se,status"]
    all_pass = True
    cell_index = 0
    for chan, params in _verify_cells(cfg):
        for name in [n for n in METRIC_NAMES if n.endswith("_kms") == (chan == "kms")]:
            mc_spec = MonteCarloSpec(seed=cfg.seed + cell_index,
                                     n_samples=cfg.mc_samples)
            record = verify_closed_form(
                name, params, detector=det, qos=qos, mc_spec=mc_spec,
                series_tol=cfg.tol, perturb=perturb)
            all_pass &= record.passed
            lines.append(
                f"{record.metric},{record.label},{_fmt(record.closed_form)},"
                f"{_fmt(record.quad_value)},{_fmt(record.quad_error)},"
                f"{_fmt(record.mc_mean)},{_fmt(record.mc_std_error)},"
                f"{'PASS' if record.passed else 'FAIL'}")
            cell_index += 1
    return lines, all_pass


_RUNNERS = {"croc": run_croc, "auc": run_auc, "effrate": run_effrate,
            "verify": run_verify, "pdf": run_pdf}


def _write(cfg: SweepConfig, lines: list[str], argv: list[str]) -> None:
    text = "\n".join([_provenance(cfg, argv)] + lines) + "\n"
    if cfg.out == "-":
        sys.stdout.write(text)
    else:
        with open(cfg.out, "w", newline="\n") as fh:
            fh.write(text)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = _build_parser().parse_args(_attach_negative_snr(argv))
    try:
        cfg = _build_config(args)
        lines, ok = _RUNNERS[cfg.command](cfg)
        _write(cfg, lines, argv)
        return 0 if ok else 1
    except DomainError as exc:
        print(f"edsense: invalid parameters: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, FloatingPointError, OverflowError) as exc:
        print(f"edsense: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
