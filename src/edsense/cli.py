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
from dataclasses import dataclass, field

import numpy as np

from . import __version__, capacity, detection
from .capacity import DelayQoS
from .channels import FisherFParams, KappaMuShadowedParams, f_cdf, f_pdf, kms_cdf, kms_pdf
from .detection import DetectorConfig
from .errors import ConvergenceError, DomainError
from .oracle import MonteCarloSpec, QuadratureSpec
from .verify import verify_closed_form

__all__ = ["main", "SweepConfig"]

_COMMANDS = ("croc", "auc", "effrate", "verify", "pdf")

# Environment hook used by the test suite to prove that verify catches a
# wrong constant: the closed form is scaled by (1 + value) before comparison.
_PERTURB_ENV = "EDSENSE_VERIFY_PERTURB"

@dataclass
class SweepConfig:
    """Validated run configuration shared by all subcommands."""

    command: str
    channel: str | None
    kappa: float | None
    mu: int | None
    m: float | None
    ms: float | None
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
            if self.m != int(self.m):
                raise DomainError(f"kms channel needs integer m, got {self.m}")
            return KappaMuShadowedParams(kappa=self.kappa, mu=int(self.mu),
                                         m=int(self.m), mean_snr=snr_linear)
        if self.channel == "fisher":
            if self.m is None or self.ms is None:
                raise DomainError("fisher channel needs --m and --ms")
            return FisherFParams(m=float(self.m), m_s=float(self.ms),
                                 mean_snr=snr_linear)
        raise DomainError("--channel must be 'kms' or 'fisher'")


def _db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def _parse_snr(text: str) -> list[float]:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise DomainError(f"SNR range must be start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if step <= 0.0 or stop < start:
            raise DomainError(f"empty SNR sweep {text!r}")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        return [start + k * step for k in range(count)]
    return [float(text)]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edsense",
        description="Energy-detection and effective-rate metrics over "
                    "kappa-mu shadowed and Fisher-Snedecor F fading channels")
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--channel", choices=("kms", "fisher"))
    parser.add_argument("--kappa", type=float)
    parser.add_argument("--mu", type=int)
    parser.add_argument("--m", type=float)
    parser.add_argument("--ms", type=float)
    parser.add_argument("--snr-db", dest="snr_db",
                        help="average SNR in dB: a value or start:stop:step")
    parser.add_argument("--u", type=int, help="time-bandwidth product")
    parser.add_argument("--a", type=float, help="delay-QoS exponent A")
    parser.add_argument("--theta-exp", type=float,
                        help="delay exponent Theta (folded into A with --block-t --bandwidth)")
    parser.add_argument("--block-t", type=float, help="block duration T")
    parser.add_argument("--bandwidth", type=float, help="bandwidth B")
    parser.add_argument("--pf-points", type=int)
    parser.add_argument("--pf-min", type=float)
    parser.add_argument("--pf-max", type=float)
    parser.add_argument("--tol", type=float, help="series truncation tolerance")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--points", type=int, help="rows in the pdf table")
    parser.add_argument("--mc-samples", type=int,
                        help="Monte Carlo samples in verify mode")
    parser.add_argument("--out", help="output path, or - for stdout")
    parser.add_argument("--json",
                        help="JSON file with the same field names; explicit "
                             "flags take precedence")
    return parser


_OPTION_TYPES = dict(u=int, pf_points=int, pf_min=float, pf_max=float,
                     tol=float, seed=int, points=int, mc_samples=int, out=str)


def _build_config(args: argparse.Namespace) -> SweepConfig:
    merged: dict = {}
    if args.json:
        with open(args.json) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise DomainError("--json must contain a single object")
        merged.update(loaded)
    for key in ("channel", "kappa", "mu", "m", "ms", "snr_db", "u", "a",
                "theta_exp", "block_t", "bandwidth", "pf_points", "pf_min",
                "pf_max", "tol", "seed", "points", "mc_samples", "out"):
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val

    a = merged.get("a")
    if merged.get("theta_exp") is not None:
        if merged.get("block_t") is None or merged.get("bandwidth") is None:
            raise DomainError("--theta-exp requires --block-t and --bandwidth")
        a = merged["theta_exp"] * merged["block_t"] * merged["bandwidth"] / math.log(2.0)

    snr_raw = merged.get("snr_db")
    snr = _parse_snr(str(snr_raw)) if snr_raw is not None else []

    # flags and JSON fields that are left out keep the SweepConfig defaults
    options = {key: cast(merged[key]) for key, cast in _OPTION_TYPES.items()
               if key in merged}
    if a is not None:
        options["a_exponent"] = float(a)
    cfg = SweepConfig(
        command=args.command,
        channel=merged.get("channel"),
        kappa=merged.get("kappa"),
        mu=merged.get("mu"),
        m=merged.get("m"),
        ms=merged.get("ms"),
        snr_db=snr,
        **options,
    )
    if cfg.command != "verify" and cfg.channel is None:
        raise DomainError(f"{cfg.command} requires --channel")
    if cfg.command in ("croc", "pdf") and len(cfg.snr_db) != 1:
        raise DomainError(f"{cfg.command} needs a single --snr-db value")
    if cfg.command in ("auc", "effrate") and not cfg.snr_db:
        raise DomainError(f"{cfg.command} needs an --snr-db value or range")
    if cfg.pf_points < 1 or not (0.0 < cfg.pf_min <= cfg.pf_max < 1.0):
        raise DomainError("invalid false-alarm grid")
    if cfg.tol <= 0.0:
        raise DomainError("--tol must be positive")
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


def run_croc(cfg: SweepConfig) -> list[str]:
    params = cfg.channel_params(_db_to_linear(cfg.snr_db[0]))
    points = detection.croc_curve(params, cfg.u, _pf_grid(cfg), tol=cfg.tol)
    lines = ["pf,pmd"]
    lines += [f"{_fmt(pt.pf)},{_fmt(pt.pmd)}" for pt in points]
    return lines


def run_auc(cfg: SweepConfig) -> list[str]:
    lines = ["snr_db,comp_auc"]
    for db in cfg.snr_db:
        params = cfg.channel_params(_db_to_linear(db))
        det = DetectorConfig(u=cfg.u, lam=0.0)
        if cfg.channel == "kms":
            auc = detection.avg_auc_kms(params, det)
        else:
            auc = detection.avg_auc_f(params, det)
        lines.append(f"{_fmt(db)},{_fmt(1.0 - auc)}")
    return lines


def run_effrate(cfg: SweepConfig) -> list[str]:
    qos = DelayQoS(cfg.a_exponent)
    lines = ["snr_db,eff_rate_bits"]
    for db in cfg.snr_db:
        params = cfg.channel_params(_db_to_linear(db))
        if cfg.channel == "kms":
            rate = capacity.eff_rate_kms(params, qos)
        else:
            rate = capacity.eff_rate_f(params, qos)
        lines.append(f"{_fmt(db)},{_fmt(rate)}")
    return lines


def run_pdf(cfg: SweepConfig) -> list[str]:
    params = cfg.channel_params(_db_to_linear(cfg.snr_db[0]))
    if cfg.channel == "kms":
        pdf = lambda g: kms_pdf(params, g)
        cdf = lambda g: kms_cdf(params, g)
    else:
        pdf = lambda g: f_pdf(params, g)
        cdf = lambda g: f_cdf(params, g)
    upper = max(params.mean_snr, 1.0)
    while cdf(upper) < 0.999:
        upper *= 2.0
        if upper > 1e15:
            raise ConvergenceError("no finite range captures 99.9% of the density")
    grid = np.linspace(0.0, upper, cfg.points)
    if cfg.channel == "fisher" and params.m < 1.0:
        grid[0] = upper * 1e-9  # density singular at the origin
    lines = ["gamma,pdf,cdf"]
    for g in grid:
        lines.append(f"{_fmt(g)},{_fmt(pdf(float(g)))},{_fmt(cdf(float(g)))}")
    return lines


_VERIFY_DEFAULT_GRID = (
    ("kms", dict(kappa=2.0, mu=3, m=2), 10.0),
    ("kms", dict(kappa=0.5, mu=2, m=1), 5.0),
    ("kms", dict(kappa=0.0, mu=2, m=2), 0.0),
    ("fisher", dict(m=2.0, ms=3.0), 0.0),
    ("fisher", dict(m=1.0, ms=10.0), 10.0),
    ("fisher", dict(m=2.5, ms=10.0), 5.0),
)


def _verify_cells(cfg: SweepConfig):
    if cfg.channel is not None:
        db = cfg.snr_db[0] if cfg.snr_db else 10.0
        yield cfg.channel, cfg.channel_params(_db_to_linear(db))
        return
    for chan, fields, db in _VERIFY_DEFAULT_GRID:
        if chan == "kms":
            yield chan, KappaMuShadowedParams(
                kappa=fields["kappa"], mu=fields["mu"], m=fields["m"],
                mean_snr=_db_to_linear(db))
        else:
            yield chan, FisherFParams(m=fields["m"], m_s=fields["ms"],
                                      mean_snr=_db_to_linear(db))


def run_verify(cfg: SweepConfig) -> tuple[list[str], bool]:
    perturb = float(os.environ.get(_PERTURB_ENV, "0") or "0")
    det = DetectorConfig(u=cfg.u, lam=detection.threshold_for_pf(cfg.u, 0.1))
    qos = DelayQoS(cfg.a_exponent)
    quad_spec = QuadratureSpec()
    lines = ["metric,label,closed,quad,quad_err,mc,mc_se,status"]
    all_pass = True
    cell_index = 0
    for chan, params in _verify_cells(cfg):
        names = (("avg_pd_kms", "avg_auc_kms", "eff_rate_kms") if chan == "kms"
                 else ("avg_pd_f", "avg_auc_f", "eff_rate_f"))
        for name in names:
            mc_spec = MonteCarloSpec(seed=cfg.seed + cell_index,
                                     n_samples=cfg.mc_samples)
            record = verify_closed_form(
                name, params, detector=det, qos=qos,
                quad_spec=quad_spec, mc_spec=mc_spec,
                series_tol=cfg.tol, perturb=perturb)
            all_pass &= record.passed
            lines.append(
                f"{record.metric},{record.label},{_fmt(record.closed_form)},"
                f"{_fmt(record.quad_value)},{_fmt(record.quad_error)},"
                f"{_fmt(record.mc_mean)},{_fmt(record.mc_std_error)},"
                f"{'PASS' if record.passed else 'FAIL'}")
            cell_index += 1
    return lines, all_pass


def _write(cfg: SweepConfig, lines: list[str], argv: list[str]) -> None:
    text = "\n".join([_provenance(cfg, argv)] + lines) + "\n"
    if cfg.out == "-":
        sys.stdout.write(text)
    else:
        with open(cfg.out, "w", newline="\n") as fh:
            fh.write(text)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _build_config(args)
        if cfg.command == "croc":
            _write(cfg, run_croc(cfg), argv)
        elif cfg.command == "auc":
            _write(cfg, run_auc(cfg), argv)
        elif cfg.command == "effrate":
            _write(cfg, run_effrate(cfg), argv)
        elif cfg.command == "pdf":
            _write(cfg, run_pdf(cfg), argv)
        else:
            lines, ok = run_verify(cfg)
            _write(cfg, lines, argv)
            return 0 if ok else 1
        return 0
    except DomainError as exc:
        print(f"edsense: invalid parameters: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, FloatingPointError, OverflowError) as exc:
        print(f"edsense: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
