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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edsense",
        description="Energy-detection and effective-rate metrics over "
                    "kappa-mu shadowed and Fisher-Snedecor F fading channels")
    parser.add_argument("command", choices=_RUNNERS)
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


def _integer(value) -> int:
    """int(value), refusing a non-integral number such as 2.5 from --json
    rather than running it as 2, as the flags' int type does."""
    if isinstance(value, float) and not value.is_integer():
        raise DomainError(f"expected an integer, got {value!r}")
    return int(value)


_OPTION_TYPES = dict(u=_integer, pf_points=_integer, pf_min=float, pf_max=float,
                     tol=float, seed=_integer, points=_integer,
                     mc_samples=_integer, out=str)
# The other fields a flag or --json may set, read as these types.
_PARAM_TYPES = dict(kappa=float, mu=_integer, m=float, ms=float,
                    snr_db=lambda value: _parse_snr(str(value)), a=float,
                    theta_exp=float, block_t=float, bandwidth=float)


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
    options = {key: _typed(key, cast, merged[key])
               for key, cast in _OPTION_TYPES.items() if key in merged}
    params = {key: _typed(key, cast, merged[key])
              for key, cast in _PARAM_TYPES.items() if key in merged}

    a = params.get("a")
    if "theta_exp" in params:
        if "block_t" not in params or "bandwidth" not in params:
            raise DomainError("--theta-exp requires --block-t and --bandwidth")
        a = params["theta_exp"] * params["block_t"] * params["bandwidth"] / math.log(2.0)
    if a is not None:
        options["a_exponent"] = a
    cfg = SweepConfig(
        command=args.command,
        channel=merged.get("channel"),
        kappa=params.get("kappa"),
        mu=params.get("mu"),
        m=params.get("m"),
        ms=params.get("ms"),
        snr_db=params.get("snr_db", []),
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
