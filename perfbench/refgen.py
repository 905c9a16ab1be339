"""Recompute every reference value of the benchmark with scipy alone.

    python3 perfbench/refgen.py            # writes perfbench/refs.json

No edsense code enters here.  The workload design (which cells each workload
runs, and the ranges the healthy cells are drawn from) lives in this file;
for every slot it draws ``VARIANTS`` cells with a fixed generator, computes
their references, and stores cells and references together.  A benchmark run
then picks one stored variant per slot from its ``--seed``.

References:

* detection: P_d(lam) = E[ncx2.sf(lam, 2u, 2 gamma)], lam = chi2.isf(P_f, 2u);
* AUC: E[P[Y1 > Y0]], Y1 ~ ncx2(2u, 2 gamma), Y0 ~ chi2(2u), the inner
  probability integrated over the chi2 density;
* rate moment: E[(1 + gamma)^-A];
* kappa-mu shadowed SNR: the sum of Gamma(mu - m, rate theta1) and
  Gamma(m, rate theta2) variates, averaged by nested (tensor-product)
  Gauss-Legendre quadrature over geometric panels; pdf and CDF by 1-D
  convolution with scipy.integrate.quad;
* Fisher-Snedecor SNR: mean_snr * F(2m, 2m_s).

Each value is computed at two quadrature orders; their difference is stored
as the reference error and must stay below ``MAX_REF_ERR``.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

import numpy as np
import scipy
from scipy import integrate, special, stats

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "refs.json")

GEN_SEED = 180709866
VARIANTS = 4
ORDERS = (10, 12)
MAX_REF_ERR = 1e-9


def _log_grid(lo: float, hi: float, n: int) -> list[float]:
    """The CLI's log-spaced false-alarm grid, formula for formula."""
    a, b = math.log10(lo), math.log10(hi)
    return [10.0 ** (a + k * (b - a) / (n - 1)) for k in range(n)]


PF_CLI50 = _log_grid(1e-3, 0.999, 50)
PF_SHORT = _log_grid(1e-3, 0.999, 4)
SWEEP_DB = [-10.0 + 2.5 * k for k in range(17)]
COARSE_DB = [-10.0, 0.0, 10.0, 20.0, 30.0]
FINE_DB = [-10.0 + 0.1 * k for k in range(401)]
TABLE_STEPS = [0.02 * k for k in range(1, 201)]   # gamma / mean_snr, 200 rows
COARSE_STEPS = [0.25 * k for k in range(1, 13)]


# Slot design.  ``fixed`` parameters hold for every variant; ``ranges`` are
# drawn per variant: (lo, hi, "log" | "lin" | "int").  A slot without ranges
# is a fixed cell (the named faults are fixed cells).  Slots whose cost moves
# with their parameters (SNR for the detection series and kummer_1f1, all of
# them for the heavy rate and CDF cells) get narrow ranges, so that a run's
# cost hardly depends on its seed.
KMS_KAPPA = (0.5, 5.0, "log")
RATE_A = (0.5, 5.0, "log")

SLOTS = {
    "croc": [
        *[dict(slot=f"croc-kms-mu{mu}-m{m}-u{u}", kind="croc_kms",
               fixed=dict(mu=mu, m=m, u=u, pf=PF_CLI50),
               ranges=dict(kappa=KMS_KAPPA, snr_db=(db - 1.0, db + 1.0, "lin")))
          for mu, m, u, db in ((2, 2, 1, 1.0), (2, 1, 1, 19.0), (3, 2, 2, 10.0),
                               (4, 1, 2, 4.0), (4, 3, 4, 16.0), (6, 3, 2, 7.0),
                               (8, 4, 1, 13.0), (8, 2, 4, 1.0), (10, 5, 2, 19.0),
                               (12, 6, 2, 10.0), (12, 3, 4, 4.0), (12, 6, 1, 16.0))],
        *[dict(slot=f"croc-f-m{m:g}-ms{ms:g}-{db:g}dB", kind="croc_f",
               fixed=dict(m=m, ms=ms, u=2, pf=PF_SHORT),
               ranges=dict(snr_db=(db - 0.25, db + 0.25, "lin")))
          for m, ms, db in ((1.0, 20.0, 10.0), (2.5, 10.0, 5.0),
                            (4.0, 3.0, -5.0), (1.0, 3.0, -5.0),
                            (4.0, 20.0, 0.0))],
        dict(slot="fault-croc-f-m2-ms3-10dB", kind="croc_f", fault=True,
             fixed=dict(m=2.0, ms=3.0, u=2, pf=PF_SHORT, snr_db=10.0)),
        dict(slot="fault-croc-kms-k1e-3-mu6-m3", kind="croc_kms", fault=True,
             fixed=dict(kappa=1e-3, mu=6, m=3, u=2, pf=PF_CLI50, snr_db=10.0)),
    ],
    "sweeps": [
        *[dict(slot=f"auc-kms-mu{mu}-m{m}-u{u}", kind="auc_kms",
               fixed=dict(mu=mu, m=m, u=u, snr_db=SWEEP_DB),
               ranges=dict(kappa=KMS_KAPPA))
          for mu, m, u in ((3, 1, 2), (6, 3, 4), (12, 6, 2))],
        dict(slot="fault-auc-kms-k1e-5-mu6-m3", kind="auc_kms", fault=True,
             fixed=dict(kappa=1e-5, mu=6, m=3, u=2, snr_db=SWEEP_DB)),
        *[dict(slot=f"auc-f-m{m:g}-ms{ms:g}-u{u}", kind="auc_f",
               fixed=dict(u=u, snr_db=SWEEP_DB),
               ranges=dict(m=(0.9 * m, 1.1 * m, "lin"),
                           ms=(0.9 * ms, 1.1 * ms, "lin")))
          for m, ms, u in ((1.2, 3.0, 2), (2.5, 10.0, 1), (4.0, 20.0, 4))],
        *[dict(slot=f"rate-kms-mu{mu}-m{m}", kind="rate_kms",
               fixed=dict(mu=mu, m=m, snr_db=SWEEP_DB),
               ranges=dict(kappa=KMS_KAPPA, a=RATE_A))
          for mu, m in ((2, 1), (4, 2))],
        dict(slot="rate-kms-mu12-m6", kind="rate_kms",
             fixed=dict(mu=12, m=6, snr_db=SWEEP_DB),
             ranges=dict(kappa=(1.5, 2.0, "log"), a=(0.8, 1.25, "log"))),
        # at mu=60, m=30 the closed form is off by up to 0.1 at kappa = 1 and
        # raises at kappa = 0.5 (CHANGES.md, FOUND); kappa >= 3 stays within
        # 1e-10 of the reference
        dict(slot="rate-kms-mu60-m30", kind="rate_kms",
             fixed=dict(mu=60, m=30, snr_db=COARSE_DB),
             ranges=dict(kappa=(3.5, 4.0, "log"), a=(1.8, 2.2, "log"))),
        dict(slot="fault-rate-kms-k1e-5-mu4-m2-A5", kind="rate_kms", fault=True,
             fixed=dict(kappa=1e-5, mu=4, m=2, a=5.0, snr_db=SWEEP_DB)),
        dict(slot="fault-rate-kms-k0.05-mu12-m6-A2", kind="rate_kms", fault=True,
             fixed=dict(kappa=0.05, mu=12, m=6, a=2.0, snr_db=SWEEP_DB)),
        *[dict(slot=f"rate-f-m{m:g}-ms{ms:g}", kind="rate_f",
               fixed=dict(snr_db=FINE_DB),
               ranges=dict(m=(0.9 * m, 1.1 * m, "lin"),
                           ms=(0.9 * ms, 1.1 * ms, "lin"), a=(0.5, 2.5, "log")))
          for m, ms in ((1.2, 3.0), (4.0, 1.5))],
        # at m_s ~ 10 the 1-z route of gauss_2f1 just above z = 1/2 misses
        # the reference by up to 2e-6 (CHANGES.md, FOUND); A - m within 0.05
        # of an integer takes the Euler-integral route instead
        dict(slot="rate-f-m2.5-ms10", kind="rate_f",
             fixed=dict(m=2.5, snr_db=FINE_DB),
             ranges=dict(ms=(9.0, 11.0, "lin"), a=(1.47, 1.53, "lin"))),
        dict(slot="table-kms-mu4-m2", kind="table_kms",
             fixed=dict(mu=4, m=2, steps=TABLE_STEPS),
             ranges=dict(kappa=KMS_KAPPA, snr_db=(0.0, 20.0, "lin"))),
        dict(slot="table-kms-mu60-m30", kind="table_kms",
             fixed=dict(mu=60, m=30, steps=COARSE_STEPS),
             ranges=dict(kappa=(1.8, 2.2, "log"), snr_db=(9.5, 10.5, "lin"))),
        dict(slot="fault-table-kms-k1e-5-mu4-m2", kind="table_kms", fault=True,
             fixed=dict(kappa=1e-5, mu=4, m=2, snr_db=10.0, steps=TABLE_STEPS)),
        *[dict(slot=f"table-f-{tag}", kind="table_f",
               fixed=dict(steps=TABLE_STEPS),
               ranges=dict(m=m, ms=ms, snr_db=(0.0, 20.0, "lin")))
          for tag, m, ms in (("light", (1.2, 4.0, "lin"), (8.0, 20.0, "lin")),
                             ("heavy", (1.2, 4.0, "lin"), (1.5, 3.0, "lin")))],
    ],
    "cli": [
        dict(slot="cli-croc-kms", kind="cli_croc",
             fixed=dict(mu=4, m=2, u=2, pf_points=10),
             ranges=dict(kappa=KMS_KAPPA, snr_db=(0.0, 20.0, "lin"))),
        dict(slot="cli-auc-fisher", kind="cli_auc",
             fixed=dict(u=2, snr_range="-10:30:5"),
             ranges=dict(m=(1.2, 4.0, "lin"), ms=(3.0, 20.0, "lin"))),
        dict(slot="cli-effrate-kms-json", kind="cli_effrate",
             fixed=dict(mu=3, m=1, snr_range="-10:30:5"),
             ranges=dict(kappa=KMS_KAPPA, a=RATE_A)),
        dict(slot="cli-pdf-fisher", kind="cli_pdf",
             fixed=dict(points=25),
             ranges=dict(m=(1.2, 4.0, "lin"), ms=(3.0, 20.0, "lin"),
                         snr_db=(0.0, 20.0, "lin"))),
    ],
    "verify": [
        # the CLI's default verification grid, with drawn Monte Carlo seeds
        *[dict(slot=f"verify-{chan}-{i}", kind=f"verify_{chan}",
               fixed=dict(cell, snr_db=db),
               ranges=dict(mc_seed=(0, 2**32, "int")))
          for i, (chan, cell, db) in enumerate((
              ("kms", dict(kappa=2.0, mu=3, m=2), 10.0),
              ("kms", dict(kappa=0.5, mu=2, m=1), 5.0),
              ("kms", dict(kappa=0.0, mu=2, m=2), 0.0),
              ("f", dict(m=2.0, ms=3.0), 0.0),
              ("f", dict(m=1.0, ms=10.0), 10.0),
              ("f", dict(m=2.5, ms=10.0), 5.0)))],
        dict(slot="verify-kms-extra", kind="verify_kms",
             fixed=dict(mu=4, m=2),
             ranges=dict(kappa=KMS_KAPPA, snr_db=(0.0, 10.0, "lin"),
                         mc_seed=(0, 2**32, "int"))),
        dict(slot="verify-f-extra", kind="verify_f",
             fixed=dict(),
             ranges=dict(m=(2.0, 2.4, "lin"), ms=(14.0, 16.0, "lin"),
                         snr_db=(2.0, 3.0, "lin"), mc_seed=(0, 2**32, "int"))),
    ],
}

VERIFY_U, VERIFY_PF, VERIFY_A = 2, 0.1, 1.0


# ---------------------------------------------------------------- quadrature

def _panel_rule(dist, lo: float, hi: float, order: int):
    """Gauss-Legendre nodes/weights for E[h(X)], X ~ dist, over [0, hi]
    split at 0, lo, and a doubling geometric grid from lo to hi."""
    n_pan = max(1, int(math.ceil(math.log2(hi / lo))))
    edges = np.concatenate([[0.0], np.geomspace(lo, hi, n_pan + 1)])
    z, w = special.roots_legendre(order)
    a, b = edges[:-1, None], edges[1:, None]
    x = (0.5 * (b - a) * z + 0.5 * (b + a)).ravel()
    return x, (0.5 * (b - a) * w).ravel() * dist.pdf(x)


def gamma_rule(shape: int, rate: float, order: int):
    """Rule for a Gamma(shape, rate) variate whose integrand varies on a
    unit scale; panels resolve both the density and that scale."""
    dist = stats.gamma(shape)
    t, w = _panel_rule(dist, 0.05 * min(1.0, rate), dist.isf(1e-18), order)
    return t / rate, w


def _prune(g, w, mass: float = 1e-14):
    """Drop the lightest nodes whose total weight is below ``mass``; every
    integrand here is bounded by 1, so the dropped part is below ``mass``."""
    order = np.argsort(w)
    drop = order[np.cumsum(w[order]) <= mass]
    keep = np.ones(len(w), dtype=bool)
    keep[drop] = False
    return g[keep], w[keep]


def kms_thetas(kappa: float, mu: int, m: int, mean_snr: float):
    th1 = mu * (1.0 + kappa) / mean_snr
    return th1, m * th1 / (mu * kappa + m)


def kms_rule(kappa, mu, m, mean_snr, order):
    """Nested rule for gamma = X + Y, X ~ Gamma(mu-m, th1), Y ~ Gamma(m, th2)."""
    th1, th2 = kms_thetas(kappa, mu, m, mean_snr)
    y, wy = gamma_rule(m, th2, order)
    if mu == m:
        return y, wy
    x, wx = gamma_rule(mu - m, th1, order)
    return _prune((x[:, None] + y[None, :]).ravel(),
                  (wx[:, None] * wy[None, :]).ravel())


def fisher_rule(m, ms, mean_snr, order):
    """Rule for gamma = mean_snr * F(2m, 2m_s)."""
    dist = stats.f(2.0 * m, 2.0 * ms)
    hi = dist.isf(1e-6)
    while dist.sf(hi) > 1e-18:
        hi *= 2.0
    x, w = _panel_rule(dist, 1e-12, hi, order)
    return mean_snr * x, w


def ncx2_sf(y, u: int, g):
    """P[ncx2(2u, 2 gamma) > y]; exactly 1 to double precision far above y,
    where scipy's evaluation overflows."""
    y, nc = np.broadcast_arrays(np.asarray(y, float), 2.0 * np.asarray(g, float))
    out = np.ones(y.shape)
    far = nc - y > 12.0 * np.sqrt(4.0 * nc + 8.0 * u) + 20.0
    out[~far] = stats.ncx2.sf(y[~far], 2 * u, nc[~far])
    return out


def avg_pd(rule, lams, u):
    g, w = rule
    return np.array([np.dot(w, ncx2_sf(lam, u, g)) for lam in lams])


def avg_auc(rule, u, order):
    g, w = rule
    y0, v = gamma_rule(u, 0.5, order)        # Y0 ~ chi2(2u) = Gamma(u, 1/2)
    total = 0.0
    for i in range(0, len(g), 2000):
        total += np.dot(w[i:i + 2000], ncx2_sf(y0[None, :], u, g[i:i + 2000, None]) @ v)
    return total


def avg_moment(rule, a):
    g, w = rule
    return float(np.dot(w, np.exp(-a * np.log1p(g))))


def _two_orders(fn):
    """Evaluate at both orders; return the finer value and the difference."""
    lo, hi = (np.asarray(fn(order), dtype=float) for order in ORDERS)
    return hi, float(np.max(np.abs(hi - lo)))


def _db(x: float) -> float:
    return 10.0 ** (x / 10.0)


def _rule(p: dict, mean_snr: float, order: int):
    if "kappa" in p:
        return kms_rule(p["kappa"], p["mu"], p["m"], mean_snr, order)
    return fisher_rule(p["m"], p["ms"], mean_snr, order)


def kms_pdf_cdf(p: dict, mean_snr: float, gammas):
    th1, th2 = kms_thetas(p["kappa"], p["mu"], p["m"], mean_snr)
    g1 = stats.gamma(p["mu"] - p["m"], scale=1.0 / th1)
    g2 = stats.gamma(p["m"], scale=1.0 / th2)
    pdf, cdf, err = [], [], 0.0
    for c in gammas:
        v1, e1 = integrate.quad(lambda x: g1.pdf(x) * g2.pdf(c - x), 0.0, c,
                                epsabs=0.0, epsrel=1e-13, limit=500)
        v2, e2 = integrate.quad(lambda x: g1.pdf(x) * g2.cdf(c - x), 0.0, c,
                                epsabs=1e-15, epsrel=1e-13, limit=500)
        pdf.append(v1)
        cdf.append(v2)
        err = max(err, e1 / v1, e2)
    return pdf, cdf, err


def fisher_pdf_cdf(p: dict, mean_snr: float, gammas):
    dist = stats.f(2.0 * p["m"], 2.0 * p["ms"])
    g = np.asarray(gammas, dtype=float)
    return list(dist.pdf(g / mean_snr) / mean_snr), list(dist.cdf(g / mean_snr)), 0.0


def _parse_range(text: str) -> list[float]:
    start, stop, step = (float(s) for s in text.split(":"))
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + k * step for k in range(count)]


def reference(kind: str, p: dict) -> tuple[dict, float]:
    """Reference values for one cell, plus their estimated error."""
    if kind in ("croc_kms", "croc_f", "cli_croc"):
        pf = p["pf"] if "pf" in p else _log_grid(1e-3, 0.999, p["pf_points"])
        lams = stats.chi2.isf(pf, 2 * p["u"])
        pd, err = _two_orders(lambda o: avg_pd(
            _rule(p, _db(p["snr_db"]), o), lams, p["u"]))
        return dict(pf=pf, pd=list(pd)), err
    if kind in ("auc_kms", "auc_f", "cli_auc"):
        dbs = p.get("snr_db") if kind != "cli_auc" else _parse_range(p["snr_range"])
        auc, err = _two_orders(lambda o: [avg_auc(_rule(p, _db(d), o), p["u"], o)
                                          for d in dbs])
        return dict(snr_db=dbs, auc=list(auc)), err
    if kind in ("rate_kms", "rate_f", "cli_effrate"):
        dbs = p.get("snr_db") if kind != "cli_effrate" else _parse_range(p["snr_range"])
        mom, err = _two_orders(lambda o: [avg_moment(_rule(p, _db(d), o), p["a"])
                                          for d in dbs])
        return dict(snr_db=dbs, moment=list(mom)), err
    if kind in ("table_kms", "table_f"):
        mean = _db(p["snr_db"])
        gammas = [mean * s for s in p["steps"]]
        fn = kms_pdf_cdf if kind == "table_kms" else fisher_pdf_cdf
        pdf, cdf, err = fn(p, mean, gammas)
        return dict(gamma=gammas, pdf=pdf, cdf=cdf), err
    if kind == "cli_pdf":
        mean = _db(p["snr_db"])
        dist = stats.f(2.0 * p["m"], 2.0 * p["ms"])
        upper = max(mean, 1.0)
        while dist.cdf(upper / mean) < 0.999:
            upper *= 2.0
        gammas = [float(x) for x in np.linspace(0.0, upper, p["points"])]
        pdf, cdf, err = fisher_pdf_cdf(p, mean, gammas)
        return dict(gamma=gammas, pdf=pdf, cdf=cdf), err
    if kind in ("verify_kms", "verify_f"):
        mean = _db(p["snr_db"])
        lam = float(stats.chi2.isf(VERIFY_PF, 2 * VERIFY_U))
        vals, err = _two_orders(lambda o: [
            avg_pd(_rule(p, mean, o), [lam], VERIFY_U)[0],
            avg_auc(_rule(p, mean, o), VERIFY_U, o),
            avg_moment(_rule(p, mean, o), VERIFY_A)])
        return dict(avg_pd=vals[0], avg_auc=vals[1], eff_rate=vals[2]), err
    raise ValueError(f"unknown kind {kind!r}")


def _draw(rng: np.random.Generator, lo, hi, how):
    if how == "int":
        return int(rng.integers(lo, hi))
    x = math.exp(rng.uniform(math.log(lo), math.log(hi))) if how == "log" \
        else rng.uniform(lo, hi)
    return float(f"{x:.4g}")


def _write(data: dict) -> None:
    """JSON with one slot per line."""
    meta = {k: v for k, v in data.items() if k != "workloads"}
    blocks = []
    for workload, slots in data["workloads"].items():
        body = ",\n  ".join(json.dumps(slot) for slot in slots)
        blocks.append(f" {json.dumps(workload)}: [\n  {body}\n ]")
    with open(OUT, "w") as fh:
        fh.write(json.dumps(meta)[:-1] + ', "workloads": {\n' + ",\n".join(blocks) + "\n}}\n")


def build() -> dict:
    rng = np.random.default_rng(GEN_SEED)
    out = {"generator": "python3 perfbench/refgen.py", "scipy": scipy.__version__,
           "variants": VARIANTS, "max_ref_err": MAX_REF_ERR, "workloads": {}}
    for workload, slots in SLOTS.items():
        entries = []
        for spec in slots:
            ranges = spec.get("ranges", {})
            n = VARIANTS if ranges else 1
            variants = []
            for _ in range(n):
                params = dict(spec["fixed"])
                for name, (lo, hi, how) in ranges.items():
                    params[name] = _draw(rng, lo, hi, how)
                t0 = time.perf_counter()
                ref, err = reference(spec["kind"], params)
                if err > MAX_REF_ERR:
                    raise SystemExit(f"{spec['slot']} {params}: reference error "
                                     f"{err:.2e} above {MAX_REF_ERR:g}")
                variants.append(dict(params=params, ref=ref, ref_err=err))
                print(f"{spec['slot']:36s} {time.perf_counter() - t0:7.2f}s "
                      f"err={err:.1e}", file=sys.stderr, flush=True)
            entries.append(dict(slot=spec["slot"], kind=spec["kind"],
                                fault=spec.get("fault", False), variants=variants))
        out["workloads"][workload] = entries
        _write(out)
    return out


def main() -> int:
    build()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
