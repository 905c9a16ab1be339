"""Benchmark of edsense: one workload, from one seed, timed from outside.

    python3 perfbench/run.py --workload croc --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; edsense is imported from ``src/``.  The
workload's operations come from ``perfbench/refs.json`` (written by
``perfbench/refgen.py`` with scipy alone): every slot holds a few stored
cells with their references, and the seed picks one cell per slot.  A run
repeats whole rounds of the same operations, one at a time in this process
(``cli``: one child process at a time), at least ``MIN_ROUNDS`` times and
then until the next round would end past ``--seconds``.  Before each round
one fresh interpreter imports edsense and makes a first call (``setup_s``).
Every output is checked against its reference and the properties listed in
the README; an operation that raises or misses a check counts as failed.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs exactly one round with every traced
edsense function wrapped in a span recorder and reports the per-layer
metrics, writing the spans to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
REFS = os.path.join(HERE, "refs.json")
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("croc", "sweeps", "cli", "verify")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# The program's stated tolerance: 1e-7 absolute on probabilities, rate
# moments and CDF values; the Fisher detection series adds the certified
# truncation bound, which is at most its ``tol`` (1e-8 in every call here).
ABS_TOL = 1e-7
SERIES_TOL = 1e-8
PDF_REL_TOL = 1e-7
MONOTONE_SLACK = 1e-12
MC_SIGMA = 5.0
MIN_ROUNDS = 3
# Machine speed: a fixed calibration loop is timed before and after every
# operation, and every CAL_PERIOD_S during an in-process one; each time is
# scaled to the speed at which the loop takes CAL_REF_S (about the VM of the
# README's figures at its fast level).  Each workload uses the loop that
# followed its operations most closely there: numpy work on 15-point panels
# for croc and sweeps, which spend their time in edsense's small-array
# kernels; scalar ``math`` calls for verify (10^6-element numpy and scipy
# calls) and cli (interpreter start-up).
CAL_LOOP = {"croc": "panels", "sweeps": "panels", "cli": "scalar", "verify": "scalar"}
CAL_REF_S = {"panels": 2.6e-3, "scalar": 2.5e-3}
CAL_PERIOD_S = 0.25
SETUP_SNIPPET = (
    "import edsense as e\n"
    "e.avg_pd_kms(e.KappaMuShadowedParams(2.0, 3, 2, 10.0), e.DetectorConfig(2, 9.0))\n"
)
VERIFY_METRICS = {"kms": ("avg_pd_kms", "avg_auc_kms", "eff_rate_kms"),
                  "f": ("avg_pd_f", "avg_auc_f", "eff_rate_f")}


class HarnessError(RuntimeError):
    """The benchmark itself cannot run here (no checkout, no references)."""


@dataclass
class Op:
    """One operation: ``execute`` is timed, ``check`` is not.  ``check``
    returns None when the output passes, else the reason it fails."""

    slot: str
    fault: bool
    execute: Callable[[], object]
    check: Callable[[object], str | None]


# ------------------------------------------------------------------ set-up

def checkout_root() -> str:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "edsense", "__init__.py")):
        raise HarnessError(f"no edsense sources under {root}/src; run from a checkout root")
    if not os.path.isfile(REFS):
        raise HarnessError(f"missing {REFS}; run perfbench/refgen.py")
    return root


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def pin_to_one_cpu() -> None:
    """Run this process, and the children it starts, on one CPU, the one
    whose speed the calibration loop measures."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def load_edsense(root: str):
    """Import edsense from the checkout, with numpy and scipy on one thread."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import edsense
    if not os.path.abspath(edsense.__file__).startswith(src + os.sep):
        raise HarnessError(f"edsense imported from {edsense.__file__}, not {src}")
    return edsense


def measure_setup(root: str) -> float:
    """Wall time of a fresh interpreter importing edsense and finishing a
    first call."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=root,
                          env=child_env(root), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise HarnessError(f"set-up call failed: {proc.stderr.decode()[-400:]}")
    return elapsed


# ------------------------------------------------------------ machine speed

class Speed:
    """Scales measured times to the reference speed.

    The single-core speed of a shared VM can change twofold within seconds
    (another tenant on the same core), and a time measured at either speed is
    equally true.  ``mark`` takes a calibration sample before a measured
    interval and ``scale`` one after it; with ``periodic``, a timer signal also
    samples every CAL_PERIOD_S inside the interval, and the time those samples
    took is taken out of it.  The interval is scaled by the loop's CAL_REF_S
    over the mean of its samples.  The timer stays off around child processes,
    which run on the same CPU and would share it with the samples."""

    def __init__(self, loop: str, periodic: bool):
        import numpy as np  # after load_edsense has set numpy to one thread

        self._np = np
        self._nodes = np.linspace(-1.0, 1.0, 15)
        self._weights = np.linspace(0.01, 0.2, 15)
        self.calibration_loop = {"panels": self.panels_loop,
                                 "scalar": self.scalar_loop}[loop]
        self.ref_s = CAL_REF_S[loop]
        self.periodic = periodic
        self.loops: list[float] = []
        self.in_timer = 0.0
        self.log: list[tuple[float, float]] = []
        self._busy = False

    def panels_loop(self) -> float:
        """Seconds taken by numpy arithmetic on 15-point panels, as in
        edsense's Gauss-Kronrod rule."""
        np, nodes, weights = self._np, self._nodes, self._weights
        t0 = time.perf_counter()
        s = 0.0
        for i in range(1, 700):
            x = (0.5 + i * 1e-3) + 0.25 * nodes
            s += float(np.dot(weights, np.exp(-x) * x))
        return time.perf_counter() - t0

    @staticmethod
    def scalar_loop() -> float:
        """Seconds taken by float arithmetic and scalar ``math`` calls."""
        t0 = time.perf_counter()
        s = 0.0
        for i in range(1, 10000):
            x = i * 1e-3
            s += math.lgamma(x + 1.0) * math.exp(-x) + x * x / (1.0 + x)
        return time.perf_counter() - t0

    def _sample(self) -> float:
        self._busy = True
        try:
            self.loops.append(self.calibration_loop())
        finally:
            self._busy = False
        return self.loops[-1]

    def _on_timer(self, signum, frame) -> None:
        if not self._busy:
            self.in_timer += self._sample()

    def mark(self) -> tuple[int, float]:
        self._sample()
        return len(self.loops) - 1, self.in_timer

    @contextlib.contextmanager
    def sampling(self):
        if not self.periodic:
            yield
            return
        old = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old)

    def scale(self, seconds: float, mark: tuple[int, float]) -> float:
        first, in_timer = mark
        seconds -= self.in_timer - in_timer
        self._sample()
        factor = self.ref_s / statistics.fmean(self.loops[first:])
        self.log.append((seconds, factor))
        return seconds * factor


# ------------------------------------------------------------------ checks

def _db(x: float) -> float:
    return 10.0 ** (x / 10.0)


def _close(got, want, tol: float, what: str) -> str | None:
    if len(got) != len(want):
        return f"{what}: {len(got)} values, expected {len(want)}"
    for i, (g, w) in enumerate(zip(got, want)):
        if not abs(g - w) <= tol:
            return f"{what}[{i}] = {g!r}, reference {w!r} (tolerance {tol:g})"
    return None


def _close_rel(got, want, rel: float, what: str) -> str | None:
    for i, (g, w) in enumerate(zip(got, want)):
        if not abs(g - w) <= rel * abs(w) + 1e-300:
            return f"{what}[{i}] = {g!r}, reference {w!r} (relative tolerance {rel:g})"
    return None


def _nondecreasing(vals, what: str) -> str | None:
    """Nondecreasing up to MONOTONE_SLACK, the rounding of values near 1."""
    for i in range(1, len(vals)):
        if vals[i] < vals[i - 1] - MONOTONE_SLACK:
            return f"{what} decreases at {i}: {vals[i - 1]!r} -> {vals[i]!r}"
    return None


def _first(*reasons) -> str | None:
    return next((r for r in reasons if r is not None), None)


def check_croc(pd, ref, tol) -> str | None:
    pf = ref["pf"]
    bad = next((i for i, (f, d) in enumerate(zip(pf, pd)) if not d >= f), None)
    return _first(_close(pd, ref["pd"], tol, "P_d"),
                  None if bad is None else f"P_d[{bad}] = {pd[bad]!r} below P_f = {pf[bad]!r}",
                  _nondecreasing(pd, "P_d along the CROC curve"))


def check_auc(auc, ref) -> str | None:
    bad = next((i for i, a in enumerate(auc) if not 0.5 <= a <= 1.0), None)
    return _first(_close(auc, ref["auc"], ABS_TOL, "AUC"),
                  None if bad is None else f"AUC[{bad}] = {auc[bad]!r} outside [1/2, 1]",
                  _nondecreasing(auc, "AUC over SNR"))


def check_rate(rates, ref, a: float, mean_snr: Callable[[float], float]) -> str | None:
    moments = [2.0 ** (-a * r) for r in rates]
    for db, r in zip(ref["snr_db"], rates):
        cap = math.log2(1.0 + mean_snr(_db(db)))
        if not 0.0 < r <= cap * (1.0 + 1e-12):
            return f"rate {r!r} at {db} dB outside (0, log2(1 + E[gamma]) = {cap!r}]"
    return _first(_close(moments, ref["moment"], ABS_TOL, "rate moment"),
                  _nondecreasing(rates, "rate over SNR"))


def check_table(out, ref) -> str | None:
    pdf, cdf = [p for p, _ in out], [c for _, c in out]
    bad = next((i for i, c in enumerate(cdf) if not 0.0 <= c <= 1.0), None)
    return _first(_close_rel(pdf, ref["pdf"], PDF_REL_TOL, "pdf"),
                  _close(cdf, ref["cdf"], ABS_TOL, "CDF"),
                  None if bad is None else f"CDF[{bad}] = {cdf[bad]!r} outside [0, 1]",
                  _nondecreasing(cdf, "CDF"))


# ------------------------------------------------------- in-process operations

def _kms(ed, p, mean):
    return ed.KappaMuShadowedParams(kappa=p["kappa"], mu=p["mu"], m=p["m"], mean_snr=mean)


def _fisher(ed, p, mean):
    return ed.FisherFParams(m=p["m"], m_s=p["ms"], mean_snr=mean)


def _fisher_mean(p):
    """E[gamma] as a function of mean_snr; every Fisher rate cell has m_s > 1."""
    return lambda mean: mean * p["ms"] / (p["ms"] - 1.0)


def inprocess_ops(ed, slot: dict, p: dict, ref: dict) -> list[Op]:
    kind, name, fault = slot["kind"], slot["slot"], slot["fault"]

    def op(execute, check):
        return Op(name, fault, execute, check)

    if kind in ("croc_kms", "croc_f"):
        chan = (_kms if kind == "croc_kms" else _fisher)(ed, p, _db(p["snr_db"]))
        tol = ABS_TOL if kind == "croc_kms" else ABS_TOL + SERIES_TOL
        return [op(lambda: [pt.pd for pt in ed.croc_curve(chan, p["u"], p["pf"],
                                                          tol=SERIES_TOL)],
                   lambda pd: check_croc(pd, ref, tol))]
    # Functions are looked up on ``ed`` when the operation runs, so that the
    # traced run's wrappers are the ones called.
    if kind in ("auc_kms", "auc_f"):
        make = _kms if kind == "auc_kms" else _fisher
        chans = [make(ed, p, _db(db)) for db in p["snr_db"]]
        det = ed.DetectorConfig(u=p["u"], lam=0.0)

        def auc():
            fn = getattr(ed, "avg_" + kind)
            return [fn(c, det) for c in chans]

        return [op(auc, lambda out: check_auc(out, ref))]
    if kind in ("rate_kms", "rate_f"):
        make, mean = ((_kms, lambda s: s) if kind == "rate_kms"
                      else (_fisher, _fisher_mean(p)))
        chans = [make(ed, p, _db(db)) for db in p["snr_db"]]
        qos = ed.DelayQoS(p["a"])

        def rate():
            fn = getattr(ed, "eff_" + kind)
            return [fn(c, qos) for c in chans]

        return [op(rate, lambda out: check_rate(out, ref, p["a"], mean))]
    if kind in ("table_kms", "table_f"):
        chan_kind = kind.split("_")[1]
        chan = (_kms if chan_kind == "kms" else _fisher)(ed, p, _db(p["snr_db"]))

        def table():
            pdf, cdf = getattr(ed, chan_kind + "_pdf"), getattr(ed, chan_kind + "_cdf")
            return [(float(pdf(chan, g)), float(cdf(chan, g))) for g in ref["gamma"]]

        return [op(table, lambda out: check_table(out, ref))]
    if kind in ("verify_kms", "verify_f"):
        chan_kind = kind.split("_")[1]
        chan = (_kms if chan_kind == "kms" else _fisher)(ed, p, _db(p["snr_db"]))
        det = ed.DetectorConfig(u=2, lam=ed.threshold_for_pf(2, 0.1))
        qos = ed.DelayQoS(1.0)
        ops = []
        for i, metric in enumerate(VERIFY_METRICS[chan_kind]):
            mc = ed.MonteCarloSpec(seed=p["mc_seed"] + i, n_samples=10**6)
            want = ref[metric.rsplit("_", 1)[0]]
            tol = ABS_TOL + (SERIES_TOL if metric == "avg_pd_f" else 0.0)

            def execute(metric=metric, mc=mc):
                return ed.verify_closed_form(metric, chan, detector=det, qos=qos,
                                             mc_spec=mc, series_tol=SERIES_TOL)

            def check(rec, want=want, tol=tol):
                return check_verify(rec, want, tol)

            ops.append(op(execute, check))
        return ops
    raise HarnessError(f"unknown in-process kind {kind!r}")


def check_verify(rec, want: float, tol: float) -> str | None:
    if not rec.passed:
        return f"verify reports FAIL: {rec.line()}"
    if not abs(rec.closed_form - want) <= tol:
        return f"closed form {rec.closed_form!r}, reference {want!r}"
    if not abs(rec.quad_value - want) <= ABS_TOL + rec.quad_error:
        return f"quadrature {rec.quad_value!r}, reference {want!r}"
    if not abs(rec.mc_mean - want) <= MC_SIGMA * rec.mc_std_error + SERIES_TOL:
        return f"Monte Carlo {rec.mc_mean!r} +- {rec.mc_std_error:.1e}, reference {want!r}"
    return None


# -------------------------------------------------------------- CLI operations

@dataclass
class CliResult:
    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    maxrss_kb: int


def run_cli(root: str, args: list[str], tag: str, importtime: bool) -> CliResult:
    """One ``python -m edsense.cli`` process; its peak memory comes from wait4."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) \
        + ["-m", "edsense.cli"] + args
    out_path = os.path.join(OUT_DIR, f"{tag}.stdout")
    err_path = os.path.join(OUT_DIR, f"{tag}.stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=child_env(root), stdout=out,
                                stderr=err, stdin=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    return CliResult(proc.returncode, stdout, stderr, wall, usage.ru_maxrss)


def _csv_columns(text: str, header: str) -> list[list[float]] | str:
    lines = text.split("\n")
    if len(lines) < 3 or not lines[0].startswith("# edsense") or lines[1] != header \
            or lines[-1] != "":
        return f"unexpected CSV layout: {text[:200]!r}"
    rows = [[float(x) for x in line.split(",")] for line in lines[2:-1]]
    return [list(col) for col in zip(*rows)]


def check_cli(kind: str, p: dict, ref: dict, res: CliResult) -> str | None:
    if res.code != 0:
        return f"exit code {res.code}: {res.stderr.decode(errors='replace')[-300:]}"
    header = {"cli_croc": "pf,pmd", "cli_auc": "snr_db,comp_auc",
              "cli_effrate": "snr_db,eff_rate_bits", "cli_pdf": "gamma,pdf,cdf"}[kind]
    cols = _csv_columns(res.stdout.decode(), header)
    if isinstance(cols, str):
        return cols
    # the CSV keeps ten significant digits
    if kind == "cli_croc":
        pd = [1.0 - x for x in cols[1]]
        return _first(_close_rel(cols[0], ref["pf"], 1e-9, "pf"),
                      check_croc(pd, ref, ABS_TOL + 1e-9))
    if kind == "cli_auc":
        return _first(_close(cols[0], ref["snr_db"], 1e-9, "snr_db"),
                      check_auc([1.0 - x for x in cols[1]], ref))
    if kind == "cli_effrate":
        return _first(_close(cols[0], ref["snr_db"], 1e-9, "snr_db"),
                      check_rate(cols[1], ref, p["a"], lambda s: s))
    return _first(_close(cols[0], ref["gamma"], 1e-9 * ref["gamma"][-1], "gamma"),
                  check_table(list(zip(cols[1], cols[2])), ref))


def cli_args(kind: str, p: dict) -> tuple[list[str], dict | None]:
    """Arguments of one CLI call, plus the --json payload if it takes one."""
    if kind == "cli_croc":
        return (["croc", "--channel", "kms", "--kappa", repr(p["kappa"]), "--mu", str(p["mu"]),
                 "--m", str(p["m"]), f"--snr-db={p['snr_db']!r}", "--u", str(p["u"]),
                 "--pf-points", str(p["pf_points"])], None)
    if kind == "cli_auc":
        return (["auc", "--channel", "fisher", "--m", repr(p["m"]), "--ms", repr(p["ms"]),
                 f"--snr-db={p['snr_range']}", "--u", str(p["u"])], None)
    if kind == "cli_effrate":
        return ([], dict(channel="kms", kappa=p["kappa"], mu=p["mu"], m=p["m"],
                         snr_db=p["snr_range"], a=p["a"]))
    if kind == "cli_pdf":
        return (["pdf", "--channel", "fisher", "--m", repr(p["m"]), "--ms", repr(p["ms"]),
                 f"--snr-db={p['snr_db']!r}", "--points", str(p["points"])], None)
    raise HarnessError(f"unknown CLI kind {kind!r}")


class CliSlot:
    """A CLI command run once per round; every output after the first must be
    byte-identical to the first."""

    def __init__(self, root: str, slot: dict, p: dict, ref: dict):
        self.root, self.slot, self.p, self.ref = root, slot, p, ref
        self.args, payload = cli_args(slot["kind"], p)
        if payload is not None:
            rel = os.path.relpath(os.path.join(OUT_DIR, f"{slot['slot']}.json"), root)
            with open(os.path.join(root, rel), "w") as fh:
                json.dump(payload, fh, sort_keys=True)
            self.args = ["effrate", "--json", rel]
        self.importtime = False
        self.results: list[CliResult] = []
        self.first: bytes | None = None

    def execute(self) -> CliResult:
        res = run_cli(self.root, self.args, self.slot["slot"], self.importtime)
        self.results.append(res)
        return res

    def check(self, res: CliResult) -> str | None:
        reason = check_cli(self.slot["kind"], self.p, self.ref, res)
        if self.first is None:
            self.first = res.stdout
        elif reason is None and res.stdout != self.first:
            reason = "repeated CLI output differs"
        return reason

    def op(self) -> Op:
        return Op(self.slot["slot"], self.slot["fault"], self.execute, self.check)


# ---------------------------------------------------------------------- runs

def pick_variants(workload: str, seed: int, variant: int | None) -> list[tuple[dict, dict]]:
    with open(REFS) as fh:
        slots = json.load(fh)["workloads"][workload]
    rng = random.Random(seed)
    picked = []
    for slot in slots:
        n = len(slot["variants"])
        idx = rng.randrange(n) if variant is None else variant % n
        picked.append((slot, slot["variants"][idx]))
    return picked


def build_ops(ed, root: str, workload: str, picked) -> tuple[list[Op], list[CliSlot]]:
    ops, cli_slots = [], []
    for slot, var in picked:
        if workload == "cli":
            cs = CliSlot(root, slot, var["params"], var["ref"])
            cli_slots.append(cs)
            ops.append(cs.op())
        else:
            ops += inprocess_ops(ed, slot, var["params"], var["ref"])
    return ops, cli_slots


def run_round(ops: list[Op], tracer=None, speed: Speed | None = None):
    """Run every operation once, in order.  Returns (durations, failures),
    failures being (op, reason) pairs; an exception inside an operation is a
    failure of that operation and the round carries on.  With ``speed`` the
    durations are scaled to the reference speed."""
    durations, failures = [], []
    for k, op in enumerate(ops):
        reason = None
        mark = speed.mark() if speed is not None else None
        with tracer.operation(k) if tracer is not None else contextlib.nullcontext(), \
                speed.sampling() if speed is not None else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                out = op.execute()
            except Exception as exc:  # the operation failed; record it and go on
                reason = f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
        durations.append(elapsed if speed is None else speed.scale(elapsed, mark))
        if reason is None:
            reason = op.check(out)
        if reason is not None:
            failures.append((op, reason))
    return durations, failures


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _importtime_ms(stderr: bytes, module: str) -> float:
    """Cumulative import time of ``module`` from ``-X importtime`` output."""
    for line in stderr.decode(errors="replace").splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1]) / 1e3
    raise HarnessError(f"no import time recorded for {module}")


def timed_run(root: str, workload: str, ops, cli_slots, seconds: float, dump: str):
    """Whole rounds, each after one set-up sample, for at least MIN_ROUNDS
    rounds and then while the next would end within ``seconds``.  Every time
    is scaled to the reference speed; an operation's time is its median over
    the rounds."""
    speed = Speed(CAL_LOOP[workload], periodic=not cli_slots)
    setup, rounds, per_round, failures = [], [], [], []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        mark = speed.mark()
        setup.append(speed.scale(measure_setup(root), mark))
        d, f = run_round(ops, speed=speed)
        rounds.append(time.perf_counter() - t0)
        per_round.append(d)
        failures += f
        elapsed = time.perf_counter() - t_start
        if len(rounds) >= MIN_ROUNDS and elapsed + rounds[-1] > seconds:
            break
    if cli_slots:
        rss_kb = max(res.maxrss_kb for cs in cli_slots for res in cs.results)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    per_op = [statistics.median(times) for times in zip(*per_round)]
    with open(dump, "w") as fh:
        json.dump(dict(setup_s=setup, rounds_s=rounds, ops=[op.slot for op in ops],
                       op_s=per_round, raw_s_and_factor=speed.log), fh)
    metrics = {
        "setup_s": _metric(statistics.median(setup), "s"),
        "wall_s": _metric(math.fsum(per_op), "s"),
        "op_p50_ms": _metric(statistics.median(per_op) * 1e3, "ms"),
        "peak_rss_mb": _metric(rss_kb / 1024.0, "MB"),
    }
    return len(ops) * len(rounds), failures, metrics


def traced_run(workload: str, seed: int, ops, cli_slots):
    from spans import TERMS_METRIC, TRACED, Tracer

    tracer = Tracer()
    for cs in cli_slots:
        cs.importtime = True
    tracer.install()
    try:
        durations, failures = run_round(ops, tracer, Speed(CAL_LOOP[workload], periodic=False))
    finally:
        tracer.uninstall()
    tracer.save(os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.npz"))
    layer = tracer.layer_metrics()
    metrics = {}
    for prefix, _, _ in TRACED:
        metrics[f"{prefix}.calls"] = _metric(layer[f"{prefix}.calls"], "count")
        metrics[f"{prefix}.self_ms"] = _metric(layer[f"{prefix}.self_ms"], "ms")
    metrics[TERMS_METRIC] = _metric(layer[TERMS_METRIC], "count")
    results = [res for cs in cli_slots for res in cs.results]
    imp = [_importtime_ms(r.stderr, "edsense") for r in results]
    imp_oracle = [_importtime_ms(r.stderr, "edsense.oracle") for r in results]
    run_ms = [r.wall_s * 1e3 - i for r, i in zip(results, imp)]
    for name, vals in (("cli.import_ms", imp), ("cli.import_oracle_ms", imp_oracle),
                       ("cli.run_ms", run_ms)):
        metrics[name] = _metric(statistics.median(vals) if vals else 0.0, "ms")
    metrics["trace.wall_s"] = _metric(math.fsum(durations), "s")
    return len(durations), failures, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--variant", type=int,
                        help="use stored variant N of every slot instead of "
                             "drawing from the seed (health checks)")
    args = parser.parse_args(argv)
    try:
        root = checkout_root()
        pin_to_one_cpu()
        os.makedirs(OUT_DIR, exist_ok=True)
        ed = load_edsense(root)
        picked = pick_variants(args.workload, args.seed, args.variant)
        ops, cli_slots = build_ops(ed, root, args.workload, picked)
        if args.trace:
            attempted, failures, metrics = traced_run(args.workload, args.seed, ops, cli_slots)
        else:
            attempted, failures, metrics = timed_run(
                root, args.workload, ops, cli_slots, args.seconds,
                os.path.join(OUT_DIR, f"timings-{args.workload}-seed{args.seed}.json"))
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    seen = set()
    for op, reason in failures:
        if op.slot not in seen:
            seen.add(op.slot)
            tag = "named fault" if op.fault else "UNEXPECTED"
            print(f"failed [{tag}] {op.slot}: {reason}", file=sys.stderr)
    result = {"correct": all(op.fault for op, _ in failures),
              "attempted": attempted, "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
