"""Tanh-sinh kernel: the blocked evaluation against a level-by-level loop,
its integrand-call counts, its failure path and its lazy node tables.

The kernel calls its integrand as f(block) on cached node tables; the
reference loop here builds its own nodes, level by level, and calls an
integrand written in the test as g(t, 1 - t, ln t, ln(1 - t), w)."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import edsense
from edsense import _quad, capacity, specfun
from edsense.capacity import DelayQoS, rate_moment_kms
from edsense.channels import FisherFParams, KappaMuShadowedParams
from edsense.errors import ConvergenceError


def _level_by_level(f, rel_tol=1e-13):
    """The tanh-sinh rule one level at a time, with nodes rebuilt and their
    logarithms taken on every call, of a node-vector integrand
    f(t, 1 - t, ln t, ln(1 - t), w): (integral, level at which it settled)."""
    total = prev = 0.0
    for level in range(_quad._TS_MAX_LEVEL + 1):
        h = 0.5 ** level
        if level == 0:
            ks = np.arange(0, 6 * 2 ** level + 1)
        else:
            ks = np.arange(1, 6 * 2 ** level + 1, 2)
        x = ks * h
        u = np.pi * np.sinh(x)
        w = h * np.pi * 0.25 * np.cosh(x) / np.cosh(u / 2.0) ** 2
        keep = w > 1e-300
        u, w = u[keep], w[keep]
        first = 1 if level == 0 else 0
        u = np.concatenate([u, -u[first:]])
        w = np.concatenate([w, w[first:]])
        t = 1.0 / (1.0 + np.exp(-u))
        omt = 1.0 / (1.0 + np.exp(u))
        contrib = float(np.sum(f(t, omt, np.log(t), np.log(omt), w)))
        total = total / 2.0 + contrib if level > 0 else contrib
        if level >= 3 and abs(total - prev) <= rel_tol * abs(total):
            return total, level
        prev = total
    raise ConvergenceError("reference rule did not settle")


def _on_blocks(g):
    """g(t, 1 - t, ln t, ln(1 - t), w) as a kernel integrand f(block, lo, hi)
    on the kernel's node tables, trimmed to a reach's cut (lo, hi) where the
    rule passes one, the full table by default."""
    def f(block, lo=_quad._TS_QUARTERS, hi=_quad._TS_QUARTERS):
        nodes = _quad._ts_trim(block, lo, hi)
        return g(nodes.t, nodes.omt, nodes.ln_t, nodes.ln_omt, nodes.w)

    return f


def _counted(f):
    sizes = []

    def g(block, *cut):
        out = f(block, *cut)
        sizes.append(out.size)
        return out

    return g, sizes


def _captured(monkeypatch, module, name):
    """A list that records the arguments, positional then keyword, of every
    later call to ``module.name``."""
    seen = []
    real = getattr(module, name)

    def recording(*args, **kwargs):
        seen.append(args + tuple(kwargs.values()))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, recording)
    return seen


def _power(t, omt, ln_t, ln_omt, w):
    return w * np.exp(-0.9 * ln_t)


def test_power_singularity_matches_reference():
    got = _quad.tanhsinh_01(_on_blocks(_power))
    want, _ = _level_by_level(_power)
    assert math.isclose(got, want, rel_tol=1e-14)
    assert math.isclose(got, 10.0, rel_tol=1e-12)


@pytest.mark.parametrize("z,settles_after_level_5", [(0.9, False), (1.0 - 1e-8, True)])
def test_euler_integrand_matches_reference(monkeypatch, z, settles_after_level_5):
    # the kernel's integrand reads the cached exponent tables; the reference
    # takes the Euler integrand t^(q-1) (1-t)^(c-q-1) (1-t+tw)^-p w^-min(0, c-p-q)
    # of 2F1(12.5, 2.5; 14; z) straight from the nodes
    seen = _captured(monkeypatch, specfun, "tanhsinh_01")
    specfun.gauss_2f1(12.5, 2.5, 14.0, z)
    assert len(seen) == 1
    f, rel_tol, reach = seen[0]
    p, q, _ = specfun._setup_2f1(12.5, 2.5, 14.0)[1]
    c, w = 14.0, 1.0 - z
    shift = min(0.0, c - p - q) * math.log(w)

    def euler(t, omt, ln_t, ln_omt, wt):
        return wt * np.exp((q - 1.0) * ln_t + (c - q - 1.0) * ln_omt
                           - p * np.log(omt + t * w) - shift)

    want, level = _level_by_level(euler, rel_tol)
    assert (level > 5) == settles_after_level_5
    assert math.isclose(_quad.tanhsinh_01(f, rel_tol, reach), want, rel_tol=1e-14)


@pytest.mark.parametrize("kappa,mu,m,snr,a", [
    (2.0, 4, 2, 10.0, 1.0), (0.05, 12, 6, 0.1, 0.5), (4.0, 60, 30, 1000.0, 2.0)])
def test_mgf_integrand_matches_reference(monkeypatch, kappa, mu, m, snr, a):
    # the kernel's integrand reads the cached offsets and log-weights; the
    # reference maps each node to s = s0 + ln t - ln(1 - t) itself
    p = KappaMuShadowedParams(kappa, mu, m, snr)
    peaks = _captured(monkeypatch, capacity, "ln_peak_integral")
    seen = _captured(monkeypatch, _quad, "tanhsinh_01")
    rate_moment_kms(p, DelayQoS(a))
    assert len(peaks) == 1 and len(seen) == 1
    ln_f, s0 = peaks[0]
    f, rel_tol = seen[0]
    peak = float(ln_f(s0))

    def shifted(t, omt, ln_t, ln_omt, w):
        return w * np.exp(ln_f(s0 + ln_t - ln_omt) - peak - ln_t - ln_omt)

    with np.errstate(over="ignore", under="ignore"):
        want, _ = _level_by_level(shifted, rel_tol)
        got = _quad.tanhsinh_01(f, rel_tol)
    assert math.isclose(got, want, rel_tol=1e-14)


def test_integrand_calls():
    # levels 0-5 (385 nodes) in one call, then one call per deeper level
    f, sizes = _counted(_on_blocks(lambda t, omt, ln_t, ln_omt, w: w * t))
    assert _quad.tanhsinh_01(f) == pytest.approx(0.5, rel=1e-14)
    assert sizes == [385]

    f, sizes = _counted(_on_blocks(_power))
    _quad.tanhsinh_01(f)
    assert sizes == [385]

    bm1, cbm1, a, z = 1.5, 10.5, 12.5, 1.0 - 1e-8  # Euler integrand of 2F1(12.5, 2.5; 14; z)
    f, sizes = _counted(_on_blocks(lambda t, omt, ln_t, ln_omt, w: w * np.exp(
        bm1 * ln_t + cbm1 * ln_omt - a * np.log(omt + t * (1.0 - z)))))
    _quad.tanhsinh_01(f)
    assert sizes == [385, 384, 768]


def test_divergent_integral_raises_after_level_12():
    f, sizes = _counted(_on_blocks(lambda t, omt, ln_t, ln_omt, w: w / t))
    with pytest.raises(ConvergenceError):
        _quad.tanhsinh_01(f)
    assert len(sizes) == 1 + _quad._TS_MAX_LEVEL - 5
    assert sizes[-1] == 2 * sizes[-2]


def test_import_builds_no_node_table():
    # neither the node tables nor any table derived from them (the trimmed
    # tables, the Euler integrand's exponents and its peak constants), nor the
    # detection memos, nor any other cache, is filled by the import
    env = dict(os.environ)
    src = str(Path(edsense.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    caches = ("_quad._ts_block", "_quad._ts_trim", "specfun._euler_base0", "specfun._euler_bounds",
              "detection._ln_nb_binom", "detection._roc_weights")
    probe = ("import edsense; print(" + ", ".join(
        f"edsense.{name}.cache_info().currsize" for name in caches)
        + ", sum(c.cache_info().currsize for c in edsense._memo.REGISTRY))")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    assert done.stdout.split() == ["0"] * (len(caches) + 1)


def _level_sums(f, rel_tol, cut=()):
    """The rule's T_k, level by level up to its stop, from f(block, *cut) on
    the tables it reads; (list of T_k, stop level)."""
    sums, total, prev = [], 0.0, 0.0
    for block, levels in enumerate(_quad._TS_BLOCKS):
        nodes = _quad._ts_trim(block, *cut) if cut else _quad._ts_block(block)
        for level, c in zip(levels, np.add.reduceat(f(block, *cut), nodes.starts).tolist()):
            total = total / 2.0 + c if level > 0 else c
            sums.append(total)
            if level >= 3 and abs(total - prev) <= rel_tol * abs(total):
                return sums, level
            prev = total
    raise ConvergenceError("did not settle")


def _euler_runs(monkeypatch, call):
    """Each Euler integral that ``call()`` evaluates, as (f, rel_tol, reach,
    cut), cut being the (lo, hi) that the rule passed to f."""
    seen = _captured(monkeypatch, specfun, "tanhsinh_01")
    call()
    runs = []
    for f, rel_tol, reach in seen:
        cuts = []

        def recording(block, *cut, f=f):
            cuts.append(cut)
            return f(block, *cut)

        _quad.tanhsinh_01(recording, rel_tol, reach)
        runs.append((f, rel_tol, reach, cuts[0]))
    return runs


def _trimmed_against_full(runs):
    """Check every run's trimmed sum against the full table's: within 1e-15
    relative where the stop level is the same; the full table's nodes beyond
    the reach within the reach's bound on them at every level; the full
    integral above the reach's lower bound.  Returns the count compared."""
    compared = 0
    for f, rel_tol, (left, right, dropped), cut in runs:
        assert cut == () or all(2 <= q <= _quad._TS_QUARTERS for q in cut)
        full, full_level = _level_sums(f, rel_tol)
        if cut == ():  # both ends past the last node: the full table
            continue
        trimmed, level = _level_sums(f, rel_tol, cut)
        assert _quad.tanhsinh_01(f, rel_tol, (left, right, dropped)) == trimmed[-1]
        for t_full, t_trim in zip(full[3:], trimmed[3:]):
            assert -1e-15 * t_full <= t_full - t_trim <= dropped + 1e-15 * t_full
        assert full[-1] >= 0.5 * dropped * math.exp(specfun._EULER_TRIM)
        if level == full_level:
            assert math.isclose(trimmed[-1], full[-1], rel_tol=1e-15, abs_tol=0.0)
            compared += 1
    return compared


@pytest.mark.parametrize("shape", [
    [(1.112, 3.029, 1.004), (1.113, 2.99, 1.738), (1.169, 2.994, 2.471), (1.254, 3.03, 1.604)],
    [(4.057, 1.468, 1.119), (4.055, 1.408, 0.7296), (3.827, 1.512, 1.202),
     (3.796, 1.523, 1.378)],
    [(2.5, 10.1, 1.528), (2.5, 9.208, 1.481), (2.5, 9.748, 1.499), (2.5, 9.129, 1.498)]],
    ids=["m1.2-ms3", "m4-ms1.5", "m2.5-ms10"])
def test_euler_reach_on_the_fisher_rate_sweeps(monkeypatch, shape):
    # the benchmark's Fisher rate sweeps, -10 to 30 dB in 0.1 dB steps, on
    # each of the four stored (m, m_s, A) of each shape
    def sweep():
        for m, ms, a in shape:
            for k in range(401):
                capacity.eff_rate_f(FisherFParams(m, ms, 10.0 ** (-1.0 + k / 100.0)),
                                    DelayQoS(a))

    runs = _euler_runs(monkeypatch, sweep)
    assert _trimmed_against_full(runs) >= 0.99 * len(runs) - 1


@pytest.mark.parametrize("z", [0.9, 1.0 - 1e-8])
def test_euler_reach_on_the_reference_cells(monkeypatch, z):
    runs = _euler_runs(monkeypatch, lambda: specfun.gauss_2f1(12.5, 2.5, 14.0, z))
    assert len(runs) == 1 and _trimmed_against_full(runs) == 1


_EDGE_ABC = [
    (2.5, 0.05, 3.0),     # b = q near 0.05: the left side falls slowly
    (0.05, 0.07, 3.0),    # a and b small, c-a-b near 3
    (2.5, 3.0, 3.05),     # c - q = 0.05: the right side falls slowly
    (12.5, 2.5, 14.0),    # c-a-b = -1
    (3.5, 6.0, 7.25),     # c-a-b = -2.25
    (1.5, 2.5, 7.0),      # c-a-b = 3
    (40.0, 30.0, 95.5),   # c-a-b = 25.5
    (1.5, 2.0, 3.5),      # c-a-b = 0
    (-1.5, 2.0, 4.0),     # a < 0
    (-7.25, 0.5, 1.25),   # a < 0, b small
]


@pytest.mark.parametrize("a,b,c", _EDGE_ABC)
def test_euler_reach_on_edge_cells(monkeypatch, a, b, c):
    ws = [0.5, 0.3, 0.1, 1e-2, 1e-4, 1e-8, 1e-16, 1e-30, 1e-60, 1e-100, 1e-150, 1e-200]

    def cells():
        for w in ws:
            try:
                specfun._euler_2f1(a, b, c, w, 0.0)
            except ConvergenceError:  # past the rule's reach: raises either way
                continue

    runs = _euler_runs(monkeypatch, cells)
    assert len(runs) >= 6
    assert _trimmed_against_full(runs) >= len([r for r in runs if r[3]]) - 1


def test_euler_reach_trims_most_of_block_0(monkeypatch):
    # 2F1(12.5, 2.5; 14; 0.9) settles in block 0 on at most 160 of its 385 nodes
    ((f, rel_tol, reach, _),) = _euler_runs(
        monkeypatch, lambda: specfun.gauss_2f1(12.5, 2.5, 14.0, 0.9))
    g, sizes = _counted(f)
    _quad.tanhsinh_01(g, rel_tol, reach)
    assert len(sizes) == 1 and sizes[0] <= 160


def test_failed_drop_check_takes_the_full_table():
    # 6 t (1-t) has density 6 t^2 (1-t)^2 in u, below 6 e^(-2|u|); with a
    # reach of 20 either side the trimmed sum settles, but a bound of 1e-6
    # on the dropped nodes (true, though loose) fails the check against
    # 1e-13 of the integral (1): the rule sums the full table, and returns
    # the full table's sum
    def g(t, omt, ln_t, ln_omt, w):
        return 6.0 * w * t * omt

    f, sizes = _counted(_on_blocks(g))
    got = _quad.tanhsinh_01(f, 1e-13, (20.0, 20.0, 1e-6))
    assert len(sizes) == 2 and sizes[0] < 385 and sizes[1] == 385
    assert got == _quad.tanhsinh_01(_on_blocks(g))
    # with a tight bound the same reach is kept
    f, sizes = _counted(_on_blocks(g))
    kept = _quad.tanhsinh_01(f, 1e-13, (20.0, 20.0, 6.0 * math.exp(-40.0)))
    assert len(sizes) == 1 and math.isclose(kept, got, rel_tol=1e-15)


def test_unsettled_trimmed_sum_takes_the_full_table():
    # t^-0.9 has density t^0.1 (1-t) in u: ln g <= 0.1 u left of 0.  Cut at
    # 5 either side, the trimmed sum does not settle within 12 levels; the
    # rule then sums the full table and returns its sum
    f, sizes = _counted(_on_blocks(_power))
    reach = (5.0, 5.0, math.exp(-0.5) / 0.1 + math.exp(-5.0))
    got = _quad.tanhsinh_01(f, 1e-13, reach)
    assert len(sizes) == 1 + _quad._TS_MAX_LEVEL - 5 + 1 and sizes[0] < 385
    assert sizes[-1] == 385
    assert got == _quad.tanhsinh_01(_on_blocks(_power))


def test_reach_past_the_last_node_takes_the_full_table():
    f, sizes = _counted(_on_blocks(_power))
    got = _quad.tanhsinh_01(f, 1e-13, (1e3, 1e3, 0.0))
    assert sizes == [385] and got == _quad.tanhsinh_01(_on_blocks(_power))


@pytest.mark.parametrize("block", [0, 1, 6])
@pytest.mark.parametrize("lo,hi", [(2, 2), (4, 13), (23, 5), (24, 3)])
def test_trimmed_tables(block, lo, hi):
    full, trim = _quad._ts_block(block), _quad._ts_trim(block, lo, hi)
    x = np.arcsinh(np.abs(full.logit) / np.pi)
    keep = np.where(full.logit < 0.0, x <= lo / 4.0 + 1e-9, x <= hi / 4.0 + 1e-9)
    for name, arr in vars(trim).items():
        assert not arr.flags.writeable
        if name != "starts":
            assert np.array_equal(arr, getattr(full, name)[keep])
    # each level keeps its nodes within the cut, in order, and at least one
    counts = np.add.reduceat(keep, full.starts, dtype=np.intp)
    assert counts.min() >= 1
    assert np.array_equal(trim.starts, np.concatenate(([0], np.cumsum(counts)[:-1])))
    assert _quad._ts_trim(block, 24, 24) is full


def test_euler_memos_are_read_only(monkeypatch):
    # the Euler exponents of block 0 are kept per (a, b, c) and cut
    ((_, _, _, cut),) = _euler_runs(monkeypatch, lambda: specfun.gauss_2f1(12.5, 2.5, 14.0, 0.9))
    p, q, _ = specfun._setup_2f1(12.5, 2.5, 14.0)[1]
    hits = specfun._euler_base0.cache_info().hits
    base = specfun._euler_base0(p, q, 14.0, *cut)
    assert specfun._euler_base0.cache_info().hits == hits + 1
    assert not base.flags.writeable
    with pytest.raises(ValueError):
        base[0] = 0.0
    assert base.size == _quad._ts_trim(0, *cut).t.size < 385
    assert isinstance(specfun._euler_bounds(p, q, 14.0), tuple)
