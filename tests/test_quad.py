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
from edsense.channels import KappaMuShadowedParams
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
    """g(t, 1 - t, ln t, ln(1 - t), w) as a kernel integrand f(block), on the
    kernel's node tables."""
    def f(block):
        nodes = _quad._ts_block(block)
        return g(nodes.t, nodes.omt, nodes.ln_t, nodes.ln_omt, nodes.w)

    return f


def _counted(f):
    sizes = []

    def g(block):
        out = f(block)
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
    f, rel_tol = seen[0]
    p, q, _ = specfun._setup_2f1(12.5, 2.5, 14.0)[1]
    c, w = 14.0, 1.0 - z
    shift = min(0.0, c - p - q) * math.log(w)

    def euler(t, omt, ln_t, ln_omt, wt):
        return wt * np.exp((q - 1.0) * ln_t + (c - q - 1.0) * ln_omt
                           - p * np.log(omt + t * w) - shift)

    want, level = _level_by_level(euler, rel_tol)
    assert (level > 5) == settles_after_level_5
    assert math.isclose(_quad.tanhsinh_01(f, rel_tol), want, rel_tol=1e-14)


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
    # neither the node tables nor any table derived from them (the Euler
    # integrand's exponents), nor any other cache, is filled by the import
    env = dict(os.environ)
    src = str(Path(edsense.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = ("import edsense; print(edsense._quad._ts_block.cache_info().currsize,"
             " edsense.specfun._euler_base0.cache_info().currsize,"
             " sum(c.cache_info().currsize for c in edsense._memo.REGISTRY))")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    assert done.stdout.split() == ["0", "0", "0"]
