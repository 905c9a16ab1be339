"""Tanh-sinh kernel: the blocked evaluation against a level-by-level loop,
its integrand-call counts, its failure path and its lazy node tables."""

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
    logarithms taken on every call: (integral, level at which it settled)."""
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


def _counted(f):
    sizes = []

    def g(*args):
        sizes.append(args[0].size)
        return f(*args)

    return g, sizes


def _captured_integrands(monkeypatch, run):
    """(integrand, rel_tol) of every tanh-sinh call that ``run`` makes."""
    seen = []
    real = _quad.tanhsinh_01

    def recording(f, rel_tol=1e-13):
        seen.append((f, rel_tol))
        return real(f, rel_tol)

    monkeypatch.setattr(specfun, "tanhsinh_01", recording)
    monkeypatch.setattr(capacity, "tanhsinh_01", recording)
    run()
    return seen


def _power(t, omt, ln_t, ln_omt, w):
    return w * np.exp(-0.9 * ln_t)


def test_power_singularity_matches_reference():
    got = _quad.tanhsinh_01(_power)
    want, _ = _level_by_level(_power)
    assert math.isclose(got, want, rel_tol=1e-14)
    assert math.isclose(got, 10.0, rel_tol=1e-12)


@pytest.mark.parametrize("z,settles_after_level_5", [(0.9, False), (1.0 - 1e-8, True)])
def test_euler_integrand_matches_reference(monkeypatch, z, settles_after_level_5):
    seen = _captured_integrands(monkeypatch, lambda: specfun.gauss_2f1(12.5, 2.5, 14.0, z))
    assert len(seen) == 1
    f, rel_tol = seen[0]
    want, level = _level_by_level(f, rel_tol)
    assert (level > 5) == settles_after_level_5
    assert math.isclose(_quad.tanhsinh_01(f, rel_tol), want, rel_tol=1e-14)


@pytest.mark.parametrize("kappa,mu,m,snr,a", [
    (2.0, 4, 2, 10.0, 1.0), (0.05, 12, 6, 0.1, 0.5), (4.0, 60, 30, 1000.0, 2.0)])
def test_mgf_integrand_matches_reference(monkeypatch, kappa, mu, m, snr, a):
    p = KappaMuShadowedParams(kappa, mu, m, snr)
    seen = _captured_integrands(monkeypatch, lambda: rate_moment_kms(p, DelayQoS(a)))
    assert len(seen) == 1
    f, rel_tol = seen[0]
    want, _ = _level_by_level(f, rel_tol)
    with np.errstate(over="ignore", under="ignore"):
        got = _quad.tanhsinh_01(f, rel_tol)
    assert math.isclose(got, want, rel_tol=1e-14)


def test_integrand_calls():
    # levels 0-5 (385 nodes) in one call, then one call per deeper level
    f, sizes = _counted(lambda t, omt, ln_t, ln_omt, w: w * t)
    assert _quad.tanhsinh_01(f) == pytest.approx(0.5, rel=1e-14)
    assert sizes == [385]

    f, sizes = _counted(_power)
    _quad.tanhsinh_01(f)
    assert sizes == [385]

    bm1, cbm1, a, z = 1.5, 10.5, 12.5, 1.0 - 1e-8  # Euler integrand of 2F1(12.5, 2.5; 14; z)
    f, sizes = _counted(lambda t, omt, ln_t, ln_omt, w: w * np.exp(
        bm1 * ln_t + cbm1 * ln_omt - a * np.log(omt + t * (1.0 - z))))
    _quad.tanhsinh_01(f)
    assert sizes == [385, 384, 768]


def test_divergent_integral_raises_after_level_12():
    f, sizes = _counted(lambda t, omt, ln_t, ln_omt, w: w / t)
    with pytest.raises(ConvergenceError):
        _quad.tanhsinh_01(f)
    assert len(sizes) == 1 + _quad._TS_MAX_LEVEL - 5
    assert sizes[-1] == 2 * sizes[-2]


def test_import_builds_no_node_table():
    env = dict(os.environ)
    src = str(Path(edsense.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = "import edsense; print(edsense._quad._ts_block.cache_info().currsize)"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    assert done.stdout.split() == ["0"]
