"""Self-contained quadrature kernels used by the special-function layer.

``tanhsinh_01`` is a tanh-sinh rule on (0, 1) whose nodes never touch the
endpoints, so integrable algebraic endpoint singularities converge at
double-exponential rate (Takahasi & Mori 1974; Bailey, Jeyabalan & Li 2005).
Its integrand gets each node as t, 1 - t, ln t and ln(1 - t) with its weight,
from tables built on first use and cached; levels 0..5 are evaluated in one
integrand call and each deeper level in one more.  ``ln_peak_integral`` runs
it over the real line, centred on a log-integrand's peak.  The Gauss-Kronrod
rule ``adaptive_gk`` has no caller left; the benchmark's spans still name it.
"""

from __future__ import annotations

import functools
import heapq
import math
from typing import Callable

import numpy as np

from .errors import ConvergenceError

# Relative tolerance of the special functions (absolute for probabilities).
_REL_TOL = 1e-12

# 15-point Kronrod abscissae on [-1, 1] (positive half) and weights, with the
# embedded 7-point Gauss weights on the shared nodes.
_XK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
])
_WK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

_NODES = np.concatenate([-_XK[:-1], [0.0], _XK[-2::-1]])          # 15 ascending
_W_KRON = np.concatenate([_WK[:-1], [_WK[-1]], _WK[-2::-1]])
_W_GAUSS = np.zeros(15)
_W_GAUSS[1:-1:2] = np.concatenate([_WG[:-1], [_WG[-1]], _WG[-2::-1]])


def _gk_panel(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float):
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    fx = f(mid + half * _NODES)
    kron = half * float(np.dot(_W_KRON, fx))
    gauss = half * float(np.dot(_W_GAUSS, fx))
    return kron, abs(kron - gauss)


_GK_MAX_PANELS = 4000


def adaptive_gk(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
                rel_tol: float = 1e-12) -> float:
    """Integrate a vectorized integrand on [lo, hi] by adaptive bisection.

    Panels are refined worst-error first until the summed Kronrod/Gauss
    discrepancy drops below ``rel_tol * |integral|``.
    """
    if hi <= lo:
        return 0.0
    val, err = _gk_panel(f, lo, hi)
    heap = [(-err, lo, hi, val, err)]
    total, total_err = val, err
    panels = 1
    while total_err > rel_tol * abs(total):
        if panels >= _GK_MAX_PANELS:
            raise ConvergenceError(
                f"adaptive quadrature stalled at {panels} panels "
                f"(error estimate {total_err:.3e})")
        neg_err, a, b, v, e = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        v1, e1 = _gk_panel(f, a, mid)
        v2, e2 = _gk_panel(f, mid, b)
        total += v1 + v2 - v
        total_err += e1 + e2 - e
        heapq.heappush(heap, (-e1, a, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, b, v2, e2))
        panels += 1
    return total


# Tanh-sinh rule on (0, 1).  Node k at level h sits at t = 1/(1 + exp(-u)),
# u = pi*sinh(kh); level 0 takes every k, deeper levels the odd multiples only,
# so each level halves the step of the ones before it.  Levels 0..5 (385
# nodes) form block 0 and are evaluated in one integrand call, because most
# integrals settle by level 5; each deeper level is a block of its own.
_TS_MAX_LEVEL = 12
_TS_BLOCKS = ((0, 1, 2, 3, 4, 5),) + tuple(
    (level,) for level in range(6, _TS_MAX_LEVEL + 1))


@functools.cache
def _ts_block(block: int):
    """Node table of one block: (t, 1 - t, ln t, ln(1 - t), w, starts).

    ``starts`` indexes the first node of each level in the block.  Tables
    are built on first use and cached read-only, so importing the module
    builds none.
    """
    us, ws, starts = [], [], []
    size = 0
    x_max = 6.0  # weights underflow well before this
    for level in _TS_BLOCKS[block]:
        h = 1.0 / 2 ** level
        if level == 0:
            ks = np.arange(0, int(x_max / h) + 1)
        else:
            ks = np.arange(1, int(x_max / h) + 1, 2)  # odd multiples only
        x = ks * h
        u = np.pi * np.sinh(x)
        w = h * np.pi * 0.25 * np.cosh(x) / np.cosh(u / 2.0) ** 2
        keep = w > 1e-300
        u, w = u[keep], w[keep]
        first = 1 if level == 0 else 0  # the level-0 centre node appears once
        starts.append(size)
        us += [u, -u[first:]]
        ws += [w, w[first:]]
        size += 2 * u.size - first
    u = np.concatenate(us)
    table = (1.0 / (1.0 + np.exp(-u)), 1.0 / (1.0 + np.exp(u)),
             -np.logaddexp(0.0, -u), -np.logaddexp(0.0, u),
             np.concatenate(ws), np.array(starts))
    for arr in table:
        arr.flags.writeable = False
    return table


def tanhsinh_01(f: Callable[..., np.ndarray], rel_tol: float = 1e-13) -> float:
    """Tanh-sinh integral over (0, 1) of ``f(t, 1 - t, ln t, ln(1 - t), w)`` summed.

    ``f`` receives the node vectors ``t`` and ``1 - t`` (each accurate near
    its own endpoint), their logarithms and the quadrature weights, and must
    return the weighted integrand values; this keeps endpoint-singular
    factors in log space on the caller's side.  Levels 0..5 come in one call
    and each deeper level in one more; the level sums still enter
    ``T_k = T_(k-1)/2 + c_k`` one at a time, and the rule stops at the first
    level k >= 3 with ``|T_k - T_(k-1)| <= rel_tol |T_k|``, or raises
    ConvergenceError after level 12.
    """
    total = prev = 0.0
    for block, levels in enumerate(_TS_BLOCKS):
        t, omt, ln_t, ln_omt, w, starts = _ts_block(block)
        sums = np.add.reduceat(f(t, omt, ln_t, ln_omt, w), starts).tolist()
        for level, contrib in zip(levels, sums):
            total = total / 2.0 + contrib if level > 0 else contrib
            if level >= 3 and abs(total - prev) <= rel_tol * abs(total):
                return total
            prev = total
    raise ConvergenceError("tanh-sinh rule did not settle within level budget")


def ln_peak_integral(ln_f: Callable[[np.ndarray], np.ndarray], s0: float) -> float:
    """ln of the integral over the real line of exp(ln_f(s)), to ``_REL_TOL``.

    The rule is tanh-sinh on s = s0 + ln(x / (1 - x)), s0 at or near the
    peak of the vectorized ``ln_f``, with ln_f(s0) factored out.  The nodes
    reach about 630 either side of s0, so a tail that falls more slowly
    than e^(-|s - s0| / 20) is cut short.
    """
    peak = float(ln_f(s0))

    def integrand(x, omx, ln_x, ln_omx, w):
        return w * np.exp(ln_f(s0 + ln_x - ln_omx) - peak - ln_x - ln_omx)

    with np.errstate(over="ignore", under="ignore"):
        integral = tanhsinh_01(integrand, rel_tol=_REL_TOL)
    return peak + math.log(integral)
