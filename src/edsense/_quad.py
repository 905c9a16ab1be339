"""Self-contained quadrature kernels used by the special-function layer.

Two schemes cover everything the closed forms need:

* an adaptive Gauss-Kronrod (G7/K15) integrator for smooth integrands on a
  finite interval, robust to sharp interior peaks, and
* a tanh-sinh rule on (0, 1) whose nodes never touch the endpoints, so
  integrable algebraic endpoint singularities converge at double-exponential
  rate.
"""

from __future__ import annotations

import heapq
from typing import Callable

import numpy as np

from .errors import ConvergenceError

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


# Tanh-sinh node tables for (0, 1), built once.  For node k at level h the
# transform is t = 1/(1 + exp(-pi*sinh(kh))); the logistic argument is kept so
# integrands can reconstruct both t and 1-t without cancellation.
_TS_MAX_LEVEL = 12


def _ts_table():
    levels = []
    x_max = 6.0  # weights underflow well before this
    for level in range(_TS_MAX_LEVEL + 1):
        h = 1.0 / 2 ** level
        if level == 0:
            ks = np.arange(0, int(x_max / h) + 1)
        else:
            ks = np.arange(1, int(x_max / h) + 1, 2)  # odd multiples only
        x = ks * h
        u = np.pi * np.sinh(x)
        w = h * np.pi * 0.25 * np.cosh(x) / np.cosh(u / 2.0) ** 2
        keep = w > 1e-300
        levels.append((u[keep], w[keep]))
    return levels


_TS_LEVELS = _ts_table()


def tanhsinh_01(f: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
                rel_tol: float = 1e-13) -> float:
    """Tanh-sinh integral over (0, 1) of ``f(t, 1 - t, weight)`` summed.

    ``f`` receives node vectors ``t`` and ``1 - t`` (each accurate near its
    own endpoint) plus the quadrature weights, and must return the weighted
    integrand values; this keeps endpoint-singular factors in log space on
    the caller's side.
    """
    total = 0.0
    prev = np.inf
    for level, (u, w) in enumerate(_TS_LEVELS):
        if level == 0:
            up = np.concatenate([u, -u[1:]])
            wp = np.concatenate([w, w[1:]])
        else:
            up = np.concatenate([u, -u])
            wp = np.concatenate([w, w])
        t = 1.0 / (1.0 + np.exp(-up))
        onemt = 1.0 / (1.0 + np.exp(up))
        contrib = float(np.sum(f(t, onemt, wp)))
        total = total / 2.0 + contrib if level > 0 else contrib
        if level >= 3 and abs(total - prev) <= rel_tol * abs(total):
            return total
        prev = total
    raise ConvergenceError("tanh-sinh rule did not settle within level budget")
