"""Self-contained quadrature kernels used by the special-function layer.

``tanhsinh_01`` is a tanh-sinh rule on (0, 1) whose nodes never touch the
endpoints, so integrable algebraic endpoint singularities converge at
double-exponential rate (Takahasi & Mori 1974; Bailey, Jeyabalan & Li 2005).
Its integrand is called with a block index and reads the block's nodes and
weights from ``_ts_block``, tables built on first use and cached; levels
0..5 are block 0 and come in one integrand call, each deeper level in one
more.  A caller that bounds its integrand's density in u = ln(t/(1-t)) in
closed form passes a reach in u and a bound on what the nodes beyond it
add: the rule then sums only the nodes within the reach (``_ts_trim``),
checks that bound against the sum, and sums again on the full table where
that check fails.  ``ln_peak_integral`` runs it over the real
line, centred on a log-integrand's peak.  The Gauss-Kronrod
rule ``adaptive_gk`` has no caller left; the benchmark's spans still name it.
"""

from __future__ import annotations

import bisect
import heapq
import math
from types import SimpleNamespace
from typing import Callable

import numpy as np

from ._memo import memo
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
_TS_X_MAX = 6.0  # weights underflow well before this
# No node lies nearer 0 or 1 than e^-_TS_REACH (about e^-633.7), so mass that
# an integrand keeps closer to an end than that is cut short.
_TS_REACH = math.pi * math.sinh(_TS_X_MAX)


@memo(None)
def _ts_block(block: int) -> SimpleNamespace:
    """Node table of one block, built on first use and cached read-only, so
    importing the module builds none: the nodes ``t`` and weights ``w``,
    with what integrands take of them: ``omt`` = 1 - t (``t`` and ``omt``
    each accurate near its own endpoint), their logarithms ``ln_t`` and
    ``ln_omt``, the odds ``odds`` = t / (1 - t) and their logarithm
    ``logit``, and ``ln_w_logit`` = ln w - ln t - ln(1 - t), the log-weight
    of a rule in s = ln(t / (1 - t)).  ``starts`` indexes the first node of
    each level in the block.
    """
    us, ws, starts = [], [], []
    size = 0
    for level in _TS_BLOCKS[block]:
        h = 1.0 / 2 ** level
        if level == 0:
            ks = np.arange(0, int(_TS_X_MAX / h) + 1)
        else:
            ks = np.arange(1, int(_TS_X_MAX / h) + 1, 2)  # odd multiples only
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
    ln_t, ln_omt = -np.logaddexp(0.0, -u), -np.logaddexp(0.0, u)  # u = ln t - ln(1 - t)
    w = np.concatenate(ws)
    table = SimpleNamespace(t=1.0 / (1.0 + np.exp(-u)), omt=1.0 / (1.0 + np.exp(u)),
                            ln_t=ln_t, ln_omt=ln_omt, w=w, odds=np.exp(u), logit=u,
                            ln_w_logit=np.log(w) - ln_t - ln_omt, starts=np.array(starts))
    for arr in vars(table).values():
        arr.flags.writeable = False
    return table


# A reach keeps, on each side of u = 0, the nodes whose x = asinh(|u| / pi)
# lies within a whole number of quarters: at least 2, so that every level
# keeps a node, and _TS_QUARTERS, every node, where it reaches the last one.
# _TS_CUTS holds u = pi sinh(x) at each quarter.
_TS_QUARTERS = round(4 * _TS_X_MAX)
_TS_CUTS = tuple(math.pi * math.sinh(k / 4.0) for k in range(_TS_QUARTERS + 1))
# Trimmed node tables kept by _ts_trim.
_TS_TRIMS = 256


@memo(_TS_TRIMS)
def _ts_trim(block: int, lo: int, hi: int) -> SimpleNamespace:
    """``_ts_block(block)`` cut to the nodes with x = asinh(|u| / pi) at
    most lo / 4 left of u = 0 and hi / 4 right of it, with the same columns
    and ``starts``, read-only; the full table itself where neither side
    cuts.  Each level keeps a prefix of each side's nodes."""
    table = _ts_block(block)
    if lo >= _TS_QUARTERS and hi >= _TS_QUARTERS:
        return table
    # every node sits at a multiple of 2^-12 in x: none but those on a cut
    # lies within the margin
    edge = np.where(table.logit < 0.0, _TS_CUTS[lo], _TS_CUTS[hi])
    keep = np.abs(table.logit) <= edge * (1.0 + 1e-9)
    counts = np.add.reduceat(keep, table.starts, dtype=np.intp)
    trimmed = SimpleNamespace(**{name: arr[keep] for name, arr in vars(table).items()
                                 if name != "starts"})
    trimmed.starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    for arr in vars(trimmed).values():
        arr.flags.writeable = False
    return trimmed


def _ts_sum(f: Callable[..., np.ndarray], rel_tol: float, cut: tuple = ()) -> float:
    """The level-by-level sums of ``tanhsinh_01``, from ``f(block, *cut)``
    on the node tables ``_ts_trim(block, *cut)``, or ``_ts_block(block)``
    where there is no cut."""
    total = prev = 0.0
    for block, levels in enumerate(_TS_BLOCKS):
        starts = (_ts_trim(block, *cut) if cut else _ts_block(block)).starts
        sums = np.add.reduceat(f(block, *cut), starts).tolist()
        for level, contrib in zip(levels, sums):
            total = total / 2.0 + contrib if level > 0 else contrib
            if level >= 3 and abs(total - prev) <= rel_tol * abs(total):
                return total
            prev = total
    raise ConvergenceError("tanh-sinh rule did not settle within level budget")


def tanhsinh_01(f: Callable[..., np.ndarray], rel_tol: float = 1e-13,
                reach: tuple | None = None) -> float:
    """Tanh-sinh integral over (0, 1), from ``f(block)``, the weighted
    integrand values at the nodes of one block (``_ts_block(block)``).

    ``f`` reads the block's node columns, or a table of its own per block,
    so that endpoint-singular factors stay in log space on the caller's side
    and whatever does not change between calls is built once.  Levels 0..5
    (block 0) come in one call and each deeper level in one more; the level
    sums still enter ``T_k = T_(k-1)/2 + c_k`` one at a time, and the rule
    stops at the first level k >= 3 with ``|T_k - T_(k-1)| <= rel_tol |T_k|``,
    or raises ConvergenceError after level 12.

    A ``reach`` (left, right, dropped) comes from closed-form bounds on the
    integrand's density in u = ln(t/(1-t)), g(u) = f(t) t (1-t): the rule
    keeps the nodes with -left <= u <= right, each end snapped out to a whole
    quarter of x = asinh(|u| / pi) (at least half a unit, so that every level
    keeps a node), and calls ``f(block, lo, hi)`` for the table
    ``_ts_trim(block, lo, hi)`` of those nodes, lo and hi in quarters: the
    same levels and stopping rule on fewer nodes.  ``dropped`` must bound
    what the nodes beyond the reach add to the sum at any level from 3 on.
    After the sum the rule checks ``dropped <= rel_tol |S|``; where that
    fails, or the trimmed sum does not settle, it sums again on the full
    table with ``f(block)``.  Without a reach, or where both ends reach past
    the last node, it sums the full table.
    """
    if reach is not None:
        left, right, dropped = reach
        cut = (bisect.bisect_left(_TS_CUTS, left, 2, _TS_QUARTERS),
               bisect.bisect_left(_TS_CUTS, right, 2, _TS_QUARTERS))
        if cut != (_TS_QUARTERS, _TS_QUARTERS):
            try:
                total = _ts_sum(f, rel_tol, cut)
            except ConvergenceError:
                total = math.nan
            if dropped <= rel_tol * abs(total):  # NaN fails
                return total
    return _ts_sum(f, rel_tol)


def ln_peak_integral(ln_f: Callable[[np.ndarray], np.ndarray], s0: float) -> float:
    """ln of the integral over the real line of exp(ln_f(s)), to ``_REL_TOL``.

    The rule is tanh-sinh on s = s0 + ln(x / (1 - x)), s0 at or near the
    peak of the vectorized ``ln_f``, with ln_f(s0) factored out; the offsets
    ln(x / (1 - x)) and log-weights ln w - ln x - ln(1 - x) come from the
    node tables.  The nodes reach about 630 either side of s0, so a tail
    that falls more slowly than e^(-|s - s0| / 20) is cut short.
    """
    peak = float(ln_f(s0))

    def integrand(block):
        nodes = _ts_block(block)
        x = ln_f(s0 + nodes.logit)
        x += nodes.ln_w_logit
        x -= peak
        return np.exp(x, out=x)

    with np.errstate(over="ignore", under="ignore"):
        integral = tanhsinh_01(integrand, rel_tol=_REL_TOL)
    return peak + math.log(integral)
