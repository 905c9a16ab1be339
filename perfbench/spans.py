"""Span recorder for the traced benchmark run.

Each traced public function of edsense is replaced, on every module that
looks its name up, by a wrapper that records one span: name, start, end,
parent span and operation id.  Spans stay in flat in-memory arrays and are
written out once, when the run ends.  Self time is a span's duration minus
the durations of its direct children (calls here are single-threaded and
properly nested, so children never overlap).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from array import array

import numpy as np

# (metric prefix, module, attribute).  The prefix is the module path inside
# edsense, without the leading underscore a metric name may not start with.
TRACED = (
    ("specfun.ln_tricomi_u", "edsense.specfun", "ln_tricomi_u"),
    ("specfun.reg_upper_gamma", "edsense.specfun", "reg_upper_gamma"),
    ("specfun.reg_lower_gamma", "edsense.specfun", "reg_lower_gamma"),
    ("specfun.reg_inc_beta", "edsense.specfun", "reg_inc_beta"),
    ("specfun.kummer_1f1", "edsense.specfun", "kummer_1f1"),
    ("specfun.marcum_q", "edsense.specfun", "marcum_q"),
    ("specfun.gauss_2f1", "edsense.specfun", "gauss_2f1"),
    ("quad.adaptive_gk", "edsense._quad", "adaptive_gk"),
    ("quad.tanhsinh_01", "edsense._quad", "tanhsinh_01"),
    ("channels.kms_pdf", "edsense.channels", "kms_pdf"),
    ("channels.kms_cdf", "edsense.channels", "kms_cdf"),
    ("channels.f_cdf", "edsense.channels", "f_cdf"),
    ("channels.kms_sample", "edsense.channels", "kms_sample"),
    ("channels.f_sample", "edsense.channels", "f_sample"),
    ("detection.avg_pd_f", "edsense.detection", "avg_pd_f"),
    ("detection.truncation_bound_f", "edsense.detection", "truncation_bound_f"),
    ("detection.avg_pd_kms", "edsense.detection", "avg_pd_kms"),
    ("detection.threshold_for_pf", "edsense.detection", "threshold_for_pf"),
    ("detection.croc_curve", "edsense.detection", "croc_curve"),
    ("detection.avg_auc_kms", "edsense.detection", "avg_auc_kms"),
    ("detection.avg_auc_f", "edsense.detection", "avg_auc_f"),
    ("capacity.eff_rate_kms", "edsense.capacity", "eff_rate_kms"),
    ("capacity.eff_rate_f", "edsense.capacity", "eff_rate_f"),
    ("oracle.mc_average", "edsense.oracle", "mc_average"),
    ("oracle.quad_average", "edsense.oracle", "quad_average"),
    ("verify.verify_closed_form", "edsense.verify", "verify_closed_form"),
)
TERMS_METRIC = "detection.avg_pd_f.terms"
OP_SPAN = "op"


class Tracer:
    """Records spans from wrapped functions; ``install`` and ``uninstall``
    swap the wrappers in and out of every loaded edsense module."""

    def __init__(self):
        self.names: list[str] = [OP_SPAN]
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.stack = [-1]
        self.op_id = -1
        self.terms = 0
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def operation(self, op_id: int):
        """Open the root span of one operation."""
        self.op_id = op_id
        idx = self._open(0)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        count_terms = name == "detection.avg_pd_f"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count_terms:
                self.terms += result[1].terms_used
            return result

        return traced

    def install(self) -> None:
        modules = [mod for key, mod in sys.modules.items()
                   if key == "edsense" or key.startswith("edsense.")]
        for prefix, module, attr in TRACED:
            original = getattr(importlib.import_module(module), attr)
            wrapper = self.wrap(prefix, original)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._undo.append((mod, key, val))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, val in reversed(self._undo):
            setattr(mod, key, val)
        self._undo.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return dict(name_id=np.frombuffer(self.name_id, dtype=np.int32),
                    start=np.frombuffer(self.start, dtype=np.float64),
                    end=np.frombuffer(self.end, dtype=np.float64),
                    parent=np.frombuffer(self.parent, dtype=np.int64),
                    op=np.frombuffer(self.op, dtype=np.int64))

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self) -> dict[str, float]:
        a = self.arrays()
        calls, self_ms = aggregate(a["name_id"], a["start"], a["end"],
                                   a["parent"], len(self.names))
        out = {}
        for nid, name in enumerate(self.names):
            if name == OP_SPAN:
                continue
            out[f"{name}.calls"] = int(calls[nid])
            out[f"{name}.self_ms"] = float(self_ms[nid])
        out[TERMS_METRIC] = self.terms
        return out


def self_times(start, end, parent) -> np.ndarray:
    """Per-span duration minus the summed durations of its direct children."""
    dur = np.asarray(end) - np.asarray(start)
    parent = np.asarray(parent)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    return dur - child


def aggregate(name_id, start, end, parent, n_names: int):
    """(calls, self time in ms) per name id."""
    name_id = np.asarray(name_id)
    calls = np.bincount(name_id, minlength=n_names)
    self_ms = np.bincount(name_id, weights=self_times(start, end, parent),
                          minlength=n_names) * 1e3
    return calls, self_ms
