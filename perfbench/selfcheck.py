"""Self-check of the benchmark harness.

    python3 perfbench/selfcheck.py     # from the checkout root; exits 0 when all pass

1. An output scaled by (1 + 1e-6) is counted as failed, while the same
   operation unscaled passes.
2. An exception inside an operation is counted as failed of that operation,
   and the round carries on to the next one.
3. Self time subtracts child spans, on fixed spans and on live wrapped calls.
"""

from __future__ import annotations

import sys
import time

import run
from spans import Tracer, aggregate


def case_scaled_value(ed) -> str | None:
    picked = run.pick_variants("sweeps", 0, None)
    slot, var = next((s, v) for s, v in picked if s["kind"] == "auc_f")
    [op] = run.inprocess_ops(ed, slot, var["params"], var["ref"])
    scaled = run.Op(op.slot, False, lambda: [x * (1.0 + 1e-6) for x in op.execute()],
                    op.check)
    _, failures = run.run_round([op, scaled])
    if [f[0] for f in failures] != [scaled]:
        return f"expected only the scaled operation to fail, got {failures}"
    return None


def case_exception(ed) -> str | None:
    ok = run.Op("ok", False, lambda: 1.0, lambda out: None)

    def boom():
        raise ed.ConvergenceError("injected")

    bad = run.Op("boom", False, boom, lambda out: None)
    durations, failures = run.run_round([ok, bad, ok])
    if len(durations) != 3 or [f[0] for f in failures] != [bad]:
        return f"expected 3 attempted and 1 failed, got {len(durations)} and {failures}"
    return None


def case_self_time() -> str | None:
    # A [0, 10] with children B [2, 5] and C [6, 7]; D [3, 4] is a child of B.
    calls, self_ms = aggregate([0, 1, 2, 3], [0.0, 2.0, 6.0, 3.0], [10.0, 5.0, 7.0, 4.0],
                               [-1, 0, 0, 1], 4)
    if list(calls) != [1, 1, 1, 1] or list(self_ms) != [6e3, 2e3, 1e3, 1e3]:
        return f"fixed spans: calls {list(calls)}, self ms {list(self_ms)}"

    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.02))
    outer = tracer.wrap("outer", lambda: (time.sleep(0.01), inner()))
    with tracer.operation(0):
        outer()
    layer = tracer.layer_metrics()
    a = tracer.arrays()
    outer_ms = (a["end"][1] - a["start"][1]) * 1e3
    if not (layer["inner.calls"] == layer["outer.calls"] == 1
            and a["parent"][2] == 1 and a["parent"][1] == 0
            and layer["outer.self_ms"] < layer["inner.self_ms"]
            and abs(layer["outer.self_ms"] + layer["inner.self_ms"] - outer_ms) < 1e-6):
        return f"live spans: {layer}, outer duration {outer_ms} ms"
    return None


def main() -> int:
    ed = run.load_edsense(run.checkout_root())
    failed = 0
    for name, fn in (("scaled value counted as failed", lambda: case_scaled_value(ed)),
                     ("exception counted as failed, round carries on",
                      lambda: case_exception(ed)),
                     ("self time subtracts child spans", case_self_time)):
        reason = fn()
        print(f"{'PASS' if reason is None else 'FAIL'}  {name}"
              + ("" if reason is None else f": {reason}"))
        failed += reason is not None
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
