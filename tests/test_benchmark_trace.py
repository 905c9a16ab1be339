"""The benchmark's traced mode (``perfbench/spans.py``) wraps edsense
functions by module and name; a traced function that is deleted or renamed
breaks only a traced benchmark run, so one install/uninstall cycle runs here."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_function_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    originals = {(module, attr): getattr(importlib.import_module(module), attr)
                 for _, module, attr in spans.TRACED}
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (module, attr), fn in originals.items():
            wrapped = getattr(importlib.import_module(module), attr)
            assert wrapped is not fn and wrapped.__wrapped__ is fn, (module, attr)
    finally:
        tracer.uninstall()
    for (module, attr), fn in originals.items():
        assert getattr(importlib.import_module(module), attr) is fn, (module, attr)
