"""Every per-layer benchmark metric still names a function the tracer can wrap.

The benchmark tracer wraps the public, non-generator functions defined in
each measured ringlab module, and reports a metric whose function is not
there as absent.  A rename or a move of one of those functions would
silently turn its metric absent; this test names it instead.  It runs
the text of ``benchmarks/layers.py`` and writes nothing there.
"""

from __future__ import annotations

import importlib
import inspect
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "benchmarks" / "layers.py"


def _span_metrics():
    # executed from its text, so no bytecode is written next to it
    namespace: dict = {}
    exec(compile(LAYERS.read_text(encoding="utf-8"), str(LAYERS), "exec"), namespace)
    return namespace["SPAN_METRICS"]


def test_span_metric_functions_are_wrappable():
    metrics = _span_metrics()
    names = {span.split(":")[0] for _, _, _, spans in metrics for span in spans}
    assert {"ideals.radical", "ideals.jacobson_radical", "spectra.pure_ideals"} <= names
    for name in sorted(names):
        module_name, attr = name.split(".")
        module = importlib.import_module(f"ringlab.{module_name}")
        fn = getattr(module, attr, None)
        assert not attr.startswith("_"), name
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__, name
        assert not inspect.isgeneratorfunction(fn), name
