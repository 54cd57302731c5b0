"""The names the benchmark's tracer wraps must exist in the package."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    for modname, name in spans.TRACED:
        module = importlib.import_module(f"mfbmwave.{modname}")
        assert callable(getattr(module, name, None)), f"{modname}.{name}"
