"""The names the benchmark reads from the package must exist in it."""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"
WORKLOADS = PERFBENCH / "workloads.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    for modname, name in spans.TRACED:
        module = importlib.import_module(f"mfbmwave.{modname}")
        assert callable(getattr(module, name, None)), f"{modname}.{name}"


def workload_names():
    """(module, name) pairs the workloads read from the package.

    Both ``module.name`` on a module imported ``from mfbmwave`` and
    ``from mfbmwave.module import name``; the source is parsed, not run.
    """
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    modules, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "mfbmwave":
            modules.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("mfbmwave."):
            sub = node.module.removeprefix("mfbmwave.")
            names.update((sub, a.name) for a in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            names.add((modules[node.value.id], node.attr))
    return names


def test_workload_names_resolve():
    names = workload_names()
    # a few the workloads are known to read, so a parser that finds
    # nothing cannot pass
    assert {("model", "cross_covariance"), ("wavelets", "shift_margin"),
            ("synth", "embedding_report"), ("verify", "SUITES"),
            ("wavstats", "WaveletCovQuery")} <= names
    missing = sorted(f"{m}.{n}" for m, n in names
                     if not hasattr(importlib.import_module(f"mfbmwave.{m}"), n))
    assert not missing, f"the benchmark reads names the package lacks: {missing}"
