"""The names the benchmark reads exist in the package."""

import ast
import importlib.util
from pathlib import Path

import memtact

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_tracer_target_exists():
    """Tracer.install reports a missing target as 0 instead of failing, so a
    renamed or deleted function would silently zero its metrics."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = spans._targets()
    missing = [name for owner, attr, name, _ in targets
               if attr not in owner.__dict__]
    assert targets and not missing


def test_benchmark_package_names_resolve():
    """perfbench reads some names off the `memtact` package itself, and
    tier-1 does not run its set-ups, so a name dropped from the package
    would show only when the benchmark runs."""
    names = set()
    for path in SPANS.parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "memtact"):
                names.add(node.attr)
    missing = [n for n in sorted(names) if not hasattr(memtact, n)
               and importlib.util.find_spec(f"memtact.{n}") is None]
    assert missing == []
