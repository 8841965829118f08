"""The benchmark tracer's targets exist in the package."""

import importlib.util
from pathlib import Path

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
