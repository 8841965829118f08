"""Self-check of the benchmark at tiny scale.

Run from the root of a checkout with `python3 -m pytest perfbench`. Each
workload runs untraced and traced at the `tiny` scale; the checks are the
result contract, the metric lists of BENCHMARK.json, exact repeats at one
seed, and refusal to run without the package sources.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr[-2000:]
    assert result["attempted"] >= 1 and result["failed"] == 0
    return result


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["workloads"] == [{"name": w.name, "why": w.why}
                                 for w in WORKLOADS.values()]
    names = [m["name"] for kind in ("end_to_end", "per_layer")
             for m in SPEC[kind]] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    for m in SPEC["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_tiny(workload):
    common = ["--workload", workload, "--seed", "3", "--seconds", "1",
              "--scale", "tiny"]
    plain = result_of(bench(*common, "--trace", "0"))
    assert list(plain["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(v["value"] > 0 for v in plain["metrics"].values())
    # the second untraced run and the traced run are checked against the
    # hashes and counters the earlier runs at this seed recorded
    result_of(bench(*common, "--trace", "0"))
    traced = result_of(bench(*common, "--trace", "1"))
    assert list(traced["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    result_of(bench(*common, "--trace", "1"))


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "ingest", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
