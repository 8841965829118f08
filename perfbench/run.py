"""Benchmark of the memtact CLI pipeline, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {ingest,train,characterize,all} \
        --seed N --seconds S --trace {0,1} [--scale {bench,tiny}]

With `--trace 0` every command of the workload runs as its own `memtact`
subprocess, one at a time, and is timed as a user pays for it: interpreter
start, import and run. Set-up (a warm import plus writing the workload's
inputs) runs three times and reports its median. Whole passes over the
commands repeat while another pass, as long as the last one, still fits in
`--seconds`, and at least three times; per-command times are medians over
passes. Peak RSS comes from each child's own rusage.

With `--trace 1` the same commands run in this process through
`memtact.cli.main`, once with the tracer's wrappers installed and once
without, and the per-layer metrics come from the traced pass.

Every command's outputs are checked. Artifacts are hashed with sha256 and,
in traced runs, the exact-repeat counters are recorded; both are stored per
workload, scale and seed under `.perfbench/records/` and must match any
earlier run at the same seed, traced or not. The last line of standard
output is one JSON object: correct, attempted, failed and metrics.

End-to-end metrics, all host wall time of `memtact` subprocesses:
  setup_s      median of the three set-ups
  commands_s   sum over the workload's commands of each one's median
  light_cmd_s  median of its cheapest command, where interpreter start and
               import weigh most: gen-data, infer, program
  peak_rss_mb  largest peak RSS of any one command
Each command's median time and the quality figures (held-out accuracies,
converged fraction, fit error) are printed above the JSON line and kept in
`.perfbench/last/`, with the machine record.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_REPEATS = 3
MIN_PASSES = 3
PROBE_REPEATS = 3
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
            "NUMEXPR_NUM_THREADS")

sys.path.insert(0, str(HERE))
from workloads import SCALES, WORKLOADS  # noqa: E402


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(argv, cwd: Path, log) -> tuple[int, float, float]:
    """Run one child process; return exit code, wall seconds and peak MB."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                            stdout=log, stderr=log)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def python_probe(code: str, log) -> tuple[float, str]:
    """Wall seconds and output of `python -c code` in a fresh interpreter."""
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", code], env=child_env(),
                         stdout=subprocess.PIPE, stderr=log, text=True,
                         check=True).stdout
    return time.perf_counter() - start, out.strip()


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def source_id() -> str:
    """Hash of the package and benchmark sources.

    Records only compare runs of one code and one set of workload
    definitions.
    """
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def machine_record() -> dict:
    cpu = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(), **versions,
            "blas_env": {k: os.environ.get(k) for k in BLAS_ENV}}


class Run:
    """State of one benchmark invocation of one workload."""

    def __init__(self, workload, seed: int, scale_name: str, work: Path, log):
        self.wl = workload
        self.seed = seed
        self.scale_name = scale_name
        self.scale = SCALES[scale_name]
        self.work = work
        self.log = log
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.commands = workload.commands(seed, self.scale)

    def fail(self, message: str) -> None:
        self.errors.append(message)
        print(f"error: {self.wl.name}: {message}", file=sys.stderr)

    def check(self, cmd, code: int) -> bool:
        self.attempted += 1
        problems = [f"exit code {code}"] if code else []
        if not problems:
            try:
                problems = cmd.check(self.work)
            except (OSError, ValueError, KeyError, IndexError, TypeError,
                    json.JSONDecodeError) as e:
                problems = [f"unreadable output: {e!r}"]
        for p in problems:
            self.fail(f"{cmd.label}: {p}")
        self.failed += bool(problems)
        return not problems

    def setup(self) -> tuple[float, dict]:
        """Warm import plus the workload's inputs, in a child process.

        Returns its wall seconds and the hashes of the inputs it wrote. A
        child keeps this process small, because a child's peak RSS counts
        the memory of the parent it was forked from.
        """
        start = time.perf_counter()
        out = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), self.wl.name,
             str(self.seed), self.scale_name, str(self.work)],
            env=child_env(), stdout=subprocess.PIPE, stderr=self.log,
            text=True, check=True).stdout
        elapsed = time.perf_counter() - start
        return elapsed, {name: sha256(self.work / name)
                         for name in out.split()}

    def artifact_hashes(self) -> dict:
        return {name: sha256(self.work / name) for name in self.wl.artifacts}

    def same(self, what: str, a: dict, b: dict) -> None:
        diff = sorted(k for k in a.keys() & b.keys() if a[k] != b[k])
        if diff:
            self.fail(f"{what} differ for {diff}")

    def compare_record(self, hashes: dict, counters: dict) -> None:
        """Check against, then extend, the record of earlier runs.

        Records are kept per source hash, workload, scale and seed, so only
        runs of the same code at the same seed are compared.
        """
        path = STATE / "records" / (
            f"{source_id()}-{self.wl.name}-{self.scale_name}"
            f"-seed{self.seed}.json")
        old = json.loads(path.read_text()) if path.exists() else {}
        self.same("artifact hashes of an earlier run at this seed",
                  old.get("hashes", {}), hashes)
        self.same("exact-repeat counters of an earlier run at this seed",
                  old.get("counters", {}), counters)
        if not self.errors:
            path.parent.mkdir(parents=True, exist_ok=True)
            record = {"hashes": {**old.get("hashes", {}), **hashes},
                      "counters": {**old.get("counters", {}), **counters}}
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
            os.replace(tmp, path)

    def quality(self) -> dict:
        try:
            return self.wl.quality(self.work, self.scale)
        except (OSError, ValueError, KeyError, IndexError,
                json.JSONDecodeError) as e:
            self.fail(f"quality metrics unreadable: {e!r}")
            return {}


# ---------------------------------------------------------------------------
# --trace 0: subprocess timings


def measure(run: Run, seconds: float) -> tuple[dict, dict]:
    setups, first_inputs = [], None
    for _ in range(SETUP_REPEATS):
        elapsed, inputs = run.setup()
        setups.append(elapsed)
        if first_inputs is None:
            first_inputs = inputs
        run.same("set-up inputs of repeated set-ups", first_inputs, inputs)

    walls = {cmd.label: [] for cmd in run.commands}
    passes, rss, first_hashes = 0, [], None
    start = time.perf_counter()
    while True:
        pass_start, ok = time.perf_counter(), True
        for cmd in run.commands:
            code, wall, peak = run_child(
                [sys.executable, "-m", "memtact.cli", *cmd.argv], run.work,
                run.log)
            rss.append(peak)
            if not run.check(cmd, code):
                ok = False
                break
            walls[cmd.label].append(wall)
        if not ok:
            break
        passes += 1
        hashes = run.artifact_hashes()
        if first_hashes is None:
            first_hashes = hashes
        run.same("artifact hashes of repeated passes", first_hashes, hashes)
        # stop before a pass that would end after the measuring time, so
        # that a run lasts `seconds` unless its first passes take longer
        now = time.perf_counter()
        if passes >= MIN_PASSES and now - start + now - pass_start > seconds:
            break

    metrics = {
        "setup_s": median(setups),
        "commands_s": sum(median(w) for w in walls.values()),
        "light_cmd_s": median(walls[run.wl.light]),
        "peak_rss_mb": max(rss) if rss else 0.0,
    }
    # the per-command and quality figures, printed but not gated
    shown = {f"{label}_s": (median(w), "s") for label, w in walls.items()}
    if first_hashes is not None:
        shown.update((k, (v, "fraction")) for k, v in run.quality().items())
        run.compare_record(first_hashes, {})
    shown["failed_frac"] = (run.failed / max(run.attempted, 1), "fraction")
    details = {"shown": shown, "passes": passes,
               "setup_samples_s": setups, "command_samples_s": walls,
               "hashes": first_hashes}
    return metrics, details


# ---------------------------------------------------------------------------
# --trace 1: in-process traced and untraced passes


def in_process_pass(run: Run, tracer=None) -> float:
    from memtact import cli
    total = 0.0
    cwd = os.getcwd()
    os.chdir(run.work)
    try:
        for cmd in run.commands:
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sys.stderr):
                    if tracer is not None:
                        code = tracer.run(cmd.label, cli.main, cmd.argv)
                    else:
                        code = cli.main(cmd.argv)
            except SystemExit as e:
                code = e.code if isinstance(e.code, int) else 1
            total += time.perf_counter() - start
            if not run.check(cmd, code):
                break
    finally:
        os.chdir(cwd)
    return total


def measure_traced(run: Run) -> tuple[dict, dict]:
    from spans import EXACT_COUNTERS, Tracer, layer_metrics

    tracer = Tracer()
    tracer.install()
    try:
        tracer.command = "setup"
        run.wl.setup(run.work, run.seed, run.scale)
        tracer.command = None
        traced_s = in_process_pass(run, tracer)
    finally:
        tracer.uninstall()
    traced_hashes = run.artifact_hashes() if not run.errors else {}
    metrics = layer_metrics(tracer)
    quality = run.quality() if not run.errors else {}
    gestures = run.work / "gestures.jsonl"
    metrics["tactile.gestures_file_mb"] = \
        gestures.stat().st_size / 2**20 if gestures.exists() else 0.0

    untraced_s = in_process_pass(run)
    if not run.errors:
        run.same("artifact hashes of the traced and untraced passes",
                 traced_hashes, run.artifact_hashes())
    metrics["bench.trace_overhead_frac"] = \
        traced_s / untraced_s - 1.0 if untraced_s else 0.0

    interp = [python_probe("pass", run.log)[0] for _ in range(PROBE_REPEATS)]
    code = ("import sys, time; t = time.perf_counter(); import memtact.cli; "
            "print(time.perf_counter() - t, 'scipy.optimize' in sys.modules)")
    probes = [python_probe(code, run.log)[1].split()
              for _ in range(PROBE_REPEATS)]
    metrics["cli.interpreter_s"] = median(interp)
    metrics["cli.import_s"] = median(float(p[0]) for p in probes)
    metrics["cli.scipy_loaded"] = float(probes[-1][1] == "True")

    for key, prefix in (("fp_test_acc", "nn."), ("ttv2_test_acc", "nn."),
                        ("ttv2_hidden_test_acc", "nn."),
                        ("programmed_acc_gap", "nn."),
                        ("converged_fraction", "crossbar."),
                        ("fit_nstates_err", "device.")):
        metrics[prefix + key] = float(quality.get(key, 0.0))
    counters = {k: metrics[k] for k in EXACT_COUNTERS}
    if traced_hashes:
        run.compare_record(traced_hashes, counters)
    details = {"traced_s": traced_s, "untraced_s": untraced_s,
               "hashes": traced_hashes, "missing_targets": tracer.missing}
    return metrics, details


# ---------------------------------------------------------------------------


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(name: str, args, log) -> dict:
    work = STATE / "work" / f"{name}-{args.scale}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(WORKLOADS[name], args.seed, args.scale, work, log)
        if args.trace:
            metrics, details = measure_traced(run)
        else:
            metrics, details = measure(run, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec()[kind]}
    missing = sorted(units.keys() - metrics.keys())
    if missing:
        run.fail(f"metrics not measured: {missing}")
    result = {"correct": not run.errors, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {k: {"value": float(metrics.get(k, 0.0)), "unit": u}
                          for k, u in units.items()}}
    report = {"workload": name, "seed": args.seed, "scale": args.scale,
              "trace": args.trace, "machine": machine_record(),
              "errors": run.errors, "result": result, "details": details}
    out = STATE / "last" / f"{name}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1, default=str) + "\n")

    print(f"# {name} seed {args.seed} scale {args.scale} trace {args.trace}")
    rows = [(k, v["value"], v["unit"]) for k, v in result["metrics"].items()]
    rows += [(k, v, u) for k, (v, u) in details.get("shown", {}).items()]
    for k, v, u in rows:
        print(f"{k:42s} {v:14.6g} {u}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time; passes that would end after it "
                        "are not started, but at least three are measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="bench")
    args = parser.parse_args(argv)

    if not (SRC / "memtact" / "cli.py").is_file():
        print(f"error: no memtact sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print("machine " + json.dumps(machine_record()))

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    STATE.mkdir(exist_ok=True)
    with open(STATE / "children.log", "w") as log:
        results = {name: run_workload(name, args, log) for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
