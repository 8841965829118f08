"""The benchmark's workloads: their inputs, CLI commands and output checks.

Each workload is a fixed sequence of `memtact` subcommands run one after the
other, as a user would type them. Set-up writes the inputs those commands
read, using only the package's exported API and its documented file formats.
Every command has a check that reads its outputs without going through the
package, so a wrong result is caught even when the reader and the writer
share a bug.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

N_CLASSES = 5
N_FEATURES = 38
HELDOUT_SEED_OFFSET = 100_003  # held-out gestures come from another seed


@dataclass(frozen=True)
class Scale:
    """Problem sizes of the workloads.

    `bench`, the default, is a quarter of the README walkthrough (612
    gestures per class, a 512x512 model), so that three passes fit in one
    run: on a shared 2-core host a single command's time varies by up to a
    fifth from run to run, and the median of three passes varies far less.
    Its characterization fits eight short (one-batch) traces: a noisy fit's
    effort depends on the trace, so the effort summed over a few traces
    varies from seed to seed. Model evaluations over ten seeds varied by 13%
    (quartile distance over median) for four three-batch traces and by 4%
    for eight one-batch ones. `tiny` is for the self-check.
    """

    per_label: int          # walkthrough gestures per class
    heldout_per_label: int  # held-out gestures per class scored by `infer`
    epochs: int
    hidden: int             # hidden width of the second ttv2 run
    devices: int            # traces fitted by `fit-device`
    scheme: str             # characterization pulse scheme
    model_dim: int          # side of the square model `characterize` programs


SCALES = {
    "bench": Scale(153, 60, 30, 32, 8, "1,200,200,1000", 256),
    "tiny": Scale(8, 4, 2, 4, 2, "1,20,20,60", 16),
}


@dataclass(frozen=True)
class Command:
    """One timed CLI call and the check of what it wrote."""

    label: str
    argv: list
    check: Callable[[Path], list]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[Path, int, Scale], list]   # returns the input files
    commands: Callable[[int, Scale], list]
    light: str      # label of the cheapest command
    artifacts: tuple  # output files hashed for the exact-repeat check
    quality: Callable[[Path, Scale], dict]


# ---------------------------------------------------------------------------
# readers used by the checks; independent of the package


def _finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v)
               for v in values)


def _fraction(v) -> bool:
    return isinstance(v, (int, float)) and 0.0 <= v <= 1.0


def _read_json(path: Path):
    return json.loads(path.read_text())


def _csv_rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return [r for r in csv.reader(fh) if r and not r[0].startswith("#")]


def _check_features(path: Path, per_label: int) -> list:
    rows = _csv_rows(path)
    if not rows or len(rows[0]) != N_FEATURES + 1 or rows[0][-1] != "label":
        return [f"{path.name}: header is not {N_FEATURES} features + label"]
    body = rows[1:]
    if len(body) != N_CLASSES * per_label:
        return [f"{path.name}: {len(body)} rows, expected "
                f"{N_CLASSES * per_label}"]
    counts = {}
    for r in body:
        if len(r) != N_FEATURES + 1:
            return [f"{path.name}: row with {len(r)} fields"]
        if not _finite([float(v) for v in r[:-1]]):
            return [f"{path.name}: non-finite feature"]
        counts[int(r[-1])] = counts.get(int(r[-1]), 0) + 1
    if counts != {c: per_label for c in range(1, N_CLASSES + 1)}:
        return [f"{path.name}: label counts {counts}"]
    return []


def _check_model(path: Path, dims: list, *, classifier: bool = True) -> list:
    d = _read_json(path)
    if d.get("spec", {}).get("layer_dims") != dims:
        return [f"{path.name}: layer dims {d.get('spec')} != {dims}"]
    if len(d["weights"]) != len(dims) - 1:
        return [f"{path.name}: {len(d['weights'])} weight matrices"]
    for l, (w, b) in enumerate(zip(d["weights"], d["biases"])):
        if len(w) != dims[l] * dims[l + 1] or len(b) != dims[l + 1]:
            return [f"{path.name}: layer {l} has the wrong size"]
        if not (_finite(w) and _finite(b)):
            return [f"{path.name}: layer {l} is not finite"]
    if classifier and (d.get("classes") != list(range(1, N_CLASSES + 1))
                       or not d.get("scaler")):
        return [f"{path.name}: missing class list or scaler"]
    return []


def _check_history(path: Path, epochs: int) -> list:
    rows = _csv_rows(path)
    if rows[:1] != [["epoch", "train_acc", "test_acc", "loss"]] \
            or len(rows) != epochs + 1:
        return [f"{path.name}: expected {epochs} epoch rows"]
    if not all(_fraction(float(r[1])) and _fraction(float(r[2]))
               and math.isfinite(float(r[3])) for r in rows[1:]):
        return [f"{path.name}: accuracy outside [0, 1] or non-finite loss"]
    return []


def _check_summary(path: Path, devices: int) -> list:
    layers = _read_json(path)["layers"]
    if sum(l["devices"] for l in layers) != devices:
        return [f"{path.name}: device count != {devices}"]
    if not all(_fraction(l["converged_fraction"]) for l in layers):
        return [f"{path.name}: converged fraction outside [0, 1]"]
    return []


def _last_test_acc(path: Path) -> float:
    return float(_csv_rows(path)[-1][2])


def _converged_fraction(path: Path) -> float:
    layers = _read_json(path)["layers"]
    total = sum(l["devices"] for l in layers)
    return sum(l["converged_fraction"] * l["devices"] for l in layers) / total


# ---------------------------------------------------------------------------
# set-up helpers: exported API plus the documented file formats; functions
# are looked up on their modules at call time, so a traced set-up goes
# through the tracer's wrappers


def _write_features(path: Path, gestures) -> None:
    from memtact import tactile
    with open(path, "w") as fh:
        fh.write(",".join(tactile.FEATURE_NAMES + ["label"]) + "\n")
        for g in gestures:
            row = tactile.extract_features(tactile.preprocess(g))
            fh.write(",".join(repr(float(v)) for v in row)
                     + f",{int(g.label)}\n")


def _render(per_label: int, seed: int):
    from memtact import gesturegen
    gestures, _ = gesturegen.generate_dataset(gesturegen.GenSpec(
        samples_per_label=per_label, label_set=N_CLASSES, seed=seed))
    return gestures


def _n_states(p: dict) -> float:
    """Range over mean midpoint step, the device model's state count."""
    step = 0.5 * (p["gamma_up"] * p["b_max"] - p["gamma_down"] * p["b_min"])
    return (p["b_max"] - p["b_min"]) / step


# ---------------------------------------------------------------------------
# ingest


def _ingest_setup(work: Path, seed: int, scale: Scale) -> list:
    return []


def _ingest_commands(seed: int, scale: Scale) -> list:
    total = N_CLASSES * scale.per_label

    def check_gen(work: Path) -> list:
        manifest = _read_json(work / "gestures.jsonl.manifest.json")
        with open(work / "gestures.jsonl", "rb") as fh:
            lines = sum(chunk.count(b"\n")
                        for chunk in iter(lambda: fh.read(1 << 20), b""))
        if manifest.get("total") != total or lines != total:
            return [f"gestures.jsonl: {lines} records, manifest "
                    f"{manifest.get('total')}, expected {total}"]
        return []

    return [
        Command("gen_data", ["gen-data", "--labels", str(N_CLASSES),
                             "--per-label", str(scale.per_label),
                             "--seed", str(seed), "--out", "gestures.jsonl"],
                check_gen),
        Command("extract_features",
                ["extract-features", "--data", "gestures.jsonl",
                 "--out", "features.csv"],
                lambda w: _check_features(w / "features.csv",
                                          scale.per_label)),
    ]


# ---------------------------------------------------------------------------
# train


def _train_setup(work: Path, seed: int, scale: Scale) -> list:
    _write_features(work / "features.csv", _render(scale.per_label, seed))
    _write_features(work / "heldout.csv",
                    _render(scale.heldout_per_label,
                            seed + HELDOUT_SEED_OFFSET))
    return ["features.csv", "heldout.csv"]


def _train_commands(seed: int, scale: Scale) -> list:
    single = [N_FEATURES, N_CLASSES]
    hidden = [N_FEATURES, scale.hidden, N_CLASSES]

    def train(label, mode, dims, out, extra=()):
        history = out.replace(".json", "_history.csv")
        argv = ["train", "--features", "features.csv", "--mode", mode,
                "--epochs", str(scale.epochs), "--seed", str(seed), *extra,
                "--model-out", out, "--history-out", history]
        return Command(label, argv, lambda w: (
            _check_model(w / out, dims)
            + _check_history(w / history, scale.epochs)))

    def check_program(work: Path) -> list:
        return (_check_model(work / "programmed.json", single)
                + _check_summary(work / "program_summary.json",
                                 N_FEATURES * N_CLASSES))

    def check_infer(work: Path) -> list:
        r = _read_json(work / "accuracy.json")
        ok = (r.get("samples") == N_CLASSES * scale.heldout_per_label
              and _fraction(r.get("accuracy"))
              and _fraction(r.get("baseline_accuracy"))
              and r.get("accuracy_gap")
              == r["baseline_accuracy"] - r["accuracy"])
        return [] if ok else [f"accuracy.json: unexpected report {r}"]

    return [
        train("train_fp", "fp_sgd", single, "fp.json"),
        train("train_ttv2", "ttv2", single, "ttv2.json"),
        train("train_ttv2_hidden", "ttv2", hidden, "ttv2_hidden.json",
              ("--hidden", str(scale.hidden))),
        Command("program", ["program", "--model", "fp.json", "--seed",
                            str(seed), "--out", "programmed.json",
                            "--summary-out", "program_summary.json"],
                check_program),
        Command("infer", ["infer", "--model", "programmed.json", "--features",
                          "heldout.csv", "--baseline", "fp.json",
                          "--out", "accuracy.json"], check_infer),
    ]


def _train_quality(work: Path, scale: Scale) -> dict:
    return {
        "fp_test_acc": _last_test_acc(work / "fp_history.csv"),
        "ttv2_test_acc": _last_test_acc(work / "ttv2_history.csv"),
        "ttv2_hidden_test_acc":
            _last_test_acc(work / "ttv2_hidden_history.csv"),
        "programmed_acc_gap":
            _read_json(work / "accuracy.json")["accuracy_gap"],
        "converged_fraction":
            _converged_fraction(work / "program_summary.json"),
    }


# ---------------------------------------------------------------------------
# characterize


def _characterize_setup(work: Path, seed: int, scale: Scale) -> list:
    import memtact
    rng = memtact.derive_rng(seed, 0)
    dist = memtact.default_distribution()
    scheme = memtact.PulseScheme(*(int(v) for v in scale.scheme.split(",")))
    truth = []
    for k in range(scale.devices):
        params = memtact.sample_device(dist, rng)
        trace = memtact.simulate_trace(params, scheme, 0.0, rng)
        truth.append(asdict(params))
        with open(work / f"trace{k}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["pulse_index", "conductance"])
            writer.writerows((i, repr(float(v)))
                             for i, v in enumerate(trace.samples))
    (work / "devices_true.json").write_text(json.dumps(truth) + "\n")
    n = scale.model_dim
    w = rng.normal(0.0, math.sqrt(1.0 / n), size=n * n)
    model = {"spec": {"layer_dims": [n, n]},
             "weights": [w.tolist()], "biases": [[0.0] * n],
             "scaler": None, "classes": None}
    (work / "big.json").write_text(json.dumps(model) + "\n")
    return [f"trace{k}.csv" for k in range(scale.devices)] \
        + ["devices_true.json", "big.json"]


def _check_population(work: Path, devices: int) -> list:
    fitted = _read_json(work / "fitted.json")
    if not isinstance(fitted, list) or len(fitted) != devices:
        return [f"fitted.json: expected {devices} device records"]
    for p in fitted:
        if not (0 < p["gamma_up"] < 1 and 0 < p["gamma_down"] < 1
                and p["b_min"] < 0 < p["b_max"]):
            return [f"fitted.json: invalid device {p}"]
    pop = _read_json(work / "pop.json")
    mean, cov = pop["mean"], pop["covariance"]
    if len(mean) != 2 or not _finite(mean) or mean[0] < 2.0:
        return [f"pop.json: invalid mean {mean}"]
    (a, b), (c, d) = cov
    tol = 1e-9 * max(abs(a), abs(b), abs(d))
    if not _finite([a, b, c, d]) or b != c or min(a, d) < -tol \
            or a * d - b * c < -tol * max(abs(a), abs(d)):
        return [f"pop.json: covariance {cov} is not symmetric PSD"]
    return []


def _characterize_commands(seed: int, scale: Scale) -> list:
    n = scale.model_dim
    traces = [f"trace{k}.csv" for k in range(scale.devices)]

    def check_program(work: Path) -> list:
        return (_check_model(work / "big_programmed.json", [n, n],
                             classifier=False)
                + _check_summary(work / "big_summary.json", n * n))

    return [
        # no --seed: the restart draws stay the CLI default, so the fit
        # effort depends on the traces alone and not also on the draws
        Command("fit_device", ["fit-device", "--traces", *traces,
                               "--scheme", scale.scheme, "--out",
                               "fitted.json", "--dist-out", "pop.json"],
                lambda w: _check_population(w, scale.devices)),
        Command("program", ["program", "--model", "big.json", "--dist",
                            "pop.json", "--seed", str(seed), "--out",
                            "big_programmed.json", "--summary-out",
                            "big_summary.json"], check_program),
    ]


def _characterize_quality(work: Path, scale: Scale) -> dict:
    truth = _read_json(work / "devices_true.json")
    fitted = _read_json(work / "fitted.json")
    err = max(abs(_n_states(f) - _n_states(t)) / _n_states(t)
              for f, t in zip(fitted, truth))
    return {"fit_nstates_err": err,
            "converged_fraction":
                _converged_fraction(work / "big_summary.json")}


WORKLOADS = {w.name: w for w in (
    Workload(
        "ingest",
        "gen-data then extract-features: gesturegen, tactile and the "
        "gesture and feature file formats do all the work; nn, crossbar and "
        "device do none",
        _ingest_setup, _ingest_commands, "gen_data",
        ("gestures.jsonl", "features.csv"), lambda work, scale: {}),
    Workload(
        "train",
        "fp, ttv2 and hidden-layer ttv2 training, then program and "
        "held-out infer: per-call overhead of nn steps on small crossbar "
        "tiles dominates",
        _train_setup, _train_commands, "infer",
        ("features.csv", "fp.json", "ttv2.json", "ttv2_hidden.json",
         "programmed.json"), _train_quality),
    Workload(
        "characterize",
        "fit-device on noisy traces, then program a large model: device "
        "fits and dense crossbar writes dominate; the one command that "
        "needs scipy",
        _characterize_setup, _characterize_commands, "program",
        ("pop.json", "big_programmed.json"), _characterize_quality),
)}


if __name__ == "__main__":
    # set-up runs in its own process: `workloads.py NAME SEED SCALE DIR`
    # prints the input files it wrote, one per line
    import sys
    import memtact.cli  # noqa: F401  warm import: bytecode and page cache
    name, seed, scale, work = sys.argv[1:]
    for path in WORKLOADS[name].setup(Path(work), int(seed), SCALES[scale]):
        print(path)
