"""End-to-end command line tests, run in process against temp directories."""

import argparse
import ast
import concurrent.futures
import functools
import hashlib
import inspect
import json
import logging
import multiprocessing
import operator
import os
import string
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import memtact
from memtact import cli, device, nn, tactile
from memtact.cli import main
from memtact.data import FeatureScaler, derive_rng


def run(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def small_features(tmp_path_factory):
    """A small 5-class dataset rendered and featurized through the CLI,
    once for the module; the tests only read it."""
    tmp_path = tmp_path_factory.mktemp("small")
    data = tmp_path / "gestures.jsonl"
    feats = tmp_path / "features.csv"
    assert run("gen-data", "--labels", 5, "--per-label", 8, "--noise", 0.01,
               "--seed", 0, "--out", data) == 0
    assert run("extract-features", "--data", data, "--out", feats) == 0
    return feats


def test_gen_data_writes_dataset_and_manifest(tmp_path):
    out = tmp_path / "d.jsonl"
    assert run("gen-data", "--labels", 5, "--per-label", 4, "--seed", 1,
               "--out", out) == 0
    gestures = list(tactile.read_gestures_jsonl(out))
    assert len(gestures) == 20
    manifest = json.loads((tmp_path / "d.jsonl.manifest.json").read_text())
    assert manifest["total"] == 20
    assert len(manifest["config_hash"]) == 12

    again = tmp_path / "d2.jsonl"
    assert run("gen-data", "--labels", 5, "--per-label", 4, "--seed", 1,
               "--out", again) == 0
    assert again.read_bytes() == out.read_bytes()


# Bound fixed before the first run. The 4N run renders and parses 120 more
# gestures than the N run; their frames alone, at the fewest frames a
# gesture can have (20), take 120 * 20 * 81 * 8 B = 1.56 MB, so a command
# that holds every gesture at once grows by more than the bound, while one
# that streams keeps only 120 more 38-value feature rows (tens of kB).
INGEST_GROWTH_BOUND = 1 << 20


def test_ingest_memory_is_flat_in_dataset_size(tmp_path):
    """gen-data and extract-features hold one gesture at a time: their
    traced peak on 4N gestures exceeds that on N by less than the bound."""

    def peaks(per_label):
        data = tmp_path / f"g{per_label}.jsonl"
        out = []
        for argv in (("gen-data", "--labels", 5, "--per-label", per_label,
                      "--seed", 0, "--out", data),
                     ("extract-features", "--data", data,
                      "--out", tmp_path / f"f{per_label}.csv")):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            assert run(*argv) == 0
            out.append(tracemalloc.get_traced_memory()[1] - base)
        return out

    tracemalloc.start()
    try:
        peaks(1)  # builds the writer's token table and other one-off caches
        small, large = peaks(8), peaks(32)
    finally:
        tracemalloc.stop()
    growth = [b - a for a, b in zip(small, large)]
    assert max(growth) < INGEST_GROWTH_BOUND, (small, large)


# Bound fixed before the first run. Workers render and parse a few gestures
# per task and at most two tasks per worker are in flight, so the 240 more
# gestures of the 4N run (6.8 MB of JSONL) add nothing that stays resident.
WORKER_GROWTH_BOUND_MB = 3.0


@pytest.mark.skipif(sys.platform != "linux",
                    reason="ru_maxrss is in kB on Linux only")
def test_ingest_workers_keep_memory_flat(tmp_path):
    """Peak RSS of gen-data and extract-features as os.wait4 reports it,
    which counts the workers, grows by less than the bound from N to 4N
    gestures. tracemalloc (above) sees the parent alone."""
    src = Path(memtact.__file__).resolve().parent.parent
    # two CPUs, so that the commands fan out on any host
    code = ("import os, sys\nos.sched_getaffinity = lambda pid: {0, 1}\n"
            "from memtact.cli import main\nsys.exit(main(sys.argv[1:]))")

    def peak_mb(*argv):
        proc = subprocess.Popen(
            [sys.executable, "-c", code, *map(str, argv)], cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=str(src)),
            stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        # reaped here, so tell Popen, which would warn of a live child
        proc.returncode = os.waitstatus_to_exitcode(status)
        assert proc.returncode == 0
        return usage.ru_maxrss / 1024

    def peaks(per_label):
        data = f"g{per_label}.jsonl"
        return [peak_mb("gen-data", "--labels", 5, "--per-label", per_label,
                        "--seed", 0, "--out", data),
                peak_mb("extract-features", "--data", data,
                        "--out", f"f{per_label}.csv")]

    small, large = peaks(16), peaks(64)
    growth = [b - a for a, b in zip(small, large)]
    assert max(growth) < WORKER_GROWTH_BOUND_MB, (small, large)


# the bytes test_tactile.py::test_gen_data_file_is_pinned pins
PINNED_GEN_DATA = \
    "9d210547c4c99e9418aa3b378ba205f57bc7ab39a2e8e1381862c2ea55f9c4b3"


def ingest(out_dir):
    """gen-data of 5 x 4 gestures at seed 3, then extract-features; the
    bytes of both files."""
    out_dir.mkdir()
    data, feats = out_dir / "g.jsonl", out_dir / "f.csv"
    assert run("gen-data", "--labels", 5, "--per-label", 4, "--seed", 3,
               "--out", data) == 0
    assert run("extract-features", "--data", data, "--out", feats) == 0
    return data.read_bytes(), feats.read_bytes()


def task_sizes(monkeypatch, gestures, size):
    monkeypatch.setattr(cli, "GEN_TASK_GESTURES", gestures)
    monkeypatch.setattr(cli, "EXTRACT_TASK_BYTES", size)


@pytest.fixture
def pools(monkeypatch):
    """Two CPUs on any host, and the worker count of every pool started."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    started = []
    executor = concurrent.futures.ProcessPoolExecutor

    def spy(workers, **kwargs):
        started.append(workers)
        return executor(workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spy)
    return started


def test_fanned_out_ingest_writes_the_one_task_bytes(tmp_path, monkeypatch,
                                                     pools):
    task_sizes(monkeypatch, 10**9, 1 << 24)
    one_task = ingest(tmp_path / "one")
    assert pools == []
    # 7 tasks of at most 3 gestures, and one task per line of the file
    task_sizes(monkeypatch, 3, 1)
    fanned = ingest(tmp_path / "fanned")
    assert pools == [2, 2]
    assert fanned == one_task
    assert hashlib.sha256(fanned[0]).hexdigest() == PINNED_GEN_DATA
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("bad_lines", [[11], [3, 11]],
                         ids=["last_task", "two_tasks"])
def test_fanned_out_bad_record_is_reported_as_in_one_task(
        tmp_path, monkeypatch, pools, bad_lines):
    """The first bad record in file order is named, with its absolute line
    number, however the file is split; no CSV, temporary file or worker is
    left behind."""
    data = tmp_path / "bad.jsonl"
    assert run("gen-data", "--labels", 5, "--per-label", 2, "--seed", 0,
               "--out", data) == 0
    lines = data.read_text().splitlines(keepends=True)
    lines.append('{"id": 10, "label": 5,\n')
    for lineno in bad_lines[:-1]:
        lines[lineno - 1] = lines[lineno - 1].replace('"speed"', '"pace"')
    data.write_text("".join(lines))

    messages, gen_pools = [], len(pools)
    for size in (1 << 24, 1):
        task_sizes(monkeypatch, 8, size)
        with pytest.raises(SystemExit) as exc:
            run("extract-features", "--data", data, "--out", tmp_path / "f.csv")
        messages.append(str(exc.value))
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["bad.jsonl", "bad.jsonl.manifest.json"]
        assert multiprocessing.active_children() == []
    # the one-task run started no pool, the split one a pool of two
    assert pools[gen_pools:] == [2]
    assert messages[0] == messages[1]
    assert messages[0].startswith(f"error: {data}, line {bad_lines[0]}: ")
    assert "\n" not in messages[0]


@pytest.mark.parametrize("fallback", ["one_cpu", "no_affinity", "no_fork"])
def test_ingest_without_workers_runs_in_process(tmp_path, monkeypatch,
                                                fallback):
    """One CPU, no CPU affinity or no fork start method: the tasks run here,
    and no worker starts."""
    if fallback == "one_cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
    elif fallback == "no_affinity":
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    task_sizes(monkeypatch, 3, 1)
    gestures, _ = ingest(tmp_path / "out")
    assert hashlib.sha256(gestures).hexdigest() == PINNED_GEN_DATA


def test_extract_rejects_empty_dataset(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n")
    with pytest.raises(SystemExit) as exc:
        run("extract-features", "--data", empty, "--out", tmp_path / "f.csv")
    assert "error:" in str(exc.value)


GOOD_RECORD = json.dumps({"id": 0, "label": 1, "speed": "regular",
                          "frames": [[[0.0] * 9] * 9]})


@pytest.mark.parametrize("record", [
    "[1,2,3]",
    '{"id": 1, "label": null, "speed": "regular", "frames": [[[0]]]}',
    '{"id": 1, "label": 1, "speed": "regular", "frames": {"a": 1}}',
    GOOD_RECORD.replace("[0.0,", '["0.5",', 1),
    GOOD_RECORD.replace("0.0", "true"),
], ids=["list_record", "null_label", "dict_frames", "string_pressure",
        "bool_frames"])
def test_extract_rejects_malformed_record(tmp_path, record):
    data = tmp_path / "bad.jsonl"
    data.write_text(GOOD_RECORD + "\n" + record + "\n")
    with pytest.raises(SystemExit) as exc:
        run("extract-features", "--data", data, "--out", tmp_path / "f.csv")
    message = str(exc.value)
    assert message.startswith("error:")
    assert "bad.jsonl, line 2" in message
    assert "\n" not in message
    # neither the CSV nor the temporary file its rows went to is left
    assert [p.name for p in tmp_path.iterdir()] == ["bad.jsonl"]


@pytest.mark.parametrize("label", ["3.7", "true", '"3"'],
                         ids=["float_label", "bool_label", "string_label"])
def test_extract_rejects_non_integer_label(tmp_path, label):
    record = GOOD_RECORD.replace('"label": 1', f'"label": {label}')
    assert record != GOOD_RECORD
    data = tmp_path / "bad.jsonl"
    data.write_text(GOOD_RECORD + "\n" + record + "\n")
    with pytest.raises(SystemExit) as exc:
        run("extract-features", "--data", data, "--out", tmp_path / "f.csv")
    message = str(exc.value)
    assert message.startswith("error:")
    assert "bad.jsonl, line 2" in message
    assert f"label {json.loads(label)!r} is not an integer" in message
    assert "\n" not in message
    # neither the CSV nor the temporary file its rows went to is left
    assert [p.name for p in tmp_path.iterdir()] == ["bad.jsonl"]


def test_cli_import_leaves_scipy_unloaded():
    """No command needs scipy, so importing the CLI must not load it."""
    src = Path(memtact.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys, memtact.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


@pytest.fixture(scope="module")
def command_inputs(tmp_path_factory):
    """A gesture file, its feature rows, two traces, a model and one trained
    on the rows for the module-set test."""
    tmp_path = tmp_path_factory.mktemp("inputs")
    assert run("gen-data", "--labels", 5, "--per-label", 1, "--out",
               tmp_path / "g.jsonl") == 0
    # two gestures per label, so that train can split them
    assert run("gen-data", "--labels", 5, "--per-label", 2, "--out",
               tmp_path / "g10.jsonl") == 0
    assert run("extract-features", "--data", tmp_path / "g10.jsonl",
               "--out", tmp_path / "f10.csv") == 0
    assert run("train", "--features", tmp_path / "f10.csv", "--epochs", 1,
               "--model-out", tmp_path / "fp.json") == 0
    params = device.DeviceParams(gamma_up=0.09, gamma_down=0.07,
                                 sigma_c2c=0.02)
    for k in (1, 2):
        trace = device.simulate_trace(params, device.PulseScheme(1, 20, 20, 40),
                                      0.0, derive_rng(k))
        device.write_trace_csv(trace, tmp_path / f"t{k}.csv")
    nn.save_model(nn.Network(nn.NetworkSpec((3, 2)), seed=0),
                  tmp_path / "m.json", classes=[0, 1])
    return tmp_path


CORE_MODULES = ["memtact", "memtact.cli", "memtact.data", "memtact.device"]


@pytest.mark.parametrize("argv, modules", [
    (["gen-data", "--labels", "5", "--per-label", "1", "--out", "g2.jsonl"],
     ["memtact.gesturegen", "memtact.tactile"]),
    (["extract-features", "--data", "g.jsonl", "--out", "f.csv"],
     ["memtact.tactile"]),
    (["fit-device", "--traces", "t1.csv", "t2.csv", "--scheme", "1,20,20,40",
      "--out", "fit.json"], []),
    (["program", "--model", "m.json", "--out", "p.json"],
     ["memtact.crossbar", "memtact.nn"]),
    (["train", "--features", "f10.csv", "--epochs", "1", "--model-out",
      "fp2.json"], ["memtact.crossbar", "memtact.nn", "memtact.tactile"]),
    (["train", "--features", "f10.csv", "--mode", "ttv2", "--hidden", "2",
      "--epochs", "1", "--model-out", "ttv2.json"],
     ["memtact.crossbar", "memtact.nn", "memtact.tactile"]),
    (["infer", "--model", "fp.json", "--features", "f10.csv"],
     ["memtact.crossbar", "memtact.nn", "memtact.tactile"]),
], ids=["gen-data", "extract-features", "fit-device", "program", "train-fp",
        "train-ttv2", "infer"])
def test_each_command_loads_only_its_modules(command_inputs, argv, modules):
    """A command imports the modules it runs and no others, and none loads
    numpy.ma, which np.unique imports on its first call, unless importing
    numpy does (numpy 1.x imports it eagerly). sys.modules is per process,
    so each command runs in a fresh interpreter."""
    src = Path(memtact.__file__).resolve().parent.parent
    code = ("import json, sys\nimport numpy\n"
            "with_numpy = 'numpy.ma' in sys.modules\n"
            "from memtact.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            "print(json.dumps([sorted(m for m in sys.modules\n"
            "                         if m.split('.')[0] == 'memtact'),\n"
            "                  with_numpy, 'numpy.ma' in sys.modules]))")
    out = subprocess.run([sys.executable, "-c", code, *argv],
                         cwd=command_inputs, check=True, capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=str(src))
                         ).stdout
    loaded, with_numpy, after_command = json.loads(out.splitlines()[-1])
    assert loaded == sorted(CORE_MODULES + modules)
    assert after_command == with_numpy


def test_full_pipeline_train_program_infer(tmp_path, small_features, capsys):
    model = tmp_path / "model.json"
    history = tmp_path / "history.csv"
    assert run("train", "--features", small_features, "--mode", "fp_sgd",
               "--epochs", 3, "--seed", 0, "--model-out", model,
               "--history-out", history) == 0
    net, scaler, classes = nn.load_model(model)
    assert classes == [1, 2, 3, 4, 5]
    assert scaler is not None
    assert len(nn.read_history_csv(history)) == 3

    # retraining writes a bit-identical history
    history2 = tmp_path / "history2.csv"
    assert run("train", "--features", small_features, "--mode", "fp_sgd",
               "--epochs", 3, "--seed", 0, "--model-out",
               tmp_path / "model2.json", "--history-out", history2) == 0
    assert history2.read_bytes() == history.read_bytes()

    programmed = tmp_path / "programmed.json"
    report = tmp_path / "report.csv"
    summary = tmp_path / "summary.json"
    assert run("program", "--model", model, "--out", programmed,
               "--report-out", report, "--summary-out", summary,
               "--seed", 1) == 0
    agg = json.loads(summary.read_text())
    assert len(agg["layers"]) == 1
    layer = agg["layers"][0]
    assert layer["converged_fraction"] > 0.9
    causes = layer["failure_causes"]
    assert set(causes) == {"unattainable", "bouncing", "out_of_pulses"}
    assert sum(causes.values()) == round(
        layer["devices"] * (1.0 - layer["converged_fraction"]))
    assert report.read_text().count("\n") == 2 + 38 * 5  # comment + header

    out = tmp_path / "infer.json"
    capsys.readouterr()
    assert run("infer", "--model", programmed, "--features", small_features,
               "--baseline", model, "--out", out) == 0
    printed = json.loads(capsys.readouterr().out)
    saved = json.loads(out.read_text())
    assert printed == saved
    assert saved["samples"] == 40
    assert 0.0 <= saved["accuracy"] <= 1.0
    assert saved["accuracy_gap"] == saved["baseline_accuracy"] - saved["accuracy"]


def test_train_ttv2_mode(tmp_path, small_features):
    model = tmp_path / "ttv2.json"
    assert run("train", "--features", small_features, "--mode", "ttv2",
               "--epochs", 1, "--seed", 0, "--model-out", model) == 0
    net, _, classes = nn.load_model(model)
    assert classes == [1, 2, 3, 4, 5]
    assert net.weights[0].shape == (38, 5)

    # a hidden layer pins every stream of two-tile training: each layer's W
    # and A tiles, the initial weights, the shuffle and the pulse noise
    model, history = tmp_path / "ttv2_hidden.json", tmp_path / "history.csv"
    assert run("train", "--features", small_features, "--mode", "ttv2",
               "--hidden", 4, "--epochs", 2, "--seed", 0, "--model-out", model,
               "--history-out", history) == 0
    assert hashlib.sha256(model.read_bytes()).hexdigest() == (
        "23fbf467b89212d7647521ddf8429c41ac4309008a8822c316a71e4d24bdbb46")
    assert hashlib.sha256(history.read_bytes()).hexdigest() == (
        "b945e3c4e21a52babc7f2f1db0f3cf931c4d635ec4b0f23d3b3567bfd704adac")


@pytest.mark.parametrize("mode,flag,value", [
    ("fp_sgd", "--lr", "nan"), ("ttv2", "--lr", "inf"),
    ("ttv2", "--fast-lr", "-inf"), ("ttv2", "--fast-lr", "nan")])
def test_train_rejects_non_finite_learning_rates(tmp_path, small_features,
                                                 mode, flag, value):
    model = tmp_path / "m.json"
    with pytest.raises(SystemExit) as exc:
        run("train", "--features", small_features, "--mode", mode,
            "--epochs", 1, f"{flag}={value}", "--model-out", model)
    message = str(exc.value)
    assert message == "error: learning rates must be finite"
    assert not model.exists()


def test_program_report_file_bytes(tmp_path):
    """The per-device programming CSV of a two-layer model, byte for byte."""
    net = nn.Network(nn.NetworkSpec((3, 2, 2)), seed=0)
    net.weights[0] = np.array([[0.5, -0.25], [0.125, 0.75], [-1.0, 0.0]])
    net.weights[1] = np.array([[0.25, -0.5], [1.0, 0.375]])
    model = tmp_path / "m.json"
    nn.save_model(net, model, classes=[0, 1])
    report = tmp_path / "r.csv"
    assert run("program", "--model", model, "--seed", 3,
               "--out", tmp_path / "p.json", "--report-out", report) == 0
    assert report.read_bytes() == (
        b"# config_hash=48414ec2a8c8\n"
        b"layer,row,col,target,achieved,iterations,converged\r\n"
        b"0,0,0,0.642857142857143,0.646777431718298,13,1\r\n"
        b"0,0,1,-0.1285714285714285,-0.13675035071173264,2,1\r\n"
        b"0,1,0,0.25714285714285723,0.26590920152383457,7,1\r\n"
        b"0,1,1,0.9000000000000002,0.8835185957399897,27,1\r\n"
        b"0,2,0,-0.9,-0.8820954406586152,17,1\r\n"
        b"0,2,1,0.12857142857142867,0.11928840429567707,6,1\r\n"
        b"1,0,0,-5.551115123125783e-17,0.0,0,1\r\n"
        b"1,0,1,-0.9,-0.8938750869767856,19,1\r\n"
        b"1,1,0,0.8999999999999999,0.888519555147227,21,1\r\n"
        b"1,1,1,0.1499999999999999,0.15303799331700266,1,1\r\n")


def test_program_output_is_pinned(tmp_path):
    """program writes these exact bytes for a two-layer model whose second
    layer is constant, so that layer programs +0.0 targets and keeps its
    negative constant digitally."""
    net = nn.Network(nn.NetworkSpec((3, 2, 2)), seed=0)
    net.weights[0] = np.array([[0.5, -0.25], [0.125, 0.75], [-1.0, 0.0]])
    net.weights[1] = np.full((2, 2), -0.375)
    net.biases = [np.array([0.1, -0.2]), np.array([0.0, 0.3])]
    scaler = FeatureScaler(mean=np.array([0.5, -1.0, 2.0]),
                           std=np.array([1.0, 0.0, 0.25]))
    model = tmp_path / "m.json"
    nn.save_model(net, model, scaler=scaler, classes=[2, 4])
    out, report = tmp_path / "p.json", tmp_path / "r.csv"
    assert run("program", "--model", model, "--seed", 5, "--out", out,
               "--report-out", report) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "d5127a692b881fd74bee7da4a970ca210ace9844fac7665ac45245d8ba236310")
    assert hashlib.sha256(report.read_bytes()).hexdigest() == (
        "ca9f6038b788f7c7231337daf16eccef068dea4ad214abf193d603e48b523f25")


def test_train_zero_epochs_gives_empty_history(tmp_path, small_features):
    model = tmp_path / "m.json"
    history = tmp_path / "h.csv"
    assert run("train", "--features", small_features, "--epochs", 0,
               "--model-out", model, "--history-out", history) == 0
    assert len(nn.read_history_csv(history)) == 0


def test_train_rejects_malformed_features(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    with pytest.raises(SystemExit) as exc:
        run("train", "--features", bad, "--model-out", tmp_path / "m.json")
    assert "error:" in str(exc.value)


def test_infer_missing_model_returns_error(tmp_path, small_features):
    with pytest.raises(SystemExit) as exc:
        run("infer", "--model", tmp_path / "nope.json",
            "--features", small_features)
    message = str(exc.value)
    assert message.startswith("error:")
    assert "nope.json" in message


PARAMS = {"gamma_up": 0.1, "gamma_down": 0.1, "b_min": -1.0, "b_max": 1.0,
          "sigma_c2c": 0.0}
DIST = {"mean": [20.0, 0.0], "covariance": [[1.0, 0.0], [0.0, 0.01]]}
MODEL = {"spec": {"layer_dims": [3, 2]}, "weights": [[0.0] * 6],
         "biases": [[0.0, 0.0]], "classes": [0, 1]}
# a model that the small features fit, but for the values at fault
MODEL38 = {"spec": {"layer_dims": [tactile.FEATURE_LENGTH, 5]},
           "weights": [[0.0] * (tactile.FEATURE_LENGTH * 5)],
           "biases": [[0.0] * 5], "classes": [1, 2, 3, 4, 5],
           "scaler": {"mean": [0.0] * tactile.FEATURE_LENGTH,
                      "std": [1.0] * tactile.FEATURE_LENGTH}}
TRAIN = ["train", "--features", "FEATURES", "--model-out", "OUT"]
TRAIN_BAD = ["train", "--features", "BAD", "--model-out", "OUT"]
ROW = ",".join(["0.5"] * tactile.FEATURE_LENGTH + ["1"])


def features_text(*rows) -> str:
    return "\n".join([",".join(tactile.FEATURE_NAMES + ["label"]), *rows])


@pytest.mark.parametrize("argv, payload, named", [
    (["infer", "--model", "BAD", "--features", "FEATURES"], "{}", "BAD"),
    (["infer", "--model", "BAD", "--features", "FEATURES"], "[1, 2]", "BAD"),
    (["program", "--model", "BAD", "--out", "OUT"], "[1, 2]", "BAD"),
    (["program", "--model", "MODEL", "--dist", "BAD", "--out", "OUT"],
     "[1, 2]", "BAD"),
    (["simulate-trace", "--params", "BAD", "--out", "OUT"], "[1, 2]", "BAD"),
    (["simulate-trace", "--params", "BAD", "--out", "OUT"], "[{}]", "BAD"),
    (["simulate-trace", "--params", "BAD", "--out", "OUT"],
     json.dumps({**PARAMS, "gamma_up": None}), "BAD"),
    (["simulate-trace", "--params", "BAD", "--out", "OUT"],
     json.dumps({**PARAMS, "gamma_up": float("nan")}), "BAD"),
    (["program", "--model", "MODEL", "--dist", "BAD", "--out", "OUT"],
     json.dumps({**DIST, "clamp_n_min": None}), "BAD"),
    ([*TRAIN, "--mode", "ttv2", "--dist", "BAD"],
     json.dumps({**DIST, "clamp_n_min": None}), "BAD"),
    (["program", "--model", "BAD", "--out", "OUT"],
     json.dumps({**MODEL, "spec": {"layer_dims": 5}}), "BAD"),
    (["program", "--model", "BAD", "--out", "OUT"],
     json.dumps({**MODEL, "spec": {"layer_dims": [3]}}), "BAD"),
    (["program", "--model", "BAD", "--out", "OUT"],
     json.dumps({**MODEL, "weights": [[0.0] * 3]}), "BAD"),
    (["program", "--model", "BAD", "--out", "OUT"],
     json.dumps({**MODEL, "biases": [[0.0] * 3]}), "BAD"),
    (["program", "--model", "MODEL", "--dist", "BAD", "--out", "OUT"],
     json.dumps({**DIST, "covariance": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}),
     "BAD"),
    (["program", "--model", "BAD", "--out", "OUT"],
     json.dumps({**MODEL, "scaler": {"mean": [0.0] * 5, "std": [1.0] * 3}}),
     "BAD"),
    (["infer", "--model", "BAD", "--features", "FEATURES"],
     json.dumps({**MODEL, "scaler": {"mean": [0.0] * 3, "std": [[1.0] * 3]}}),
     "BAD"),
    (TRAIN_BAD, features_text(*[",".join(["0.5"] * 9 + ["1"])] * 8), "BAD"),
    (TRAIN_BAD, features_text(ROW, ROW, "0.5,1"), "BAD"),
    (TRAIN_BAD, features_text(ROW, "x" + ROW[3:]), "BAD"),
    (TRAIN_BAD, features_text(ROW, ROW[:-1] + "1.5"), "BAD"),
    (TRAIN_BAD, features_text(ROW, ROW[:-1] + "9" * 20), "BAD"),
    (["gen-data", "--config", "BAD", "--out", "OUT"], "5", "BAD"),
    (["gen-data", "--config", "BAD", "--out", "OUT"], "[1, 2]", "BAD"),
    (["gen-data", "--config", "BAD", "--out", "OUT"], '{"labels": [5]}',
     "BAD"),
    ([*TRAIN, "--config", "BAD"], '{"epochs": null}', "BAD"),
    ([*TRAIN, "--config", "BAD"], '{"epochs": 2.7, "hidden": 3.9}', "BAD"),
    (["gen-data", "--config", "BAD", "--out", "OUT"],
     '{"per_label": Infinity}', "BAD"),
    ([*TRAIN, "--config", "BAD"], '{"lr": "fast"}', "BAD"),
    ([*TRAIN, "--config", "BAD"], '{"mode": 3}', "BAD"),
    ([*TRAIN, "--config", "BAD"], '{"test_fraction": "0.3"}', "BAD"),
    ([*TRAIN, "--config", "BAD"], '{"lr": 1%s}' % ("0" * 400), "BAD"),
    ([*TRAIN, "--config", "BAD"], "{epochs: 1}", "BAD"),
    (["fit-device", "--traces", "t.csv", "--config", "BAD", "--out", "OUT"],
     '{"restarts": 8}', "BAD"),
    (["infer", "--model", "BAD", "--features", "FEATURES"], "not json",
     "BAD"),
    (["gen-data", "--speed-mix", "1,1,1", "--out", "OUT"], None,
     "speed_mix"),
    (["gen-data", "--speed-mix", "1/0,0,0", "--out", "OUT"], None,
     "speed_mix"),
    (["gen-data", "--speed-mix", "1/,0,0", "--out", "OUT"], None,
     "speed_mix"),
    (["gen-data", "--speed-mix", "nan,0.5,0.5", "--out", "OUT"], None,
     "speed_mix"),
    (["gen-data", "--speed-mix", "1/3,x,1/3", "--out", "OUT"], None,
     "speed_mix"),
    (["gen-data", "--noise", "nan", "--out", "OUT"], None, "noise_std"),
    (["gen-data", "--noise", "inf", "--out", "OUT"], None, "noise_std"),
    (["infer", "--model", "BAD", "--features", "FEATURES"], None, "BAD"),
    (["program", "--model", "BAD", "--out", "OUT"],
     json.dumps({**MODEL, "classes": [0, 1, 2]}), "BAD"),
    (["program", "--model", "BAD", "--out", "OUT"],
     json.dumps({**MODEL, "classes": [0]}), "BAD"),
    (["program", "--model", "BAD", "--out", "OUT"],
     json.dumps({**MODEL, "classes": [1, 1]}), "BAD"),
    (["program", "--model", "MODEL", "--dist", "BAD", "--out", "OUT"],
     json.dumps({**DIST, "mean": [float("nan"), 0.0]}), "BAD"),
    ([*TRAIN, "--mode", "ttv2", "--dist", "BAD"],
     json.dumps({**DIST, "covariance": [[float("inf"), 0.0], [0.0, 0.01]]}),
     "BAD"),
    (["gen-data", "--labels", "7", "--out", "OUT"], None, "label_set"),
    ([*TRAIN, "--mode", "sgd"], None, "mode"),
    (["infer", "--model", "MODEL", "--features", "FEATURES", "--config",
      "BAD"], '{"seed": 0}', "BAD"),
    (TRAIN_BAD, "pulse_index,conductance\n0,0.5\n", "BAD"),
    (["simulate-trace", "--params", "BAD", "--out", "OUT"],
     json.dumps({"gamma_up": 1e-300, "gamma_down": 1e-300, "b_min": -1e-300,
                 "b_max": 1e-300, "sigma_c2c": 0.0}), "BAD"),
    ([*TRAIN, "--epochs", "two"], None, "--epochs"),
    ([*TRAIN, "--config", "BAD"], '{"epochs": "two"}', "BAD"),
    (["infer", "--model", "BAD", "--features", "FEATURES"],
     json.dumps({**MODEL38, "weights": [[float("nan")]
                                        + MODEL38["weights"][0][1:]]}),
     "BAD"),
    (["infer", "--model", "BAD", "--features", "FEATURES"],
     json.dumps({**MODEL38, "scaler": {**MODEL38["scaler"], "std": [
         float("inf")] + MODEL38["scaler"]["std"][1:]}}), "BAD"),
    (["program", "--model", "BAD", "--out", "OUT"],
     json.dumps({**MODEL38, "weights": [[float("nan")]
                                        + MODEL38["weights"][0][1:]]}),
     "BAD"),
], ids=["infer_empty_object", "infer_list", "program_list",
        "program_dist_list", "simulate_list", "simulate_empty_record",
        "simulate_null_gamma", "simulate_nan_gamma",
        "program_dist_null_clamp", "train_dist_null_clamp",
        "program_int_layer_dims", "program_short_layer_dims",
        "program_short_weights", "program_long_biases",
        "program_dist_2x3_covariance", "program_short_scaler_mean",
        "infer_nested_scaler_std", "train_ten_field_rows",
        "train_one_short_row", "train_text_feature",
        "train_fractional_label", "train_label_past_int64", "config_int",
        "config_list", "config_list_value", "config_null_value",
        "config_fractional_int",
        "config_infinite_value", "config_text_lr", "config_number_mode",
        "config_text_fraction", "config_int_past_float_range",
        "config_not_json", "config_fit_restarts", "model_not_json",
        "gen_spec_rejected", "speed_mix_zero_denominator",
        "speed_mix_empty_denominator", "speed_mix_nan",
        "speed_mix_text", "noise_nan", "noise_inf", "infer_missing_model",
        "program_long_classes", "program_short_classes",
        "program_repeated_class", "program_dist_nan_mean",
        "train_dist_inf_covariance", "labels_flag_not_5_or_10",
        "mode_flag_unknown", "config_infer_seed", "train_trace_file",
        "simulate_steps_underflow", "epochs_flag_text", "config_text_epochs",
        "infer_nan_weight", "infer_infinite_scaler_std",
        "program_nan_weight"])
def test_malformed_json_payload_is_one_line_error(tmp_path, small_features,
                                                  caplog, argv, payload,
                                                  named):
    """Bad input ends the command with one `error:` line naming its source.

    `main` raises SystemExit with that line, which the interpreter prints
    as the only stderr line with status 1 (see the subprocess test below);
    no other exception escapes, and nothing is logged or warned first.
    """
    bad = tmp_path / "bad.json"
    if payload is not None:
        bad.write_text(payload)
    model = tmp_path / "model.json"
    nn.save_model(nn.Network(nn.NetworkSpec((3, 2)), seed=0), model,
                  classes=[0, 1])
    paths = {"BAD": bad, "FEATURES": small_features, "MODEL": model,
             "OUT": tmp_path / "out"}
    caplog.set_level(logging.DEBUG, logger="memtact")
    with warnings.catch_warnings(record=True) as warned:
        warnings.simplefilter("always")
        with pytest.raises(SystemExit) as exc:
            run(*(paths.get(a, a) for a in argv))
    message = exc.value.code
    assert isinstance(message, str) and message.startswith("error:")
    assert "\n" not in message
    assert str(paths.get(named, named)) in message
    assert [r for r in caplog.records if r.name.startswith("memtact")] == []
    assert [str(w.message) for w in warned] == []


def test_error_exits_with_status_one_and_one_stderr_line(tmp_path):
    """Run as a program, a command that fails exits with status 1 and
    writes exactly its `error:` line to stderr."""
    bad = tmp_path / "bad.json"
    bad.write_text('{"labels": [5]}')
    src = Path(memtact.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-m", "memtact.cli", "gen-data", "--config",
         str(bad), "--out", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True)
    assert done.returncode == 1
    assert done.stderr == (f"error: {bad}: config value labels is not an "
                           f"integer\n")
    assert not (tmp_path / "out").exists()


# The corrupted-field strategy: in a valid input, one field that its
# reader reads is replaced by a token that is never valid there (text,
# empty, null, NaN, Infinity, a nested list or a number past the float
# range; in JSON also a string holding a number, a boolean and an integer
# past the float range). The command must end with one `error:` line naming
# the file and write nothing. In a CSV field, letters alone never spell a
# finite number ("inf" and "nan" spell others); in JSON, a string is never
# a number, whatever its text.
LETTERS = st.text(string.ascii_letters, min_size=1, max_size=8)
CSV_TOKENS = LETTERS | st.sampled_from(
    ["", "null", "NaN", "Infinity", "[[0.5], [1]]", "1e999"])
JSON_TOKENS = LETTERS.map(json.dumps) | st.sampled_from(
    ['""', "null", "NaN", "Infinity", "[[0.5], [1]]", "1e999", '"0.5"',
     "true", "false", "1" + "0" * 399])
CORRUPTION = settings(max_examples=20, deadline=None, derandomize=True,
                      database=None)
# each reader's command, with IN for the corrupted file
CORRUPTED_COMMANDS = {
    "FEATURES": ["train", "--features", "IN", "--epochs", "1",
                 "--model-out", "OUT"],
    "TRACE": ["fit-device", "--traces", "IN", "--scheme", "1,20,20,40",
              "--out", "OUT"],
    "PARAMS": ["simulate-trace", "--params", "IN", "--out", "OUT"],
    "DIST": ["program", "--model", "MODEL", "--dist", "IN", "--out", "OUT"],
    "MODEL": ["infer", "--model", "IN", "--features", "FEATURES", "--out",
              "OUT"],
    "CONFIG": ["train", "--features", "FEATURES", "--config", "IN",
               "--model-out", "OUT"],
}


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """One valid file per reader, each of which its command accepts."""
    tmp = tmp_path_factory.mktemp("valid")
    paths = {k: tmp / name for k, name in [
        ("FEATURES", "f.csv"), ("TRACE", "t.csv"), ("PARAMS", "p.json"),
        ("DIST", "d.json"), ("MODEL", "m.json"), ("CONFIG", "c.json")]}
    width = tactile.FEATURE_LENGTH
    rng = derive_rng(29, 0)
    tactile.write_features_csv(rng.standard_normal((4, width)), [1, 1, 2, 2],
                               paths["FEATURES"])
    params = device.DeviceParams(gamma_up=0.09, gamma_down=0.07,
                                 sigma_c2c=0.02)
    device.write_device_params(params, paths["PARAMS"])
    device.write_trace_csv(device.simulate_trace(
        params, device.PulseScheme(1, 20, 20, 40), 0.0, derive_rng(29, 1)),
        paths["TRACE"])
    device.write_distribution(device.default_distribution(), paths["DIST"])
    nn.save_model(nn.Network(nn.NetworkSpec((width, 2)), seed=0),
                  paths["MODEL"], classes=[1, 2], scaler=FeatureScaler(
                      mean=np.zeros(width), std=np.ones(width)))
    paths["CONFIG"].write_text(json.dumps(
        {"epochs": 1, "hidden": 0, "lr": 0.05, "fast_lr": 0.5,
         "transfer_every": 5, "seed": 0, "test_fraction": 0.25}))
    for reader, argv in CORRUPTED_COMMANDS.items():
        out = tmp / f"{reader}.out"
        assert run(*({**paths, "IN": paths[reader], "OUT": out}.get(a, a)
                     for a in argv)) == 0
        assert out.exists()
    return paths


def number_leaves(value, at=()) -> list:
    """The key paths of the numbers in a JSON value, in file order."""
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        return [leaf for k, v in items for leaf in number_leaves(v, (*at, k))]
    return [at] if isinstance(value, (int, float)) else []


def corrupt_json(text, pick, token) -> str:
    """text with its pick-th number, cyclically, written as token."""
    payload = json.loads(text)
    leaves = number_leaves(payload)
    *keys, last = leaves[pick % len(leaves)]
    functools.reduce(operator.getitem, keys, payload)[last] = "\0corrupt"
    return json.dumps(payload).replace(json.dumps("\0corrupt"), token)


def corrupt_csv(text, pick, token, columns=None) -> str:
    """text with its pick-th field, cyclically, among the given columns
    (every column if None) of its rows, replaced by token."""
    lines = text.split("\n")
    rows = [i for i, line in enumerate(lines) if line and line[0] != "#"][1:]
    width = len(lines[rows[0]].split(","))
    fields = [(i, c) for i in rows for c in (columns or range(width))]
    i, c = fields[pick % len(fields)]
    cells = lines[i].split(",")
    cells[c] = token
    lines[i] = ",".join(cells)
    return "\n".join(lines)


def assert_corruption_is_one_line_error(tmp_path_factory, valid_inputs,
                                        reader, corrupted_text):
    tmp = tmp_path_factory.mktemp("corrupt")
    bad = tmp / valid_inputs[reader].name
    bad.write_text(corrupted_text)
    paths = {**valid_inputs, "IN": bad, "OUT": tmp / "out"}
    with pytest.raises(SystemExit) as exc:
        run(*(paths.get(a, a) for a in CORRUPTED_COMMANDS[reader]))
    message = exc.value.code
    assert isinstance(message, str) and message.startswith("error:")
    assert "\n" not in message
    assert str(bad) in message
    assert not paths["OUT"].exists()


@CORRUPTION
@given(pick=st.integers(0, 10**6), token=CSV_TOKENS)
def test_corrupted_features_field_is_one_line_error(
        tmp_path_factory, valid_inputs, pick, token):
    text = corrupt_csv(valid_inputs["FEATURES"].read_text(), pick, token)
    assert_corruption_is_one_line_error(tmp_path_factory, valid_inputs,
                                        "FEATURES", text)


@CORRUPTION
@given(pick=st.integers(0, 10**6), token=CSV_TOKENS)
def test_corrupted_trace_conductance_is_one_line_error(
        tmp_path_factory, valid_inputs, pick, token):
    """Only the conductance column is read."""
    text = corrupt_csv(valid_inputs["TRACE"].read_text(), pick, token, [1])
    assert_corruption_is_one_line_error(tmp_path_factory, valid_inputs,
                                        "TRACE", text)


@CORRUPTION
@given(pick=st.integers(0, 10**6), token=JSON_TOKENS)
def test_corrupted_device_params_field_is_one_line_error(
        tmp_path_factory, valid_inputs, pick, token):
    text = corrupt_json(valid_inputs["PARAMS"].read_text(), pick, token)
    assert_corruption_is_one_line_error(tmp_path_factory, valid_inputs,
                                        "PARAMS", text)


@CORRUPTION
@given(pick=st.integers(0, 10**6), token=JSON_TOKENS)
def test_corrupted_distribution_field_is_one_line_error(
        tmp_path_factory, valid_inputs, pick, token):
    text = corrupt_json(valid_inputs["DIST"].read_text(), pick, token)
    assert_corruption_is_one_line_error(tmp_path_factory, valid_inputs,
                                        "DIST", text)


@CORRUPTION
@given(pick=st.integers(0, 10**6), token=JSON_TOKENS)
@example(pick=2, token="NaN")  # the first weight: layer_dims comes first
def test_corrupted_model_field_is_one_line_error(
        tmp_path_factory, valid_inputs, pick, token):
    text = corrupt_json(valid_inputs["MODEL"].read_text(), pick, token)
    assert_corruption_is_one_line_error(tmp_path_factory, valid_inputs,
                                        "MODEL", text)


@CORRUPTION
@given(pick=st.integers(0, 10**6), token=JSON_TOKENS)
def test_corrupted_config_value_is_one_line_error(
        tmp_path_factory, valid_inputs, pick, token):
    text = corrupt_json(valid_inputs["CONFIG"].read_text(), pick, token)
    assert_corruption_is_one_line_error(tmp_path_factory, valid_inputs,
                                        "CONFIG", text)


NEGATIVE_SEED = "seed must be non-negative, got -1"
SIMULATE = ["simulate-trace", "--params", "PARAMS", "--out", "OUT"]


@pytest.mark.parametrize("argv, message", [
    (["gen-data", "--seed", -1, "--out", "OUT"], NEGATIVE_SEED),
    ([*TRAIN, "--seed", -1], NEGATIVE_SEED),
    (["program", "--model", "MODEL", "--seed", -1, "--out", "OUT"],
     NEGATIVE_SEED),
    ([*SIMULATE, "--seed", -1], NEGATIVE_SEED),
    ([*TRAIN, "--hidden", -3], "hidden must be non-negative, got -3"),
    ([*SIMULATE, "--index", -1], "params index -1 out of range for 2 records"),
    (["simulate-trace", "--params", "PARAM", "--index", 7, "--out", "OUT"],
     "params index 7 out of range for 1 record"),
    (["fit-device", "--traces", "TRACE", "--scheme", "1,20,20,30", "--out",
      "OUT"], "TRACE: trace length 81 does not match scheme (71)"),
    ([*TRAIN, "--epochs", "two"], "--epochs 'two' is not an integer"),
    ([*TRAIN, "--lr", "fast"], "--lr 'fast' is not a finite number"),
    ([*TRAIN, "--dist", "missing.json"], "--dist applies to ttv2 mode only"),
], ids=["gen_data_seed", "train_seed", "program_seed", "simulate_seed",
        "train_hidden", "simulate_index", "simulate_index_one_record",
        "fit_scheme_mismatch", "train_epochs_text", "train_lr_text",
        "train_fp_dist"])
def test_out_of_range_integer_setting_is_named(tmp_path, small_features,
                                               argv, message):
    """A seed, count or index out of range, a scheme that does not match
    the trace, or a flag the training mode does not use, ends the command
    with one `error:` line that names the setting and its value, and writes
    nothing."""
    p = device.DeviceParams(gamma_up=0.09, gamma_down=0.07, sigma_c2c=0.02)
    paths = {"FEATURES": small_features, "MODEL": tmp_path / "model.json",
             "PARAMS": tmp_path / "params.json", "PARAM": tmp_path / "p.json",
             "TRACE": tmp_path / "t.csv", "OUT": tmp_path / "out"}
    nn.save_model(nn.Network(nn.NetworkSpec((3, 2)), seed=0), paths["MODEL"],
                  classes=[0, 1])
    device.write_device_params([p, p], paths["PARAMS"])
    device.write_device_params(p, paths["PARAM"])
    device.write_trace_csv(device.simulate_trace(
        p, device.PulseScheme(1, 20, 20, 40), 0.0, derive_rng(1, 0)),
        paths["TRACE"])
    with pytest.raises(SystemExit) as exc:
        run(*(paths.get(a, a) for a in argv))
    assert str(exc.value) == "error: " + message.replace(
        "TRACE", str(paths["TRACE"]))
    assert not paths["OUT"].exists()


def test_infer_rejects_features_of_another_width(tmp_path, small_features):
    """A model's input width and the feature count disagree: one error line
    that names both files, not numpy's matmul error."""
    model = tmp_path / "model.json"
    nn.save_model(nn.Network(nn.NetworkSpec((3, 5)), seed=0), model,
                  classes=[1, 2, 3, 4, 5])
    with pytest.raises(SystemExit) as exc:
        run("infer", "--model", model, "--features", small_features)
    assert str(exc.value) == (
        f"error: {small_features} holds {tactile.FEATURE_LENGTH} features "
        f"per row, but {model} takes 3")


def test_fit_device_runs_without_scipy(tmp_path):
    """fit-device, its fit included, runs where scipy cannot be imported."""
    p = device.DeviceParams(gamma_up=0.09, gamma_down=0.07, sigma_c2c=0.02)
    params_path = tmp_path / "p.json"
    device.write_device_params(p, params_path)
    trace = tmp_path / "t.csv"
    assert run("simulate-trace", "--params", params_path, "--scheme",
               "1,20,20,40", "--seed", 1, "--out", trace) == 0
    src = Path(memtact.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys; sys.modules['scipy'] = None; "
            "from memtact.cli import main; "
            "sys.exit(main(sys.argv[1:]))")
    done = subprocess.run(
        [sys.executable, "-c", code, "fit-device", "--traces", str(trace),
         "--scheme", "1,20,20,40", "--out", str(tmp_path / "f.json")],
        env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    fitted = device.read_device_params(tmp_path / "f.json")
    assert 0 < fitted.gamma_up < 1 and 0 < fitted.gamma_down < 1


def test_fit_device_rejects_row_without_conductance(tmp_path):
    trace = tmp_path / "t.csv"
    trace.write_text("pulse_index,conductance\n1\n")
    with pytest.raises(SystemExit) as exc:
        run("fit-device", "--traces", trace, "--scheme", "1,0,0,0",
            "--out", tmp_path / "f.json")
    message = str(exc.value)
    assert message == f"error: {trace}, line 2: no conductance value"
    assert not (tmp_path / "f.json").exists()


@pytest.mark.parametrize("epsilon", ["nan", "inf"])
def test_program_rejects_non_finite_epsilon(tmp_path, epsilon):
    net = nn.Network(nn.NetworkSpec((3, 2, 2)), seed=0)
    model = tmp_path / "m.json"
    nn.save_model(net, model, classes=[0, 1])
    out = tmp_path / "p.json"
    with pytest.raises(SystemExit) as exc:
        run("program", "--model", model, "--epsilon", epsilon, "--out", out)
    message = str(exc.value)
    assert message.startswith("error: epsilon must be positive and finite")
    assert "\n" not in message
    assert not out.exists()


def test_simulate_and_fit_cycle(tmp_path):
    p1 = device.DeviceParams(gamma_up=0.10, gamma_down=0.08, sigma_c2c=0.0)
    p2 = device.DeviceParams(gamma_up=0.06, gamma_down=0.05, sigma_c2c=0.0)
    params_path = tmp_path / "params.json"
    device.write_device_params([p1, p2], params_path)

    traces = []
    for i in range(2):
        t = tmp_path / f"trace{i}.csv"
        assert run("simulate-trace", "--params", params_path, "--index", i,
                   "--scheme", "2,40,40,80", "--out", t) == 0
        traces.append(t)
    first = device.read_trace_csv(traces[0])
    assert len(first) == 2 * (40 + 40 + 80) + 1

    fitted_path = tmp_path / "fitted.json"
    dist_path = tmp_path / "dist.json"
    assert run("fit-device", "--traces", traces[0], traces[1],
               "--scheme", "2,40,40,80", "--out", fitted_path,
               "--dist-out", dist_path) == 0
    fitted = device.read_device_params(fitted_path)
    assert isinstance(fitted, list) and len(fitted) == 2
    for fit, true in zip(fitted, (p1, p2)):
        assert abs(fit.gamma_up - true.gamma_up) / true.gamma_up < 0.01
        assert abs(fit.gamma_down - true.gamma_down) / true.gamma_down < 0.01
    dist = device.read_distribution(dist_path)
    lo = min(device.n_states(p1), device.n_states(p2))
    hi = max(device.n_states(p1), device.n_states(p2))
    assert lo <= dist.mean[0] <= hi


def test_simulate_trace_file_bytes(tmp_path):
    """The trace CSV, config-hash comment included, byte for byte."""
    params = device.DeviceParams(gamma_up=0.1, gamma_down=0.08,
                                 sigma_c2c=0.05)
    params_path = tmp_path / "p.json"
    device.write_device_params(params, params_path)
    out = tmp_path / "t.csv"
    assert run("simulate-trace", "--params", params_path, "--scheme",
               "1,2,2,1", "--seed", 3, "--w0", 0.1, "--out", out) == 0
    assert out.read_bytes() == (
        b"# config_hash=afb854bfb16e\n"
        b"pulse_index,conductance\r\n"
        b"0,0.1\r\n"
        b"1,0.19918413604623333\r\n"
        b"2,0.2690326369414685\r\n"
        b"3,0.16538770165830058\r\n"
        b"4,0.07480337239106401\r\n"
        b"5,0.1652290871592068\r\n")


def test_fit_device_distribution_needs_two_traces(tmp_path):
    p = device.DeviceParams(gamma_up=0.09, gamma_down=0.09, sigma_c2c=0.0)
    params_path = tmp_path / "p.json"
    device.write_device_params(p, params_path)
    trace = tmp_path / "t.csv"
    assert run("simulate-trace", "--params", params_path,
               "--scheme", "2,40,40,80", "--out", trace) == 0
    with pytest.raises(SystemExit) as exc:
        run("fit-device", "--traces", trace, "--scheme", "2,40,40,80",
            "--out", tmp_path / "f.json", "--dist-out", tmp_path / "d.json")
    assert str(exc.value) == ("error: need at least 2 traces to build a "
                              "distribution")
    assert not (tmp_path / "f.json").exists()


def test_malformed_scheme_is_rejected(tmp_path):
    p = device.DeviceParams(gamma_up=0.09, gamma_down=0.09)
    params_path = tmp_path / "p.json"
    device.write_device_params(p, params_path)
    with pytest.raises(SystemExit):
        run("simulate-trace", "--params", params_path, "--scheme", "1,2",
            "--out", tmp_path / "t.csv")


def test_unknown_config_key_is_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    with pytest.raises(SystemExit) as exc:
        run("gen-data", "--config", cfg, "--out", tmp_path / "d.jsonl")
    assert "unknown config keys" in str(exc.value)


def test_flags_override_config_values(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"labels": 5, "per_label": 4, "noise": 0.0}))
    out = tmp_path / "d.jsonl"
    assert run("gen-data", "--config", cfg, "--per-label", 6,
               "--out", out) == 0
    manifest = json.loads((tmp_path / "d.jsonl.manifest.json").read_text())
    assert manifest["total"] == 30  # 5 labels from config, 6 per label from flag
    assert manifest["spec"]["noise_std"] == 0.0


def test_every_setting_is_read_by_its_command():
    """Each key of cli.SETTINGS[name] is read as cfg["key"] by the command
    wired to name, and each command reads only its own settings: a setting
    that no command reads would change the config hash and nothing else."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert sorted(sub.choices) == sorted(cli.SETTINGS)
    for name, parser in sub.choices.items():
        tree = ast.parse(textwrap.dedent(
            inspect.getsource(parser.get_default("fn"))))
        read = {node.slice.value for node in ast.walk(tree)
                if isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Name) and node.value.id == "cfg"
                and isinstance(node.slice, ast.Constant)}
        assert read == set(cli.SETTINGS[name]), name


def test_gen_data_noise_default_is_the_generators():
    """cli may not import gesturegen at module level, so the table repeats
    the generator's default noise as a literal."""
    from memtact import gesturegen
    assert cli.SETTINGS["gen-data"]["noise"] == gesturegen.DEFAULT_NOISE_STD
