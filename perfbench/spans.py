"""Outside-in tracing of the package's layers for the per-layer metrics.

Wrappers replace public functions at the name each caller looks up (for
example `nn.ttv2_step`, which `nn.train_ttv2` calls as a module global, or
`AnalogTile.stochastic_update` on the class) and record a span per call:
calls, total time and self time, keyed by the CLI command being run, the
span's name and the name of its nearest traced parent. Self time is the
span's duration minus the time covered by its traced children. Spans are
aggregated as they close rather than stored, because the training commands
make about a million of them. Counters are read from arguments and results
after the span closes, so their cost falls on the parent's self time.

Tracing changes no result: wrappers consume no random draws and return what
the wrapped function returned.
"""

from __future__ import annotations

import bisect
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# spans whose individual durations are kept for percentiles
KEEP_DURATIONS = {"tactile.extract_features", "nn.ttv2_step",
                  "device.fit_softbounds"}
# spans whose start times are kept to time full SGD steps between calls
KEEP_STARTS = {"nn.Network.backprop", "nn.evaluate"}

TTV2_COMMANDS = {"train_ttv2": "nn.ttv2",
                 "train_ttv2_hidden": "nn.ttv2_hidden"}
TRAIN_COMMANDS = ("train_fp", "train_ttv2", "train_ttv2_hidden")
COMMAND_LABELS = ("gen_data", "extract_features", "train_fp", "train_ttv2",
                  "train_ttv2_hidden", "program", "infer", "fit_device")
SATURATION_TOL = 1e-3  # W devices this close to a +-1 bound count as pinned


class Tracer:
    """Span aggregates and counters for one traced run."""

    def __init__(self):
        self.command = None   # label of the command being traced
        self._stack = []      # open spans: [name, start, traced child time]
        self.agg = {}         # (command, name, parent) -> [calls, total, self]
        self.counts = defaultdict(float)  # (command, name, parent, counter)
        self.durations = defaultdict(list)  # (command, name) -> seconds
        self.starts = defaultdict(list)     # (command, name) -> start times
        self.missing = []     # targets absent from this version of the code
        self._undo = []

    def wrap(self, name, fn, count=None):
        tracer = self
        keep = name in KEEP_DURATIONS
        keep_start = name in KEEP_STARTS

        def traced(*args, **kwargs):
            stack = tracer._stack
            frame = [name, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[1]
                parent = stack[-1][0] if stack else None
                if stack:
                    stack[-1][2] += dur
                key = (tracer.command, name, parent)
                a = tracer.agg.get(key)
                if a is None:
                    a = tracer.agg[key] = [0, 0.0, 0.0]
                a[0] += 1
                a[1] += dur
                a[2] += dur - frame[2]
                if keep:
                    tracer.durations[(tracer.command, name)].append(dur)
                if keep_start:
                    tracer.starts[(tracer.command, name)].append(frame[1])
            if count is not None:
                for counter, value in count(args, result, parent).items():
                    tracer.counts[(tracer.command, name, parent,
                                   counter)] += value
            return result

        return traced

    def install(self) -> None:
        """Wrap every target; targets missing from the code are skipped."""
        for owner, attr, name, count in _targets():
            raw = owner.__dict__.get(attr)
            if raw is None:
                self.missing.append(name)
                continue
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(name, raw.__func__, count))
            else:
                new = self.wrap(name, raw, count)
            setattr(owner, attr, new)
            self._undo.append((owner, attr, raw))
        if self.missing:
            print(f"trace: not found, reported as 0: {self.missing}",
                  file=sys.stderr)

    def run(self, label, fn, *args):
        """Run one CLI command as the root span `cli.<label>`."""
        self.command = label
        try:
            return self.wrap(f"cli.{label}", fn)(*args)
        finally:
            self.command = None

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    # -- queries ----------------------------------------------------------

    def _select(self, name, commands=None, parent=...):
        for (cmd, n, par), a in self.agg.items():
            if n == name and (commands is None or cmd in commands) \
                    and (parent is ... or par == parent):
                yield a

    def total(self, name, commands=None, parent=...) -> float:
        return sum(a[1] for a in self._select(name, commands, parent))

    def calls(self, name, commands=None, parent=...) -> int:
        return sum(a[0] for a in self._select(name, commands, parent))

    def self_us_per_call(self, name, commands=None, parent=...) -> float:
        aggs = list(self._select(name, commands, parent))
        n = sum(a[0] for a in aggs)
        return 1e6 * sum(a[2] for a in aggs) / n if n else 0.0

    def count(self, name, counter, commands=None, parent=...) -> float:
        return sum(v for (cmd, n, par, c), v in self.counts.items()
                   if n == name and c == counter
                   and (commands is None or cmd in commands)
                   and (parent is ... or par == parent))

    def percentile_us(self, name, q, commands=None) -> float:
        values = [d for (cmd, n), ds in self.durations.items()
                  if n == name and (commands is None or cmd in commands)
                  for d in ds]
        return 1e6 * _percentile(values, q)

    def sgd_steps(self, command) -> list:
        """Seconds from one backprop call to the next within an epoch."""
        starts = self.starts.get((command, "nn.Network.backprop"), [])
        evals = sorted(self.starts.get((command, "nn.evaluate"), []))
        return [b - a for a, b in zip(starts, starts[1:])
                if bisect.bisect(evals, a) == bisect.bisect(evals, b)]


def _percentile(values, q) -> float:
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values), q))


# ---------------------------------------------------------------------------
# wrap targets and their counters


def _count_frames(args, result, parent):
    gestures, _ = result
    return {"frames": sum(len(g) for g in gestures)}


def _count_update(args, result, parent):
    tile = args[0]
    return {"pulses": result.pulses_up + result.pulses_down,
            "devices": tile.rows * tile.cols}


def _count_pulses(args, result, parent):
    if parent != "nn.transfer_column":  # only W-tile pulses are counted
        return {}
    return {"pulses": int(np.count_nonzero(args[1]))
            + int(np.count_nonzero(args[2]))}


def _count_program(args, result, parent):
    unconverged = ~result.converged
    return {"devices": result.iterations.size,
            "pulses": int(result.iterations.sum()),
            "wasted": int(result.iterations[unconverged].sum())}


def _count_fit(args, result, parent):
    return {"evals": result[1].evaluations}


def _count_saturation(args, result, parent):
    net = result[0]
    pinned = devices = 0
    for tile in net.tiles:
        w = tile.read_weights()
        pinned += int(np.count_nonzero(np.abs(w) >= 1.0 - SATURATION_TOL))
        devices += w.size
    return {"w_pinned": pinned, "w_devices": devices}


def _targets():
    from memtact import (cli, crossbar, data, device, gesturegen, nn,
                         tactile)
    tile = crossbar.AnalogTile
    return [
        (gesturegen, "generate_dataset", "gesturegen.generate_dataset",
         _count_frames),
        (tactile, "write_gestures_jsonl", "tactile.write_gestures_jsonl",
         None),
        (tactile, "read_gestures_jsonl", "tactile.read_gestures_jsonl", None),
        (tactile, "preprocess", "tactile.preprocess", None),
        (tactile, "extract_features", "tactile.extract_features", None),
        (tactile, "write_features_csv", "tactile.write_features_csv", None),
        (tactile, "read_features_csv", "tactile.read_features_csv", None),
        (cli, "stratified_split_indices", "data.stratified_split_indices",
         None),
        (data.FeatureScaler, "fit", "data.FeatureScaler.fit", None),
        (data.FeatureScaler, "transform", "data.FeatureScaler.transform",
         None),
        (nn, "train_ttv2", "nn.train_ttv2", _count_saturation),
        (nn, "ttv2_step", "nn.ttv2_step", None),
        (nn, "_transfer_column", "nn.transfer_column", None),
        (nn, "evaluate", "nn.evaluate", None),
        (nn, "program_network", "nn.program_network", None),
        (nn, "save_model", "nn.save_model", None),
        (nn, "load_model", "nn.load_model", None),
        (nn.Network, "backprop", "nn.Network.backprop", None),
        (tile, "forward_mac", "crossbar.forward_mac", None),
        (tile, "backward_mac", "crossbar.backward_mac", None),
        (tile, "stochastic_update", "crossbar.stochastic_update",
         _count_update),
        (tile, "apply_pulses", "crossbar.apply_pulses", _count_pulses),
        (tile, "program_and_verify", "crossbar.program_and_verify",
         _count_program),
        (tile, "from_distribution", "crossbar.from_distribution", None),
        (crossbar, "sample_stats_grid", "device.sample_stats_grid", None),
        (device, "fit_softbounds", "device.fit_softbounds", _count_fit),
        (device, "read_trace_csv", "device.read_trace_csv", None),
    ]


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(t: Tracer) -> dict:
    """Every per-layer metric derivable from the spans, 0 where unused."""
    m = {}
    ttv2 = tuple(TTV2_COMMANDS)
    for label in COMMAND_LABELS:
        m[f"cli.{label}_s"] = t.total(f"cli.{label}")

    m["gesturegen.generate_dataset_s"] = t.total("gesturegen.generate_dataset")
    m["gesturegen.frames"] = t.count("gesturegen.generate_dataset", "frames")

    for name in ("write_gestures_jsonl", "read_gestures_jsonl", "preprocess",
                 "write_features_csv", "read_features_csv"):
        m[f"tactile.{name}_s"] = t.total(f"tactile.{name}")
    for q in (50, 99):
        m[f"tactile.extract_features_us.p{q}"] = \
            t.percentile_us("tactile.extract_features", q)

    m["data.split_scale_s"] = sum(
        t.total(name, TRAIN_COMMANDS) for name in (
            "data.stratified_split_indices", "data.FeatureScaler.fit",
            "data.FeatureScaler.transform"))

    steps = t.sgd_steps("train_fp")
    for q in (50, 99):
        m[f"nn.fp_step_us.p{q}"] = 1e6 * _percentile(steps, q)
    for label, prefix in TTV2_COMMANDS.items():
        for q in (50, 99):
            m[f"{prefix}_step_us.p{q}"] = \
                t.percentile_us("nn.ttv2_step", q, (label,))
        m[f"{prefix}_step.self_us"] = \
            t.self_us_per_call("nn.ttv2_step", (label,))
    m["nn.transfer_column.self_us"] = \
        t.self_us_per_call("nn.transfer_column", ttv2)
    m["nn.evaluate_s"] = t.total("nn.evaluate")
    for name in ("program_network", "load_model", "save_model"):
        m[f"nn.{name}_s"] = t.total(f"nn.{name}", ("program",))

    # per-call self time inside training steps, both ttv2 runs together
    for name, parent in (("forward_mac", "nn.ttv2_step"),
                         ("backward_mac", "nn.ttv2_step"),
                         ("stochastic_update", "nn.ttv2_step")):
        m[f"crossbar.{name}.self_us"] = \
            t.self_us_per_call(f"crossbar.{name}", ttv2, parent)
        m[f"crossbar.{name}.calls"] = t.calls(f"crossbar.{name}", ttv2, parent)
    pulses_a = t.count("crossbar.stochastic_update", "pulses", ttv2)
    visited = t.count("crossbar.stochastic_update", "devices", ttv2)
    # the A-tile pulse kernel that stochastic_update calls; the same kernel
    # writes W in transfers and devices in program-and-verify
    m["crossbar.apply_pulses.update_self_us"] = t.self_us_per_call(
        "crossbar.apply_pulses", ttv2, "crossbar.stochastic_update")
    m["crossbar.apply_pulses.update_calls"] = t.calls(
        "crossbar.apply_pulses", ttv2, "crossbar.stochastic_update")
    m["crossbar.pulses_a"] = pulses_a
    m["crossbar.update_fire_ratio"] = pulses_a / visited if visited else 0.0
    m["crossbar.pulses_w"] = t.count("crossbar.apply_pulses", "pulses", ttv2,
                                     "nn.transfer_column")
    m["crossbar.apply_pulses.transfer_self_us"] = t.self_us_per_call(
        "crossbar.apply_pulses", ttv2, "nn.transfer_column")
    m["crossbar.apply_pulses.transfer_calls"] = t.calls(
        "crossbar.apply_pulses", ttv2, "nn.transfer_column")
    w_devices = t.count("nn.train_ttv2", "w_devices", ("train_ttv2",))
    m["crossbar.w_saturated_frac"] = t.count(
        "nn.train_ttv2", "w_pinned", ("train_ttv2",)) / w_devices \
        if w_devices else 0.0
    m["crossbar.from_distribution_s"] = t.total("crossbar.from_distribution",
                                                ("program",))
    m["crossbar.program_and_verify_s"] = t.total("crossbar.program_and_verify",
                                                 ("program",))
    devices = t.count("crossbar.program_and_verify", "devices", ("program",))
    pulses = t.count("crossbar.program_and_verify", "pulses", ("program",))
    m["crossbar.program_pulses"] = pulses
    m["crossbar.program_mean_iterations"] = \
        pulses / devices if devices else 0.0
    m["crossbar.program_wasted_pulse_frac"] = t.count(
        "crossbar.program_and_verify", "wasted", ("program",)) / pulses \
        if pulses else 0.0

    fits = t.durations.get(("fit_device", "device.fit_softbounds"), [])
    evals = t.count("device.fit_softbounds", "evals")
    m["device.fit_softbounds_s.p50"] = _percentile(fits, 50)
    m["device.fit_evals"] = evals
    m["device.fit_eval_us"] = 1e6 * sum(fits) / evals if evals else 0.0
    m["device.read_trace_csv_s"] = t.total("device.read_trace_csv")
    m["device.sample_stats_grid_s"] = t.total("device.sample_stats_grid")
    return m


# counters that must repeat exactly for one seed and scale
EXACT_COUNTERS = ("crossbar.pulses_a", "crossbar.pulses_w", "device.fit_evals",
                  "crossbar.program_pulses")
