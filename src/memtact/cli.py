"""Command line front end for the full pipeline.

Subcommands: gen-data, extract-features, fit-device, simulate-trace, train,
program, infer. Every command resolves its settings as flags over config-file
values over defaults, logs to stderr, and stamps outputs with a hash of the
resolved configuration so results can be traced back to their settings.
Commands and the readers they call raise OSError or ValueError on bad input;
`main` alone turns those into one stderr line and exit status 1.
"""

from __future__ import annotations

import argparse
import functools
import glob as globlib
import hashlib
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import device
from .data import FLOAT_MAX, Dataset, FeatureScaler, derive_rng, fan_out, \
    json_object, named, read_json, stratified_split_indices

log = logging.getLogger("memtact")

# ingest fans out over worker processes in tasks of this many gestures for
# gen-data and of about this many bytes of whole lines for extract-features
GEN_TASK_GESTURES = 8
EXTRACT_TASK_BYTES = 1 << 20

# Each subcommand's settings and their defaults. A setting is a config-file
# key and a flag of its default's type, or float where the default is None
# (a number chosen later): per_label is --per-label. gen-data's noise is
# gesturegen.DEFAULT_NOISE_STD, written out because only cmd_gen_data may
# import gesturegen; a test pins the two equal.
SETTINGS = {
    "gen-data": dict(labels=10, per_label=306, speed_mix="1/3,1/3,1/3",
                     noise=0.02, seed=0),
    "extract-features": dict(window=3),
    "simulate-trace": dict(scheme="10,200,200,1000", w0=0.0, seed=0,
                           index=0),
    "fit-device": dict(scheme="10,200,200,1000"),
    "train": dict(mode="fp_sgd", hidden=0, lr=None, fast_lr=0.5,
                  transfer_every=5, epochs=100, seed=0, test_fraction=0.25),
    "program": dict(epsilon=0.02, max_iter=200, seed=0),
    "infer": {},
}


def _kind(default) -> tuple[type, str]:
    """The type of a setting with this default, float for None, and its
    name in error messages."""
    kind = float if default is None else type(default)
    return kind, {int: "an integer", str: "a string",
                  float: "a finite number"}[kind]


def _resolve(args: argparse.Namespace) -> dict:
    """The command's settings: defaults, then config-file values, then flags.
    A config value must have its setting's type, where a float may be any
    finite JSON number, and a number must lie within the float range; a
    flag's text is parsed with that type."""
    defaults = SETTINGS[args.command]
    cfg = dict(defaults)
    path = args.config
    if path:
        file_cfg = json_object(path, read_json(path), (), "config")
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
        for key, val in file_cfg.items():
            kind, want = _kind(defaults[key])
            # a float setting takes any JSON number, an int setting only an
            # integer; NaN, infinities and numbers past the float range fail
            ok = type(val) is kind or (kind is float and type(val) is int)
            if ok and kind is not str:
                ok = abs(val) <= FLOAT_MAX
            if not ok:
                raise ValueError(f"{path}: config value {key} is not {want}")
        cfg.update(file_cfg)
    for key, default in defaults.items():
        text = getattr(args, key)
        if text is not None:
            kind, want = _kind(default)
            try:
                cfg[key] = kind(text)
            except ValueError:
                raise ValueError(f"--{key.replace('_', '-')} {text!r} is not "
                                 f"{want}") from None
    return cfg


def _config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _parse_scheme(text: str) -> device.PulseScheme:
    parts = [int(v) for v in text.split(",")]
    if len(parts) != 4:
        raise ValueError("scheme must be batches,up,down,alternating")
    return device.PulseScheme(*parts)


def _encode_labels(y: np.ndarray) -> tuple[np.ndarray, list]:
    # a set of Python ints, not np.unique, whose first call imports numpy.ma
    labels = [int(v) for v in y.tolist()]
    classes = sorted(set(labels))
    index = {c: i for i, c in enumerate(classes)}
    return np.array([index[v] for v in labels]), classes


# ---------------------------------------------------------------------------
# commands


def cmd_gen_data(args) -> int:
    from . import gesturegen, tactile
    cfg = _resolve(args)
    mix = []
    for part in cfg["speed_mix"].split(","):
        num, slash, den = part.partition("/")
        try:
            mix.append(float(num) / float(den) if slash else float(num))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"speed_mix {part!r} is not a number or a "
                             f"fraction") from None
    spec = gesturegen.GenSpec(
        samples_per_label=cfg["per_label"], label_set=cfg["labels"],
        speed_mix=tuple(mix), noise_std=float(cfg["noise"]), seed=cfg["seed"])
    manifest = gesturegen.dataset_manifest(spec)
    manifest["config_hash"] = _config_hash(cfg)
    total, size = manifest["total"], GEN_TASK_GESTURES
    tasks = [range(lo, min(lo + size, total)) for lo in range(0, total, size)]
    # the workers start before the file is opened, and each task's records
    # are written in id order as they arrive, so memory stays flat
    with fan_out(functools.partial(gesturegen.render_jsonl, spec),
                 tasks) as texts, open(args.out, "w") as fh:
        fh.writelines(texts)
    manifest_path = str(args.out) + ".manifest.json"
    Path(manifest_path).write_text(json.dumps(manifest, indent=2) + "\n")
    log.info("wrote %d gestures to %s (manifest %s)", manifest["total"],
             args.out, manifest_path)
    return 0


def cmd_extract(args) -> int:
    from . import tactile
    cfg = _resolve(args)
    tasks = tactile.line_ranges(args.data, EXTRACT_TASK_BYTES)
    # the workers start before the CSV is opened; the rows are written in
    # file order as their runs arrive, the first bad record in file order
    # is the one reported, and it leaves no CSV (see write_feature_rows)
    with fan_out(functools.partial(tactile.featurize_range, args.data,
                                   cfg["window"]), tasks) as runs:
        rows = tactile.require_records(
            args.data, (row for run in runs for row in run))
        count = tactile.write_feature_rows(
            rows, args.out, header_lines=[f"config_hash={_config_hash(cfg)}"])
    log.info("wrote %d feature rows to %s", count, args.out)
    return 0


def cmd_simulate_trace(args) -> int:
    cfg = _resolve(args)
    params = device.read_device_params(args.params)
    records = params if isinstance(params, list) else [params]
    index = cfg["index"]
    if not 0 <= index < len(records):
        raise ValueError(f"params index {index} out of range for "
                         f"{len(records)} record"
                         f"{'s' if len(records) != 1 else ''}")
    params = records[index]
    scheme = _parse_scheme(cfg["scheme"])
    trace = device.simulate_trace(params, scheme, float(cfg["w0"]),
                                  derive_rng(cfg["seed"], 0))
    device.write_trace_csv(trace, args.out,
                           header_lines=[f"config_hash={_config_hash(cfg)}"])
    log.info("wrote %d trace samples to %s", len(trace), args.out)
    return 0


def cmd_fit_device(args) -> int:
    cfg = _resolve(args)
    paths = []
    for pattern in args.traces:
        hits = sorted(globlib.glob(pattern))
        paths.extend(hits if hits else [pattern])
    if not paths:
        raise ValueError("no trace files given")
    if args.dist_out and len(paths) < 2:
        raise ValueError("need at least 2 traces to build a distribution")
    scheme = _parse_scheme(cfg["scheme"])
    fitted = []
    for path in paths:
        trace = device.read_trace_csv(path)
        with named(path):
            params, report = device.fit_softbounds(trace, scheme)
        log.info("fit %s: residual %.3g, sigma_c2c %.3g", path, report.mad,
                 params.sigma_c2c)
        fitted.append(params)
    device.write_device_params(fitted if len(fitted) > 1 else fitted[0],
                               args.out)
    log.info("wrote %d fitted device records to %s", len(fitted), args.out)
    if args.dist_out:
        dist = device.build_distribution(fitted)
        device.write_distribution(dist, args.dist_out,
                                  extra={"config_hash": _config_hash(cfg)})
        log.info("wrote distribution to %s", args.dist_out)
    return 0


def _split_features(x, y, test_fraction, seed):
    y_enc, classes = _encode_labels(y)
    train_idx, test_idx = stratified_split_indices(
        y_enc, test_fraction, derive_rng(seed, 7))
    scaler = FeatureScaler.fit(x[train_idx])
    train = Dataset(scaler.transform(x[train_idx]), y_enc[train_idx])
    test = Dataset(scaler.transform(x[test_idx]), y_enc[test_idx])
    return train, test, scaler, classes


def cmd_train(args) -> int:
    from . import nn, tactile
    cfg = _resolve(args)
    hidden, mode = cfg["hidden"], cfg["mode"]
    if hidden < 0:
        raise ValueError(f"hidden must be non-negative, got {hidden}")
    if args.dist and mode == "fp_sgd":
        raise ValueError("--dist applies to ttv2 mode only")
    x, y = tactile.read_features_csv(args.features)
    train, test, scaler, classes = _split_features(
        x, y, float(cfg["test_fraction"]), cfg["seed"])
    spec = nn.NetworkSpec((x.shape[1], *([hidden] if hidden else []),
                           len(classes)))
    if cfg["lr"] is None:
        cfg["lr"] = 0.05 if mode == "fp_sgd" else 0.1
    tcfg = nn.TrainConfig(mode=mode, lr=float(cfg["lr"]),
                          fast_lr=float(cfg["fast_lr"]),
                          transfer_every=cfg["transfer_every"],
                          epochs=cfg["epochs"], seed=cfg["seed"])
    chash = _config_hash(cfg)
    if mode == "fp_sgd":
        net = nn.Network(spec, seed=cfg["seed"])
        history = nn.train_sgd_fp(net, train, tcfg, test)
        model = net
    else:
        dist = _load_distribution(args.dist)
        model, history = nn.train_ttv2(spec, train, dist, tcfg, test)
    nn.save_model(model, args.model_out, scaler=scaler, classes=classes,
                  extra={"config_hash": chash, "mode": mode})
    if args.history_out:
        nn.write_history_csv(history, args.history_out,
                             header_lines=[f"config_hash={chash}"])
    if len(history):
        last = history.records[-1]
        log.info("final accuracy: train %.4f test %.4f", last.train_acc,
                 last.test_acc)
    log.info("wrote model to %s", args.model_out)
    return 0


def _load_distribution(path) -> device.DeviceDistribution:
    return device.read_distribution(path) if path \
        else device.default_distribution()


def cmd_program(args) -> int:
    from . import crossbar, nn
    cfg = _resolve(args)
    net, scaler, classes = nn.load_model(args.model)
    dist = _load_distribution(args.dist)
    analog, reports = nn.program_network(
        net, dist, seed=cfg["seed"], epsilon=float(cfg["epsilon"]),
        max_iter=cfg["max_iter"])
    chash = _config_hash(cfg)
    nn.save_model(analog, args.out, scaler=scaler, classes=classes,
                  extra={"config_hash": chash, "mode": "programmed"})
    agg = {"layers": [r.aggregates() for r in reports],
           "config_hash": chash}
    for l, r in enumerate(reports):
        log.info("layer %d: %.2f%% converged, %.1f mean iterations", l,
                 100 * r.converged_fraction, r.mean_iterations)
    if args.report_out:
        crossbar.write_program_report_csv(
            reports, args.report_out, header_lines=[f"config_hash={chash}"])
    if args.summary_out:
        Path(args.summary_out).write_text(json.dumps(agg, indent=2) + "\n")
    log.info("wrote programmed model to %s", args.out)
    return 0


def _model_accuracy(model_path, features_path, x, y) -> float:
    from . import nn
    net, scaler, classes = nn.load_model(model_path)
    if classes is None:
        raise ValueError(f"{model_path} lacks a class list")
    if x.shape[1] != net.spec.layer_dims[0]:
        raise ValueError(f"{features_path} holds {x.shape[1]} features per "
                         f"row, but {model_path} takes "
                         f"{net.spec.layer_dims[0]}")
    index = {int(c): i for i, c in enumerate(classes)}
    try:
        y_enc = np.array([index[int(v)] for v in y])
    except KeyError as e:
        raise ValueError(f"label {e} not known to the model") from None
    xt = scaler.transform(x) if scaler is not None else x
    return nn.evaluate(net, Dataset(xt, y_enc))


def cmd_infer(args) -> int:
    from . import tactile
    cfg = _resolve(args)
    x, y = tactile.read_features_csv(args.features)
    acc = _model_accuracy(args.model, args.features, x, y)
    report = {"model": str(args.model), "accuracy": acc, "samples": len(y),
              "config_hash": _config_hash(cfg)}
    if args.baseline:
        base = _model_accuracy(args.baseline, args.features, x, y)
        report["baseline_accuracy"] = base
        report["accuracy_gap"] = base - acc
    text = json.dumps(report, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    log.info("accuracy %.4f on %d samples", acc, len(y))
    return 0


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memtact",
        description="Analog crossbar gesture-recognition pipeline")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, notes=""):
        description = f"{help_text[0].upper()}{help_text[1:]}.{notes}"
        p = sub.add_parser(name, help=help_text, description=description)
        p.add_argument("--config", help="JSON config file")
        for key in SETTINGS[name]:
            p.add_argument("--" + key.replace("_", "-"))
        p.set_defaults(fn=fn)
        return p

    scheme = " --scheme is batches,up,down,alternating."
    p = add("gen-data", cmd_gen_data, "render a synthetic gesture dataset",
            " --labels is 5 or 10.")
    p.add_argument("--out", required=True, help="output JSONL path")

    p = add("extract-features", cmd_extract,
            "turn gesture series into feature rows")
    p.add_argument("--data", required=True, help="gesture JSONL path")
    p.add_argument("--out", required=True, help="output CSV path")

    p = add("simulate-trace", cmd_simulate_trace,
            "simulate a characterization pulse train", " --index picks the "
            "record when the params file holds a list." + scheme)
    p.add_argument("--params", required=True, help="device params JSON")
    p.add_argument("--out", required=True, help="output CSV path")

    p = add("fit-device", cmd_fit_device,
            "fit soft-bounds parameters from traces", scheme)
    p.add_argument("--traces", nargs="+", required=True,
                   help="trace CSV paths or globs")
    p.add_argument("--out", required=True, help="fitted params JSON path")
    p.add_argument("--dist-out", dest="dist_out",
                   help="optional distribution JSON path")

    p = add("train", cmd_train, "train a classifier on feature rows",
            " --mode is fp_sgd or ttv2; --hidden is the hidden width, 0 for "
            "none.")
    p.add_argument("--features", required=True, help="feature CSV path")
    p.add_argument("--dist", help="device distribution JSON (ttv2 mode)")
    p.add_argument("--model-out", dest="model_out", required=True)
    p.add_argument("--history-out", dest="history_out")

    p = add("program", cmd_program,
            "write a trained model onto analog tiles")
    p.add_argument("--model", required=True, help="digital model JSON")
    p.add_argument("--dist", help="device distribution JSON")
    p.add_argument("--out", required=True, help="programmed model JSON")
    p.add_argument("--report-out", dest="report_out",
                   help="per-device programming CSV")
    p.add_argument("--summary-out", dest="summary_out",
                   help="aggregate programming JSON")

    p = add("infer", cmd_infer, "evaluate a model on feature rows")
    p.add_argument("--model", required=True, help="model JSON")
    p.add_argument("--features", required=True, help="feature CSV path")
    p.add_argument("--baseline", help="baseline model JSON for gap reporting")
    p.add_argument("--out", help="accuracy report JSON path")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.fn(args)
    except (OSError, ValueError) as e:
        raise SystemExit(f"error: {e}")


if __name__ == "__main__":
    sys.exit(main())
