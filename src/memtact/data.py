"""Shared plumbing: datasets, feature scaling, splits, rng stream derivation,
the JSON readers and the CSV codec, which name the file a bad value came
from, and the fan-out of independent tasks over worker processes."""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import sys
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np


def derive_rng(seed: int, *stream: int) -> np.random.Generator:
    """Return a generator for the stream identified by (seed, *stream).

    Distinct keys give statistically independent, reproducible streams. Two
    consumers share draws when their keys are equal, and keys collide:
    trailing zeros are ignored, so derive_rng(s) is derive_rng(s, 0), and
    gesture ids run through the small integers that key the split (7), the
    TTv2 update (3) and the tile streams (10 and up). ROADMAP item 11
    ("Disjoint, named random streams") would give each consumer its own key.
    """
    if int(seed) < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return np.random.default_rng([int(seed), *(int(s) for s in stream)])


@dataclass
class Dataset:
    """Feature matrix plus integer labels, one row per sample."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.x.ndim != 2:
            raise ValueError("x must be 2-D (samples, features)")
        if self.y.shape != (self.x.shape[0],):
            raise ValueError("y must have one label per row of x")
        if not np.all(np.isfinite(self.x)):
            raise ValueError("features must be finite")

    def __len__(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class FeatureScaler:
    """Per-column standardization (zero mean, unit variance) fitted on
    training data.

    Constant columns map to zero so degenerate features never divide by zero.
    Standardized columns keep occasional large values rare, which matters for
    the pulse-coincidence update: its firing probabilities are normalized by
    running maxima, so heavy-tailed columns fire far fewer pulses than ones
    that sit near their maximum all the time.
    """

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, x: np.ndarray) -> "FeatureScaler":
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] == 0:
            raise ValueError("need a non-empty 2-D matrix to fit a scaler")
        return cls(mean=x.mean(axis=0), std=x.std(axis=0))

    def transform(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        safe = np.where(self.std > 0, self.std, 1.0)
        return (x - self.mean) / safe

    def to_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureScaler":
        return cls(mean=np.asarray(d["mean"], float),
                   std=np.asarray(d["std"], float))


def stratified_split_indices(labels, test_fraction: float, rng: np.random.Generator):
    """Split sample indices into (train, test), stratified per label.

    Each label contributes round(n * test_fraction) test samples, clamped so
    both sides stay non-empty. Labels with fewer than 2 samples are rejected.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.size == 0:
        raise ValueError("labels must be a non-empty 1-D sequence")
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must lie strictly between 0 and 1")
    train_idx, test_idx = [], []
    # the sorted distinct labels, as np.unique gives them, without the
    # numpy.ma import of its first call
    for lab in sorted(set(labels.tolist())):
        idx = np.flatnonzero(labels == lab)
        if idx.size < 2:
            raise ValueError(f"label {lab} has fewer than 2 samples, cannot split")
        idx = idx[rng.permutation(idx.size)]
        n_test = int(round(idx.size * test_fraction))
        n_test = min(max(n_test, 1), idx.size - 1)
        test_idx.append(idx[:n_test])
        train_idx.append(idx[n_test:])
    train = np.sort(np.concatenate(train_idx))
    test = np.sort(np.concatenate(test_idx))
    return train, test


@contextlib.contextmanager
def named(where):
    """Put `where: ` in front of a ValueError raised in the block."""
    try:
        yield
    except ValueError as e:
        raise ValueError(f"{where}: {e}") from None


def read_json(path):
    """The JSON value in a file; a ValueError for bad text names the file."""
    with named(path):
        return json.loads(Path(path).read_text())


def json_object(path, payload, keys, what: str) -> dict:
    """payload if it is a JSON object holding every key; else a ValueError."""
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: {what} is not a JSON object")
    missing = [k for k in keys if k not in payload]
    if missing:
        raise ValueError(f"{path}: {what} lacks {', '.join(missing)}")
    return payload


# the types json.loads gives a JSON number; float() and np.asarray would
# also take text that spells one and booleans, which are not numbers here.
# Every number read must lie within the float range, integers too.
JSON_NUMBERS = {int, float}
FLOAT_MAX = sys.float_info.max


def json_float(path, value, what: str) -> float:
    """value, a JSON number, as a float; else a ValueError naming the file
    and the field, also for an integer past the float range."""
    if type(value) not in JSON_NUMBERS:
        raise ValueError(f"{path}: {what} is not a number")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{path}: {what} is past the float range") from None


def json_array(path, value, what: str, shape: tuple) -> np.ndarray:
    """value, nested lists of JSON numbers, as a float64 array of the given
    shape with finite values; else a ValueError naming the file and the
    field."""
    # an object array takes any nesting, and holds the values themselves
    a = np.array(value, dtype=object)
    if not set(map(type, a.flat)) <= JSON_NUMBERS:
        raise ValueError(f"{path}: {what} is not an array of numbers")
    try:
        a = a.astype(np.float64)
    except OverflowError:
        raise ValueError(f"{path}: {what} holds a number past the float "
                         f"range") from None
    if a.shape != shape:
        raise ValueError(f"{path}: {what} must have shape {shape}, not "
                         f"{a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{path}: {what} must be finite")
    return a


def write_csv(path, header_lines, columns, rows, end="\r\n") -> int:
    """Write a `# ` line per header line, the column names, then each row of
    field strings joined by commas, each ended by end; return the row count.
    No field is quoted: each is a number or a fixed column name."""
    count = 0
    with open(path, "w", newline="") as fh:
        fh.writelines(f"# {line}\n" for line in header_lines)
        fh.write(",".join(columns) + end)
        for fields in rows:
            fh.write(",".join(fields) + end)
            count += 1
    return count


def read_csv(path, kind: str, columns: list, parse, *,
             more_columns: bool = False):
    """Yield parse(fields) for each row of a CSV file, skipping blank and
    `#` lines. The first other line must name the columns, and others after
    them only if more_columns, else `<path>: not a <kind> file`; a
    ValueError or OverflowError from parse is a ValueError with
    `<path>, line N: ` in front."""
    with open(path) as fh:
        lines = enumerate(fh, 1)
        header = next((line for _, line in lines
                       if line.strip()[:1] not in ("", "#")), "")
        names = header.strip().split(",")
        if (names[:len(columns)] if more_columns else names) != columns:
            raise ValueError(f"{path}: not a {kind} file")
        for lineno, line in lines:
            line = line.strip()
            if line and line[0] != "#":
                try:
                    row = parse(line.split(","))
                except (ValueError, OverflowError) as e:
                    raise ValueError(f"{path}, line {lineno}: {e}") from None
                yield row


@contextlib.contextmanager
def fan_out(fn, tasks):
    """Give an iterator over fn(task) for each task, in task order.

    The tasks run in forked worker processes, as many as the CPUs this
    process may use but no more than there are tasks, with at most two
    tasks per worker in flight, so memory stays flat in the number of
    tasks. The workers start when the block is entered, so a caller that
    opens its output inside the block forks no unflushed buffer, and they
    are shut down and joined when it exits, on an error too. With one
    worker, or without CPU affinity or the fork start method, fn runs here,
    one task at a time. fn and the tasks must pickle; an error that fn
    raises reaches the caller when its task's turn comes.
    """
    tasks = list(tasks)
    cpus = len(os.sched_getaffinity(0)) \
        if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(tasks))
    if workers > 1:
        import multiprocessing
        if "fork" not in multiprocessing.get_all_start_methods():
            workers = 1
    if workers <= 1:
        yield map(fn, tasks)
        return
    from concurrent.futures import ProcessPoolExecutor
    # fork, named because Python 3.14 changes the Linux default: spawn would
    # import numpy again in every worker. The pool forks its workers before
    # it starts its own threads, and the CLI runs none of its own.
    pool = ProcessPoolExecutor(workers,
                               mp_context=multiprocessing.get_context("fork"))
    try:
        queued = iter(tasks)
        pending = deque(pool.submit(fn, task)
                        for task in itertools.islice(queued, 2 * workers))

        def results():
            while pending:
                result = pending.popleft().result()
                pending.extend(pool.submit(fn, task)
                               for task in itertools.islice(queued, 1))
                yield result

        yield results()
    finally:
        pool.shutdown(cancel_futures=True)
