"""Shared plumbing: datasets, feature scaling, splits, rng stream derivation,
and the JSON readers that name the file a bad value came from."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


def derive_rng(seed: int, *stream: int) -> np.random.Generator:
    """Return a generator for the stream identified by (seed, *stream).

    Distinct stream ids give statistically independent, reproducible streams,
    so independent consumers (tiles, shuffling, noise injection) never share
    draws.
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
    for lab in np.unique(labels):
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


def read_json(path):
    """The JSON value in a file; a ValueError for bad text names the file."""
    try:
        return json.loads(Path(path).read_text())
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def json_object(path, payload, keys, what: str) -> dict:
    """payload if it is a JSON object holding every key; else a ValueError."""
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: {what} is not a JSON object")
    missing = [k for k in keys if k not in payload]
    if missing:
        raise ValueError(f"{path}: {what} lacks {', '.join(missing)}")
    return payload


def json_float(path, value, what: str) -> float:
    """float(value); a ValueError naming the file if value has none."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{path}: {what} is not a number") from None


def json_array(path, value, what: str) -> np.ndarray:
    """value as a float64 array; else a ValueError naming the file."""
    try:
        return np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValueError(f"{path}: {what} is not an array of numbers") \
            from None
