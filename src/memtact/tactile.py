"""Tactile gesture preprocessing and hand-crafted feature extraction.

Gestures are time series of 9x9 pressure frames. The 38-entry feature vector
summarizes intensity, temporal structure, spatial mass distribution, contact
area, and the pressure-weighted centroid trajectory.

Every reduction is a canonical-order sum: the values are copied into a
C-contiguous array, sorted along the last axis, and summed along it. A sum
then depends only on the multiset of its values, so features are invariant
bit for bit under reorderings of the data such as temporal reversal and
frame transposition. The contiguous copy matters: a transposed view sorted
in place keeps its strides, and numpy sums it with plain sequential
accumulation instead of pairwise, which breaks the symmetry.
"""

from __future__ import annotations

import functools
import io
import json
import os
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import read_csv, write_csv

GRID = 9
FEATURE_LENGTH = 38
AREA_THRESHOLD = 0.1
TRAJECTORY_POINTS = 6
_EMPTY_FRAME_PRESSURE = 1e-9
_GRID_CENTER = 4.0

SPEEDS = ("slow", "regular", "fast")

FEATURE_NAMES = (
    ["mean_p", "max_p", "variability", "peak_count", "duration"]
    + [f"row_mean_{r}" for r in range(GRID)]
    + [f"col_mean_{c}" for c in range(GRID)]
    + ["area_max", "area_mean"]
    + [f"traj_x_{k}" for k in range(TRAJECTORY_POINTS)]
    + [f"traj_y_{k}" for k in range(TRAJECTORY_POINTS)]
    + ["path_length"]
)


@dataclass
class GestureSeries:
    """One gesture: (frames, 9, 9) pressures with a label and speed tag."""

    frames: np.ndarray
    label: int
    speed: str

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=np.float64)
        if frames.ndim != 3 or frames.shape[1:] != (GRID, GRID):
            raise ValueError(f"frames must be (n, {GRID}, {GRID})")
        if frames.shape[0] < 1:
            raise ValueError("a gesture needs at least one frame")
        if not np.all(np.isfinite(frames)):
            raise ValueError("pressures must be finite")
        if frames.min() < 0:
            raise ValueError("pressures must be non-negative")
        if self.speed not in SPEEDS:
            raise ValueError(f"speed must be one of {SPEEDS}")
        if not 1 <= int(self.label) <= 10:
            raise ValueError("label must lie in 1..10")
        self.frames = frames
        self.label = int(self.label)

    def __len__(self) -> int:
        return int(self.frames.shape[0])


def _canonical_sum(values) -> np.ndarray:
    """Sum along the last axis in ascending order of value.

    np.array always copies, into C order, so the in-place sort never
    touches the caller's data and the sum runs over contiguous rows.
    """
    s = np.array(values, dtype=np.float64, order="C")
    s.sort(axis=-1)
    return s.sum(axis=-1)


def preprocess(series: GestureSeries, window: int = 3) -> GestureSeries:
    """Smooth each taxel with a centered running average, then rescale to [0, 1].

    The window is truncated at the edges. Normalization is min-max over the
    whole gesture; a constant gesture comes back all zero.
    """
    if window < 1:
        raise ValueError("window must be at least 1")
    frames = series.frames
    n = frames.shape[0]
    left = (window - 1) // 2
    right = window // 2
    # one shifted slice per window offset, added in ascending source order
    # as frames[lo:hi].mean(axis=0) would, then divided by the window width
    sums = np.zeros_like(frames)
    width = np.zeros(n)
    for d in range(-left, right + 1):
        lo, hi = max(0, -d), min(n, n - d)
        if lo < hi:
            sums[lo:hi] += frames[lo + d:hi + d]
            width[lo:hi] += 1.0
    smoothed = sums / width[:, np.newaxis, np.newaxis]
    lo_v = smoothed.min()
    hi_v = smoothed.max()
    if hi_v > lo_v:
        smoothed = (smoothed - lo_v) / (hi_v - lo_v)
    else:
        smoothed = np.zeros_like(smoothed)
    return GestureSeries(frames=smoothed, label=series.label, speed=series.speed)


def _frame_totals(frames: np.ndarray) -> np.ndarray:
    return _canonical_sum(frames.reshape(frames.shape[0], GRID * GRID))


def _count_peaks(totals: np.ndarray) -> int:
    mid = totals[1:-1]
    return int(np.count_nonzero((mid > totals[:-2]) & (mid > totals[2:])))


def peak_count(series: GestureSeries) -> int:
    """Number of strict interior local maxima of the frame-average pressure."""
    return _count_peaks(_frame_totals(series.frames))


def contact_area(series: GestureSeries) -> tuple[float, float]:
    """(max, mean) number of taxels above AREA_THRESHOLD per frame."""
    counts = (series.frames > AREA_THRESHOLD).sum(axis=(1, 2))
    return float(counts.max()), float(counts.sum()) / len(counts)


def _raw_centroids(frames: np.ndarray, totals: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame pressure-weighted centroid (x = column, y = row).

    Frames with essentially no pressure inherit the previous centroid; a
    leading empty frame sits at the grid center.
    """
    n = frames.shape[0]
    cols = np.arange(GRID, dtype=np.float64)
    wx = _canonical_sum((frames * cols[np.newaxis, :]).reshape(n, -1))
    wy = _canonical_sum((frames * cols[:, np.newaxis]).reshape(n, -1))
    valid = totals >= _EMPTY_FRAME_PRESSURE
    safe = np.where(valid, totals, 1.0)
    # forward-fill: each frame reads the last non-empty frame at or before it
    last = np.maximum.accumulate(np.where(valid, np.arange(n), -1))
    seen = last >= 0
    cx = np.where(seen, (wx / safe)[last], _GRID_CENTER)
    cy = np.where(seen, (wy / safe)[last], _GRID_CENTER)
    return cx, cy


def _resample_curve(values: np.ndarray) -> np.ndarray:
    """Linear resample onto TRAJECTORY_POINTS equidistant time points.

    Interpolation weights are computed for the first half of the grid only
    (TRAJECTORY_POINTS is even); each mirrored point reuses the same weight
    pair with the roles swapped on the complementary segment n - 2 - j. The
    paired sums then consist of identical products, so reversing the input
    reverses the output bit for bit.
    """
    n = values.shape[0]
    if n == 1:
        return np.full(TRAJECTORY_POINTS, values[0])
    last = float(n - 1)
    out = np.empty(TRAJECTORY_POINTS)
    for k in range(TRAJECTORY_POINTS // 2):
        t = k * last / (TRAJECTORY_POINTS - 1)
        j = min(int(t), n - 2)
        f = t - j
        c = 1.0 - f
        j_m = n - 2 - j
        out[k] = c * values[j] + f * values[j + 1]
        out[TRAJECTORY_POINTS - 1 - k] = f * values[j_m] + c * values[j_m + 1]
    return out


def centroid_trajectory(series: GestureSeries
                        ) -> tuple[np.ndarray, np.ndarray, float]:
    """Resampled centroid trajectory (traj_x, traj_y) and raw path length.

    traj_x follows the column (horizontal) coordinate, traj_y the row
    (vertical) coordinate. Path length is the polyline length of the raw
    per-frame centroids, before resampling.
    """
    return _trajectory(series.frames, _frame_totals(series.frames))


def _trajectory(frames: np.ndarray, totals: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, float]:
    cx, cy = _raw_centroids(frames, totals)
    dx = np.diff(cx)
    dy = np.diff(cy)
    path = float(_canonical_sum(np.sqrt(dx * dx + dy * dy)))
    return _resample_curve(cx), _resample_curve(cy), path


def extract_features(series: GestureSeries) -> np.ndarray:
    """Compute the 38-entry feature vector (layout in FEATURE_NAMES)."""
    frames = series.frames
    n = frames.shape[0]
    taxels = GRID * GRID

    totals = _frame_totals(frames)
    mean_p = float(_canonical_sum(totals)) / (n * taxels)
    max_p = float(_canonical_sum(frames.max(axis=0).ravel())) / taxels
    if n > 1:
        diffs = np.abs(np.diff(frames, axis=0)).ravel()
        variability = float(_canonical_sum(diffs)) / ((n - 1) * taxels)
    else:
        variability = 0.0
    peaks = float(_count_peaks(totals))
    duration = float(n)

    # one array row per grid row r (frames[:, r, :]) and one per column c
    # (frames[:, :, c]); transposing the frames swaps the two arrays
    row_means = _canonical_sum(
        frames.transpose(1, 0, 2).reshape(GRID, -1)) / (n * GRID)
    col_means = _canonical_sum(
        frames.transpose(2, 0, 1).reshape(GRID, -1)) / (n * GRID)

    area_max, area_mean = contact_area(series)
    traj_x, traj_y, path = _trajectory(frames, totals)

    # trajectory features measure displacement from the grid center, so a
    # contact-free series yields an all-zero vector apart from duration
    out = np.concatenate([
        [mean_p, max_p, variability, peaks, duration],
        row_means, col_means,
        [area_max, area_mean],
        traj_x - _GRID_CENTER, traj_y - _GRID_CENTER,
        [path],
    ])
    assert out.shape == (FEATURE_LENGTH,)
    return out


# ---------------------------------------------------------------------------
# file formats


@functools.cache
def _pressure_tokens() -> np.ndarray:
    """repr(k / 1e5) for k = 0..100000: each 5-place value in [0, 1].

    Built from digits: "0." and k's five digits without their trailing
    zeros, except that repr writes 0, 1 and k = 1..9 (1e-05 .. 9e-05)
    differently.
    """
    chars = np.zeros((100001, 7), dtype=np.uint8)
    chars[:, :2] = np.frombuffer(b"0.", dtype=np.uint8)
    # rows k = 0..99999, where digit j steps every 10 ** (4 - j) rows
    digits = chars[:-1, 2:]
    ascii_digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    for j in range(5):
        digits[:, j] = np.tile(np.repeat(ascii_digits, 10 ** (4 - j)), 10 ** j)
    # trailing zeros become NULs, which end an S7 entry
    trailing = np.ones(len(digits), dtype=bool)
    for j in range(4, -1, -1):
        trailing &= digits[:, j] == ord("0")
        digits[trailing, j] = 0
    tokens = chars.view("S7").ravel()
    tokens[0], tokens[-1] = b"0.0", b"1.0"
    tokens[1:10] = [b"%de-05" % k for k in range(1, 10)]
    return tokens


def encode_gesture(gid: int, g: GestureSeries) -> str:
    """One JSON record {id, label, speed, frames} and its newline.

    The text is json.dumps's of the frames rounded to 5 places. np.round is
    rint(x * 1e5) / 1e5, so a rounded value in [0, 1] is row k of the token
    table; json.dumps renders the others, -0.0 among them. Each token and
    the separator after it fill one row of a NUL-padded record array, whose
    bytes without the NULs are the frames' text.
    """
    k = np.rint(g.frames.reshape(-1, GRID * GRID) * 1e5)
    lane = ~(k <= 1e5) | np.signbit(k)
    tokens = _pressure_tokens()[np.where(lane, 0, k).astype(np.intp)]
    if lane.any():
        extra = [json.dumps(v) for v in (k[lane] / 1e5).tolist()]
        tokens = tokens.astype(f"S{max(7, *map(len, extra))}")
        tokens[lane] = extra
    rec = np.empty(k.shape, dtype=[("v", tokens.dtype), ("s", "S5")])
    rec["v"], rec["s"] = tokens, b","
    rec["s"][:, GRID - 1::GRID] = b"],["
    rec["s"][:, -1] = b"]],[["
    rec["s"][-1, -1] = b"]]]"
    head = json.dumps({"id": gid, "label": g.label, "speed": g.speed},
                      separators=(",", ":"))
    body = rec.tobytes().translate(None, b"\0").decode()
    return f'{head[:-1]},"frames":[[[{body}}}\n'


def write_gestures_jsonl(gestures, path) -> None:
    """One record per gesture (see encode_gesture), its index as its id.

    gestures may be any iterable; each record is written as it arrives.
    """
    with open(path, "w") as fh:
        for i, g in enumerate(gestures):
            fh.write(encode_gesture(i, g))


def _parse_lines(path, lines, first: int = 1) -> Iterator[GestureSeries]:
    """The gestures on lines of a gesture file, the first being line first;
    a bad record raises a ValueError naming its line."""
    for lineno, line in enumerate(lines, first):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
            if not isinstance(rec, dict):
                raise TypeError("not a JSON object")
            label = rec["label"]
            # int() would truncate 3.7 to 3 and turn true into 1
            if isinstance(label, bool) or not isinstance(label, int):
                raise TypeError(f"label {label!r} is not an integer")
            # and a float cast would read "0.5" and true as numbers
            frames = np.asarray(rec["frames"])
            if frames.dtype.kind not in "iuf":
                raise TypeError(f"frames hold {frames.dtype} values, "
                                f"not numbers")
            g = GestureSeries(frames=frames, label=label, speed=rec["speed"])
        except KeyError as e:
            raise ValueError(
                f"{path}, line {lineno}: missing field {e}") from None
        except (TypeError, ValueError) as e:
            raise ValueError(
                f"{path}, line {lineno}: bad gesture record: {e}") from None
        yield g


def require_records(path, items) -> Iterator:
    """Pass items through; once they run out, raise if there were none."""
    empty = True
    for item in items:
        empty = False
        yield item
    if empty:
        raise ValueError(f"{path}: no gesture records")


def read_gestures_jsonl(path) -> Iterator[GestureSeries]:
    """Yield the gesture records one at a time, in file order.

    A bad record raises ValueError naming its line when the reader reaches
    it, and a file without records raises once it is exhausted; the file is
    closed when the reader finishes or is closed.
    """
    with open(path) as fh:
        yield from require_records(path, _parse_lines(path, fh))


def line_ranges(path, size: int) -> list[tuple[int, int, int]]:
    """Split a file into runs of whole lines of about size bytes each.

    Returns (offset, length, number of the first line) per run. Lines are
    counted as text mode splits them, at LF, CR LF or a lone CR, so the
    numbers match read_gestures_jsonl's.
    """
    runs = []
    offset, lineno = 0, 1
    with open(path, "rb") as fh:
        while block := fh.read(size):
            block += fh.readline()
            runs.append((offset, len(block), lineno))
            offset += len(block)
            cr = block.count(b"\r")
            lineno += block.count(b"\n") + cr - (cr and block.count(b"\r\n"))
    return runs


def featurize_range(path, window: int, run: tuple[int, int, int]) -> list:
    """(features, label) of each gesture in one run of line_ranges."""
    offset, length, first = run
    with open(path, "rb") as fh:
        fh.seek(offset)
        text = io.TextIOWrapper(io.BytesIO(fh.read(length)))
    return [(extract_features(preprocess(g, window=window)), g.label)
            for g in _parse_lines(path, text, first)]


def write_features_csv(features: np.ndarray, labels, path,
                       header_lines=()) -> None:
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if features.ndim != 2 or features.shape[1] != FEATURE_LENGTH:
        raise ValueError(f"features must be (n, {FEATURE_LENGTH})")
    if labels.shape != (features.shape[0],):
        raise ValueError("one label per feature row required")
    write_feature_rows(zip(features, labels), path, header_lines)


def write_feature_rows(rows, path, header_lines=()) -> int:
    """Write (features, label) pairs to a feature CSV as rows yields them.

    The rows go to `<path>.tmp`, which replaces path after the last row. If
    rows or a write raises, the temporary file is deleted and path is left
    as it was, so a bad input leaves no partial output. Returns the number
    of rows written.
    """
    def fields():
        for row, lab in rows:
            if len(row) != FEATURE_LENGTH:
                raise ValueError(f"feature rows must hold {FEATURE_LENGTH} "
                                 f"values")
            values = np.asarray(row, dtype=np.float64).tolist()
            yield [*map(repr, values), str(int(lab))]

    tmp = Path(f"{path}.tmp")
    try:
        count = write_csv(tmp, header_lines, FEATURE_NAMES + ["label"],
                          fields(), "\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return count


def _feature_row(fields) -> tuple[list, np.int64]:
    if len(fields) != FEATURE_LENGTH + 1:
        raise ValueError(f"{len(fields)} fields, not {FEATURE_LENGTH + 1}")
    if not fields[-1].lstrip("-").isdecimal():
        raise ValueError(f"label {fields[-1]!r} is not an integer")
    return list(map(float, fields[:-1])), np.int64(fields[-1])


def read_features_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Feature rows, each FEATURE_LENGTH numbers and an integer label, read
    one at a time into one array; a ValueError names the file, and a bad
    row its line."""
    rows = np.fromiter(
        read_csv(path, "feature", FEATURE_NAMES + ["label"], _feature_row),
        [("x", np.float64, (FEATURE_LENGTH,)), ("label", np.int64)])
    if not rows.size:
        raise ValueError(f"{path}: no feature rows")
    if not np.all(np.isfinite(rows["x"])):
        raise ValueError(f"{path}: features must be finite")
    return rows["x"], rows["label"]
