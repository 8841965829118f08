"""Feature extraction tests: worked examples, symmetries, file formats."""

import gc
import hashlib
import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memtact.cli import main
from memtact.data import derive_rng
from memtact.tactile import (
    FEATURE_LENGTH,
    FEATURE_NAMES,
    SPEEDS,
    GestureSeries,
    _pressure_tokens,
    _resample_curve,
    centroid_trajectory,
    contact_area,
    extract_features,
    featurize_range,
    line_ranges,
    peak_count,
    preprocess,
    read_features_csv,
    read_gestures_jsonl,
    write_feature_rows,
    write_features_csv,
    write_gestures_jsonl,
)

# feature vector layout (see FEATURE_NAMES)
IDX_LINEAR = [0, 1, 2] + list(range(5, 23))   # pressure-proportional entries
IDX_AREA = [23, 24]                           # absolute-threshold counts
IDX_GEOMETRY = [3, 4] + list(range(25, 38))   # counts and centroid geometry
IDX_TRAJ_X = list(range(25, 31))
IDX_TRAJ_Y = list(range(31, 37))


def series(frames, label=1, speed="regular"):
    return GestureSeries(frames=np.asarray(frames, dtype=np.float64),
                         label=label, speed=speed)


def random_series(rng, n=None):
    """Strictly positive pressures so no frame ever counts as empty."""
    if n is None:
        n = int(rng.integers(2, 80))
    return series(rng.uniform(0.01, 1.0, size=(n, 9, 9)))


@st.composite
def frame_stacks(draw, positive=False, max_frames=40):
    """(n, 9, 9) pressures, n >= 1.

    Unless strictly positive, whole frames and scattered taxels are zeroed,
    so empty frames (and all-zero series) occur.
    """
    n = draw(st.integers(1, max_frames))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if positive:
        return rng.uniform(0.01, 1.0, size=(n, 9, 9))
    frames = rng.uniform(0.0, 1.0, size=(n, 9, 9))
    frames[rng.uniform(size=frames.shape) < draw(st.floats(0.0, 1.0))] = 0.0
    frames[draw(st.lists(st.booleans(), min_size=n, max_size=n))] = 0.0
    return frames


# small and reproducible: the whole suite should stay well under a minute
PROPERTY = settings(max_examples=50, deadline=None, derandomize=True,
                    database=None)


def single_taxel(n, positions, value=1.0):
    frames = np.zeros((n, 9, 9))
    for t, (r, c) in enumerate(positions):
        frames[t, r, c] = value
    return series(frames)


# -- preprocessing -------------------------------------------------------------


def test_preprocess_window_one_only_rescales():
    rng = derive_rng(20, 0)
    frames = rng.uniform(0.0, 1.0, size=(12, 9, 9))
    frames[0, 0, 0] = 0.0
    frames[5, 4, 4] = 1.0
    out = preprocess(series(frames), window=1)
    assert np.array_equal(out.frames, frames)


def test_preprocess_constant_series_goes_to_zero():
    out = preprocess(series(np.full((7, 9, 9), 0.42)))
    assert np.array_equal(out.frames, np.zeros((7, 9, 9)))


def test_preprocess_impulse_worked_example():
    frames = np.zeros((3, 9, 9))
    frames[1, 2, 5] = 1.0
    out = preprocess(series(frames), window=3)
    # truncated means 1/2, 1/3, 1/2 then min-max against the peak of 1/2
    assert np.array_equal(out.frames[:, 2, 5], [1.0, 2.0 / 3.0, 1.0])
    mask = np.ones((3, 9, 9), dtype=bool)
    mask[:, 2, 5] = False
    assert np.all(out.frames[mask] == 0.0)


def test_preprocess_rejects_bad_window():
    with pytest.raises(ValueError):
        preprocess(random_series(derive_rng(20, 1)), window=0)


def test_preprocess_keeps_label_and_speed():
    g = series(np.zeros((4, 9, 9)), label=7, speed="slow")
    out = preprocess(g)
    assert out.label == 7 and out.speed == "slow"


def preprocess_oracle(frames, window):
    """The per-frame loop that preprocess replaced."""
    n = frames.shape[0]
    left = (window - 1) // 2
    right = window // 2
    smoothed = np.empty_like(frames)
    for t in range(n):
        smoothed[t] = frames[max(0, t - left):min(n, t + right + 1)].mean(axis=0)
    lo, hi = smoothed.min(), smoothed.max()
    if hi > lo:
        return (smoothed - lo) / (hi - lo)
    return np.zeros_like(smoothed)


@PROPERTY
@given(frames=frame_stacks(max_frames=12), window=st.integers(1, 5))
def test_preprocess_matches_per_frame_loop_bit_for_bit(frames, window):
    out = preprocess(series(frames), window=window)
    assert out.frames.tobytes() == preprocess_oracle(frames, window).tobytes()


# -- scalar summaries ----------------------------------------------------------


def test_peak_count_worked_examples():
    ramp = [np.full((9, 9), v) for v in (0.1, 0.2, 0.3, 0.4)]
    assert peak_count(series(ramp)) == 0
    assert peak_count(series(np.full((6, 9, 9), 0.3))) == 0
    two = single_taxel(5, [(0, 0)] * 5).frames.copy()
    two[:, 0, 0] = [0.0, 1.0, 0.0, 1.0, 0.0]
    assert peak_count(series(two)) == 2


def test_contact_area_worked_examples():
    assert contact_area(series(np.zeros((4, 9, 9)))) == (0.0, 0.0)
    assert contact_area(series(np.ones((3, 9, 9)))) == (81.0, 81.0)
    frames = np.zeros((5, 9, 9))
    frames[2, 0, :5] = 0.5
    assert contact_area(series(frames)) == (5.0, 1.0)


def test_contact_area_threshold_is_strict():
    frames = np.full((2, 9, 9), 0.1)
    assert contact_area(series(frames)) == (0.0, 0.0)


# -- centroid trajectory -------------------------------------------------------


def test_stationary_center_blob_trajectory():
    kernel = np.outer([0.25, 0.5, 0.25], [0.25, 0.5, 0.25])
    frames = np.zeros((10, 9, 9))
    frames[:, 3:6, 3:6] = kernel
    tx, ty, path = centroid_trajectory(series(frames))
    assert np.array_equal(tx, np.full(6, 4.0))
    assert np.array_equal(ty, np.full(6, 4.0))
    assert path == 0.0


def test_linear_sweep_trajectory():
    g = single_taxel(9, [(0, c) for c in range(9)])
    tx, ty, path = centroid_trajectory(g)
    assert np.array_equal(tx, [0.0, 1.6, 3.2, 8 - 3.2, 8 - 1.6, 8.0])
    assert np.array_equal(ty, np.zeros(6))
    assert path == 8.0


def test_empty_frames_inherit_centroid():
    frames = np.zeros((6, 9, 9))
    frames[0, 3, 2] = 0.5
    tx, ty, path = centroid_trajectory(series(frames))
    assert np.array_equal(tx, np.full(6, 2.0))
    assert np.array_equal(ty, np.full(6, 3.0))
    assert path == 0.0


def test_single_frame_series_features():
    rng = derive_rng(21, 0)
    g = random_series(rng, n=1)
    f = extract_features(g)
    names = dict(zip(FEATURE_NAMES, f))
    assert names["variability"] == 0.0
    assert names["peak_count"] == 0.0
    assert names["duration"] == 1.0
    assert names["path_length"] == 0.0
    assert np.all(f[IDX_TRAJ_X] == f[IDX_TRAJ_X][0])


# -- full feature vector -------------------------------------------------------


def test_all_zero_series_gives_zero_features_except_duration():
    f = extract_features(series(np.zeros((17, 9, 9))))
    assert f[FEATURE_NAMES.index("duration")] == 17.0
    rest = np.delete(f, FEATURE_NAMES.index("duration"))
    assert np.array_equal(rest, np.zeros(FEATURE_LENGTH - 1))


def test_feature_vector_length_and_finiteness():
    rng = derive_rng(22, 0)
    for _ in range(60):
        f = extract_features(random_series(rng))
        assert f.shape == (FEATURE_LENGTH,)
        assert np.all(np.isfinite(f))


def test_time_reversal_symmetry_is_exact():
    rng = derive_rng(23, 0)
    for _ in range(25):
        g = random_series(rng)
        f = extract_features(g)
        r = extract_features(series(g.frames[::-1].copy()))
        expected = f.copy()
        expected[IDX_TRAJ_X] = f[IDX_TRAJ_X][::-1]
        expected[IDX_TRAJ_Y] = f[IDX_TRAJ_Y][::-1]
        assert np.array_equal(r, expected)


def test_transpose_symmetry_is_exact():
    rng = derive_rng(23, 1)
    for _ in range(25):
        g = random_series(rng)
        f = extract_features(g)
        t = extract_features(series(g.frames.transpose(0, 2, 1).copy()))
        expected = f.copy()
        expected[5:14], expected[14:23] = f[14:23], f[5:14]
        expected[IDX_TRAJ_X] = f[IDX_TRAJ_Y]
        expected[IDX_TRAJ_Y] = f[IDX_TRAJ_X]
        assert np.array_equal(t, expected)


@PROPERTY
@given(frames=frame_stacks())
def test_transpose_symmetry_property(frames):
    """Exact for any length, empty frames included."""
    f = extract_features(series(frames))
    t = extract_features(series(frames.transpose(0, 2, 1).copy()))
    expected = f.copy()
    expected[5:14], expected[14:23] = f[14:23], f[5:14]
    expected[IDX_TRAJ_X] = f[IDX_TRAJ_Y]
    expected[IDX_TRAJ_Y] = f[IDX_TRAJ_X]
    assert np.array_equal(t, expected)


@PROPERTY
@given(frames=frame_stacks(positive=True))
def test_time_reversal_symmetry_property(frames):
    """Exact for strictly positive frames.

    Empty frames inherit the previous centroid, which is deliberately not
    symmetric in time, so they are left out here.
    """
    f = extract_features(series(frames))
    r = extract_features(series(frames[::-1].copy()))
    expected = f.copy()
    expected[IDX_TRAJ_X] = f[IDX_TRAJ_X][::-1]
    expected[IDX_TRAJ_Y] = f[IDX_TRAJ_Y][::-1]
    assert np.array_equal(r, expected)


@PROPERTY
@given(frames=frame_stacks())
def test_strided_views_match_their_copies(frames):
    """Features depend on the values of the frames, not on their layout."""
    for view in (frames[::-1], frames.transpose(0, 2, 1),
                 np.asfortranarray(frames)):
        assert np.array_equal(extract_features(series(view)),
                              extract_features(series(view.copy())))


def features_oracle(frames):
    """Per-frame loops over exactly rounded math.fsum sums."""
    def fsum(values):
        return math.fsum(np.ravel(values).tolist())

    n = frames.shape[0]
    grid = np.arange(9.0)
    totals = [fsum(f) for f in frames]
    peaks = sum(totals[t - 1] < totals[t] > totals[t + 1]
                for t in range(1, n - 1))
    cx, cy = [], []
    px = py = 4.0
    for f, total in zip(frames, totals):
        if total >= 1e-9:
            px = fsum(f * grid[np.newaxis, :]) / total
            py = fsum(f * grid[:, np.newaxis]) / total
        cx.append(px)
        cy.append(py)
    counts = [(f > 0.1).sum() for f in frames]
    variability = (fsum(np.abs(np.diff(frames, axis=0))) / ((n - 1) * 81)
                   if n > 1 else 0.0)
    return np.concatenate([
        [fsum(frames) / (n * 81), fsum(frames.max(axis=0)) / 81,
         variability, peaks, n],
        [fsum(frames[:, r, :]) / (n * 9) for r in range(9)],
        [fsum(frames[:, :, c]) / (n * 9) for c in range(9)],
        [max(counts), fsum(counts) / n],
        _resample_curve(np.array(cx)) - 4.0,
        _resample_curve(np.array(cy)) - 4.0,
        [fsum(np.hypot(np.diff(cx), np.diff(cy)))],
    ])


@PROPERTY
@given(frames=frame_stacks())
def test_features_match_exactly_rounded_oracle(frames):
    """Canonical-order sums stay within a few ulps of exact rounding."""
    tol = 1000 * np.finfo(np.float64).eps
    np.testing.assert_allclose(extract_features(series(frames)),
                               features_oracle(frames), rtol=tol, atol=tol)


def test_amplitude_scaling_covariance():
    """Pressure-linear entries scale with amplitude, geometry does not.

    Area counts sit against an absolute threshold, so they are checked
    separately. A power-of-two factor only shifts exponents, which keeps
    the comparison exact; an arbitrary factor gets a tight tolerance.
    """
    rng = derive_rng(24, 0)
    for _ in range(10):
        g = random_series(rng)
        f = extract_features(g)
        half = extract_features(series(0.5 * g.frames))
        assert np.array_equal(half[IDX_LINEAR], 0.5 * f[IDX_LINEAR])
        assert np.array_equal(half[IDX_GEOMETRY], f[IDX_GEOMETRY])

        s = extract_features(series(1.7 * g.frames))
        np.testing.assert_allclose(s[IDX_LINEAR], 1.7 * f[IDX_LINEAR],
                                   rtol=1e-12)
        np.testing.assert_allclose(s[IDX_GEOMETRY], f[IDX_GEOMETRY],
                                   rtol=1e-12, atol=1e-12)


# -- labels and validation -----------------------------------------------------


def test_gesture_series_validation():
    with pytest.raises(ValueError):
        series(np.zeros((3, 8, 9)))
    with pytest.raises(ValueError):
        series(np.zeros((0, 9, 9)))
    with pytest.raises(ValueError):
        series(np.full((2, 9, 9), -0.1))
    with pytest.raises(ValueError):
        series(np.full((2, 9, 9), np.nan))
    with pytest.raises(ValueError):
        series(np.zeros((2, 9, 9)), speed="warp")
    with pytest.raises(ValueError):
        series(np.zeros((2, 9, 9)), label=11)


# -- file formats ---------------------------------------------------------------


def test_gestures_jsonl_roundtrip(tmp_path):
    rng = derive_rng(25, 0)
    gestures = [random_series(rng, n=int(rng.integers(2, 10)))
                for _ in range(5)]
    gestures[2].label = 9
    gestures[2].speed = "fast"
    path = tmp_path / "gestures.jsonl"
    write_gestures_jsonl(gestures, path)
    back = list(read_gestures_jsonl(path))
    assert len(back) == 5
    assert back[2].label == 9 and back[2].speed == "fast"
    for a, b in zip(back, gestures):
        np.testing.assert_allclose(a.frames, b.frames, atol=5e-6)
    # a second write of the parsed records reproduces the file exactly
    again = tmp_path / "again.jsonl"
    write_gestures_jsonl(back, again)
    assert again.read_bytes() == path.read_bytes()


# pressures where the writer's text is easy to get wrong: both zeros,
# subnormals, the values where repr switches between 1e-05 and 0.0001, values
# just below 1 that round to 1.0, and values above 1 up to near 1e300
PRESSURES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-05, 5e-05, 1e-04, 0.999995,
                     1.0, 1e300]),
    st.floats(0.0, 1.0),
    st.floats(0.0, 2.3e-308),
    st.floats(0.0, 2e-4),
    st.floats(0.99999, 1.0),
    st.floats(1.0, 1e6),
    st.floats(1e299, 1e301),
)


@st.composite
def gesture_lists(draw):
    """1-3 gestures of 1-6 frames: uniform pressures with PRESSURES values
    scattered over them."""
    gestures = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 6))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        frames = rng.uniform(0.0, 1.0, size=81 * n)
        special = draw(st.lists(PRESSURES, min_size=1, max_size=40))
        frames[rng.integers(0, 81 * n, size=len(special))] = special
        gestures.append(series(frames.reshape(n, 9, 9),
                               label=draw(st.integers(1, 10)),
                               speed=draw(st.sampled_from(SPEEDS))))
    return gestures


@PROPERTY
@given(gestures=gesture_lists())
def test_gestures_jsonl_matches_json_dumps(tmp_path_factory, gestures):
    """The writer's bytes are json.dumps of the 5-place rounded frames."""
    path = tmp_path_factory.mktemp("jsonl") / "g.jsonl"
    write_gestures_jsonl(gestures, path)
    expected = [json.dumps({"id": i, "label": g.label, "speed": g.speed,
                            "frames": np.round(g.frames, 5).tolist()},
                           separators=(",", ":"))
                for i, g in enumerate(gestures)]
    assert path.read_text().splitlines() == expected


def test_pressure_token_table_is_repr():
    """Row k of the writer's token table is repr(k / 1e5), for every k."""
    assert _pressure_tokens().tolist() == [repr(k / 1e5).encode()
                                           for k in range(100001)]


def test_gen_data_file_is_pinned(tmp_path):
    """gen-data writes these exact bytes, hashed from the output of the
    json.dumps writer that the token table replaced."""
    out = tmp_path / "g.jsonl"
    assert main(["gen-data", "--labels", "5", "--per-label", "4",
                 "--seed", "3", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "9d210547c4c99e9418aa3b378ba205f57bc7ab39a2e8e1381862c2ea55f9c4b3")


def test_read_gestures_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("\n")
    with pytest.raises(ValueError, match="no gesture records"):
        list(read_gestures_jsonl(path))


def test_reader_stopped_early_closes_its_file(tmp_path):
    """Dropping the record reader after one record closes the file."""
    path = tmp_path / "g.jsonl"
    assert main(["gen-data", "--labels", "5", "--per-label", "1",
                 "--seed", "0", "--out", str(path)]) == 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        first = next(read_gestures_jsonl(path))
        gc.collect()
    assert first.label == 1
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


@pytest.mark.parametrize("size", [1, 50, 700, 1 << 20])
def test_line_ranges_split_as_the_reader_reads(tmp_path, size):
    """Runs of whole lines cover the file; featurized one run at a time they
    give the reader's records, and a bad record the reader's message, with
    lines ended by LF, CR LF or a lone CR and blank lines among them."""
    rng = derive_rng(27, 0)
    path = tmp_path / "g.jsonl"
    write_gestures_jsonl([random_series(rng, n=2) for _ in range(4)], path)
    records = path.read_text().splitlines()
    path.write_bytes("\r\n".join(records[:2]).encode() + b"\r\r\n"
                     + records[2].encode() + b"\r" + records[3].encode()
                     + b"\n\n")

    def split(path):
        runs = line_ranges(path, size)
        assert [r[0] for r in runs] == \
            np.cumsum([0] + [r[1] for r in runs[:-1]]).tolist()
        assert sum(r[1] for r in runs) == path.stat().st_size
        return [row for run in runs for row in featurize_range(path, 3, run)]

    gestures = list(read_gestures_jsonl(path))
    rows = split(path)
    assert len(rows) == len(gestures) == 4
    for (row, label), g in zip(rows, gestures):
        assert np.array_equal(row, extract_features(preprocess(g)))
        assert label == g.label

    with open(path, "ab") as fh:
        fh.write(b'{"id": 4, "label": 1,\n')
    with pytest.raises(ValueError) as exc:
        list(read_gestures_jsonl(path))
    assert str(exc.value).startswith(f"{path}, line 7: bad gesture record")
    with pytest.raises(ValueError, match=re.escape(str(exc.value))):
        split(path)


def test_features_csv_roundtrip(tmp_path):
    rng = derive_rng(26, 0)
    feats = np.stack([extract_features(random_series(rng))
                      for _ in range(4)])
    labels = np.array([1, 5, 5, 10])
    path = tmp_path / "features.csv"
    write_features_csv(feats, labels, path, header_lines=["hash=deadbeef"])
    back_x, back_y = read_features_csv(path)
    assert np.array_equal(back_x, feats)
    assert np.array_equal(back_y, labels)


# Bound fixed before the first run. The reader may hold the one array it
# returns, the buffer it grows row by row (half as large again before its
# last copy) and one row's Python values; holding every row as Python
# objects before copying them into arrays, as a list-returning codec does,
# breaks it.
READ_PEAK_BOUND = 3.0


def test_features_reader_peak_memory_is_bounded(tmp_path):
    """The traced peak of read_features_csv on 2000 rows stays below
    READ_PEAK_BOUND times the bytes of the arrays it returns."""
    rng = derive_rng(28, 0)
    path = tmp_path / "features.csv"
    write_features_csv(rng.standard_normal((2000, FEATURE_LENGTH)),
                       rng.integers(0, 10, 2000), path)
    read_features_csv(path)  # lazy imports and one-off caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        x, y = read_features_csv(path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    ratio = peak / (x.nbytes + y.nbytes)
    assert ratio < READ_PEAK_BOUND, ratio


def test_features_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "foreign.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_features_csv(path)


def test_features_csv_rejects_header_only(tmp_path):
    path = tmp_path / "bare.csv"
    write_features_csv(np.zeros((1, FEATURE_LENGTH)), [1], path)
    text = path.read_text().splitlines()[0]
    path.write_text(text + "\n")
    with pytest.raises(ValueError):
        read_features_csv(path)


GOOD_ROW = ",".join(["0.5"] * FEATURE_LENGTH + ["3"])


@pytest.mark.parametrize("row, message", [
    ("0.5,3", ", line 4: 2 fields, not 39"),
    (GOOD_ROW + ",3", ", line 4: 40 fields, not 39"),
    ("x" + GOOD_ROW[3:], ", line 4: could not convert string to float: 'x'"),
    (GOOD_ROW[:-1] + "1.5", ", line 4: label '1.5' is not an integer"),
    (GOOD_ROW[:-1], ", line 4: label '' is not an integer"),
    ("nan" + GOOD_ROW[3:], ": features must be finite"),
], ids=["short", "long", "text_feature", "fractional_label", "no_label",
        "nan_feature"])
def test_features_csv_names_file_and_bad_line(tmp_path, row, message):
    """A row that does not match the header fails with the file named and,
    where one row is at fault, its line."""
    path = tmp_path / "f.csv"
    write_features_csv(np.zeros((1, FEATURE_LENGTH)), [1], path,
                       header_lines=["hash=0"])
    path.write_text(path.read_text() + row + "\n")
    with pytest.raises(ValueError) as exc:
        read_features_csv(path)
    assert str(exc.value) == f"{path}{message}"


def test_feature_rows_stream_and_fail_without_output(tmp_path):
    """write_feature_rows writes what write_features_csv writes, row by row;
    when its rows raise, the file it replaces is left as it was and the
    temporary file is gone."""
    feats = np.stack([extract_features(random_series(derive_rng(27, k)))
                      for k in range(3)])
    whole, streamed = tmp_path / "whole.csv", tmp_path / "streamed.csv"
    write_features_csv(feats, [4, 0, 4], whole, header_lines=["h=1"])
    assert write_feature_rows(iter(zip(feats, [4, 0, 4])), streamed,
                              header_lines=["h=1"]) == 3
    assert streamed.read_bytes() == whole.read_bytes()

    def rows():
        yield feats[0], 4
        raise ValueError("bad record")

    with pytest.raises(ValueError, match="bad record"):
        write_feature_rows(rows(), streamed)
    assert streamed.read_bytes() == whole.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["streamed.csv",
                                                          "whole.csv"]


def test_features_csv_shape_validation(tmp_path):
    with pytest.raises(ValueError):
        write_features_csv(np.zeros((2, 7)), [1, 2], tmp_path / "x.csv")
    with pytest.raises(ValueError):
        write_features_csv(np.zeros((2, FEATURE_LENGTH)), [1],
                           tmp_path / "y.csv")
