"""Round-trip properties and header rules of the file formats.

Each property writes a file with a format's writer and reads it back with
its reader: every value must come back bit for bit (-0.0, subnormals and
the float extremes included).
"""

import math
import re
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from memtact.data import named, read_csv, write_csv
from memtact.device import (
    DeviceDistribution,
    DeviceParams,
    Trace,
    read_device_params,
    read_distribution,
    read_trace_csv,
    write_device_params,
    write_distribution,
    write_trace_csv,
)
from memtact.nn import TrainHistory, read_history_csv, write_history_csv
from memtact.tactile import FEATURE_LENGTH, read_features_csv, \
    write_features_csv

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
# `# ` comment lines: printable ASCII, since a line break would end one
HEADER_LINES = st.lists(st.text(st.characters(min_codepoint=32,
                                              max_codepoint=126)),
                        max_size=2)


def bits(value) -> bytes:
    return struct.pack("<d", value)


def same(a: float, b: float) -> bool:
    """Bit for bit, except that every NaN is one value: a NaN is written
    as `nan`, which carries neither its sign nor its payload."""
    return math.isnan(a) and math.isnan(b) or bits(a) == bits(b)


@PROPERTY
@given(samples=st.lists(FINITE, min_size=1, max_size=40),
       header_lines=HEADER_LINES)
def test_trace_csv_roundtrips_bit_for_bit(tmp_path_factory, samples,
                                          header_lines):
    path = tmp_path_factory.mktemp("trace") / "t.csv"
    write_trace_csv(Trace(samples=np.array(samples)), path, header_lines)
    back = read_trace_csv(path).samples
    assert back.tobytes() == np.array(samples).tobytes()


@PROPERTY
@given(records=st.lists(st.tuples(st.integers(-2**70, 2**70), st.floats(),
                                  st.floats(), st.floats()), max_size=12),
       header_lines=HEADER_LINES)
def test_history_csv_roundtrips_bit_for_bit(tmp_path_factory, records,
                                            header_lines):
    """NaN and infinite accuracies and losses included."""
    history = TrainHistory()
    for record in records:
        history.append(*record)
    path = tmp_path_factory.mktemp("history") / "h.csv"
    write_history_csv(history, path, header_lines)
    back = read_history_csv(path).records
    assert len(back) == len(records)
    for got, want in zip(back, history.records):
        assert got.epoch == want.epoch
        assert all(same(getattr(got, k), getattr(want, k))
                   for k in ("train_acc", "test_acc", "loss"))


@st.composite
def feature_tables(draw):
    n = draw(st.integers(1, 4))
    x = np.array(draw(st.lists(FINITE, min_size=n * FEATURE_LENGTH,
                               max_size=n * FEATURE_LENGTH)))
    labels = draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=n,
                           max_size=n))
    return x.reshape(n, FEATURE_LENGTH), np.array(labels, dtype=np.int64)


@PROPERTY
@given(table=feature_tables(), header_lines=HEADER_LINES)
def test_features_csv_roundtrips_bit_for_bit(tmp_path_factory, table,
                                             header_lines):
    """Negative and int64-sized labels included."""
    x, labels = table
    path = tmp_path_factory.mktemp("features") / "f.csv"
    write_features_csv(x, labels, path, header_lines)
    back_x, back_labels = read_features_csv(path)
    assert back_x.tobytes() == x.tobytes()
    assert back_labels.dtype == np.int64
    assert np.array_equal(back_labels, labels)


@st.composite
def device_params(draw):
    # bounded away from 0 and overflow, so n_states stays a finite number
    values = dict(gamma_up=draw(st.floats(1e-100, 1.0)),
                  gamma_down=draw(st.floats(1e-100, 1.0)),
                  b_min=draw(st.floats(-1e100, -1e-100)),
                  b_max=draw(st.floats(1e-100, 1e100)),
                  sigma_c2c=draw(st.floats(0.0, 1e300)))
    try:
        return DeviceParams(**values)
    except ValueError:
        assume(False)


def params_bits(p: DeviceParams) -> list:
    return [bits(p.gamma_up), bits(p.gamma_down), bits(p.b_min),
            bits(p.b_max), bits(p.sigma_c2c)]


@PROPERTY
@given(records=st.lists(device_params(), max_size=3), one=st.booleans())
def test_device_params_json_roundtrips_bit_for_bit(tmp_path_factory, records,
                                                   one):
    """One record, or a list of them."""
    assume(records or not one)
    payload = records[0] if one else records
    path = tmp_path_factory.mktemp("params") / "p.json"
    write_device_params(payload, path)
    back = read_device_params(path)
    if one:
        assert isinstance(back, DeviceParams)
        assert params_bits(back) == params_bits(payload)
    else:
        assert [params_bits(p) for p in back] == \
            [params_bits(p) for p in payload]


@st.composite
def distributions(draw):
    a, b = draw(st.floats(0.0, 1e100)), draw(st.floats(0.0, 1e100))
    c = draw(st.floats(-0.99, 0.99)) * math.sqrt(a * b)
    return DeviceDistribution(
        mean=np.array([draw(FINITE), draw(FINITE)]),
        covariance=np.array([[a, c], [c, b]]),
        clamp_n_min=draw(st.floats(2.0, 1e300)),
        clamp_asym=draw(st.floats(0.0, 1.0, exclude_min=True,
                                  exclude_max=True)))


@PROPERTY
@given(dist=distributions())
def test_distribution_json_roundtrips_bit_for_bit(tmp_path_factory, dist):
    path = tmp_path_factory.mktemp("dist") / "d.json"
    write_distribution(dist, path, extra={"config_hash": "0123456789ab"})
    back = read_distribution(path)
    assert back.mean.tobytes() == dist.mean.tobytes()
    assert back.covariance.tobytes() == dist.covariance.tobytes()
    assert bits(back.clamp_n_min) == bits(dist.clamp_n_min)
    assert bits(back.clamp_asym) == bits(dist.clamp_asym)


# header rules: features and histories need their exact header, while a
# trace may carry more columns, as an imported measurement does


def test_features_header_with_an_extra_column_is_rejected(tmp_path):
    path = tmp_path / "f.csv"
    write_features_csv(np.zeros((1, FEATURE_LENGTH)), [1], path)
    header, row = path.read_text().splitlines()
    path.write_text(f"{header},extra\n{row},0\n")
    with pytest.raises(ValueError, match=re.escape(str(path))):
        read_features_csv(path)


def test_history_header_with_an_extra_column_is_rejected(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("epoch,train_acc,test_acc,loss,extra\n0,0.5,0.4,1.2,0\n")
    with pytest.raises(ValueError, match=re.escape(str(path))):
        read_history_csv(path)


def test_trace_header_with_an_extra_column_is_accepted(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("pulse_index,conductance,temperature_k\n"
                    "0,0.5,300.1\n1,0.25,300.2\n")
    assert read_trace_csv(path).samples.tolist() == [0.5, 0.25]


# the codec itself


def test_csv_codec_layout_and_line_numbers(tmp_path):
    """write_csv's layout; read_csv skips blank and `#` lines, yet counts
    them in the line number it puts in front of a parse error."""
    path = tmp_path / "x.csv"
    assert write_csv(path, ["h=1"], ["a", "b"], [["1", "2"], ["3", "4"]],
                     "\n") == 2
    assert path.read_bytes() == b"# h=1\na,b\n1,2\n3,4\n"
    assert list(read_csv(path, "x", ["a", "b"], tuple)) == [("1", "2"),
                                                         ("3", "4")]
    path.write_text("# h\n\na,b\n1,2\n# note\n\nbad\n")

    def parse(fields):
        if len(fields) != 2:
            raise ValueError("one field")
        return fields

    with pytest.raises(ValueError) as exc:
        list(read_csv(path, "x", ["a", "b"], parse))
    assert str(exc.value) == f"{path}, line 7: one field"
    for text in ("", "# only a comment\n", "b,a\n", "a\n"):
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            list(read_csv(path, "x", ["a", "b"], parse, more_columns=True))
        assert str(exc.value) == f"{path}: not a x file"


def test_named_prefixes_value_errors_only():
    with pytest.raises(ValueError) as exc:
        with named("f.json: model"):
            raise ValueError("bad")
    assert str(exc.value) == "f.json: model: bad"
    with pytest.raises(KeyError):
        with named("f.json"):
            raise KeyError("k")
