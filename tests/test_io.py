"""Dataset serialization: headers, float round-trip, format switching."""

import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cvcluster import CurveDataset, format_float, write_dataset
from cvcluster.io import _CHUNK_ROWS, _header_config, dataset_to_csv, dataset_to_json


@pytest.fixture
def dataset():
    values = np.array([[0.0, 0.5], [1.0, 1.0 / 3.0]])
    return CurveDataset(
        tag="demo", columns=("a", "b"), values=values, meta={"note": "x"}
    )


class TestFormatting:
    def test_seventeen_digits_round_trip(self):
        for value in (1.0 / 3.0, math.pi, 1e-300, -2.5, 0.1 + 0.2):
            assert float(format_float(value)) == value

    def test_integers_stay_short(self):
        assert format_float(1.0) == "1"
        assert format_float(0.0) == "0"


class TestCsv:
    def test_layout(self, dataset):
        text = dataset_to_csv(dataset, {"run": 1})
        lines = text.splitlines()
        header = json.loads(lines[0][2:])
        assert header["tag"] == "demo"
        assert header["note"] == "x"
        assert header["run"] == 1
        assert lines[1] == "a,b"
        assert lines[2] == "0,0.5"
        assert float(lines[3].split(",")[1]) == 1.0 / 3.0
        assert text.endswith("\n")

    def test_header_keys_sorted(self, dataset):
        text = dataset_to_csv(dataset, {"zz": 1, "aa": 2})
        header_line = text.splitlines()[0][2:]
        assert header_line == json.dumps(json.loads(header_line), sort_keys=True)


def reference_csv(dataset, config=None):
    """The per-float encoder: one ``format_float`` call for every entry."""
    lines = ["# " + json.dumps(_header_config(dataset, config), sort_keys=True)]
    lines.append(",".join(dataset.columns))
    for row in dataset.values:
        lines.append(",".join(format_float(v) for v in row))
    return "\n".join(lines) + "\n"


def assert_same_text(got, want):
    """Assert two texts (str or bytes) are equal, naming the first differing line.

    A bare ``assert got == want`` on texts of hundreds of kilobytes makes
    pytest build a full line diff, which can run for minutes.
    """
    if got == want:
        return
    got_lines, want_lines = got.splitlines(keepends=True), want.splitlines(keepends=True)
    index = next((i for i, (g, w) in enumerate(zip(got_lines, want_lines)) if g != w),
                 min(len(got_lines), len(want_lines)))
    raise AssertionError(f"texts differ at line {index} of {len(got_lines)} "
                         f"(want {len(want_lines)}): got {got_lines[index:index + 1]!r}, "
                         f"want {want_lines[index:index + 1]!r}")


#: Signed zeros, subnormals, the extremes and values whose digits run long.
SPECIAL_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                  1e308, -1e308, 1.7976931348623157e308, 1.0, -1.0, 1.0 / 3.0, 0.1)
FINITE = st.one_of(st.sampled_from(SPECIAL_FLOATS),
                   st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def value_arrays(draw):
    """Arrays of 1-30 rows and 1-4 columns, often repetitive or strided."""
    rows = draw(st.integers(1, 30))
    cols = draw(st.integers(1, 4))
    pool = draw(st.lists(FINITE, min_size=1, max_size=4))
    elements = draw(st.sampled_from((FINITE, st.sampled_from(pool))))
    full = draw(hnp.arrays(np.float64, (rows, 2 * cols), elements=elements))
    return full[:, ::2] if draw(st.booleans()) else full[:, :cols]


class TestCsvEncoder:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(value_arrays())
    @example(np.array([[0.0, -0.0], [-0.0, 0.0], [0.0, -0.0]]))
    @example(np.array([[5e-324, -1e308, 1e308, 0.0, -0.0, 1.0 / 3.0]]))
    @example(np.array([[0.0], [-0.0], [5e-324], [1e308], [0.0]]))
    @example(np.array([[-0.0], [0.0], [-0.0], [-0.0]]))
    @example(np.arange(24.0).reshape(4, 6)[:, 1::2])
    def test_matches_per_float_encoder(self, values):
        dataset = CurveDataset(tag="t", columns=tuple(f"c{i}" for i in range(values.shape[1])),
                               values=values, meta={"m": 1})
        text = dataset_to_csv(dataset, {"k": 2})
        assert_same_text(text, reference_csv(dataset, {"k": 2}))
        with tempfile.TemporaryDirectory() as tmp:
            path = write_dataset(dataset, Path(tmp) / "d.csv", "csv", {"k": 2})
            assert_same_text(path.read_bytes(), text.encode())

    def test_blocks_join_seamlessly(self, tmp_path):
        # with one column every separator is a newline, so the seams differ
        for columns in (("a",), ("a", "b", "c")):
            rng = np.random.default_rng(7)
            values = rng.choice(rng.normal(size=500), size=(2 * _CHUNK_ROWS + 3, len(columns)))
            values[::5, len(columns) // 2] = -0.0
            dataset = CurveDataset(tag="t", columns=columns, values=values)
            text = dataset_to_csv(dataset)
            assert_same_text(text, reference_csv(dataset))
            path = write_dataset(dataset, tmp_path / "d.csv", "csv")
            assert_same_text(path.read_bytes(), text.encode())

    def test_empty_dataset(self):
        dataset = CurveDataset(tag="t", columns=("a", "b"), values=np.empty((0, 2)))
        assert_same_text(dataset_to_csv(dataset), reference_csv(dataset))

    @pytest.mark.parametrize("columns,shape", [((), (3, 0)), (("a",), (3, 2)), (("a",), (3,))])
    def test_values_need_one_column_per_name(self, columns, shape):
        # a row without columns would have no cell to end it
        with pytest.raises(ValueError):
            CurveDataset(tag="t", columns=columns, values=np.zeros(shape))


class TestJson:
    def test_document_shape(self, dataset):
        doc = json.loads(dataset_to_json(dataset, None))
        assert doc["tag"] == "demo"
        assert doc["columns"] == ["a", "b"]
        assert doc["rows"][0] == [0.0, 0.5]
        assert doc["config"]["note"] == "x"


class TestWriteDataset:
    def test_csv_and_json(self, dataset, tmp_path):
        for fmt in ("csv", "json"):
            path = write_dataset(dataset, tmp_path / f"d.{fmt}", fmt)
            assert path.exists()
            assert path.read_text().strip()

    def test_bad_format(self, dataset, tmp_path):
        with pytest.raises(ValueError):
            write_dataset(dataset, tmp_path / "d.xml", "xml")

    def test_reruns_byte_identical(self, dataset, tmp_path):
        p1 = write_dataset(dataset, tmp_path / "one.csv", "csv", {"k": 1})
        first = p1.read_bytes()
        p2 = write_dataset(dataset, tmp_path / "one.csv", "csv", {"k": 1})
        assert p2.read_bytes() == first


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "cvcluster", "prepare", "--r", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "all_satisfied: true" in proc.stdout
