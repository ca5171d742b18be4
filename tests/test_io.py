"""Dataset serialization: headers, float round-trip, format switching."""

import contextlib
import functools
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import cvcluster.cli
import cvcluster.io
from cvcluster import CurveDataset, format_float, write_dataset
from cvcluster.analysis import _fig8_panels, fig8_dataset
from cvcluster.cli import main as cli_main
from cvcluster.io import (_CHUNK_ROWS, _FIELD, _FORMAT_MIN, _cell_dtype, _format_slice,
                          _header_config, _writing_ahead, dataset_to_csv, dataset_to_json)


@pytest.fixture
def dataset():
    return CurveDataset(
        tag="demo", columns=("a", "b"), arrays=([0.0, 1.0], [0.5, 1.0 / 3.0]), meta={"note": "x"}
    )


class TestFormatting:
    def test_seventeen_digits_round_trip(self):
        for value in (1.0 / 3.0, math.pi, 1e-300, -2.5, 0.1 + 0.2):
            assert float(format_float(value)) == value

    def test_integers_stay_short(self):
        assert format_float(1.0) == "1"
        assert format_float(0.0) == "0"


def one_column_csv(values):
    """The CSV data rows of a one-column dataset of ``values``, one string each."""
    dataset = CurveDataset(tag="t", columns=("v",), arrays=(values,))
    return dataset_to_csv(dataset).split("\n")[2:-1]


def assert_formats_like_format(values):
    """The CSV encoder, and its numpy pass on slices of any length, give format(x, '.17g')."""
    values = np.asarray(values, dtype=float)
    want = [format(x, ".17g") for x in values.tolist()]
    assert one_column_csv(values) == want
    for size in (1, 7, _FORMAT_MIN - 1, _CHUNK_ROWS):
        head = values[:200 * size]  # the encoder leaves datasets below _FORMAT_MIN to format()
        fields = np.zeros((len(head), _FIELD), np.uint8)
        exact = np.concatenate([_format_slice(head[i:i + size], fields[i:i + size])
                                for i in range(0, len(head), size)])
        # as the encoder does, rows not written exactly go to format()
        got = [row.tobytes().replace(b"\0", b"").decode() if ok else format(x, ".17g")
               for row, ok, x in zip(fields, exact.tolist(), head.tolist())]
        assert got == want[:len(head)], next((g, w) for g, w in zip(got, want) if g != w)


def near(value):
    """value and its neighbours one ulp below and above, both signs."""
    around = [np.nextafter(value, 0.0), value, np.nextafter(value, np.inf)]
    return around + [-v for v in around]


class TestFormatFloats:
    def test_random_bit_patterns(self):
        bits = np.random.default_rng(16).integers(0, 2**64, 120_000, dtype=np.uint64)
        values = bits.view(float)
        assert_formats_like_format(values[np.isfinite(values)])

    def test_powers_of_ten_and_neighbours(self):
        assert_formats_like_format([v for k in range(-300, 301) for v in near(float(f"1e{k}"))])

    @pytest.mark.parametrize("value", [1e-5, 1e-4, 1e16, 1e17])
    def test_switch_between_fixed_and_exponent_notation(self, value):
        assert_formats_like_format(near(value) * (_FORMAT_MIN + 1))

    def test_ties_round_half_to_even(self):
        ties = [100000000000000.125, 100000000000000.375]
        assert [format(v, ".17g") for v in ties] == ["100000000000000.12", "100000000000000.38"]
        assert_formats_like_format(ties * _FORMAT_MIN)

    def test_subnormals_extremes_and_zeros(self):
        tiny = 2.2250738585072014e-308
        assert_formats_like_format([5e-324, -5e-324, tiny / 3, -tiny / 7, tiny, 0.0, -0.0,
                                    1.7976931348623157e308, -1.7976931348623157e308,
                                    1e-280, 1e280] * 40)

    def test_only_zeros_extremes_and_ties_go_to_format(self, monkeypatch):
        def near_tie(value):  # its 18th significant digit and beyond are 5 to within 1e-6
            exact = abs(Fraction(value))
            scaled = exact * Fraction(10) ** (16 - math.floor(math.log10(exact)))
            scaled *= 10 if scaled < 10**16 else Fraction(1, 10) if scaled >= 10**17 else 1
            return abs(scaled - math.floor(scaled) - Fraction(1, 2)) <= Fraction(1, 10**6)

        def spy(value, spec):
            sent.append(value)
            return format(value, spec)

        sent = []
        monkeypatch.setattr(cvcluster.io, "format", spy, raising=False)
        values = [v for k in range(-279, 280) for v in near(float(f"1e{k}"))]
        values += np.random.default_rng(4).normal(size=1000).tolist() + [1e153, 1e-280, 1e280]
        values += [0.0, -0.0, 5e-324, 1e-281, 1e281, -1.7976931348623157e308, 100000000000000.125]
        one_column_csv(values)
        # each distinct float once, in the order of its bit pattern
        assert sorted(map(float.hex, sent)) == sorted(
            {v.hex() for v in values if not 1e-280 <= abs(v) <= 1e280 or near_tie(v)})
        assert len(sent) > 7  # the ties among the neighbours of powers of ten as well
        sent.clear()
        few = values[:_FORMAT_MIN - 1]
        assert one_column_csv(few) == [format(v, ".17g") for v in few]
        # every cell of a dataset below _FORMAT_MIN cells, in order
        assert list(map(float.hex, sent)) == list(map(float.hex, few))


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


def _chunk_rows_distinct(extra):
    """One column of _CHUNK_ROWS + extra distinct floats, each twice, shuffled."""
    rng = np.random.default_rng(13)
    return rng.permutation(np.repeat(rng.normal(size=_CHUNK_ROWS + extra), 2))[:, None]


def _shared_float():
    """Two columns of 160 distinct floats each, each float twice; 0.25 is in both."""
    pool = np.random.default_rng(14).normal(size=(160, 2))
    pool[7, 0] = pool[11, 1] = 0.25
    return np.tile(pool, (2, 1))


def _grid(nx, ny, seed=16):
    """A panel's columns x[:, None], y[None, :] and an nx x ny grid, from a few floats."""
    rng = np.random.default_rng(seed)
    w = rng.choice(rng.normal(size=max(2, nx * ny // 3)), size=(nx, ny))
    return np.sort(rng.normal(size=nx))[:, None], np.sort(rng.normal(size=ny))[None, :], w


def _signed_zero_axes():
    """Axes holding 0.0, -0.0 and a repeated value, over a grid of them and a few floats."""
    x = np.array([-1.5, -0.0, 0.0, 0.0, 2.0, -0.0] * 5)
    y = np.array([0.0, 0.25, 0.25, -0.0, 3.0] * 4)
    w = np.random.default_rng(17).choice([0.0, -0.0, 0.25, 1.0 / 3.0], size=(x.size, y.size))
    return x[:, None], y[None, :], w


def _default_panel(name):
    panel = _fig8_panels()[name]()
    assert panel.shape == (201, 201)
    return panel.arrays


#: Tables, or a grid's column arrays, of at least _FORMAT_MIN cells, by what their dedup
#: must get right.
DEDUP_CASES = {
    "one-repeated-value": lambda: np.full((_FORMAT_MIN + 1, 1), 0.1),
    "all-distinct": lambda: np.random.default_rng(15).normal(size=(_FORMAT_MIN + 1, 1)),
    # zeros alone, so 0.0 and -0.0 are next to each other in bit-pattern order
    "signed-zeros": lambda: np.tile([0.0, -0.0, -0.0], _FORMAT_MIN)[:, None],
    "float-shared-by-two-columns": _shared_float,
    "chunk-rows-distinct": lambda: _chunk_rows_distinct(0),
    "chunk-rows-plus-one-distinct": lambda: _chunk_rows_distinct(1),
    # each column over its own array: 201 + 201 floats of the axes and W's distinct ones
    "default-panel": lambda: _default_panel("output_control_r1"),
    "grid-signed-zeros-and-repeats": _signed_zero_axes,
}


@st.composite
def column_arrays(draw):
    """1-4 column arrays that broadcast to an n x m grid: each n x m, n x 1, 1 x m, m long or
    0-d."""
    n, m = draw(st.integers(1, 12)), draw(st.integers(1, 30))
    pool = draw(st.lists(FINITE, min_size=1, max_size=4))
    elements = draw(st.sampled_from((FINITE, st.sampled_from(pool))))
    shapes = st.sampled_from([(n, m), (n, 1), (1, m), (m,), ()])
    return [draw(hnp.arrays(np.float64, shape, elements=elements))
            for shape in draw(st.lists(shapes, min_size=1, max_size=4))]


#: Column arrays of a grid, by what encoding them in blocks of whole grid rows must get right.
GRID_CASES = {
    **{f"default-{name}": functools.partial(_default_panel, name) for name in _fig8_panels()},
    "1xn": lambda: _grid(1, 150),
    "nx1": lambda: _grid(150, 1),
    "rows-longer-than-chunk-rows": lambda: _grid(2, 3000),
    "signed-zeros-and-repeats": _signed_zero_axes,
    "format-min-less-one-cells": lambda: _grid(9, 11),
    "format-min-cells": lambda: _grid(10, 10),
}


def broadcast_table(arrays):
    """The rows of ``arrays`` broadcast to one shape, in C order: one column per array."""
    return np.stack([a.ravel() for a in np.broadcast_arrays(*arrays)], axis=-1)


def assert_columns_match_their_table(arrays, columns):
    """The dataset of ``arrays`` gives the values, columns and bytes of their broadcast table."""
    table = broadcast_table(arrays)
    dataset = CurveDataset(tag="t", columns=columns, arrays=arrays, meta={"m": 1})
    assert dataset.values.shape == table.shape
    assert dataset.values.tobytes() == table.tobytes()
    for j, name in enumerate(columns):
        assert dataset.column(name).tobytes() == table[:, j].tobytes()
    text = dataset_to_csv(dataset, {"k": 2})
    assert_same_text(text, reference_csv(dataset, {"k": 2}))
    assert dataset_to_json(dataset, {"k": 2}) == reference_json(dataset, {"k": 2})
    with tempfile.TemporaryDirectory() as tmp:
        path = write_dataset(dataset, Path(tmp) / "d.csv", "csv", {"k": 2})
        assert_same_text(path.read_bytes(), text.encode())


def panel_write_peak(tmp_path, fmt, grid):
    """The ``tracemalloc`` peak of building and writing a grid² panel, in bytes a point."""
    # one-time tables first, so that the peak is this panel's
    write_dataset(_fig8_panels(grid_points=5)["input_control"](), tmp_path / "warm", fmt)
    build = _fig8_panels(grid_points=grid)["output_control_r1"]  # the most distinct floats
    tracemalloc.start()
    try:
        write_dataset(build(), tmp_path / "panel", fmt)
        return tracemalloc.get_traced_memory()[1] / grid**2
    finally:
        tracemalloc.stop()


class TestCsvEncoder:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(value_arrays())
    @example(np.array([[0.0, -0.0], [-0.0, 0.0], [0.0, -0.0]]))
    @example(np.array([[5e-324, -1e308, 1e308, 0.0, -0.0, 1.0 / 3.0]]))
    @example(np.array([[0.0], [-0.0], [5e-324], [1e308], [0.0]]))
    @example(np.array([[-0.0], [0.0], [-0.0], [-0.0]]))
    @example(np.arange(24.0).reshape(4, 6)[:, 1::2])
    def test_matches_per_float_encoder(self, values):
        columns = tuple(f"c{i}" for i in range(values.shape[1]))
        # below _FORMAT_MIN cells as drawn; tiled to more, the same floats are deduped
        tiled = np.tile(values, (-(-_FORMAT_MIN // values.size), 1))
        for dataset in (CurveDataset(tag="t", columns=columns, arrays=v.T, meta={"m": 1})
                        for v in (values, tiled)):
            text = dataset_to_csv(dataset, {"k": 2})
            assert_same_text(text, reference_csv(dataset, {"k": 2}))
            with tempfile.TemporaryDirectory() as tmp:
                path = write_dataset(dataset, Path(tmp) / "d.csv", "csv", {"k": 2})
                assert_same_text(path.read_bytes(), text.encode())

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(column_arrays())
    @example([np.array([[0.0], [-0.0]]), np.array([-0.0, 0.0, 5e-324]), np.zeros((1, 3))])
    @example([np.array(-0.0), np.array(5e-324)])  # 0-d columns alone make one row
    def test_column_form_matches_per_float_encoder(self, arrays):
        assert_columns_match_their_table(arrays, tuple(f"c{i}" for i in range(len(arrays))))

    @pytest.mark.parametrize("case", GRID_CASES)
    def test_grid_columns_match_their_table(self, case):
        assert_columns_match_their_table(GRID_CASES[case](), ("x", "y", "w"))

    @pytest.mark.parametrize("columns,arrays,message", [
        (("x", "y", "w"), _grid(3, 4)[:2] + (np.full((3, 4), np.inf),),
         "dataset contains non-finite entries"),
        (("x", "y"), _grid(3, 4), "need one column array per name, and at least one column"),
        (("x", "y", "w", "v"), _grid(3, 4),
         "need one column array per name, and at least one column"),
        (("x", "y", "x"), _grid(3, 4), "column names must differ"),
    ])
    def test_column_form_fails_like_table_form(self, columns, arrays, message):
        # the grid's columns, and the 1-D columns of its table
        for form in (arrays, broadcast_table(arrays).T):
            with pytest.raises(ValueError, match=f"^{message}$"):
                CurveDataset(tag="t", columns=columns, arrays=form)

    def test_columns_broadcast_to_one_shape(self):
        with pytest.raises(ValueError):
            CurveDataset(tag="t", columns=("a", "b"), arrays=(np.zeros(3), np.zeros(4)))

    def test_a_table_of_rows_is_refused(self):
        # a table is never read as columns: only the arrays keyword takes them
        table = np.zeros((2, 2))
        for call in (lambda: CurveDataset("t", ("a", "b"), table),
                     lambda: CurveDataset("t", ("a", "b"), values=table),
                     lambda: CurveDataset("t", ("a", "b"), table, arrays=table.T),
                     lambda: CurveDataset("t", ("a", "b"))):
            with pytest.raises(TypeError):
                call()

    @pytest.mark.parametrize("nx,ny", [(201, 201), (2, 3000), (3000, 1)])
    def test_blocks_hold_whole_grid_rows(self, nx, ny, monkeypatch):
        # max(1, _CHUNK_ROWS // ny) grid rows to a block: 10 of 201, one of 3000
        sizes = []
        blocks = cvcluster.io._csv_blocks
        monkeypatch.setattr(cvcluster.io, "_csv_blocks", lambda *args: (
            sizes.append(block.count(b"\n")) or block for block in blocks(*args)))
        dataset = CurveDataset(tag="t", columns=("x", "y", "w"), arrays=_grid(nx, ny))
        dataset_to_csv(dataset)
        step = max(1, _CHUNK_ROWS // ny)
        assert sizes[1:] == [min(step, nx - i) * ny for i in range(0, nx, step)]

    def test_blocks_join_seamlessly(self, tmp_path):
        # with one column every separator is a newline, so the seams differ
        for columns in (("a",), ("a", "b", "c")):
            rng = np.random.default_rng(7)
            values = rng.choice(rng.normal(size=500), size=(2 * _CHUNK_ROWS + 3, len(columns)))
            values[::5, len(columns) // 2] = -0.0
            dataset = CurveDataset(tag="t", columns=columns, arrays=values.T)
            text = dataset_to_csv(dataset)
            assert_same_text(text, reference_csv(dataset))
            path = write_dataset(dataset, tmp_path / "d.csv", "csv")
            assert_same_text(path.read_bytes(), text.encode())

    def test_vectorized_formatting_matches_per_float_encoder(self, tmp_path):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(3500, 3)) * 10.0 ** rng.integers(-30, 30, size=(3500, 3))
        values[::7, 0] = rng.choice(SPECIAL_FLOATS, size=len(values[::7]))
        values[::5, 2] = np.round(values[::5, 2], 3)
        assert len(np.unique(values)) > 2 * _CHUNK_ROWS
        dataset = CurveDataset(tag="t", columns=("a", "b", "c"), arrays=values.T)
        path = write_dataset(dataset, tmp_path / "d.csv", "csv", {"k": 2})
        assert_same_text(path.read_bytes(), reference_csv(dataset, {"k": 2}).encode())

    @pytest.mark.parametrize("rows", [2, _FORMAT_MIN])  # below and above _FORMAT_MIN cells
    def test_floats_shared_between_columns(self, rows):
        values = np.random.default_rng(5).normal(size=(rows, 4))
        values[:, 1] = values[::-1, 0]  # the floats of column a, in another order
        values[::2, 2], values[::2, 3] = 0.0, -0.0
        values[1::2, 2], values[1::2, 3] = -0.0, 0.0
        dataset = CurveDataset(tag="t", columns=("a", "b", "c", "d"), arrays=values.T)
        assert_same_text(dataset_to_csv(dataset), reference_csv(dataset))

    @pytest.mark.parametrize("cells", [_FORMAT_MIN - 1, _FORMAT_MIN])
    @pytest.mark.parametrize("one_row", [False, True])
    def test_datasets_around_format_min_cells(self, cells, one_row, monkeypatch):
        formatted = []

        def spy(x, out):
            formatted.append(len(x))
            return _format_slice(x, out)

        monkeypatch.setattr(cvcluster.io, "_format_slice", spy)
        values = np.random.default_rng(6).normal(size=cells)
        values[::9] = values[0]  # repeats are not deduped below _FORMAT_MIN cells
        values = values[None, :] if one_row else values[:, None]
        dataset = CurveDataset(tag="t", columns=tuple(f"c{i}" for i in range(values.shape[1])),
                               arrays=values.T)
        assert_same_text(dataset_to_csv(dataset), reference_csv(dataset))
        # numpy formats each column's distinct floats of a dataset of _FORMAT_MIN cells or more
        distinct = sum(len(np.unique(column)) for column in values.T)
        assert sum(formatted) == (distinct if cells >= _FORMAT_MIN else 0)

    @pytest.mark.parametrize("case", DEDUP_CASES)
    def test_dedup_cases(self, case, monkeypatch):
        formatted = []

        def spy(x, out):
            formatted.append(x.copy())
            return _format_slice(x, out)

        monkeypatch.setattr(cvcluster.io, "_format_slice", spy)
        values = DEDUP_CASES[case]()
        arrays = values if isinstance(values, tuple) else tuple(values.T)
        dataset = CurveDataset(tag="t", columns=tuple(f"c{i}" for i in range(len(arrays))),
                               arrays=arrays)
        assert dataset.values.size >= _FORMAT_MIN  # so the columns are deduped
        assert_same_text(dataset_to_csv(dataset), reference_csv(dataset))
        # numpy formats the table of each column's distinct bit patterns in ascending order,
        # in slices of _CHUNK_ROWS
        table = np.concatenate([np.unique(column.view(np.uint64)) for column in arrays])
        assert [len(x) for x in formatted] == [
            min(_CHUNK_ROWS, len(table) - i) for i in range(0, len(table), _CHUNK_ROWS)]
        assert np.concatenate(formatted).view(np.uint64).tolist() == table.tolist()

    @pytest.mark.parametrize("cells,dtype", [(_FORMAT_MIN, np.uint32), (2**32 - 1, np.uint32),
                                             (2**32, np.intp), (2**40, np.intp)])
    def test_cell_table_dtype_holds_every_field_id(self, cells, dtype):
        # checked on the size alone: a table of 2**32 cells would take 16 GiB
        assert _cell_dtype(cells) is dtype
        assert np.iinfo(dtype).max >= cells - 1

    def test_writing_a_default_panel_stays_small(self, tmp_path):
        # the panel is held before the trace starts, so the peak is the encoder's own: about
        # 2 MB here, where np.unique's temporaries and an intp cell table took it past 3.2 MB
        panels = fig8_dataset().values()
        write_dataset(next(iter(panels)), tmp_path / "warm.csv")  # one-time tables
        for panel in panels:
            tracemalloc.start()
            try:
                write_dataset(panel, tmp_path / "panel.csv")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 3.2e6, (panel.meta["panel"], peak)

    def test_building_and_writing_a_large_panel_stays_small(self, tmp_path):
        # the panel holds W (8 bytes a point) and the encoder its field ids (4), one argsort's
        # transients and its distinct floats' fields: 32-35 bytes a point here, where a table
        # of rows took 61-63
        peak = panel_write_peak(tmp_path, "csv", 601)
        assert peak < 44, peak

    def test_many_cells_few_distinct_floats(self, monkeypatch):
        formatted = []

        def spy(x, out):
            formatted.append(len(x))
            return _format_slice(x, out)

        monkeypatch.setattr(cvcluster.io, "_format_slice", spy)
        rng = np.random.default_rng(8)
        values = rng.choice(rng.normal(size=60), size=(_FORMAT_MIN, 3))
        values[::4, 1] = -0.0
        distinct = sum(len(np.unique(column.view(np.uint64))) for column in values.T)
        assert distinct < _FORMAT_MIN
        dataset = CurveDataset(tag="t", columns=("a", "b", "c"), arrays=values.T)
        assert_same_text(dataset_to_csv(dataset), reference_csv(dataset))
        # _FORMAT_MIN cells, so numpy formats their few distinct floats
        assert formatted == [distinct]

    def test_empty_dataset(self):
        dataset = CurveDataset(tag="t", columns=("a", "b"), arrays=np.empty((2, 0)))
        assert_same_text(dataset_to_csv(dataset), reference_csv(dataset))

    @pytest.mark.parametrize("columns,shape", [((), (3, 0)), (("a",), (3, 2)), (("a",), (3,))])
    def test_values_need_one_column_per_name(self, columns, shape):
        # a row without columns would have no cell to end it
        with pytest.raises(ValueError):
            CurveDataset(tag="t", columns=columns, arrays=np.zeros(shape).T)

    def test_datasets_compare_by_identity(self):
        # equal fields compared as a tuple would ask numpy arrays for one truth value
        a, b = (CurveDataset(tag="t", columns=("a", "b"), arrays=np.zeros((2, 3)), meta={"m": 1})
                for _ in range(2))
        assert a == a and a != b and not a == b
        assert len({a, b, a}) == 2


def reference_json(dataset, config=None):
    """The whole document as one ``json.dumps``, keys sorted."""
    doc = {"config": _header_config(dataset, config), "tag": dataset.tag,
           "columns": list(dataset.columns), "rows": dataset.values.tolist()}
    return json.dumps(doc, sort_keys=True) + "\n"


def _table(rows, columns=3):
    values = np.random.default_rng(rows).normal(size=(rows, columns))
    return CurveDataset(tag="t", columns=tuple("abc"[:columns]), arrays=values.T, meta={"m": 1})


#: Datasets whose rows fall on each side of a block seam, or hold floats whose text is
#: extreme, with the config to write them with.
JSON_CASES = {
    **{f"{rows}-rows": (lambda rows=rows: _table(rows), {"k": 2})
       for rows in (0, 1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 1)},
    "broadcast-panel": (lambda: _fig8_panels(grid_points=51)["output_control_r1"](), None),
    "special-floats": (lambda: CurveDataset(
        tag="t", columns=("a", "b"),
        arrays=([-0.0, 1.7976931348623157e308], [5e-324, 0.0])), {"k": -0.0}),
    "non-ascii-config": (lambda: _table(2, 1), {"label": "Wigner W(x, p) · η = ½", "ü": "✓"}),
}


class TestJson:
    def test_document_shape(self, dataset):
        doc = json.loads(dataset_to_json(dataset, None))
        assert doc["tag"] == "demo"
        assert doc["columns"] == ["a", "b"]
        assert doc["rows"][0] == [0.0, 0.5]
        assert doc["config"]["note"] == "x"

    @pytest.mark.parametrize("case", JSON_CASES)
    def test_blocks_join_to_one_json_dumps(self, case, tmp_path):
        build, config = JSON_CASES[case]
        dataset = build()
        want = reference_json(dataset, config)
        assert_same_text(dataset_to_json(dataset, config), want)
        path = write_dataset(dataset, tmp_path / "d.json", "json", config)
        assert_same_text(path.read_bytes(), want.encode())

    def test_building_and_writing_a_large_panel_stays_small(self, tmp_path):
        # the panel holds W (8 bytes a point), the encoder its table of rows (24) and one
        # block of them as Python lists and text: about 39 bytes a point, where the whole
        # document as lists and one string took 298
        peak = panel_write_peak(tmp_path, "json", 401)
        assert peak < 48, peak


class TestWriteDataset:
    def test_csv_and_json(self, dataset, tmp_path):
        for fmt, encode in (("csv", dataset_to_csv), ("json", dataset_to_json)):
            path = write_dataset(dataset, tmp_path / f"d.{fmt}", fmt, {"k": 1})
            assert path.exists()
            assert path.read_text().strip()
            assert path.read_bytes() == encode(dataset, {"k": 1}).encode()

    def test_bad_format(self, dataset, tmp_path):
        with pytest.raises(ValueError):
            write_dataset(dataset, tmp_path / "d.xml", "xml")

    def test_none_writes_nothing(self, tmp_path):
        path = tmp_path / "child.csv"
        assert write_dataset(None, path) == path
        assert write_dataset(None, str(path), "json", {"k": 1}) == path
        assert list(tmp_path.iterdir()) == []

    def test_reruns_byte_identical(self, dataset, tmp_path):
        p1 = write_dataset(dataset, tmp_path / "one.csv", "csv", {"k": 1})
        first = p1.read_bytes()
        p2 = write_dataset(dataset, tmp_path / "one.csv", "csv", {"k": 1})
        assert p2.read_bytes() == first


def many_jobs(directory, fmt, rows=(1, 400, 30, 9, 5000, 30)):
    """(build, path) jobs of datasets of the given row counts, in order, each with its own file."""
    directory.mkdir(exist_ok=True)
    rng = np.random.default_rng(11)
    datasets = [CurveDataset(tag=f"d{i}", columns=("a", "b", "c"), arrays=rng.normal(size=(n, 3)).T)
                for i, n in enumerate(rows)]
    return [(lambda d=d: d, directory / f"{d.tag}.{fmt}") for d in datasets]


def write_all(jobs, fmt, config=None):
    """Write the jobs as ``figures`` does, each through write_dataset here.

    Returns each file's bytes as read when its write_dataset call returned.
    """
    written = []
    with _writing_ahead(jobs, fmt, config) as datasets:
        for _, path in jobs:
            assert write_dataset(next(datasets), path, fmt, config) == path
            written.append(path.read_bytes())
        assert next(datasets, None) is None
    return written


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Counts calls of os.fork, which go through to the real one."""
    calls = []
    real_fork = os.fork

    def counting_fork():
        calls.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


def refuse_fork():
    raise AssertionError("os.fork called")


class TestWritingAhead:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("cpus", [1, 2, 3, 9])
    def test_bytes_match_write_dataset(self, tmp_path, monkeypatch, forks, fmt, cpus):
        monkeypatch.setattr(cvcluster.io, "_cpus", lambda: cpus)
        encoded = []
        for name in ("_csv_blocks", "_json_blocks"):
            encoder = getattr(cvcluster.io, name)
            monkeypatch.setattr(cvcluster.io, name,
                                lambda *args, f=encoder: encoded.append(1) or f(*args))
        jobs = many_jobs(tmp_path / "many", fmt)
        written = write_all(jobs, fmt, {"k": 1})
        assert_no_children()
        workers = min(cpus, len(jobs))
        assert len(forks) == workers - 1
        # files a child reported are not encoded again here
        assert len(encoded) == -(-len(jobs) // workers)
        for (build, path), data in zip(jobs, written):
            alone = write_dataset(build(), tmp_path / path.name, fmt, {"k": 1})
            assert data == path.read_bytes() == alone.read_bytes()

    @pytest.mark.parametrize("blocked,first", [({0, 1}, 0), ({1, 2}, 1), ({2, 3}, 2)])
    def test_earliest_failure_reported(self, tmp_path, monkeypatch, forks, blocked, first):
        # on two CPUs, round-robin, this process writes jobs 0, 2 and 4 and
        # the child 1, 3 and 5; each blocked pair spans both
        monkeypatch.setattr(cvcluster.io, "_cpus", lambda: 2)
        jobs = many_jobs(tmp_path, "csv")
        for i in blocked:
            jobs[i][1].mkdir()
        with pytest.raises(OSError) as sequential:
            write_dataset(jobs[first][0](), jobs[first][1], "csv")
        with pytest.raises(OSError) as parallel:
            write_all(jobs, "csv")
        assert_no_children()
        assert forks == [1]
        assert str(parallel.value) == str(sequential.value)
        for build, path in jobs[:first]:
            assert path.read_bytes() == write_dataset(build(), tmp_path / "alone.csv").read_bytes()

    @pytest.mark.parametrize("end_child", [lambda: os._exit(7), lambda: 1 / 0, "build"])
    def test_files_of_a_child_that_ends_early_are_written_here(self, tmp_path, monkeypatch,
                                                                capfd, end_child):
        monkeypatch.setattr(cvcluster.io, "_cpus", lambda: 2)
        parent = os.getpid()

        def in_child(call, end):
            def ending(*args):
                if os.getpid() != parent:
                    end()
                return call(*args)
            return ending

        jobs = many_jobs(tmp_path / "many", "csv")
        if end_child == "build":  # the child's second job raises only while the child builds it
            jobs[3] = (in_child(jobs[3][0], lambda: 1 / 0), jobs[3][1])
        else:
            monkeypatch.setattr(cvcluster.io, "write_dataset", in_child(write_dataset, end_child))
        write_all(jobs, "csv")
        assert_no_children()
        assert capfd.readouterr() == ("", "")
        for build, path in jobs:
            assert path.read_bytes() == write_dataset(build(), tmp_path / path.name).read_bytes()

    def test_failure_here_reaps_the_children(self, tmp_path, monkeypatch, forks):
        monkeypatch.setattr(cvcluster.io, "_cpus", lambda: 3)
        jobs = many_jobs(tmp_path, "csv")
        with pytest.raises(RuntimeError, match="stop"):
            with _writing_ahead(jobs, "csv", None):
                raise RuntimeError("stop")
        assert_no_children()
        assert len(forks) == 2

    @pytest.mark.parametrize("fmt,built", [("csv", 1), ("json", 0)])
    def test_format_tables_built_once_before_the_first_fork(self, tmp_path, monkeypatch, fmt,
                                                             built):
        # a child would otherwise build its own copy of the tables
        real_fork = os.fork
        at_fork = []

        def fork():
            at_fork.append(cvcluster.io._format_tables.cache_info().currsize)
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(cvcluster.io, "_cpus", lambda: 2)
        cvcluster.io._format_tables.cache_clear()
        jobs = many_jobs(tmp_path, fmt)
        with _writing_ahead(jobs, fmt, None):
            assert cvcluster.io._format_tables.cache_info().currsize == built
        assert_no_children()
        assert at_fork == [built]

    def test_no_fork_on_one_cpu_or_one_job(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "fork", refuse_fork)
        monkeypatch.setattr(cvcluster.io, "_cpus", lambda: 1)
        write_all(many_jobs(tmp_path / "one-cpu", "csv"), "csv")
        monkeypatch.setattr(cvcluster.io, "_cpus", lambda: 4)
        write_all(many_jobs(tmp_path / "one-job", "csv", rows=(50,)), "csv")
        assert len(list(tmp_path.glob("*/*.csv"))) == 7

    def test_no_fork_while_another_thread_runs(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "fork", refuse_fork)
        monkeypatch.setattr(cvcluster.io, "_cpus", lambda: 4)
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(30,))
        thread.start()
        try:
            write_all(many_jobs(tmp_path, "csv"), "csv")
        finally:
            release.set()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert len(list(tmp_path.glob("*.csv"))) == 6

    def test_fork_warning_writes_in_process(self, tmp_path, monkeypatch):
        # Python >= 3.12 under -W error raises this from os.fork while other threads run
        def fork_warns():
            raise DeprecationWarning("This process is multi-threaded, use of fork() may lead "
                                     "to deadlocks in the child.")

        def figures(directory):
            directory.mkdir()
            monkeypatch.chdir(directory)
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli_main(["figures", "--grid", "41", "--out", "figs"]) == 0
            return {path.name: path.read_bytes() for path in (directory / "figs").iterdir()}

        monkeypatch.setattr(cvcluster.io, "_cpus", lambda: 3)
        forked = figures(tmp_path / "forked")
        monkeypatch.setattr(os, "fork", fork_warns)
        assert figures(tmp_path / "warned") == forked
        assert_no_children()

    def test_warning_after_the_fork_keeps_the_child(self, tmp_path, monkeypatch):
        # Python >= 3.12 warns in this process once the child exists; -W error makes it raise
        real_fork = os.fork

        def fork_then_warn():
            pid = real_fork()
            if pid:
                warnings.warn("This process is multi-threaded, use of fork() may lead to "
                              "deadlocks in the child.", DeprecationWarning, stacklevel=2)
            return pid

        monkeypatch.setattr(os, "fork", fork_then_warn)
        monkeypatch.setattr(cvcluster.io, "_cpus", lambda: 3)
        jobs = many_jobs(tmp_path / "many", "csv")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            write_all(jobs, "csv")
        assert_no_children()
        for build, path in jobs:
            assert path.read_bytes() == write_dataset(build(), tmp_path / path.name).read_bytes()

    @pytest.mark.parametrize("cpus,order", [
        (1, "b0 w0 b1 w1 b2 w2 b3 w3 b4 w4 b5 w5"),
        (2, "fork b0 w0 w1 b2 w2 w3 b4 w4 w5"),
        (3, "fork fork b0 w0 w1 w2 b3 w3 w4 w5"),
    ])
    def test_children_fork_first_and_this_process_builds_only_its_own_jobs(
            self, tmp_path, monkeypatch, cpus, order):
        # a child builds its share after its fork, so its events stay in the child
        events = []
        real_fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: events.append("fork") or real_fork())
        monkeypatch.setattr(cvcluster.io, "_cpus", lambda: cpus)
        jobs = [(lambda i=i, build=build: events.append(f"b{i}") or build(), path)
                for i, (build, path) in enumerate(many_jobs(tmp_path, "csv"))]
        with _writing_ahead(jobs, "csv", None) as datasets:
            for i, (_, path) in enumerate(jobs):
                write_dataset(next(datasets), path)
                events.append(f"w{i}")
        assert_no_children()
        assert " ".join(events) == order

    @pytest.mark.parametrize("grid", [[], ["--grid", "5"]])
    def test_figures_child_writes_every_second_file(self, tmp_path, monkeypatch, grid):
        ahead = []

        def noting_ahead(dataset, path, *args):
            if dataset is None:
                ahead.append(Path(path).name)
            return write_dataset(dataset, path, *args)

        monkeypatch.setattr(cvcluster.io, "_cpus", lambda: 2)
        monkeypatch.setattr(cvcluster.cli, "write_dataset", noting_ahead)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main(["figures", *grid, "--out", str(tmp_path)]) == 0
        assert_no_children()
        assert len(list(tmp_path.iterdir())) == 10
        assert ahead == ["fig4.csv", "fig6.csv", "fig8_input_target.csv",
                         "fig8_output_target_r1.csv", "fig8_output_target_r3.csv"]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_figures_hold_one_panel_at_a_time(self, tmp_path, monkeypatch, cpus):
        # this process builds each of its own datasets just before its write and drops it
        # after it, and none of a child's, so the peak is one panel's encoding plus about one
        # panel, its axes and its W grid; holding all six adds five panels, a child's three on
        # two CPUs
        monkeypatch.setattr(cvcluster.io, "_cpus", lambda: cpus)
        panels = list(fig8_dataset(grid_points=101).values())
        panel_bytes = max(sum(a.nbytes for a in panel.arrays) for panel in panels)
        encode_peak = 0
        for panel in panels:
            tracemalloc.start()
            try:
                write_dataset(panel, tmp_path / "panel.csv")
                encode_peak = max(encode_peak, tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        del panels, panel
        argv = ["figures", "--grid", "101", "--out", str(tmp_path / "figs")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main(argv) == 0  # one-time imports and caches
            tracemalloc.start()
            try:
                assert cli_main(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < encode_peak + 3 * panel_bytes

    def test_failed_fork_writes_in_process(self, tmp_path, monkeypatch):
        def fork_fails():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", fork_fails)
        monkeypatch.setattr(cvcluster.io, "_cpus", lambda: 3)
        jobs = many_jobs(tmp_path / "many", "csv")
        write_all(jobs, "csv")
        for build, path in jobs:
            assert path.read_bytes() == write_dataset(build(), tmp_path / path.name).read_bytes()


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "cvcluster", "prepare", "--r", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "all_satisfied: true" in proc.stdout
