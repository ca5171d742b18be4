"""Dataset serialization: headers, float round-trip, format switching."""

import contextlib
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
from cvcluster.analysis import fig8_dataset
from cvcluster.cli import main as cli_main
from cvcluster.io import (_CHUNK_ROWS, _FIELD, _FORMAT_MIN, _format_slice,
                          _header_config, _writing_ahead, dataset_to_csv, dataset_to_json)


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


def one_column_csv(values):
    """The CSV data rows of a one-column dataset of ``values``, one string each."""
    dataset = CurveDataset(tag="t", columns=("v",), values=np.asarray(values)[:, None])
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
        few = values[:_FORMAT_MIN - 1] * 2
        one_column_csv(few)  # every float of a dataset below _FORMAT_MIN
        assert sorted(map(float.hex, sent)) == sorted(set(map(float.hex, few)))


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
        columns = tuple(f"c{i}" for i in range(values.shape[1]))
        # below _FORMAT_MIN cells as drawn; tiled to more, the same floats are deduped
        tiled = np.tile(values, (-(-_FORMAT_MIN // values.size), 1))
        for dataset in (CurveDataset(tag="t", columns=columns, values=v, meta={"m": 1})
                        for v in (values, tiled)):
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

    def test_vectorized_formatting_matches_per_float_encoder(self, tmp_path):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(3500, 3)) * 10.0 ** rng.integers(-30, 30, size=(3500, 3))
        values[::7, 0] = rng.choice(SPECIAL_FLOATS, size=len(values[::7]))
        values[::5, 2] = np.round(values[::5, 2], 3)
        assert len(np.unique(values)) > 2 * _CHUNK_ROWS
        dataset = CurveDataset(tag="t", columns=("a", "b", "c"), values=values)
        path = write_dataset(dataset, tmp_path / "d.csv", "csv", {"k": 2})
        assert_same_text(path.read_bytes(), reference_csv(dataset, {"k": 2}).encode())

    @pytest.mark.parametrize("rows", [2, _FORMAT_MIN])  # below and above _FORMAT_MIN cells
    def test_floats_shared_between_columns(self, rows):
        values = np.random.default_rng(5).normal(size=(rows, 4))
        values[:, 1] = values[::-1, 0]  # the floats of column a, in another order
        values[::2, 2], values[::2, 3] = 0.0, -0.0
        values[1::2, 2], values[1::2, 3] = -0.0, 0.0
        dataset = CurveDataset(tag="t", columns=("a", "b", "c", "d"), values=values)
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
                               values=values)
        assert_same_text(dataset_to_csv(dataset), reference_csv(dataset))
        # numpy formats a dataset of _FORMAT_MIN cells or more, if its columns hold as
        # many distinct floats: here only the one-row dataset of _FORMAT_MIN columns
        distinct = sum(len(np.unique(column)) for column in values.T)
        assert sum(formatted) == (distinct if min(values.size, distinct) >= _FORMAT_MIN else 0)
        assert (sum(formatted) > 0) == (cells == _FORMAT_MIN and one_row)

    def test_many_cells_few_distinct_floats(self, monkeypatch):
        monkeypatch.setattr(cvcluster.io, "_format_slice", None)  # never called
        rng = np.random.default_rng(8)
        values = rng.choice(rng.normal(size=60), size=(_FORMAT_MIN, 3))
        values[::4, 1] = -0.0
        assert sum(len(np.unique(column)) for column in values.T) < _FORMAT_MIN
        dataset = CurveDataset(tag="t", columns=("a", "b", "c"), values=values)
        assert_same_text(dataset_to_csv(dataset), reference_csv(dataset))

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
    datasets = [CurveDataset(tag=f"d{i}", columns=("a", "b", "c"), values=rng.normal(size=(n, 3)))
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
        for name in ("_csv_blocks", "dataset_to_json"):
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
        # panel; holding all six adds five panels, a child's three on two CPUs
        monkeypatch.setattr(cvcluster.io, "_cpus", lambda: cpus)
        panels = list(fig8_dataset(grid_points=101).values())
        panel_bytes = max(panel.values.nbytes for panel in panels)
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
