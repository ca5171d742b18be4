"""Dataset serialization: headers, float round-trip, format switching."""

import json
import math
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import cvcluster.io
from cvcluster import CurveDataset, format_float, write_dataset
from cvcluster.io import (_CHUNK_ROWS, _header_config, _writing_ahead, dataset_to_csv,
                          dataset_to_json)


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


def many_jobs(directory, fmt, rows=(1, 400, 30, 9, 5000, 30)):
    """Datasets of the given row counts, in order, each with its own file."""
    directory.mkdir(exist_ok=True)
    rng = np.random.default_rng(11)
    return [(CurveDataset(tag=f"d{i}", columns=("a", "b", "c"), values=rng.normal(size=(n, 3))),
             directory / f"d{i}.{fmt}") for i, n in enumerate(rows)]


def write_all(jobs, fmt, config=None):
    """Write the jobs as ``figures`` does, each through write_dataset here.

    Returns each file's bytes as read when its write_dataset call returned.
    """
    written = []
    with _writing_ahead(jobs, fmt, config):
        for dataset, path in jobs:
            assert write_dataset(dataset, path, fmt, config) == path
            written.append(path.read_bytes())
    assert cvcluster.io._AHEAD == {}
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
        for (dataset, path), data in zip(jobs, written):
            alone = write_dataset(dataset, tmp_path / path.name, fmt, {"k": 1})
            assert data == path.read_bytes() == alone.read_bytes()

    @pytest.mark.parametrize("blocked,first", [({0, 1}, 0), ({1, 2}, 1), ({2, 3}, 2)])
    def test_earliest_failure_reported(self, tmp_path, monkeypatch, forks, blocked, first):
        # on two CPUs, largest first, the child writes jobs 0, 2 and 4 and
        # this process 1, 3 and 5; each blocked pair spans both
        monkeypatch.setattr(cvcluster.io, "_cpus", lambda: 2)
        jobs = many_jobs(tmp_path, "csv", rows=(1, 5000, 400, 9, 30, 300))
        for i in blocked:
            jobs[i][1].mkdir()
        with pytest.raises(OSError) as sequential:
            write_dataset(*jobs[first], "csv")
        with pytest.raises(OSError) as parallel:
            write_all(jobs, "csv")
        assert_no_children()
        assert forks == [1]
        assert str(parallel.value) == str(sequential.value)
        for dataset, path in jobs[:first]:
            assert path.read_bytes() == write_dataset(dataset, tmp_path / "alone.csv").read_bytes()

    @pytest.mark.parametrize("end_child", [lambda: os._exit(7), lambda: 1 / 0])
    def test_files_of_a_child_that_ends_early_are_written_here(self, tmp_path, monkeypatch,
                                                                end_child):
        monkeypatch.setattr(cvcluster.io, "_cpus", lambda: 2)
        parent = os.getpid()

        def end_in_child(*args):
            if os.getpid() != parent:
                end_child()
            return write_dataset(*args)

        monkeypatch.setattr(cvcluster.io, "write_dataset", end_in_child)
        jobs = many_jobs(tmp_path / "many", "csv")
        write_all(jobs, "csv")
        assert_no_children()
        for dataset, path in jobs:
            assert path.read_bytes() == write_dataset(dataset, tmp_path / path.name).read_bytes()

    def test_failure_here_reaps_the_children(self, tmp_path, monkeypatch, forks):
        monkeypatch.setattr(cvcluster.io, "_cpus", lambda: 3)
        jobs = many_jobs(tmp_path, "csv")
        with pytest.raises(RuntimeError, match="stop"):
            with _writing_ahead(jobs, "csv", None):
                raise RuntimeError("stop")
        assert_no_children()
        assert len(forks) == 2
        assert cvcluster.io._AHEAD == {}

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

    def test_failed_fork_writes_in_process(self, tmp_path, monkeypatch):
        def fork_fails():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", fork_fails)
        monkeypatch.setattr(cvcluster.io, "_cpus", lambda: 3)
        jobs = many_jobs(tmp_path / "many", "csv")
        write_all(jobs, "csv")
        for dataset, path in jobs:
            assert path.read_bytes() == write_dataset(dataset, tmp_path / path.name).read_bytes()


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "cvcluster", "prepare", "--r", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "all_satisfied: true" in proc.stdout
