"""Datasets and their serialization: CSV with a JSON config header, or plain JSON.

A :class:`CurveDataset` is a named dataset of finite floats, held as one
array per column; the arrays broadcast to one shape, whose cells in C order
are the rows. A table's columns are 1-D; a Wigner panel's are ``x[:, None]``,
``y[None, :]`` and its grid, so no table of its rows is built. CSV files
start with a single ``#``-prefixed line holding the fully resolved
configuration as JSON, then a header row and one data row per sample.
Floats are written with 17 significant digits so files round-trip exactly
and repeated runs are byte-identical.

Both formats reach disk as blocks of bytes, with ``\n`` line ends on every
platform, so a large dataset never exists as one string on its way there.
A dataset of fewer than ``_FORMAT_MIN`` cells is one block of
:func:`format_float` text. In larger CSV files, each column's distinct
floats (by bit pattern, so ``-0.0`` and ``0.0`` stay apart) get one
NUL-padded field of ``_FIELD`` bytes each, whose last byte is its
separator. The dedup is one ``argsort`` of each column's bit patterns over
the column's own array, whose sorted run starts are numbered by a
``cumsum`` and scattered into that column's field ids, in its array's
shape: ``uint32`` below 2**32 cells, else ``intp``. A block is ``max(1,
_CHUNK_ROWS // row length)`` (``_CHUNK_ROWS`` is 2048) whole rows of the
leading axis, the fields of each column's ids broadcast over them without
the NULs.

A JSON file is ``json.dumps`` of the document, keys sorted, plus ``\n``,
written as its head up to the rows' opening bracket, then ``_CHUNK_ROWS``
rows at a time dumped from Python lists, then the tag. It holds the
dataset's table of rows and one block, not the whole document: a 401²
Wigner panel's build and write peak near 39 bytes a point under
``tracemalloc``, and ``figures --grid 401 --format json`` peaks as its CSV
run does (36 / 30 MB ``ru_maxrss``, caller / child, on 2 CPUs).

:func:`_format_slice` writes exactly ``format(x, '.17g')`` from numpy passes
over ``_CHUNK_ROWS`` floats at a time, with IEEE +, -, *, floor and integer
operations only (Dekker's exact product, round half to even), so its bytes
do not depend on numpy's SIMD targets. One loop leaves to ``format`` zeros,
magnitudes outside [1e-280, 1e280], values within 1e-6 of a rounding tie,
and every field of a dataset with fewer than ``_FORMAT_MIN`` of them.

numpy is imported by the dataset's methods and the encoders themselves, so
importing this module and :func:`format_float` cost no numpy import.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import os
import threading
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

if TYPE_CHECKING:
    import numpy as np

_CHUNK_ROWS = 2048
_FLOAT_SPEC = ".17g"
#: the fewest cells to dedup and distinct floats to format in numpy, the exponents of
#: _format_tables (10**(16 - e) splits finitely), and Dekker's splitter
_FORMAT_MIN, _EXP_MAX, _SPLIT = 300, 284, 2.0**27 + 1
#: bytes per float: every '.17g' text is shorter, so the last byte is free for the separator;
#: the longest have 24 bytes, such as -4.9406564584124654e-324
_FIELD = 32


@dataclass(frozen=True, init=False, eq=False)
class CurveDataset:
    """A named dataset of finite floats, one array per column, ready for serialization.

    Its columns, one per name in ``columns``, come as a ``values`` table of one
    row per sample or as ``arrays``. The arrays broadcast to one ``shape``,
    whose cells in C order are the rows: a table's columns are 1-D, a Wigner
    panel's are ``x[:, None]``, ``y[None, :]`` and its grid. ``values`` and
    :meth:`column` copy the rows into a fresh array on each call.
    """

    tag: str
    columns: tuple[str, ...]
    arrays: tuple[np.ndarray, ...]
    shape: tuple[int, ...]
    meta: dict

    def __init__(self, tag: str, columns: Sequence[str], values: np.ndarray | None = None,
                 meta: dict | None = None, *, arrays: Sequence[np.ndarray] | None = None) -> None:
        import numpy as np

        if (values is None) == (arrays is None):
            raise TypeError("pass either a values table or column arrays")
        if arrays is None:  # checked whole: a one-row table's columns cost more one by one
            table = np.asarray(values, dtype=float)
            arrays, shape = (tuple(table.T), table.shape[:1]) if table.ndim == 2 else ((), ())
            finite = np.isfinite(table).all()
        else:
            arrays = tuple(np.asarray(a, dtype=float) for a in arrays)
            # (1,) makes a dataset of 0-d arrays one row
            shape = np.broadcast_shapes((1,), *(a.shape for a in arrays))
            finite = all(np.isfinite(a).all() for a in arrays)
        if not 0 < len(columns) == len(arrays):
            raise ValueError("values need one column per name, and at least one column")
        if len(set(columns)) < len(columns):
            raise ValueError("column names must differ")
        if not finite:
            raise ValueError("dataset contains non-finite entries")
        for name, value in zip(self.__dataclass_fields__,
                               (tag, tuple(columns), arrays, shape, {} if meta is None else meta)):
            object.__setattr__(self, name, value)

    @property
    def values(self) -> np.ndarray:
        """The rows as a table, one column per name."""
        import numpy as np

        table = np.empty((*self.shape, len(self.arrays)))
        for j, array in enumerate(self.arrays):
            table[..., j] = array
        return table.reshape(-1, len(self.arrays))

    def column(self, name: str) -> np.ndarray:
        import numpy as np

        if name not in self.columns:
            raise KeyError(f"unknown column {name!r}")
        return np.broadcast_to(self.arrays[self.columns.index(name)], self.shape).flatten()


def format_float(value: float) -> str:
    return format(float(value), _FLOAT_SPEC)


@functools.cache
def _format_tables() -> tuple[np.ndarray, ...]:
    """By exponent e, row e + _EXP_MAX: 10**(16 - e) as hi + lo to ~2**-106; the
    ``.17g`` bytes before and after the digits, the digit the point follows and
    the fewest digits shown. By 4-digit group g: its ASCII digits; at 10000 * i
    + g, 3 + the digits shown if g is group i and the last one not 0, else 0."""
    import numpy as np

    powers, layout = [], bytearray()
    for e in range(-_EXP_MAX, _EXP_MAX + 1):
        num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        hi_num, hi_den = (num / den).as_integer_ratio()  # int true division rounds correctly
        powers.append((num / den, (num * hi_den - hi_num * den) / (den * hi_den)))
        before = "0.000"[:1 - e] if -4 <= e < 0 else ""
        after = "" if -4 <= e < 17 else f"e{e:+03d}"
        layout += (before.ljust(5, "\0") + after.ljust(5, "\0")).encode()
        layout += bytes((e + 1, e + 1) if 0 <= e < 17 else (17 if before else 1, 0))
    quads = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"), -1)
    kept = (np.arange(1, 5, dtype=np.uint8) * (quads != ord("0"))).max(axis=-1).ravel()
    shown, point, q = np.arange(18)[:, None, None], np.arange(18)[:, None], np.arange(-2, 18)
    # row 18 * shown + point of each: at byte q + 2, show digit q, digit q - 1, "."
    cells = [(q >= 0) & (q < point) & (q < shown), (q > point) & (q <= shown),
             ((q == point) & (shown > point)) * np.uint8(ord("."))]
    return (np.array(powers), np.frombuffer(layout, np.uint8).reshape(-1, 12),
            quads.view(np.uint32).ravel(),
            ((kept + np.arange(0, 20, 4, dtype=np.uint8)[:, None]) * (kept > 0)).ravel(),
            np.stack(cells).astype(np.uint8).reshape(3, 18 * 18, 20))


def _format_slice(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write each float's ``.17g`` text into its row of ``out``; return where it is exact."""
    import numpy as np

    powers, layout, quads, ends, cells = _format_tables()
    exact = (np.abs(x) >= 1e-280) & (np.abs(x) <= 1e280)
    a = np.where(exact, np.abs(x), 1.0)
    # floor(floor(log2(a)) * log10(2)), exact here, is floor(log10(a)) or one less
    e = ((a.view(np.int64) >> 52) - 1023) * 78913 >> 18
    # a * 10**(16 - e) = p + err, exact but for the rounding of a * lo (Dekker's product)
    h, lo = powers.take(e + _EXP_MAX, axis=0).T
    a_hi, h_hi, p = a * _SPLIT - (a * _SPLIT - a), h * _SPLIT - (h * _SPLIT - h), a * h
    a_lo, h_lo = a - a_hi, h - h_hi
    err = ((a_hi * h_hi - p) + a_hi * h_lo + a_lo * h_hi) + a_lo * h_lo + a * lo
    digits = p.astype(np.int64) + np.floor(err).astype(np.int64)  # p >= 2**53 is an integer
    frac = err - np.floor(err)
    e += (over := digits >= 10**17)  # e was one less than floor(log10(a))
    frac = np.where(over, (digits % 10 + frac) * 0.1, frac)
    digits = np.where(over, digits // 10, digits)
    exact &= (digits >= 10**16) & (digits < 10**17) & (np.abs(frac - 0.5) > 1e-6)
    digits += frac > 0.5
    e += digits == 10**17  # rounded up to 18 digits
    digits[(digits == 10**17) | ~exact] = 10**16
    groups = np.empty((5, len(x)), np.intp)  # the leading digit, then four 4-digit groups
    for i in range(4, -1, -1):
        digits, groups[i] = np.divmod(digits, 10**4 if i else 10)
    chars = np.append(quads.take(groups.T).view(np.uint8), np.uint8(0))  # "000", 17 digits
    affixes = layout.take(e + _EXP_MAX, axis=0)
    shown = np.maximum(ends.take(groups + np.arange(0, 50000, 10000)[:, None]).max(axis=0) - 3,
                       affixes[:, 11])
    pattern = shown.astype(np.intp) * 18 + affixes[:, 10]
    digit, previous, dot = (m.take(pattern, axis=0).ravel() for m in cells)
    out[:, 0] = (x < 0) * np.uint8(ord("-"))  # NUL marks no byte
    out[:, 1:6] = affixes[:, :5]
    out[:, 6:26] = (chars[1:] * digit + chars[:-1] * previous + dot).reshape(-1, 20)
    out[:, 26:31] = affixes[:, 5:10]
    return exact


def _cell_dtype(size: int) -> type:
    """The dtype of the field ids of a dataset of ``size`` cells: ids into its floats."""
    import numpy as np

    return np.uint32 if size < 2**32 else np.intp


def _header_config(dataset: CurveDataset, config: dict | None) -> dict:
    return {**dataset.meta, **(config or {}), "tag": dataset.tag}


def _csv_blocks(dataset: CurveDataset, config: dict | None) -> Iterator[bytes]:
    """The CSV bytes in pieces: the two header lines, then blocks of rows.

    The header and the fields of the distinct floats are built before this
    returns, so an encoding error surfaces before any file is opened.
    """
    import numpy as np

    header = ("# " + json.dumps(_header_config(dataset, config), sort_keys=True) + "\n"
              + ",".join(dataset.columns) + "\n").encode()
    shape, width = dataset.shape, len(dataset.arrays)
    cells = math.prod(shape) * width
    if cells < _FORMAT_MIN:  # one block of text
        text = "".join(",".join(map(format_float, row)) + "\n" for row in dataset.values.tolist())
        return iter((header, text.encode()))
    # each column's distinct floats (by bit pattern) once, in one table, and its field ids,
    # in its array's shape
    parts, ids = [], []
    for column in dataset.arrays:
        bits, start = column.view(np.uint64).reshape(-1), sum(map(len, parts))
        # the ids come first, below the argsort's transients in the heap, which then shrinks
        ids.append(np.empty(column.shape, _cell_dtype(cells)))
        order = np.argsort(bits)
        bits = bits[order]
        first = np.concatenate(([True], bits[1:] != bits[:-1]))  # of a run of equal bits
        parts.append(bits[first])
        del bits
        first[0] = False
        # a float's id: the distinct floats before its own, this column's after the others'
        ids[-1].reshape(-1)[order] = np.cumsum(first, dtype=ids[-1].dtype) + start
        del order, first  # before the next column's argsort
    floats = np.concatenate(parts).view(float)
    del parts
    fields = np.zeros((len(floats), _FIELD), np.uint8)
    inexact = np.ones(len(floats), bool)
    if len(floats) >= _FORMAT_MIN:
        for i in range(0, len(floats), _CHUNK_ROWS):
            rows = slice(i, i + _CHUNK_ROWS)
            inexact[rows] = ~_format_slice(floats[rows], fields[rows])
    fallback = b"".join(format(x, _FLOAT_SPEC).encode().ljust(_FIELD, b"\0")
                        for x in floats[inexact].tolist())
    fields[inexact] = np.frombuffer(fallback, np.uint8).reshape(-1, _FIELD)
    fields[:, -1] = ord(",")

    def blocks() -> Iterator[bytes]:
        cell_ids = [c if c.shape == shape else np.broadcast_to(c, shape) for c in ids]
        step = max(1, _CHUNK_ROWS // max(1, math.prod(shape[1:])))  # whole leading-axis rows
        block_ids = np.empty((min(step, shape[0]), *shape[1:], width), ids[0].dtype)
        for start in range(0, shape[0], step):
            rows = block_ids[:shape[0] - start]
            for j, column_ids in enumerate(cell_ids):
                rows[..., j] = column_ids[start:start + step]
            block = fields.take(rows, axis=0)
            block[..., -1, -1] = ord("\n")
            yield block.tobytes().translate(None, b"\0")

    return itertools.chain((header,), blocks())


def _json_blocks(dataset: CurveDataset, config: dict | None) -> Iterator[bytes]:
    """The bytes of ``json.dumps`` of the document, keys sorted, in pieces: the head
    up to the rows' opening bracket, blocks of ``_CHUNK_ROWS`` rows, then the tail.

    The head is built before this returns, so an encoding error of the config
    surfaces before any file is opened.
    """
    head = {"columns": list(dataset.columns), "config": _header_config(dataset, config)}
    head_text = json.dumps(head, sort_keys=True)[:-1] + ', "rows": ['
    rows = dataset.values

    def blocks() -> Iterator[bytes]:
        for i in range(0, len(rows), _CHUNK_ROWS):
            text = json.dumps(rows[i:i + _CHUNK_ROWS].tolist())[1:-1]
            yield (", " + text if i else text).encode()
        yield ("], " + json.dumps({"tag": dataset.tag})[1:] + "\n").encode()

    return itertools.chain((head_text.encode(),), blocks())


def dataset_to_csv(dataset: CurveDataset, config: dict | None = None) -> str:
    return b"".join(_csv_blocks(dataset, config)).decode()


def dataset_to_json(dataset: CurveDataset, config: dict | None = None) -> str:
    return b"".join(_json_blocks(dataset, config)).decode()


def write_dataset(
    dataset: CurveDataset | None,
    path: str | Path,
    fmt: str = "csv",
    config: dict | None = None,
) -> Path:
    """Serialize a dataset to ``path`` and return the path; ``None`` writes nothing."""
    if dataset is None:
        return Path(path)
    if fmt not in ("csv", "json"):
        raise ValueError("fmt must be 'csv' or 'json'")
    blocks = (_csv_blocks if fmt == "csv" else _json_blocks)(dataset, config)
    with open(path, "wb") as handle:
        handle.writelines(blocks)
    return Path(path)


def _cpus() -> int:
    """Number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextlib.contextmanager
def _writing_ahead(jobs: Sequence[tuple[Callable[[], CurveDataset], Path]], fmt: str,
                   config: dict | None) -> Iterator[Iterator[CurveDataset | None]]:
    """Let forked children write some of the ``(build, path)`` jobs meanwhile.

    The jobs go round-robin, in order, to min(jobs, usable CPUs) workers,
    this process first; each builds and writes its own, one at a time, and a
    child reports each file written on a pipe. The yielded iterator gives,
    in job order, ``None`` for a file a child reported, else the dataset
    built here, as for a job whose child failed. Nothing is forked for one
    job or CPU, without ``os.fork``, or while another Python thread runs
    (native ones, such as numpy's BLAS pool, are not counted, and Python >=
    3.12's warning of them is ignored); a fork raising ``OSError`` or
    ``DeprecationWarning`` leaves its jobs here.
    """
    forkable = hasattr(os, "fork") and threading.active_count() == 1
    workers = min(len(jobs), _cpus()) if forkable else 1
    if fmt == "csv" and workers > 1:
        _format_tables()  # built once here, not once in each process
    reports: dict[int, int] = {}
    children = []
    try:
        for share in (range(w, len(jobs), workers) for w in range(1, workers)):
            pipes = [os.pipe() for _ in share]
            with contextlib.suppress(OSError, DeprecationWarning), warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)  # raised after the fork
                children.append(os.fork())
            if children and children[-1] == 0:  # leaves through os._exit, flushing nothing
                try:
                    for i, (_, write_fd) in zip(share, pipes):
                        with open(write_fd, "wb", 0) as report, contextlib.suppress(OSError):
                            write_dataset(jobs[i][0](), jobs[i][1], fmt, config)
                            report.write(b"1")
                    os._exit(0)
                finally:
                    os._exit(1)
            for i, (read_fd, write_fd) in zip(share, pipes):
                os.close(write_fd)
                reports[i] = read_fd
        yield (None if i in reports and os.read(reports[i], 1) else build()
               for i, (build, _) in enumerate(jobs))
    finally:
        for read_fd in reports.values():
            os.close(read_fd)
        for pid in children:
            os.waitpid(pid, 0)
