"""Datasets and their serialization: CSV with a JSON config header, or plain JSON.

A :class:`CurveDataset` is a named table of finite floats. CSV files start
with a single ``#``-prefixed line holding the fully resolved configuration
as JSON, then a header row and one data row per sample. Floats are written
with 17 significant digits so files round-trip exactly and repeated runs
are byte-identical.

CSV rows are encoded in bulk: each distinct float (by bit pattern, so
``-0.0`` and ``0.0`` stay apart) is formatted once, and each block of
``_CHUNK_ROWS`` rows is one flat join over those strings and the
separators, so a large dataset never exists as one string on its way to disk.

numpy is imported by the dataset constructor and the CSV encoder
themselves, so importing this module and :func:`format_float` cost no numpy
import.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:
    import numpy as np

_CHUNK_ROWS = 4096
_FLOAT_SPEC = ".17g"


@dataclass(frozen=True)
class CurveDataset:
    """A named, columnar dataset ready for serialization.

    ``values`` has one row per sample and one column per name in
    ``columns``; all entries must be finite.
    """

    tag: str
    columns: tuple[str, ...]
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        import numpy as np

        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 2 or not 0 < len(self.columns) == arr.shape[1]:
            raise ValueError("values need one column per name, and at least one column")
        if not np.all(np.isfinite(arr)):
            raise ValueError("dataset contains non-finite entries")
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "columns", tuple(self.columns))

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise KeyError(f"unknown column {name!r}")
        return self.values[:, self.columns.index(name)]


def format_float(value: float) -> str:
    return format(float(value), _FLOAT_SPEC)


def _header_config(dataset: CurveDataset, config: dict | None) -> dict:
    merged = dict(dataset.meta)
    if config:
        merged.update(config)
    merged["tag"] = dataset.tag
    return merged


def _csv_blocks(dataset: CurveDataset, config: dict | None) -> Iterator[str]:
    """The CSV text in pieces: the two header lines, then blocks of rows.

    The header and the table of formatted floats are built before this
    returns, so an encoding error surfaces before any file is opened.
    """
    import numpy as np

    header = ("# " + json.dumps(_header_config(dataset, config), sort_keys=True) + "\n"
              + ",".join(dataset.columns) + "\n")
    values = dataset.values
    bits, inverse = np.unique(values.view(np.uint64).ravel(), return_inverse=True)
    strings = map(float.__format__, bits.view(float).tolist(), itertools.repeat(_FLOAT_SPEC))
    table = np.array([*strings, ",", "\n"], dtype=object)
    cells = inverse.reshape(values.shape)
    index = np.full((min(len(cells), _CHUNK_ROWS), 2 * cells.shape[1]), len(bits))
    index[:, -1] = len(bits) + 1

    def blocks() -> Iterator[str]:
        for start in range(0, len(cells), _CHUNK_ROWS):
            block = cells[start:start + _CHUNK_ROWS]
            index[:len(block), ::2] = block
            yield "".join(table[index[:len(block)]].ravel().tolist())

    return itertools.chain((header,), blocks())


def dataset_to_csv(dataset: CurveDataset, config: dict | None = None) -> str:
    return "".join(_csv_blocks(dataset, config))


def dataset_to_json(dataset: CurveDataset, config: dict | None = None) -> str:
    doc = {
        "config": _header_config(dataset, config),
        "tag": dataset.tag,
        "columns": list(dataset.columns),
        "rows": dataset.values.tolist(),
    }
    return json.dumps(doc, sort_keys=True) + "\n"


def write_dataset(
    dataset: CurveDataset,
    path: str | Path,
    fmt: str = "csv",
    config: dict | None = None,
) -> Path:
    """Serialize a dataset to ``path``; returns the written path."""
    if fmt == "csv":
        blocks: Iterable[str] = _csv_blocks(dataset, config)
    elif fmt == "json":
        blocks = (dataset_to_json(dataset, config),)
    else:
        raise ValueError("fmt must be 'csv' or 'json'")
    target = Path(path)
    with target.open("w", encoding="utf-8") as handle:
        handle.writelines(blocks)
    return target
