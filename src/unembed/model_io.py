"""Reading and writing models, reports, and region grids.

Two model formats:

CSV (unembeddings), header fixed, one label per row::

    label,dim_0,...,dim_{d-1}

Embedding points travel in a separate CSV with header
``point,dim_0,...,dim_{d-1}``.  All floats are written with 17 significant
digits, which round-trips IEEE doubles exactly.

JSON, one object per model::

    {"version": "1", "d": 2, "labels": [...],
     "unembeddings": [[...], ...], "embeddings": [[...], ...]}

``embeddings`` is optional.  Grid CSVs carry one row per cell with header
``x,y,label_index``.  Analysis reports are JSON objects with the five
top-level keys ``input``, ``transforms``, ``similarity``, ``feasibility``,
``equivalence`` (unused sections are null).  Models and reports are written
byte for byte as ``json.dumps(obj, indent=2)`` writes them, plus a newline.

Malformed input raises ModelFormatError naming the offending line or field.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
from collections import Counter
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from .errors import ModelFormatError
from .geometry import RegionGrid
from .model import EmbeddingBatch, SoftmaxModel, UnembeddingSet

__all__ = [
    "load_model",
    "save_model",
    "save_report",
    "load_report",
    "export_grid_csv",
    "new_report",
    "REPORT_KEYS",
]

REPORT_KEYS = ("input", "transforms", "similarity", "feasibility", "equivalence")

_FMT = "%.17g"
_NEEDS_QUOTES = re.compile('[,"\r\n]')


def _infer_format(path: str, fmt: str | None) -> str:
    if fmt is not None:
        if fmt not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {fmt!r}")
        return fmt
    ext = os.path.splitext(path)[1].lower()
    if ext == ".csv":
        return "csv"
    if ext == ".json":
        return "json"
    raise ValueError(
        f"cannot infer format from {path!r}; pass format='csv' or 'json'"
    )


def _parse_float(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ModelFormatError(f"{where}: not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ModelFormatError(f"{where}: non-finite value: {text!r}")
    return value


def _finite(cell) -> bool:
    """math.isfinite, but False for an int too large for a double."""
    try:
        return math.isfinite(cell)
    except OverflowError:
        return False


def _duplicates_message(path: str, labels) -> str:
    dup = sorted(x for x, n in Counter(labels).items() if n > 1)
    return f"{path}: duplicate labels: {dup}"


def _read_vector_csv(path: str, id_column: str):
    """Shared reader for the unembedding and embedding CSV grammars."""
    try:
        handle = open(path, newline="")
    except OSError as exc:
        raise ModelFormatError(f"{path}: {exc.strerror or exc}") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ModelFormatError(f"{path}: empty file") from None
        if len(header) < 2 or header[0] != id_column:
            raise ModelFormatError(
                f"{path}, line 1: header must start with "
                f"{id_column!r},dim_0,..."
            )
        d = len(header) - 1
        expected = [id_column] + [f"dim_{m}" for m in range(d)]
        if header != expected:
            raise ModelFormatError(
                f"{path}, line 1: header {header!r} != {expected!r}"
            )
        names: list[str] = []
        rows: list[list[float]] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue  # ignore blank lines
            if len(row) != d + 1:
                raise ModelFormatError(
                    f"{path}, line {lineno}: {len(row)} fields, expected {d + 1}"
                )
            name = row[0]
            if not name:
                raise ModelFormatError(
                    f"{path}, line {lineno}: empty {id_column} name"
                )
            names.append(name)
            try:
                values = list(map(float, row[1:]))
            except ValueError:
                values = None
            # a sum is finite only if every term is; it may also overflow,
            # and then the per-field loop below finds nothing wrong
            if values is None or not math.isfinite(sum(values)):
                values = [
                    _parse_float(text, f"{path}, line {lineno}, column {ci + 2}")
                    for ci, text in enumerate(row[1:])
                ]
            rows.append(values)
    return names, np.array(rows, dtype=np.float64).reshape(len(rows), d), d


def _load_csv(path: str, embeddings_path: str | None) -> SoftmaxModel:
    labels, vectors, d = _read_vector_csv(path, "label")
    if len(labels) != len(set(labels)):
        raise ModelFormatError(_duplicates_message(path, labels))
    if len(labels) < 2:
        raise ModelFormatError(f"{path}: need at least 2 labels")
    try:
        unemb = UnembeddingSet(tuple(labels), vectors)
    except ValueError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc
    embeddings = None
    if embeddings_path is not None:
        names, points, de = _read_vector_csv(embeddings_path, "point")
        if de != d:
            raise ModelFormatError(
                f"{embeddings_path}: points have d={de}, unembeddings d={d}"
            )
        embeddings = EmbeddingBatch(points, tuple(names) if names else None)
    return SoftmaxModel(unemb, embeddings)


def _require(cond: bool, message: str):
    if not cond:
        raise ModelFormatError(message)


def _load_json(path: str) -> SoftmaxModel:
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ModelFormatError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path}: invalid JSON: {exc}") from exc
    _require(isinstance(data, dict), f"{path}: top level must be an object")
    _require(
        data.get("version") == "1",
        f"{path}: unsupported version {data.get('version')!r}",
    )
    d = data.get("d")
    _require(type(d) is int and d >= 1, f"{path}: bad dimension field d")
    labels = data.get("labels")
    _require(
        isinstance(labels, list)
        and len(labels) >= 2
        and all(isinstance(x, str) for x in labels),
        f"{path}: labels must be a list of at least 2 strings",
    )
    if len(set(labels)) != len(labels):
        raise ModelFormatError(_duplicates_message(path, labels))

    def _matrix(field: str, expected_rows: int | None):
        rows = data.get(field)
        _require(isinstance(rows, list), f"{path}: {field} must be a list")
        if expected_rows is not None:
            _require(
                len(rows) == expected_rows,
                f"{path}: {field} has {len(rows)} rows, expected {expected_rows}",
            )
        if (
            {*map(type, rows)} <= {list}
            and {*map(len, rows)} <= {d}
            and {*map(type, chain.from_iterable(rows))} <= {float, int}
        ):
            try:
                matrix = np.array(rows, dtype=np.float64).reshape(len(rows), d)
            except OverflowError:  # an int too large for a double
                matrix = None
            if matrix is not None and np.isfinite(matrix).all():
                return matrix
        # find the first error in file order and word it
        for ri, row in enumerate(rows):
            _require(
                isinstance(row, list) and len(row) == d,
                f"{path}: {field}[{ri}] must be a list of {d} numbers",
            )
            for ci, cell in enumerate(row):
                _require(
                    isinstance(cell, (int, float))
                    and not isinstance(cell, bool)
                    and _finite(cell),
                    f"{path}: {field}[{ri}][{ci}] is not a finite number",
                )
        return np.array(rows, dtype=np.float64).reshape(len(rows), d)

    vectors = _matrix("unembeddings", len(labels))
    embeddings = None
    if "embeddings" in data and data["embeddings"] is not None:
        embeddings = EmbeddingBatch(_matrix("embeddings", None))
    try:
        return SoftmaxModel(UnembeddingSet(tuple(labels), vectors), embeddings)
    except ValueError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc


def load_model(
    path: str, fmt: str | None = None, embeddings_path: str | None = None
) -> SoftmaxModel:
    """Load a model; format inferred from the extension unless given."""
    kind = _infer_format(path, fmt)
    if kind == "csv":
        return _load_csv(path, embeddings_path)
    if embeddings_path is not None:
        raise ValueError("JSON models embed their points; no separate file")
    return _load_json(path)


def _key(key) -> str:
    """A dict key as json.dumps writes it: int, float, bool and None keys
    are coerced to their JSON text."""
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):
            raise TypeError("keys must be str, int, float, bool or None, "
                            f"not {key.__class__.__name__}")
        key = _encode(key, "")
    return _quote(key)


def _items(values, nl: str) -> list:
    """The JSON text of each item of a non-empty list whose items start at
    indent nl.

    Fast paths: a list of int and float (bool excluded) is formatted by one
    C-level repr unless it holds nan or inf; a list of dicts that share one
    tuple of str keys is encoded column by column and filled into one
    template per item."""
    kinds = {*map(type, values)}
    if kinds <= {int, float}:
        text = list.__repr__(list(values))
        if "n" not in text:  # else NaN or Infinity, written below
            return text[1:-1].split(", ")
    elif kinds == {str}:
        return list(map(_quote, values))
    elif kinds == {dict}:
        keys = {*map(tuple, values)}
        if len(keys) == 1:
            keys = keys.pop()
            if keys and all(type(key) is str for key in keys):
                inner = nl + "  "
                columns = [_items([v[key] for v in values], inner)
                           for key in keys]
                fields = [_quote(key).replace("%", "%%") + ": %s"
                          for key in keys]
                template = "{" + inner + ("," + inner).join(fields) + nl + "}"
                return [template % row for row in zip(*columns)]
    return [_encode(v, nl) for v in values]


def _encode(obj, nl: str) -> str:
    """json.dumps(obj, indent=2) for obj starting at indent nl (a newline
    and the spaces of its nesting)."""
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if math.isfinite(obj):
            return float.__repr__(obj)
        return "NaN" if obj != obj else "Infinity" if obj > 0 else "-Infinity"
    inner = nl + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + inner + ("," + inner).join(_items(obj, inner)) + nl + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        return "{" + inner + ("," + inner).join(
            [_key(key) + ": " + _encode(value, inner)
             for key, value in obj.items()]) + nl + "}"
    raise TypeError(
        f"Object of type {obj.__class__.__name__} is not JSON serializable")


def _write(write, obj, nl: str) -> None:
    """write(_encode(obj, nl)) in pieces: a dict entry by entry and a list
    of lists row by row, so the text of one row at most is held at once."""
    if isinstance(obj, dict) and obj:
        inner, head = nl + "  ", "{"
        for key, value in obj.items():
            write(head + inner + _key(key) + ": ")
            _write(write, value, inner)
            head = ","
        write(nl + "}")
    elif isinstance(obj, list) and obj and {*map(type, obj)} == {list}:
        inner, head = nl + "  ", "["
        for value in obj:
            write(head + inner)
            _write(write, value, inner)
            head = ","
        write(nl + "]")
    else:
        write(_encode(obj, nl))


def _write_json(handle, obj) -> None:
    """Write json.dumps(obj, indent=2) + "\n" to handle, byte for byte: two
    spaces of indent, one element per line, ASCII escapes, shortest-repr
    floats and NaN/Infinity for non-finite ones."""
    _write(handle.write, obj, "\n")
    handle.write("\n")


def _write_vector_csv(path: str, id_column: str, names, matrix: np.ndarray):
    """CRLF rows; a name is quoted (by csv.writer) only if it needs it."""
    d = matrix.shape[1]
    line = "%s," + ",".join([_FMT] * d) + "\r\n"
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([id_column] + [f"dim_{m}" for m in range(d)])
        for name, row in zip(names, matrix.tolist()):
            if _NEEDS_QUOTES.search(name):
                writer.writerow([name] + [_FMT % v for v in row])
            else:
                handle.write(line % (name, *row))


def save_model(
    model: SoftmaxModel,
    path: str,
    fmt: str | None = None,
    embeddings_path: str | None = None,
) -> list[str]:
    """Write a model; returns the paths written.

    CSV models with a nonempty embedding batch also write the points file
    (default sibling path ``<stem>.embeddings.csv``).
    """
    kind = _infer_format(path, fmt)
    written = [path]
    if kind == "csv":
        _write_vector_csv(
            path, "label", model.labels, model.unembeddings.vectors
        )
        if model.embeddings.n:
            if embeddings_path is None:
                embeddings_path = os.path.splitext(path)[0] + ".embeddings.csv"
            names = model.embeddings.names or tuple(
                f"p{i}" for i in range(model.embeddings.n)
            )
            _write_vector_csv(
                embeddings_path, "point", names, model.embeddings.points
            )
            written.append(embeddings_path)
        return written
    payload = {
        "version": "1",
        "d": model.d,
        "labels": list(model.labels),
        "unembeddings": model.unembeddings.vectors.tolist(),
    }
    if model.embeddings.n:
        payload["embeddings"] = model.embeddings.points.tolist()
    with open(path, "w") as handle:
        _write_json(handle, payload)
    return written


def new_report(**sections) -> dict:
    """Blank analysis report with the five fixed top-level keys."""
    unknown = set(sections) - set(REPORT_KEYS)
    if unknown:
        raise ValueError(f"unknown report sections: {sorted(unknown)}")
    report = {key: None for key in REPORT_KEYS}
    report["transforms"] = []
    report.update(sections)
    return report


def save_report(report: dict, path: str) -> None:
    """Write an analysis report; all five standard keys must be present."""
    missing = [key for key in REPORT_KEYS if key not in report]
    if missing:
        raise ValueError(f"report is missing sections: {missing}")
    with open(path, "w") as handle:
        _write_json(handle, report)


def load_report(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def export_grid_csv(grid: RegionGrid, path: str) -> None:
    """One row per cell (y-major, x within), header ``x,y,label_index``.

    Coordinates are shortest-repr floats; lines end in LF.  Each grid row
    is joined and written once, so memory stays at one row of text.
    """
    xs = [x + "," for x in map(repr, grid.x_centers.tolist())]
    with open(path, "w", newline="") as handle:
        handle.write("x,y,label_index\n")
        for y, row in zip(map(repr, grid.y_centers.tolist()), grid.labels):
            row = row.tolist()
            tails = {label: f"{y},{label}\n" for label in set(row)}
            handle.write("".join([x + tails[label] for x, label in zip(xs, row)]))
