"""The three on-disk formats, none holding a timestamp, and the checksum
that ties files together.

- JSON: UTF-8 with LF line endings, sorted keys, one-space indent, trailing
  newline, shortest round-trip floats.  Checkpoints, traces and every
  summary use it.
- Data table: a UTF-8 CSV with LF line endings under the header
  ``label,noisy_label,f0,...,f{d-1}``, one row per sample: its clean and its
  noisy integer label, then its ``d`` features printed as ``%.16e`` (17
  significant digits round-trip any float64).  The parser is strict: one bulk
  parse, and a file it refuses is read again line by line to name the file
  and line at fault.  Every data file is one.
- Labeled array: one ``.npy`` file holding a 1-D structured array of fields
  ``label`` (``<i8``) and ``embedding`` (``<f8``, ``d`` wide), the store's
  format.  The reader checks the header before it reads a record, takes that
  layout only and never unpickles.
- Checksums: a SHA-256 over arrays' shapes and bytes, which ties a
  checkpoint to the parameters it holds and to the store it was trained with.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
import warnings
from dataclasses import fields
from typing import Callable, Iterable, Sequence

import numpy as np

FLOAT_FMT = "%.16e"
# The bytes that read_table trusts np.loadtxt with; see its docstring.
_PLAIN_BYTES = bytes(range(0x20, 0x7F)) + b"\n\r"
_INT64 = np.iinfo(np.int64)


def array_checksum(*arrays: np.ndarray) -> str:
    """SHA-256 over each array's ``str(shape)`` and contiguous bytes, in order."""
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(str(arr.shape).encode())
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def write_json(path: str | os.PathLike, doc) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def read_json(path: str | os.PathLike) -> dict:
    """The object a JSON file holds; malformed JSON or UTF-8, or any other
    document, is a ValueError naming ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: not a JSON object")
    return doc


def require_keys(doc: dict, keys: Sequence[str], path: str | os.PathLike) -> None:
    """Raise a ValueError naming ``path`` and the first of ``keys`` not in ``doc``."""
    for key in keys:
        if key not in doc:
            raise ValueError(f"{path}: missing key {key!r}")


def reject_unknown(doc: dict, allowed: Iterable[str], what: str) -> None:
    """Raise ``ValueError("unknown <what>: a, b")`` for the keys of ``doc``
    not in ``allowed``, sorted; a typo is an error, never a silent default."""
    if unknown := sorted(set(doc) - set(allowed)):
        raise ValueError(f"unknown {what}: {', '.join(unknown)}")


_TYPE_NAMES = {int: "integer", float: "number", str: "string"}


def type_problem(key: str, value, like) -> str | None:
    """The error for a JSON ``value`` that cannot stand where the default
    ``like`` does, else None.  A bool is never a number, a float ``like`` takes
    an int or float that a finite float holds, and a tuple ``like`` takes a
    list or tuple whose items each fit ``like[0]``."""
    if isinstance(like, tuple):
        fits = isinstance(value, (list, tuple)) and not any(type_problem(key, v, like[0]) for v in value)
        kind = f"a list of {_TYPE_NAMES[type(like[0])]}s"
    else:
        allowed = (int, float) if isinstance(like, float) else type(like)
        fits = isinstance(value, allowed) and not isinstance(value, bool)
        kind = ("an " if isinstance(like, int) else "a ") + _TYPE_NAMES[type(like)]
        if fits and isinstance(like, float) and not abs(value) <= sys.float_info.max:
            fits, kind = False, "a finite number"
    return None if fits else f"{key} must be {kind}, got {value!r}"


def settle_fields(obj, key: Callable[[str], str] = str) -> list[str]:
    """The problems of the frozen dataclass ``obj``'s fields, each judged
    against its default by :func:`type_problem` under the name ``key(field)``;
    a field that fits is stored in its default's form (an int in a float field
    as that float, a list in a tuple field as a tuple)."""
    problems = []
    for f in fields(obj):
        value = getattr(obj, f.name)
        if problem := type_problem(key(f.name), value, f.default):
            problems.append(problem)
        elif isinstance(f.default, (float, tuple)):
            object.__setattr__(obj, f.name, type(f.default)(value))
    return problems


def _table_header(dim: int) -> str:
    return ",".join(["label", "noisy_label", *(f"f{j}" for j in range(dim))])


def write_table(path: str | os.PathLike, clean: np.ndarray, noisy: np.ndarray, values: np.ndarray) -> None:
    """Write one row per sample: its clean label, its noisy label, then its values."""
    if values.ndim != 2 or values.shape[0] == 0:
        raise ValueError("need a non-empty 2-D value array")
    dim = values.shape[1]
    line = ",".join(["%d", "%d"] + [FLOAT_FMT] * dim) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_table_header(dim) + "\n")
        for labels, row in zip(zip(clean, noisy), values):
            fh.write(line % (*labels, *row.tolist()))


def _table_dim(fh, path) -> int:
    """Read the header line of ``fh``; the number of feature columns it names."""
    header = fh.readline().rstrip("\n")
    dim = header.count(",") - 1
    if dim < 1 or header != _table_header(dim):
        raise ValueError(f"{path}: line 1: bad header {header!r}")
    return dim


def _plain_text(path: str | os.PathLike) -> bool:
    """Whether every byte of the file is printable ASCII, LF or CR."""
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            if block.translate(None, _PLAIN_BYTES):
                return False
    return True


def read_table(path: str | os.PathLike) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of :func:`write_table`: the int64 clean and noisy labels and
    the ``(n, d)`` values.  Blank lines are skipped; a bad header, a wrong
    field count, a malformed label or number, a label outside the int64
    range, a non-finite value, a byte that is not UTF-8 (kept as a surrogate,
    so no field holding one parses), or no data rows raise ValueError naming
    the file and line.

    The body is parsed by one ``np.loadtxt`` call.  A file it refuses, or one
    with a non-finite value or no rows, is read again by
    :func:`_read_table_lines`, which returns what it accepts and otherwise
    names the line at fault.  Only printable-ASCII files reach ``loadtxt``: on
    them it accepts a subset of what the line-wise reader does, with equal
    values, while on other text it reads some non-ASCII letters as digits and
    strips the separators ``\\x1c``-``\\x1f`` from a float, which the line-wise
    reader refuses."""
    table = None
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        dim = _table_dim(fh, path)
        if _plain_text(path):
            # A warning refuses the file as an error does: NumPy warns on an empty body.
            with warnings.catch_warnings(), contextlib.suppress(ValueError, Warning):
                warnings.simplefilter("error")
                columns = [("clean", np.int64), ("noisy", np.int64), ("values", float, (dim,))]
                table = np.loadtxt(fh, delimiter=",", comments=None, dtype=columns, ndmin=1)
    if table is None or not np.isfinite(table["values"]).all():
        return _read_table_lines(path)
    return tuple(np.ascontiguousarray(table[name]) for name in ("clean", "noisy", "values"))


def _read_table_lines(path: str | os.PathLike) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`read_table`, one line at a time: ``int()`` per label and one
    float array per row, so an error names the line it is on."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        n_fields = 2 + _table_dim(fh, path)
        labels: tuple[list[int], list[int]] = ([], [])
        rows: list[np.ndarray] = []
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != n_fields:
                raise ValueError(
                    f"{path}: line {lineno}: expected {n_fields} fields, got {len(parts)}"
                )
            try:
                for column, part in zip(labels, parts):
                    column.append(int(part))
                    if not _INT64.min <= column[-1] <= _INT64.max:
                        raise ValueError(f"label {part!r} outside the int64 range")
                values = np.array(parts[2:], dtype=float)
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            if not np.isfinite(values).all():
                raise ValueError(f"{path}: line {lineno}: non-finite value")
            rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return (*(np.array(column, dtype=np.int64) for column in labels), np.stack(rows))


def _labeled_dtype(dim: int) -> np.dtype:
    return np.dtype([("label", "<i8"), ("embedding", "<f8", (dim,))])


def write_labeled_array(path: str | os.PathLike, labels: np.ndarray, values: np.ndarray) -> None:
    """Write ``n`` integer labels and their ``(n, d)`` float rows as one
    labeled array: ``n`` records of fields ``label`` and ``embedding``."""
    if values.ndim != 2 or values.shape[0] == 0 or labels.shape != values.shape[:1]:
        raise ValueError("need n labels and a non-empty (n, d) value array")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError(f"labels must be integers, got {labels.dtype}")
    records = np.empty(len(labels), _labeled_dtype(values.shape[1]))
    records["label"], records["embedding"] = labels, values
    with open(path, "wb") as fh:
        np.save(fh, records, allow_pickle=False)


def read_labeled_array(path: str | os.PathLike) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`write_labeled_array`: the int64 labels and the
    ``(n, d)`` float64 rows.  The header is checked before any record is
    read: a file that is not a version 1.0 ``.npy`` file, holds any other
    shape, field set, width, dtype or byte order (pickled objects included,
    which are never unpickled), holds no rows, or whose records are cut short
    or run on raises ValueError naming ``path``."""
    with open(path, "rb") as fh:
        try:
            if np.lib.format.read_magic(fh) != (1, 0):
                raise ValueError("not a version 1.0 .npy file")
            shape, _, dtype = np.lib.format.read_array_header_1_0(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        width = dtype.fields["embedding"][0].shape if "embedding" in (dtype.fields or {}) else ()
        if len(shape) != 1 or len(width) != 1 or dtype != _labeled_dtype(*width):
            raise ValueError(
                f"{path}: expected a 1-D array of fields label <i8 and embedding <f8 (d wide), "
                f"got shape {shape} and dtype {dtype}"
            )
        if shape[0] == 0:
            raise ValueError(f"{path}: no rows")
        size, expected = os.fstat(fh.fileno()).st_size - fh.tell(), shape[0] * dtype.itemsize
        if size != expected:
            raise ValueError(f"{path}: {size} bytes of records, but its header's shape needs {expected}")
        fh.seek(0)
        records = np.load(fh, allow_pickle=False)
    return np.ascontiguousarray(records["label"]), np.ascontiguousarray(records["embedding"])
