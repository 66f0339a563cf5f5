"""The two on-disk formats, both UTF-8 with LF line endings and no
timestamps, and the checksum that ties files together.

- JSON: sorted keys, one-space indent, trailing newline, shortest
  round-trip floats.  Checkpoints, traces and every summary use it.
- Labeled float table: a CSV of integer label columns, then float columns
  ``<prefix>0..<prefix>{d-1}`` printed as ``%.16e`` (17 significant digits
  round-trip any float64).  The parser is strict and names the file and line.
- Checksums: a SHA-256 over arrays' shapes and bytes, which ties a
  checkpoint to the parameters it holds and to the store it was trained with.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Iterable, Sequence

import numpy as np

FLOAT_FMT = "%.16e"


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
    """The object a JSON file holds; malformed JSON or any other document is a
    ValueError naming ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
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
    ``like`` does, else None.  Nothing is converted: a bool is never a number,
    an int stands for a float, and a tuple ``like`` takes a list or tuple
    whose items each fit ``like[0]``."""
    if isinstance(like, tuple):
        fits = isinstance(value, (list, tuple)) and not any(type_problem(key, v, like[0]) for v in value)
        kind = f"a list of {_TYPE_NAMES[type(like[0])]}s"
    else:
        allowed = (int, float) if isinstance(like, float) else type(like)
        fits = isinstance(value, allowed) and not isinstance(value, bool)
        kind = ("an " if isinstance(like, int) else "a ") + _TYPE_NAMES[type(like)]
    return None if fits else f"{key} must be {kind}, got {value!r}"


def _table_header(label_names: Sequence[str], prefix: str, dim: int) -> list[str]:
    return [*label_names, *(f"{prefix}{j}" for j in range(dim))]


def write_table(
    path: str | os.PathLike,
    label_names: Sequence[str],
    prefix: str,
    labels: Sequence[np.ndarray],
    values: np.ndarray,
) -> None:
    """Write one row per sample: its integer labels, then its float values."""
    if values.ndim != 2 or values.shape[0] == 0:
        raise ValueError("need a non-empty 2-D value array")
    dim = values.shape[1]
    line = ",".join(["%d"] * len(label_names) + [FLOAT_FMT] * dim) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(_table_header(label_names, prefix, dim)) + "\n")
        for row_labels, row in zip(zip(*labels), values):
            fh.write(line % (*row_labels, *row.tolist()))


def read_table(
    path: str | os.PathLike, label_names: Sequence[str], prefix: str
) -> tuple[list[np.ndarray], np.ndarray]:
    """Inverse of :func:`write_table`: one int64 array per label column and
    the ``(n, d)`` values.  Blank lines are skipped; a bad header, a wrong
    field count, a malformed label or number, a non-finite value, or no data
    rows raise ValueError naming the file and line."""
    n_labels = len(label_names)
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        cols = header.split(",")
        dim = len(cols) - n_labels
        if dim < 1 or cols != _table_header(label_names, prefix, dim):
            raise ValueError(f"{path}: line 1: bad header {header!r}")
        labels: list[list[int]] = [[] for _ in label_names]
        rows: list[np.ndarray] = []
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(cols):
                raise ValueError(
                    f"{path}: line {lineno}: expected {len(cols)} fields, got {len(parts)}"
                )
            try:
                for column, part in zip(labels, parts):
                    column.append(int(part))
                values = np.array(parts[n_labels:], dtype=float)
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            if not np.isfinite(values).all():
                raise ValueError(f"{path}: line {lineno}: non-finite value")
            rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return [np.array(column, dtype=np.int64) for column in labels], np.stack(rows)
