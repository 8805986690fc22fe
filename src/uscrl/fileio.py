"""File I/O: atomic writes, JSON and CSV results, exact-length binary reads."""

from __future__ import annotations

import csv
import json
import math
import os
import secrets
from contextlib import contextmanager

from .errors import FormatError, NumericError


@contextmanager
def atomic_write(path: str, mode: str = "w", **kwargs):
    """Open a fresh file next to ``path``; on a clean exit rename it onto
    ``path`` with os.replace.

    A reader sees either the old file or the complete new one, never a
    torn one. If the body raises, the temporary file is removed and
    ``path`` is left as it was. The file gets the usual umask permissions.
    """

    tmp = f"{path}.{secrets.token_hex(6)}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _check_finite(path: str, obj, field: str = "") -> None:
    """NumericError naming the first NaN or infinity in nested dicts and lists."""
    if isinstance(obj, float) and not math.isfinite(obj):
        raise NumericError(f"{path}: field {field} is not finite")
    if isinstance(obj, (dict, list, tuple)):
        for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
            _check_finite(path, value, f"{field}.{key}" if field else str(key))


def write_json(path: str, obj) -> None:
    """obj as indented, key-sorted JSON, atomically; no NaN or infinity."""
    _check_finite(path, obj)
    with atomic_write(path) as f:
        json.dump(obj, f, indent=2, sort_keys=True, allow_nan=False)
        f.write("\n")


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    """Header and rows as CSV, atomically; floats by repr, None as ''."""
    _check_finite(path, [dict(zip(header, row)) for row in rows])
    with atomic_write(path, newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_csv_cell(v) for v in row])


def _csv_cell(v):
    if isinstance(v, float):
        return repr(v)
    if v is None:
        return ""
    return v


def read_json(path: str, what: str, **hooks):
    """json.load of path with ``hooks``; FormatError naming ``what``."""
    with open(path) as f:
        try:
            return json.load(f, **hooks)
        except (ValueError, RecursionError) as e:  # long ints, deep nesting
            raise FormatError(f"{what} is not valid JSON: {e}") from None


def read_exact(f, count: int, what: str) -> bytes:
    """The next count bytes of f; a FormatError if the file ends first."""
    buf = f.read(count)
    if len(buf) != count:
        raise FormatError(f"{what}: expected {count} bytes, got {len(buf)}")
    return buf


def read_payload(f, count: int, what: str) -> bytes:
    """The rest of the file, which must hold exactly count bytes; the claim
    is checked against the file size before anything is read."""
    have = os.fstat(f.fileno()).st_size - f.tell()
    if have != count:
        raise FormatError(f"{what}: expected {count} bytes, got {have} ("
                          f"{'trailing bytes' if have > count else 'truncated'})")
    return f.read(count)
