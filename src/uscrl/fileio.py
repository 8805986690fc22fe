"""Atomic file writes: write under a temporary name, then rename into place."""

from __future__ import annotations

import os
import secrets
from contextlib import contextmanager


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
