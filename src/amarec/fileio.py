"""Atomic file replacement for the artifacts the CLI writes.

A writer that fails or is interrupted part way must leave the previous file
whole, because a checkpoint rewrites the same path every few epochs.
"""

from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def atomic_open(path, mode="w", **kwargs):
    """Open a temporary file next to ``path``; on a clean exit it replaces
    ``path`` in one ``os.replace``, on an exception it is removed and ``path``
    keeps its previous contents."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
