"""The one file writer and the one CSV encoder behind every output file.

Meshes, tables, reports, manifests, cache blobs and plots are all written
by ``_atomic_write_bytes``, so a reader never sees a partial file and a
failed write leaves the old one whole. ``_nearest_existing`` is the one rule
by which an output path is checked before any work: the nearest of the path
and its ancestors that exists must be a directory, or the path itself.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path


def _atomic_write_bytes(path, payload: bytes) -> None:
    """Create path's parent, write a temp file beside path, rename it over path.

    The temp name carries the process and thread ids, so concurrent writers
    of one path (two processes sharing a cache directory, or a library
    caller's own threads) never rename each other's file away; the last
    rename wins, and both payloads are whole.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}-{threading.get_ident()}")
    try:
        tmp.write_bytes(payload)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _nearest_existing(path) -> Path:
    """The first of path and its ancestors, nearest first, that exists."""
    path = Path(path)
    return next(a for a in (path, *path.parents) if a.exists())


def _csv_bytes(rows) -> bytes:
    """Rows of string cells as CSV, each line ending in "\n".

    A cell holding a comma, a double quote, "\n" or "\r" is quoted, its
    quotes doubled; any other cell is written as it is. csv.writer under a
    "\n" terminator leaves a lone "\r" bare, which csv.reader then splits.
    Each row is joined and checked once, and re-encoded cell by cell only if
    it needs quoting: a cell holds a comma when the row has more commas than
    separators.
    """
    lines = []
    for row in rows:
        line = ",".join(row)
        if line.count(",") >= len(row) or '"' in line or "\n" in line or "\r" in line:
            line = ",".join(
                '"' + cell.replace('"', '""') + '"' if any(c in cell for c in ',"\n\r') else cell
                for cell in row
            )
        lines.append(line)
    return ("\n".join(lines) + "\n").encode()
