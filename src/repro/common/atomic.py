"""Atomic artifact writes.

Every artifact the tools write (trace archives, ``perf.json``,
``study.json``, OpenMetrics expositions, figure CSVs) goes through
:func:`write_atomic`, so a reader — or a rerun after a failure — finds
either the previous file or the complete new one, never a torn write.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Union


def write_atomic(path: Union[str, Path], data: bytes) -> None:
    """Write ``data`` to ``path`` through a temporary file.

    The bytes go to a temporary file in the same directory, which then
    replaces ``path`` with ``os.replace`` (atomic on POSIX and Windows).
    If anything fails, the temporary file is removed and ``path`` keeps
    its previous contents.  This guards against a failing or interrupted
    process, not against power loss: nothing is fsynced.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
