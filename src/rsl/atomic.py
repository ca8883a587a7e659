"""Crash-safe artefact writes: a killed process leaves either the old file or
the new one under the final name, never a truncated one."""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_path(path):
    """Yield a temporary path beside `path` to write to; when the block
    completes, rename it over `path`. On any error the temporary file is
    removed and `path` is left as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json_atomic(path, doc) -> None:
    with atomic_path(path) as tmp, open(tmp, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
