"""Crash-safe artefact writes: a killed process leaves either the old file or
the new one under the final name, never a truncated one. Also the one reader
of the JSON artefacts, which turns a file it cannot read into a ConfigError."""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path

from .errors import ConfigError


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


def read_json(path, parse=lambda doc: doc):
    """`parse` of the JSON document at `path`. A file that is not JSON, or
    that `parse` rejects, raises ConfigError naming the file; any other
    error propagates unchanged."""
    with open(path) as f:
        try:
            doc = json.load(f)
        except ValueError as exc:     # not JSON, or not text
            raise ConfigError(f"{path}: {exc}") from exc
    try:
        return parse(doc)
    except KeyError as exc:
        raise ConfigError(f"{path}: missing key {exc}") from exc
    except (ValueError, TypeError, AttributeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
