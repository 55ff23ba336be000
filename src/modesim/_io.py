"""Shared output helpers: deterministic CSV formatting and atomic file writes.

All floats are written in scientific notation with 17 significant digits so
that a CSV written twice from the same inputs is byte identical and survives
a float64 round trip.
"""
from __future__ import annotations

import json
import math
import os
import tempfile
from pathlib import Path
from typing import Iterable, Sequence

from ._errors import NumericalError


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int,)):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise NumericalError(f"non-finite value {value!r} in an output")
        return f"{value:.16e}"
    return str(value)


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a CSV file atomically (temp file + rename)."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    _atomic_write_bytes(Path(path), ("\n".join(lines) + "\n").encode("ascii"))


def write_json(path, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    _atomic_write_bytes(Path(path), (text + "\n").encode("utf-8"))


def write_bytes(path, data: bytes) -> None:
    _atomic_write_bytes(Path(path), data)
