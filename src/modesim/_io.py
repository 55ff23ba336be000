"""Shared output helpers: deterministic CSV formatting and file writes.

Each writer's payload is whole and checked before it opens the file, so a
refused value writes nothing; ``write_bytes`` takes it as several buffers and
writes them in one open, uncopied.  ``modesim.cli.run`` stages a run's files.  All
floats are written in scientific notation with 17 significant digits so that a
CSV written twice from the same inputs is byte identical and survives a float64
round trip.
"""
from __future__ import annotations

import math
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


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a CSV file: a header line, then one line per row of formatted values."""
    lines = [",".join(header), *(",".join(map(format_value, row)) for row in rows), ""]
    Path(path).write_bytes("\n".join(lines).encode("ascii"))  # the last "" ends the text in "\n"


def write_json(path, payload: dict) -> None:
    import json  # deferred: only a run's manifest needs it
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_bytes((text + "\n").encode("utf-8"))


def write_bytes(path, *parts) -> None:
    """Write the buffers (bytes, or C-contiguous arrays) one after another in one open, uncopied."""
    with open(path, "wb") as handle:
        handle.writelines(parts)
