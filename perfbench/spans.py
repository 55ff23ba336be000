"""Spans and work counts recorded from outside modesim.

Callers bind layer functions by name (``from ._io import write_csv``,
``from .stochastic import sample_path``), so a wrapper replaces every modesim
module attribute that holds the original function, and the originals come back
when the recorder is uninstalled.  Spans (name, start, end, parent) stay in
memory; the worker writes them out when the run ends.

This module imports only the standard library.
"""
from __future__ import annotations

import collections
import inspect
import os
import sys
import time
from contextlib import contextmanager


def _file_bytes(argument: str):
    return lambda bound: os.path.getsize(bound[argument])


# (layer, function) -> (work unit, amount of that work in one call).  Layer
# "io" is the module ``_io``; metric names may not start with "_".
_AMOUNTS = {
    ("stochastic", "sample_path"): ("steps", lambda bound: bound["count"]),
    ("bpm", "propagate"): ("cells", lambda bound: bound["grid"].nx * (bound["grid"].nz - 1)),
    ("correlation", "chsh_scan"): ("settings", lambda bound: bound["grid_n"] ** 4),
    ("bpm", "export_raster"): ("bytes", _file_bytes("destination")),
    ("io", "write_csv"): ("bytes", _file_bytes("path")),
    ("io", "write_bytes"): ("bytes", _file_bytes("path")),
    ("io", "write_json"): ("bytes", _file_bytes("path")),
}

#: Wrapped in every pass: the work counts and the scans the checks read.
COUNTED = [
    ("stochastic", "sample_path"),
    ("decoherence", "ensemble_scan"),
    ("bpm", "propagate"),
    ("correlation", "chsh_scan"),
    ("io", "write_csv"),
    ("io", "write_bytes"),
    ("io", "write_json"),
]

#: Wrapped in traced passes: the public functions of each layer.
TRACED = COUNTED + [
    ("cli", "run"),
    ("cli", "parse_config_text"),
    ("cli", "validate"),
    ("decoherence", "two_rail_evolve"),
    ("waveguide", "solve_slab_te_modes"),
    ("bpm", "fig2_experiment"),
    ("bpm", "build_geometry"),
    ("bpm", "straight_slab_map"),
    ("bpm", "export_raster"),
    ("bpm", "export_field_csv"),
    ("correlation", "correlation_E"),
]

#: Counted without a span: called 4 times per correlation_E.
CALLS_ONLY = [("analyzer", "analyzer_projectors")]

CAPTURED = {"decoherence.ensemble_scan"}


def _module_name(layer: str) -> str:
    return "modesim._io" if layer == "io" else f"modesim.{layer}"


class Recorder:
    """Records one pass: spans if ``spans`` is set, work counts always."""

    def __init__(self, spans: bool):
        self.spans_on = spans
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: collections.Counter = collections.Counter()
        self.captured: dict[str, list] = collections.defaultdict(list)
        self._stack: list[int] = []

    def _wrap(self, name: str, original, amount, span: bool):
        signature = inspect.signature(original) if amount else None
        unit, measure = amount if amount else (None, None)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        capture = self.captured[name] if name in CAPTURED else None

        def wrapper(*args, **kwargs):
            if span:
                index = len(spans)
                spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
                stack.append(index)
                try:
                    result = original(*args, **kwargs)
                finally:
                    stack.pop()
                    spans[index][2] = clock()
            else:
                result = original(*args, **kwargs)
            counts[name + ".calls"] += 1
            if measure is not None:
                bound = signature.bind(*args, **kwargs).arguments
                counts[f"{name}.{unit}"] += measure(bound)
            if capture is not None:
                capture.append(result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap the layer functions in every loaded modesim module."""
        targets = [(t, True) for t in (TRACED if self.spans_on else COUNTED)]
        if self.spans_on:
            targets += [(t, False) for t in CALLS_ONLY]
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "modesim" or n.startswith("modesim."))]
        saved = []
        for (layer, function), span in targets:
            original = getattr(sys.modules[_module_name(layer)], function)
            wrapper = self._wrap(f"{layer}.{function}", original,
                                 _AMOUNTS.get((layer, function)), span and self.spans_on)
            for module in modules:
                for attribute, value in list(vars(module).items()):
                    if value is original:
                        saved.append((module, attribute, value))
                        setattr(module, attribute, wrapper)
        try:
            yield self
        finally:
            for module, attribute, value in reversed(saved):
                setattr(module, attribute, value)

    def work(self) -> dict[str, int]:
        """Work of the pass in the units of ``workloads.stated_work``."""
        work = {
            "realizations": self.counts["stochastic.sample_path.calls"],
            "steps": self.counts["stochastic.sample_path.steps"],
            "cells": self.counts["bpm.propagate.cells"],
            "settings": self.counts["correlation.chsh_scan.settings"],
            "bytes": sum(self.counts[f"io.{f}.bytes"] for f in ("write_csv", "write_bytes", "write_json")),
        }
        if self.counts["io.write_bytes.calls"]:
            work["raster_bytes"] = self.counts["io.write_bytes.bytes"]
        return work

    def times(self) -> tuple[collections.Counter, collections.Counter]:
        """Total and self time per span name; self time excludes child spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: collections.Counter = collections.Counter()
        own: collections.Counter = collections.Counter()
        for index, (name, start, end, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[index]
        return total, own

    def top_level_seconds(self, name: str) -> float:
        return sum(end - start for n, start, end, parent in self.spans if parent < 0 and n == name)


def layer_metrics(recorder: Recorder) -> dict[str, float]:
    """The per-layer metrics of one traced pass, in BENCHMARK.json order."""
    total, own = recorder.times()
    c = recorder.counts
    cells = c["bpm.propagate.cells"]
    return {
        "stochastic.sample_path.s": total["stochastic.sample_path"],
        "stochastic.sample_path.calls": c["stochastic.sample_path.calls"],
        "decoherence.ensemble_scan.self_s": own["decoherence.ensemble_scan"],
        "decoherence.steps": c["stochastic.sample_path.steps"],
        "decoherence.two_rail_evolve.s": total["decoherence.two_rail_evolve"],
        "bpm.propagate.s": total["bpm.propagate"],
        "bpm.propagate.cells": cells,
        "bpm.propagate.ns_per_cell": total["bpm.propagate"] / cells * 1e9 if cells else 0.0,
        "bpm.build_geometry.s": total["bpm.build_geometry"],
        "bpm.straight_slab_map.s": total["bpm.straight_slab_map"],
        "bpm.fig2_experiment.self_s": own["bpm.fig2_experiment"],
        "bpm.export_raster.s": total["bpm.export_raster"],
        "bpm.export_raster.bytes": c["bpm.export_raster.bytes"],
        "bpm.export_field_csv.s": total["bpm.export_field_csv"],
        "waveguide.solve_slab_te_modes.s": total["waveguide.solve_slab_te_modes"],
        "waveguide.solve_slab_te_modes.calls": c["waveguide.solve_slab_te_modes.calls"],
        "correlation.chsh_scan.self_s": own["correlation.chsh_scan"],
        "correlation.correlation_E.s": total["correlation.correlation_E"],
        "correlation.correlation_E.calls": c["correlation.correlation_E.calls"],
        "analyzer.analyzer_projectors.calls": c["analyzer.analyzer_projectors.calls"],
        "io.write_csv.s": total["io.write_csv"],
        "io.write_csv.bytes": c["io.write_csv.bytes"],
        "io.write_bytes.s": total["io.write_bytes"],
        "io.write_bytes.bytes": c["io.write_bytes.bytes"],
        "io.write_json.s": total["io.write_json"],
        "cli.parse_config_text.s": total["cli.parse_config_text"],
        "cli.validate.s": total["cli.validate"],
    }
