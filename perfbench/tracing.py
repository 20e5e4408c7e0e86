"""In-memory span recorder that wraps powerplace's public functions.

The program is not edited: ``Tracer.install`` replaces each wrapped
function in every loaded ``powerplace`` module that binds it, so calls
made by the harness and the CLI, as well as the benchmark's own calls
through module attributes, are recorded. ``uninstall`` puts the originals
back, so untraced rounds run the unmodified code.

A span is (name, start, end, parent index, run id). Spans are kept in
memory and written out as JSON lines when the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path


def _placement_counts(outcome) -> dict:
    return {"calls": 1, "pairs": outcome.pairs_examined, "placed": len(outcome.trace)}


def _oracle_counts(result) -> dict:
    return {"calls": 1, "nodes": result.nodes_explored, "exhausted": int(result.exhausted)}


def _affinity_counts(matrix) -> dict:
    n, m = matrix.shape
    return {"calls": 1, "cells": n * m}


def _trace_counts(scenario) -> dict:
    pairs = int(((scenario.user_affinity != 0) | (scenario.anti_affinity != 0)).sum())
    return {"calls": 1, "rows": scenario.num_machines + scenario.num_applications + pairs}


def _calls(_result) -> dict:
    return {"calls": 1}


# Span name -> (module, function, counter extractor). Counts are taken at
# the same boundary as the span, from the function's return value.
WRAPPED = {
    "workload.load_trace": ("powerplace.workload", "load_trace", _trace_counts),
    "workload.generate": ("powerplace.workload", "generate_synthetic", _calls),
    "affinity.build": ("powerplace.affinity", "build_final_affinity", _affinity_counts),
    "placement.pap": ("powerplace.placement", "pap_place", _placement_counts),
    "placement.aap": ("powerplace.placement", "aap_place", _placement_counts),
    "placement.cpaap": ("powerplace.placement", "cpaap_place", _placement_counts),
    "placement.first_fit": ("powerplace.placement", "first_fit_place", _placement_counts),
    "costs.metrics": ("powerplace.costs", "metrics", _calls),
    "model.validate": ("powerplace.model", "validate_allocation", _calls),
    "oracle.solve": ("powerplace.oracle", "optimal_place", _oracle_counts),
    "harness.run_scenario": ("powerplace.harness", "run_scenario", _calls),
    "harness.run_sweep": ("powerplace.harness", "run_sweep", _calls),
    "harness.emit": ("powerplace.harness", "emit_results", _calls),
    "cli.main": ("powerplace.cli", "main", _calls),
}


class Tracer:
    """Records spans and per-span counters while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, run_id]
        self.counts: list[dict] = []  # parallel to spans
        self.run_id = ""
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, extract):
        spans, counts, stack = self.spans, self.counts, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.run_id])
            counts.append({})
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            counts[idx] = extract(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if self._patched:
            return
        for name, (module_name, attr, extract) in WRAPPED.items():
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrap(name, original, extract)
            for mod_name, module in list(sys.modules.items()):
                if mod_name.split(".")[0] != "powerplace" or module is None:
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    @contextlib.contextmanager
    def recording(self, run_id: str):
        """Record spans under ``run_id`` for the duration of the block."""
        self.run_id = run_id
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def totals(self, run_id: str) -> dict[str, dict[str, float]]:
        """Per span name: busy seconds, self seconds and summed counters."""
        child_time = defaultdict(float)
        for name, start, end, parent, rid in self.spans:
            if rid == run_id and parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for idx, (name, start, end, _parent, rid) in enumerate(self.spans):
            if rid != run_id:
                continue
            agg = out.setdefault(name, defaultdict(float))
            agg["busy_s"] += end - start
            agg["self_s"] += end - start - child_time[idx]
            for key, value in self.counts[idx].items():
                agg[key] += value
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for (name, start, end, parent, rid), counts in zip(self.spans, self.counts):
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "run": rid, **counts,
                }) + "\n")
