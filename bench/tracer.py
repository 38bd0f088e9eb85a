"""Layer timing for the griddet benchmark, applied from outside the package.

While a run is measured, each timed griddet function is replaced by a wrapper
installed under every name its callers look it up by: the pooling entry point,
for example, as both ``griddet.detect.build_roi_features`` and
``griddet.model.build_roi_features``. Nothing in ``src/`` is changed.

Two sets of wrappers exist. The probes are always installed: they time the
stages the end-to-end metrics are made of (precompute, SGD, one
``detect_multi`` call per image) and count global-feature calls for the
correctness checks, at a cost of two clock reads per call. The traced set adds
a wrapper for every layer. It records spans in memory with their parents
(root -> stage or image -> layer call). Calls too small and too many to merit
a span each (MLP forward/backward, SGD steps, per-box algebra) only add to
per-root counters. A layer's self time is its span time minus the time of the
wrapped calls made inside it.

Every time recorded here is a raw ``time.perf_counter`` reading or
difference; the benchmark normalises them after the run (see speed.py).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time
from collections import defaultdict

SPAN, SUM, COUNT = "span", "sum", "count"

# layer name, how calls are recorded, and every place a caller looks it up.
# A target is "module:attribute" or "module:Class.attribute".
LAYERS = (
    ("pipeline", SPAN, (
        "griddet.pipeline:cmd_generate", "griddet.pipeline:cmd_train",
        "griddet.pipeline:cmd_detect", "griddet.pipeline:cmd_eval",
        "griddet.pipeline:cmd_ablation", "griddet.pipeline:run_ablation",
        "griddet.config:save_config", "griddet.config:load_config")),
    ("synth", SPAN, (
        "griddet.pipeline:generate_dataset", "griddet.pipeline:load_manifest",
        "griddet.pipeline:save_manifest")),
    ("features.global", SPAN, (
        "griddet.features:FeatureExtractor.compute_global_features",)),
    ("features.pool", SPAN, (
        "griddet.detect:build_roi_features", "griddet.model:build_roi_features")),
    ("assign", SPAN, (
        "griddet.model:assign_grid", "griddet.model:build_train_tuples")),
    ("model.precompute", SPAN, ("griddet.pipeline:precompute_scene_tensors",)),
    ("model.sgd", SPAN, ("griddet.pipeline:train_models",)),
    ("detect", SPAN, ("griddet.pipeline:detect_multi",)),
    ("evaluate", SPAN, (
        "griddet.pipeline:evaluate_detections", "griddet.pipeline:fp_breakdown",
        "griddet.pipeline:format_report", "griddet.pipeline:write_detection_dump",
        "griddet.pipeline:read_detection_dump")),
    # Inside a "detect" span an MLP forward pass is recorded as model.infer.
    ("model.forward", SUM, ("griddet.model:MLP.forward",)),
    ("model.backward", SUM, ("griddet.model:MLP.backward",)),
    ("model.step", SUM, ("griddet.model:SGDOptimizer.step",)),
    ("boxes.apply_delta", COUNT, ("griddet.detect:apply_delta",)),
    ("boxes.iou", COUNT, (
        "griddet.detect:iou", "griddet.evaluate:iou", "griddet.synth:iou")),
    ("grid.generate_grid", COUNT, (
        "griddet.detect:generate_grid", "griddet.model:generate_grid")),
)

PROBES = ("features.global", "model.precompute", "model.sgd", "detect")


def _units(op, args, out) -> dict:
    """Work counts of one call, beyond the call itself."""
    if op in ("build_roi_features", "forward"):
        return {"rows": len(args[1])}
    if op == "precompute_scene_tensors":
        return {"scenes": len(args[0])}
    if op == "build_train_tuples":
        bg = sum(1 for t in out if t.is_background)
        return {"tuples_fg": len(out) - bg, "tuples_bg": bg}
    if op == "write_detection_dump":
        return {"dump_bytes": os.path.getsize(args[0])}
    return {}


def _resolve(target):
    module_name, attr = target.split(":")
    owner = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Recorder:
    """Probe records for a whole run plus, when traced, spans and counters.

    Work is grouped under roots, one per set-up and one per job. Each root
    keeps its own totals, so per-root counts can be compared across repeats.
    """

    def __init__(self):
        self.traced = False
        self.roots: list[dict] = []
        self.spans: list[dict] = []
        # Probe records, each tagged with its root (kind, index) and timed by
        # raw perf_counter readings: detect_multi calls as (root, start, end,
        # image shape, results), SGD calls and precompute scenes as (root,
        # start, end, iterations or 1).
        self.images: list[tuple] = []
        self.stages: dict[str, list] = defaultdict(list)
        self._root = None
        self._global_starts: list[float] = []
        self._stack: list[list] = []    # open frames [span id, start, child time]
        self._depth: dict[str, int] = defaultdict(int)
        self._totals: dict[str, float] = defaultdict(float)

    # -- roots -------------------------------------------------------------

    @contextlib.contextmanager
    def root(self, kind: str, index: int, traced: bool):
        """Group everything inside under one root, with all layers traced or
        only the probes installed."""
        self._totals = defaultdict(float)
        self.traced = traced
        self._root = (kind, index)
        record = {"kind": kind, "index": index, "traced": traced}
        with self._installed(traced):
            record["start"] = self._enter(kind)
            try:
                yield record
            finally:
                record["seconds"] = self._exit(kind)
                record["end"] = record["start"] + record["seconds"]
        record["totals"] = dict(self._totals)
        self.roots.append(record)

    # -- wrappers ----------------------------------------------------------

    @contextlib.contextmanager
    def _installed(self, traced: bool):
        saved = []
        try:
            for layer, kind, targets in LAYERS:
                if not traced and layer not in PROBES:
                    continue
                for target in targets:
                    owner, name = _resolve(target)
                    fn = owner.__dict__[name] if isinstance(owner, type) \
                        else getattr(owner, name)
                    saved.append((owner, name, fn))
                    setattr(owner, name, self._wrap(layer, kind, fn, traced))
            yield
        finally:
            for owner, name, fn in reversed(saved):
                setattr(owner, name, fn)

    def _wrap(self, layer, kind, fn, traced):
        op = fn.__name__
        clock = time.perf_counter
        totals = self._totals

        if kind == COUNT:
            @functools.wraps(fn)
            def count(*args, **kwargs):
                totals[layer + ".calls"] += 1
                return fn(*args, **kwargs)
            return count

        if kind == SUM:
            @functools.wraps(fn)
            def summed(*args, **kwargs):
                name = "model.infer" if layer == "model.forward" \
                    and self._depth["detect"] else layer
                t0 = clock()
                out = fn(*args, **kwargs)
                dt = clock() - t0
                self._stack[-1][2] += dt
                totals[name + ".busy_s"] += dt
                totals[name + ".calls"] += 1
                for key, value in _units(op, args, out).items():
                    totals[f"{name}.{key}"] += value
                return out
            return summed

        if not traced:
            @functools.wraps(fn)
            def probe(*args, **kwargs):
                t0 = clock()
                out = fn(*args, **kwargs)
                self._probe(layer, t0, clock() - t0, args, out)
                return out
            return probe

        @functools.wraps(fn)
        def span(*args, **kwargs):
            t0 = clock()
            self._enter(layer)
            units = {}
            try:
                out = fn(*args, **kwargs)
                units = _units(op, args, out)
            finally:
                dt = self._exit(layer, op, units)
            self._probe(layer, t0, dt, args, out)
            return out
        return span

    def _probe(self, layer, t0, dt, args, out):
        totals = self._totals
        if layer == "features.global":
            totals["probe.global_calls"] += 1
            self._global_starts.append(t0)
        elif layer == "model.precompute":
            totals["probe.scenes"] += len(args[0])
            # Each scene of a precompute starts with its global features, so
            # those calls cut the precompute into one interval per scene.
            cuts = [t for t in self._global_starts if t0 < t < t0 + dt]
            edges = [t0] + cuts[1:] + [t0 + dt]
            for start, end in zip(edges, edges[1:]):
                self.stages["model.precompute.scene"].append(
                    (self._root, start, end, 1))
        elif layer == "model.sgd":
            self.stages[layer].append((self._root, t0, t0 + dt,
                                       out[2].total_iterations))
        elif layer == "detect":
            self.images.append((self._root, t0, t0 + dt, args[0].shape, out))
            totals["probe.images"] += 1

    # -- spans -------------------------------------------------------------

    def _enter(self, layer) -> float:
        self._depth[layer] += 1
        start = time.perf_counter()
        self._stack.append([len(self.spans), start, 0.0])
        self.spans.append(None)  # filled in on exit, keeping start order
        return start

    def _exit(self, layer, op=None, units=None) -> float:
        end = time.perf_counter()
        span_id, start, child = self._stack.pop()
        self._depth[layer] -= 1
        dt = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dt
        if self.traced:
            totals = self._totals
            if not self._depth[layer]:
                totals[layer + ".busy_s"] += dt
            totals[layer + ".self_s"] += dt - child
            totals[layer + ".calls"] += 1
            for key, value in (units or {}).items():
                totals[f"{layer}.{key}"] += value
        self.spans[span_id] = dict(
            id=span_id, parent=parent[0] if parent else None, layer=layer,
            op=op or layer, start=start, end=end, **(units or {}))
        return dt

    def write_spans(self, path):
        """Write every recorded span as one JSON line, in start order."""
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
