"""Spans around the public calls into each clbgmm layer, and the per-layer
metrics computed from them.

The program itself records nothing: ``install`` replaces each target
function, wherever a clbgmm module holds a reference to it, with a wrapper
that records a span (target, start, end, parent span, counters). Spans stay
in memory until ``Tracer.dump`` writes them once at the end of the run.
``layer_metrics`` turns a dump into the named per-layer metrics.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from contextlib import contextmanager

# target ("<module>.<qualname>" under clbgmm) -> metric group. Several
# targets may feed one group; a span nested in another span of the same
# group is not counted again.
TARGETS = {
    "dataset.load_feature_table": "dataset.load",
    "dataset.build_task_sequence": "dataset.route",
    "fusion.fit_normalizer": "fusion.fit",
    "fusion.apply_normalizer": "fusion.fuse",
    "fusion.fuse": "fusion.fuse",
    "ensemble.FusionPipeline.fuse_sample": "fusion.fuse",
    "bgmm.fit": "bgmm.fit",
    "bgmm.log_likelihood_batch": "bgmm.score",
    "ensemble.train_task": "ensemble.train",
    "ensemble.predict_batch": "ensemble.predict",
    "ensemble.predict": "ensemble.predict",
    "protocol.run_continual": "protocol.continual",
    "protocol.train_joint_reference": "protocol.joint",
    "protocol.save_run_result": "protocol.save",
    "protocol.load_run_result": "protocol.load_result",
    "metrics.compute_report": "metrics.report",
}


def _rows(values) -> int:
    shape = getattr(getattr(values, "values", values), "shape", (1,))
    return 1 if len(shape) == 1 else int(shape[0])


def _counters(target: str, args, kwargs, result) -> dict:
    """Work counts for one call, read from its arguments and result."""
    if target == "dataset.load_feature_table":
        return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}
    if target == "bgmm.fit":
        mixture, state = result
        return {
            "iterations": len(state.elbo_trace),
            "kept": mixture.n_components,
            "pruned": int(mixture.metadata["components_pruned"]),
            "unconverged": int(not mixture.metadata["converged"]),
        }
    if target == "bgmm.log_likelihood_batch":
        return {"pairs": len(result) * args[0].n_components}
    if target == "ensemble.predict_batch":
        return {"rows": len(result), "pairs": len(result) * args[0].class_count}
    if target == "ensemble.predict":
        return {"rows": 1, "pairs": args[0].class_count}
    if target in ("fusion.fuse", "ensemble.FusionPipeline.fuse_sample"):
        return {"rows": _rows(result)}
    return {}


class Tracer:
    """In-memory span store; parent links follow each thread's call stack."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, target: str):
        """Record one span; the caller may put its work counts in
        ``box["counts"]``."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        box = {}
        start = time.perf_counter()
        try:
            yield box
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append([span_id, parent, target, start, end, box.get("counts", {})])

    def wrap(self, target: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(target) as box:
                result = fn(*args, **kwargs)
                try:
                    box["counts"] = _counters(target, args, kwargs, result)
                except (AttributeError, KeyError, TypeError, ValueError):
                    pass  # the call's signature or result changed: its counts print as missing
            return result
        return wrapper

    def dump(self, path, **extra) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(extra, spans=self.spans), fh)


def install(tracer: Tracer) -> list:
    """Wrap every target that exists; returns the targets that do not."""
    modules = [m for name, m in sorted(sys.modules.items())
               if (name == "clbgmm" or name.startswith("clbgmm.")) and m is not None]
    missing = []
    for target in TARGETS:
        module_name, *owner_path, attr = target.split(".")
        owner = sys.modules.get(f"clbgmm.{module_name}")
        for part in owner_path:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if original is None:
            missing.append(target)
            continue
        wrapped = tracer.wrap(target, original)
        if owner_path:  # a method: patch the class
            setattr(owner, attr, wrapped)
            continue
        # `from .x import f` leaves copies of the reference in other modules
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapped)
    return missing


# ---------------------------------------------------------------------------
# per-layer metrics from a dump
# ---------------------------------------------------------------------------

# name -> unit, in report order
LAYER_METRICS = {
    "cli.import_s": "s",
    "dataset.load_s": "s",
    "dataset.csv_bytes": "bytes",
    "dataset.route_s": "s",
    "dataset.route_calls": "count",
    "fusion.fit_s": "s",
    "fusion.fuse_s": "s",
    "fusion.fused_rows": "count",
    "bgmm.fit_s": "s",
    "bgmm.fit_calls": "count",
    "bgmm.iterations": "count",
    "bgmm.ms_per_iteration": "ms",
    "bgmm.unconverged_fits": "count",
    "bgmm.components_kept": "count",
    "bgmm.components_pruned": "count",
    "bgmm.score_s": "s",
    "bgmm.score_calls": "count",
    "bgmm.score_pairs": "count",
    "ensemble.train_s": "s",
    "ensemble.train_self_s": "s",
    "ensemble.predict_s": "s",
    "ensemble.predict_rows": "count",
    "ensemble.pairs_scored": "count",
    "ensemble.pairs_needed": "count",
    "ensemble.rescore_ratio": "ratio",
    "protocol.continual_s": "s",
    "protocol.joint_s": "s",
    "protocol.joint_fits": "count",
    "protocol.continual_fits": "count",
    "protocol.joint_refit_ratio": "ratio",
    "protocol.save_s": "s",
    "protocol.load_result_s": "s",
    "protocol.cpu_s": "s",
    "protocol.wall_s": "s",
    "protocol.cpu_per_wall": "ratio",
    "metrics.report_s": "s",
    "trace.traced_run_s": "s",
    "trace.untraced_run_s": "s",
    "trace.overhead_s": "s",
}


def _ratio(num, den):
    return None if num is None or not den else num / den


def layer_metrics(doc: dict, untraced_run_s: float) -> dict:
    """Per-layer metric values (None = missing) from one traced run's dump."""
    spans = sorted(doc["spans"])  # a parent's id is smaller than its children's
    group = {s[0]: TARGETS.get(s[2], s[2]) for s in spans}
    above = {}  # span id -> groups of its ancestors
    for sid, parent, *_ in spans:
        above[sid] = frozenset() if parent is None else above[parent] | {group[parent]}

    def outermost(g, under=None):
        """Spans of group g not nested in another span of g (or, with
        ``under``, only those nested in a span of that group)."""
        return [s for s in spans if group[s[0]] == g and g not in above[s[0]]
                and (under is None or under in above[s[0]])]

    def seconds(g, under=None):
        found = outermost(g, under)
        return sum(s[4] - s[3] for s in found) if found or g in live else None

    def total(g, key):
        values = [s[5][key] for s in outermost(g) if key in s[5]]
        return sum(values) if values else None

    def calls(g):
        return len(outermost(g)) if g in live else None

    live = {g for t, g in TARGETS.items() if t not in doc["missing"]}
    m = {name: None for name in LAYER_METRICS}
    m["cli.import_s"] = doc["import_s"]
    m["dataset.load_s"] = seconds("dataset.load")
    m["dataset.csv_bytes"] = total("dataset.load", "bytes")
    m["dataset.route_s"] = seconds("dataset.route")
    m["dataset.route_calls"] = calls("dataset.route")
    m["fusion.fit_s"] = seconds("fusion.fit")
    m["fusion.fuse_s"] = seconds("fusion.fuse")
    m["fusion.fused_rows"] = total("fusion.fuse", "rows")
    m["bgmm.fit_s"] = seconds("bgmm.fit")
    m["bgmm.fit_calls"] = calls("bgmm.fit")
    m["bgmm.iterations"] = total("bgmm.fit", "iterations")
    m["bgmm.ms_per_iteration"] = _ratio(
        None if m["bgmm.fit_s"] is None else 1000.0 * m["bgmm.fit_s"], m["bgmm.iterations"])
    m["bgmm.unconverged_fits"] = total("bgmm.fit", "unconverged")
    m["bgmm.components_kept"] = total("bgmm.fit", "kept")
    m["bgmm.components_pruned"] = total("bgmm.fit", "pruned")
    m["bgmm.score_s"] = seconds("bgmm.score")
    m["bgmm.score_calls"] = calls("bgmm.score")
    m["bgmm.score_pairs"] = total("bgmm.score", "pairs")
    m["ensemble.train_s"] = seconds("ensemble.train")
    if "ensemble.train" in live:
        children = {}
        for span in spans:
            if span[1] is not None:
                children[span[1]] = children.get(span[1], 0.0) + span[4] - span[3]
        m["ensemble.train_self_s"] = sum(
            s[4] - s[3] - children.get(s[0], 0.0) for s in outermost("ensemble.train"))
    m["ensemble.predict_s"] = seconds("ensemble.predict")
    m["ensemble.predict_rows"] = total("ensemble.predict", "rows")
    m["ensemble.pairs_scored"] = total("ensemble.predict", "pairs")
    m["ensemble.pairs_needed"] = doc["pairs_needed"]
    m["ensemble.rescore_ratio"] = _ratio(m["ensemble.pairs_scored"], m["ensemble.pairs_needed"])
    joint_s = seconds("protocol.joint")
    continual_s = seconds("protocol.continual")
    if continual_s is not None:
        continual_s -= sum(s[4] - s[3] for s in outermost("protocol.joint", "protocol.continual"))
    m["protocol.continual_s"] = continual_s
    m["protocol.joint_s"] = joint_s
    if "bgmm.fit" in live and "protocol.joint" in live:
        fits = outermost("bgmm.fit")
        joint = len(outermost("bgmm.fit", "protocol.joint"))
        m["protocol.joint_fits"] = joint
        m["protocol.continual_fits"] = len(fits) - joint
        m["protocol.joint_refit_ratio"] = _ratio(joint, len(fits) - joint)
    m["protocol.save_s"] = seconds("protocol.save")
    m["protocol.load_result_s"] = seconds("protocol.load_result")
    m["protocol.cpu_s"] = doc["cpu_s"]
    m["protocol.wall_s"] = doc["wall_s"]
    m["protocol.cpu_per_wall"] = _ratio(doc["cpu_s"], doc["wall_s"])
    m["metrics.report_s"] = seconds("metrics.report", "bench.readback")
    m["trace.traced_run_s"] = doc["run_s"]
    m["trace.untraced_run_s"] = untraced_run_s
    m["trace.overhead_s"] = doc["run_s"] - untraced_run_s
    return m
