"""Span recording around the public functions of every `mdee` module.

The benchmark installs a wrapper at every name a caller can look a public
function up by (``mdee.harness.fit_model_path``, ``mdee.estimators.build_design``,
...), so no file under ``src/`` changes. Each call records one span: its name,
start, end and parent. Spans stay in memory; `layer_metrics` turns them into
the per-layer numbers once the run is over.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from contextlib import contextmanager

import numpy as np

LAYERS = ("datagen", "ingest", "core", "estimators", "baselines", "harness", "oracle", "cli")


def _mdee_variant(args, kwargs) -> str:
    variant = kwargs.get("variant", args[2] if len(args) > 2 else None)
    return getattr(variant, "value", str(variant))


def _design_cells(args, kwargs) -> int:
    X = kwargs.get("X", args[1] if len(args) > 1 else None)
    d = kwargs.get("d", args[2] if len(args) > 2 else 0)
    rows, cols = np.atleast_2d(np.asarray(X)).shape[:2]
    return int(rows) * int(cols) * int(d)


def _matrices_inverted(args, kwargs) -> int:
    corrs = kwargs.get("corrs", args[0] if args else None)
    shape = np.shape(corrs)
    return 1 if len(shape) == 2 else int(shape[0])


def _inf_sentinels(result) -> int:
    return sum(flags.count("inf@d") for flags in result.flags.values())


# Span name -> function of (args, kwargs) giving a tag kept on the span.
TAGGERS = {
    "estimators.mdee": _mdee_variant,
    "core.build_design": _design_cells,
    "estimators.invert_blocks": _matrices_inverted,
}

# Span name -> function of the return value giving a second tag.
RESULT_TAGGERS = {
    "estimators.invert_blocks": lambda result: len(result[1]),
    "harness.evaluate_trial": _inf_sentinels,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "batch", "tag", "result_tag")

    def __init__(self, name, parent, batch):
        self.name = name
        self.parent = parent
        self.batch = batch
        self.start = self.end = 0.0
        self.tag = self.result_tag = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans of wrapped calls; parents come from a per-thread stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self.batch = -1
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str):
        tagger = TAGGERS.get(name)
        result_tagger = RESULT_TAGGERS.get(name)
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(name, stack[-1] if stack else -1, self.batch)
            if tagger is not None:
                span.tag = tagger(args, kwargs)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if result_tagger is not None:
                span.result_tag = result_tagger(result)
            return result

        return traced

    @contextmanager
    def installed(self, batch: int):
        """Wrap every public mdee function at every module name that holds it."""
        self.batch = batch
        patches = install(self)
        try:
            yield
        finally:
            for module, attr, original in patches:
                setattr(module, attr, original)


def mdee_modules() -> list:
    package = importlib.import_module("mdee")
    return [package] + [importlib.import_module(f"mdee.{layer}") for layer in LAYERS]


def public_functions() -> dict:
    """Every public function defined in an mdee layer module, keyed by object."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"mdee.{layer}")
        for attr, value in vars(module).items():
            if (
                inspect.isfunction(value)
                and not attr.startswith("_")
                and value.__module__ == module.__name__
            ):
                found[value] = f"{layer}.{attr}"
    return found


def install(tracer: Tracer) -> list:
    """Patch all lookup sites; returns (module, attr, original) for undoing."""
    names = public_functions()
    wrappers = {fn: tracer.wrap(fn, name) for fn, name in names.items()}
    patches = []
    for module in mdee_modules():
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                patches.append((module, attr, value))
                setattr(module, attr, wrappers[value])
    return patches


# ---------------------------------------------------------------------------
# Per-layer metrics


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the time its direct children cover."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def layer_metrics(spans: list[Span], units: int, traced_wall_s: float, time_scale: float = 1.0) -> dict:
    """Per-layer metrics, each per unit of work (a trial, or an oracle CLI call).

    Times are multiplied by `time_scale` (measured machine speed over the
    reference speed, see calibration.py). Every metric is always present: a
    function nobody called reports 0.
    """
    per = 1.0 / max(units, 1)
    ms = 1000.0 * per * time_scale

    def total(name, tag=None) -> float:
        return sum(s.duration for s in spans if s.name == name and (tag is None or s.tag == tag))

    def calls(name) -> int:
        return sum(1 for s in spans if s.name == name)

    def tag_sum(name, attr) -> int:
        return sum(getattr(s, attr) or 0 for s in spans if s.name == name)

    inverted = tag_sum("estimators.invert_blocks", "tag")
    flagged = tag_sum("estimators.invert_blocks", "result_tag")
    trial_ms = [1000.0 * time_scale * s.duration for s in spans if s.name == "harness.evaluate_trial"]

    own = self_times(spans)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for s, t in zip(spans, own):
        layer_self[s.layer] += t

    metrics = {
        "estimators.dee_ms": total("estimators.dee") * ms,
        "estimators.mdee1_ms": total("estimators.mdee", "mDEE1") * ms,
        "estimators.mdee2_ms": total("estimators.mdee", "mDEE2") * ms,
        "estimators.mdee3_ms": total("estimators.mdee", "mDEE3") * ms,
        "estimators.rmdee_ms": total("estimators.rmdee") * ms,
        "estimators.select_b1_ms": total("estimators.select_b1") * ms,
        "estimators.invert_blocks_calls": calls("estimators.invert_blocks") * per,
        "estimators.matrices_inverted": inverted * per,
        "estimators.flagged_frac": flagged / inverted if inverted else 0.0,
        "core.build_design_calls": calls("core.build_design") * per,
        "core.design_cells": tag_sum("core.build_design", "tag") * per,
        "core.build_design_ms": total("core.build_design") * ms,
        "core.fit_model_path_ms": total("core.fit_model_path") * ms,
        "core.ridge_lse_calls": calls("core.ridge_lse") * per,
        "harness.test_errors_ms": total("harness.test_error") * ms,
        "harness.evaluate_trial_ms_p50": _percentile(trial_ms, 0.5),
        "harness.evaluate_trial_ms_p90": _percentile(trial_ms, 0.9),
        "harness.write_ms": (total("harness.write_summary_csv") + total("harness.write_trials_csv")) * ms,
        "harness.inf_sentinels": tag_sum("harness.evaluate_trial", "result_tag") * per,
        "baselines.cv5_ms": total("baselines.kfold_cv") * ms,
        "baselines.adj_ms": total("baselines.adj") * ms,
        "baselines.fpe_caic_ms": (total("baselines.fpe") + total("baselines.caic")) * ms,
        "datagen.generate_ms": total("datagen.generate") * ms,
        "ingest.split_ms": total("ingest.split") * ms,
        "ingest.load_csv_ms": total("ingest.load_csv") * 1000.0 * time_scale / max(calls("harness.run_to_dir"), 1),
        "oracle.true_corr_ms": total("oracle.true_corr") * ms,
        "oracle.mc_risk_ratio_ms": total("oracle.mc_risk_ratio") * ms,
        "oracle.mc_H_moments_ms": total("oracle.mc_H_moments") * ms,
        "oracle.mc_trace_target_ms": total("oracle.mc_trace_target") * ms,
        "oracle.h1_closed_form_ms": total("oracle.mc_h1_variance_closed_form") * ms,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = layer_self[layer] * ms
    # Share of the traced wall time, measured outside every wrapper, that the
    # layers' self times account for; a span tree's self times sum to its
    # root's duration, so anything well below 1 means lost or misparented spans.
    accounted = sum(layer_self.values())
    metrics["trace.accounted_frac"] = accounted / traced_wall_s if traced_wall_s > 0 else 0.0
    return metrics
