"""In-memory span tracing of rmpoly's layers, from outside the package.

A traced pass replaces public functions of each module where their callers
look them up (``rmpoly.matpoly.eigenvalues`` is what ``finite_eigenvalues``
calls, for example) with wrappers that record one span per call: name,
start, end and parent span.  Nothing under ``src/`` changes.  Spans stay in
memory and are written out when the run ends; self time is a span's
duration minus the durations of its children (one thread, so children never
overlap).  A wrap target that no longer exists is listed as missing and
leaves its metrics at 0.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import time
from collections import defaultdict

#: Layers, one per rmpoly module, in pipeline order.
LAYERS = ("matpoly", "linalg", "esd", "harness", "svgplot", "verify", "cli")

_VERIFY_CHECKS = (
    "lemma_suite_grow_n", "lemma_suite_grow_k", "sweep_lowrank_interlacing",
    "sweep_mirsky", "sweep_submatrix_interlacing", "sweep_woodbury_identity",
    "sweep_circulant_shift_bounds", "check_pinv_tail_domination",
    "beta_projection_check", "gaussian_norm_tail",
)


def _companion_bytes(_args, _kwargs, split) -> int:
    return sum(a.nbytes for a in vars(split).values()
               if hasattr(a, "nbytes"))


def _written_file_bytes(args, kwargs, _out) -> int:
    return os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


def _text_bytes(_args, _kwargs, text) -> int:
    return len(text.encode())


#: Span name -> (lookup sites "module:attribute.path", bytes measure).
#: A site is where the caller finds the function at call time, so a
#: function imported by name into several modules has several sites.
TARGETS = {
    "matpoly.sample_monic_gaussian": (
        ("rmpoly.harness:sample_monic_gaussian",
         "rmpoly.verify:sample_monic_gaussian"), None),
    "matpoly.finite_eigenvalues": (
        ("rmpoly.harness:finite_eigenvalues",), None),
    "matpoly.companion": (
        ("rmpoly.matpoly:companion", "rmpoly.verify:companion"),
        _companion_bytes),
    "linalg.eigenvalues": (("rmpoly.matpoly:eigenvalues",), None),
    "linalg.singular_values": (
        ("rmpoly.verify:singular_values", "rmpoly.linalg:singular_values"),
        None),
    "esd.merge": (("rmpoly.harness:merge",), None),
    "esd.distance_report": (("rmpoly.harness:distance_report",), None),
    "harness.run_grow_n": (("rmpoly.harness:run_grow_n",), None),
    "harness.run_grow_k": (("rmpoly.harness:run_grow_k",), None),
    "harness.run_experiment": (("rmpoly.cli:run_experiment",), None),
    "harness.run_verification": (("rmpoly.harness:run_verification",), None),
    "harness.run_cells": (("rmpoly.harness:_run_cells",), None),
    "harness.write_points_csv": (("rmpoly.harness:write_points_csv",),
                                 _written_file_bytes),
    "harness.read_points_csv": (("rmpoly.harness:read_points_csv",), None),
    "harness.render_scatter": (("rmpoly.harness:render_scatter",), None),
    "harness.export_result": (("rmpoly.cli:export_result",), None),
    "svgplot.svg_scatter": (("rmpoly.harness:svg_scatter",), _text_bytes),
    "cli.experiment": (("rmpoly.cli:experiment.callback",), None),
    **{f"verify.{name}": ((f"rmpoly.harness:{name}",), None)
       for name in _VERIFY_CHECKS},
    "verify.check_woodbury_identity": (
        ("rmpoly.verify:check_woodbury_identity",), None),
}

#: Spans of the entry points a pass calls.  Their self time is time that no
#: layer span below them accounts for, so it is not counted as covered.
ENTRY_POINTS = ("cli.experiment", "harness.run_experiment",
                "harness.run_grow_n", "harness.run_grow_k",
                "harness.run_verification")

#: Per-layer metrics of a traced run: (name, unit, better).  A name is
#: ``<span>.<field>``, ``<layer>.self_s`` or ``trace.<field>``.
PER_LAYER_METRICS = (
    ("linalg.eigenvalues.s", "s", "lower"),
    ("linalg.eigenvalues.calls", "count", "lower"),
    ("linalg.eigenvalues.share", "ratio", "lower"),
    ("linalg.singular_values.s", "s", "lower"),
    ("linalg.singular_values.calls", "count", "lower"),
    ("matpoly.sample_monic_gaussian.s", "s", "lower"),
    ("matpoly.sample_monic_gaussian.calls", "count", "lower"),
    ("matpoly.finite_eigenvalues.self_s", "s", "lower"),
    ("matpoly.companion.s", "s", "lower"),
    ("matpoly.companion.bytes", "bytes-computed", "lower"),
    ("esd.merge.s", "s", "lower"),
    ("esd.distance_report.s", "s", "lower"),
    ("harness.run_cells.self_s", "s", "lower"),
    ("harness.write_points_csv.s", "s", "lower"),
    ("harness.write_points_csv.bytes", "bytes-computed", "lower"),
    ("harness.read_points_csv.s", "s", "lower"),
    ("harness.export_result.s", "s", "lower"),
    ("svgplot.svg_scatter.s", "s", "lower"),
    ("svgplot.svg_scatter.bytes", "bytes-computed", "lower"),
    ("cli.experiment.self_s", "s", "lower"),
    *((f"verify.{name}.{field}", "s", "lower")
      for name in _VERIFY_CHECKS for field in ("s", "self_s")),
    ("verify.sweep_woodbury_identity.redraws", "count", "lower"),
    *((f"{layer}.self_s", "s", "lower") for layer in LAYERS),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.spans", "count", "lower"),
    ("trace.missing_targets", "count", "lower"),
)


def _resolve(site: str):
    """Split ``module:a.b`` into (owner object, attribute name)."""
    module, _, path = site.partition(":")
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Records spans while installed; ``spans`` rows are
    ``[name, start, end, parent, bytes, error]`` with parent -1 at the top."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn, measure):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if measure is not None:
                span[4] = measure(args, kwargs, out)
            return out
        return traced

    def install(self, targets=TARGETS) -> None:
        for name, (sites, measure) in targets.items():
            for site in sites:
                try:
                    owner, attr = _resolve(site)
                    original = getattr(owner, attr)
                except (ImportError, AttributeError):
                    self.missing.append(site)
                    continue
                setattr(owner, attr, self._wrap(name, original, measure))
                self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def summarize(spans) -> dict:
    """Per span name: calls, inclusive seconds (outermost calls only),
    self seconds, bytes and raised exceptions; plus per-layer self seconds
    and the seconds covered by layer spans: the self seconds of every span
    that is not an entry point."""
    stats = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0,
                                 "bytes": 0, "errors": defaultdict(int)})
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _b, _e in spans:
        if parent >= 0:
            child_s[parent] += end - start
    layers = defaultdict(float)
    covered = 0.0
    for i, (name, start, end, parent, nbytes, error) in enumerate(spans):
        dur = end - start
        st = stats[name]
        st["calls"] += 1
        st["self_s"] += dur - child_s[i]
        st["bytes"] += nbytes
        if error is not None:
            st["errors"][error] += 1
        layers[name.split(".", 1)[0]] += dur - child_s[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            st["s"] += dur
        if name not in ENTRY_POINTS:
            covered += dur - child_s[i]
    return {"names": {k: {**v, "errors": dict(v["errors"])}
                      for k, v in stats.items()},
            "layers": dict(layers), "covered_s": covered}


def per_layer_metrics(summary: dict, wall_s: float, untraced_wall_s: float,
                      span_count: int, missing: list) -> dict:
    """Evaluate ``PER_LAYER_METRICS`` from a span summary."""
    names, layers = summary["names"], summary["layers"]
    trace = {
        "wall_s": wall_s,
        "untraced_wall_s": untraced_wall_s,
        "overhead_s": wall_s - untraced_wall_s,
        "coverage": summary["covered_s"] / wall_s,
        "spans": span_count,
        "missing_targets": len(missing),
    }
    out = {}
    for metric, unit, _better in PER_LAYER_METRICS:
        prefix, _, field = metric.rpartition(".")
        if prefix == "trace":
            value = trace[field]
        elif prefix in LAYERS:
            value = layers.get(prefix, 0.0)
        elif field == "share":
            value = names.get(prefix, {}).get("s", 0.0) / wall_s
        elif field == "redraws":
            value = names.get("verify.check_woodbury_identity", {}).get(
                "errors", {}).get("SingularUpdateError", 0)
        else:
            value = names.get(prefix, {}).get(field, 0)
        if not math.isfinite(value):
            raise ValueError(f"per-layer metric {metric} = {value}")
        out[metric] = {"value": value, "unit": unit}
    return out
