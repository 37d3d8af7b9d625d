"""Outside-in tracer for typlab's layer functions.

The tracer patches public functions of the ``typlab`` modules from the
outside, so the program under test stays untouched.  A target is replaced
by object identity in every ``typlab.*`` module that imported it, which
catches calls that go through a re-export as well as calls within the
defining module.  The validation gates are timed by wrapping the
``__post_init__`` of the operator dataclasses.  A target that a later
version of the program no longer has is reported with zero calls.

Spans stay in memory as ``(invocation, name, start, end, parent)`` rows
and are written out by the caller at the end of a run.
"""
from __future__ import annotations

import contextlib
import functools
import json
import logging
import os
import statistics
import sys
import time

import numpy as np

# Wrapped callables as "<module>.<attribute path>" under typlab.  A
# dataclass's __post_init__ is its validation gate and is reported as
# "<module>.<class>.validate".
TARGETS = (
    "experiment.execute_run",
    "verify.run_verification",
    "models.build_model",
    "operators.HermitianOperator.__post_init__",
    "operators.eigendecompose",
    "operators.SpectralDecomposition.__post_init__",
    "operators.spectral_moments",
    "operators.heisenberg_observable",
    "rng.SeedStream.normal",
    "ensembles.sample_uniform_state",
    "ensembles.sample_uniform_states",
    "ensembles.make_omega",
    "ensembles.make_omegas",
    "ensembles.commuting_unitary",
    "evolution.run_ensemble",
    "evolution.expectation",
    "evolution.expectations",
    "stats.exact_hv_series",
    "stats.sample_stats",
    "csvio.write_stats_csv",
    "csvio.write_trajectories_csv",
    "svgplot.render_figure",
)


def metric_prefix(target: str) -> str:
    return target.replace(".__post_init__", ".validate")


# Counters fed from results, arguments and log records, with their units.
COUNTERS = (
    ("evolution.points", "count"),
    ("stats.points", "count"),
    ("csvio.bytes", "B"),
    ("svgplot.bytes", "B"),
    ("ensembles.norm_band_warnings", "count"),
    ("evolution.start_band_warnings", "count"),
)

WARNING_COUNTERS = {
    "typlab.ensembles": "ensembles.norm_band_warnings",
    "typlab.evolution": "evolution.start_band_warnings",
}


def _result_points(args, kwargs, result):
    """Values a propagation or exact-variance call produced: the size of a
    returned array, or the summed ``values`` of returned records."""
    if isinstance(result, (list, tuple)):
        return sum(int(np.size(getattr(r, "values", r))) for r in result)
    return int(np.size(result))


def _written_bytes(args, kwargs, result):
    path = args[0] if args else kwargs.get("path")
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _returned_bytes(args, kwargs, result):
    return len(result.encode()) if isinstance(result, str) else 0


# metric prefix -> (counter, function of (args, kwargs, result)).
RESULT_HOOKS = {
    "evolution.run_ensemble": ("evolution.points", _result_points),
    "stats.exact_hv_series": ("stats.points", _result_points),
    "csvio.write_stats_csv": ("csvio.bytes", _written_bytes),
    "csvio.write_trajectories_csv": ("csvio.bytes", _written_bytes),
    "svgplot.render_figure": ("svgplot.bytes", _returned_bytes),
}


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for prefix in map(metric_prefix, TARGETS):
        units[f"{prefix}.calls"] = "count"
        units[f"{prefix}.self_s"] = "s"
        units[f"{prefix}.incl_s"] = "s"
    units["evolution.points_per_s"] = "1/s"
    units.update(COUNTERS)
    units["trace.wall_s"] = "s"
    units["trace.overhead_frac"] = "frac"
    return units


class _WarningCounter(logging.Handler):
    def __init__(self, tracer: "Tracer"):
        super().__init__(logging.WARNING)
        self.tracer = tracer

    def emit(self, record):
        counter = WARNING_COUNTERS.get(record.name)
        if counter is not None:
            self.tracer.count(counter, 1)


class Tracer:
    """Records nested spans of wrapped calls and counters per invocation."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: list[dict[str, float]] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    @property
    def invocation(self) -> int:
        return len(self.counters) - 1

    def begin_invocation(self) -> None:
        self.counters.append({name: 0 for name, _ in COUNTERS})

    def count(self, counter: str, amount: float) -> None:
        self.counters[-1][counter] += amount

    def wrap(self, name: str, fn, hook=None):
        """``fn`` wrapped so each call records a span under ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([self.invocation, name, self.clock(), None, parent])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][3] = self.clock()
            if hook is not None:
                counter, measure = hook
                self.count(counter, measure(args, kwargs, result))
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Install every target while the block runs; restore on exit."""
        undo = []
        self.missing = []
        handler = _WarningCounter(self)
        logger = logging.getLogger("typlab")
        logger.addHandler(handler)
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "typlab" or key.startswith("typlab."))
        ]
        try:
            for target in TARGETS:
                prefix = metric_prefix(target)
                module_name, *owner_path, leaf = target.split(".")
                owner = sys.modules.get(f"typlab.{module_name}")
                for part in owner_path:
                    owner = getattr(owner, part, None)
                original = getattr(owner, leaf, None)
                if original is None:
                    self.missing.append(prefix)
                    continue
                wrapper = self.wrap(prefix, original, RESULT_HOOKS.get(prefix))
                if owner_path:
                    undo.append((owner, leaf, original))
                    setattr(owner, leaf, wrapper)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            undo.append((module, key, original))
                            setattr(module, key, wrapper)
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)
            logger.removeHandler(handler)

    def write_spans(self, path) -> None:
        """One JSON row per span: invocation, name, start, end, parent."""
        with open(path, "w") as handle:
            for row in self.spans:
                handle.write(json.dumps(row) + "\n")

    def invocation_totals(self) -> list[dict[str, tuple[int, float, float]]]:
        """Per invocation: name -> (calls, self seconds, inclusive seconds).

        Self time is a span's duration minus the durations of its direct
        children; inclusive time counts only spans with no ancestor of the
        same name, so recursion is not counted twice.
        """
        child_time = [0.0] * len(self.spans)
        for invocation, name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: list[dict[str, list]] = [{} for _ in self.counters]
        for index, (invocation, name, start, end, parent) in enumerate(self.spans):
            entry = totals[invocation].setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += (end - start) - child_time[index]
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][1] != name:
                ancestor = self.spans[ancestor][4]
            if ancestor < 0:
                entry[2] += end - start
        return [{k: tuple(v) for k, v in t.items()} for t in totals]

    def layer_metrics(self, traced_walls: list[float], untraced_walls: list[float]) -> dict[str, float]:
        """Per-invocation medians of every layer metric over the traced
        invocations, plus the tracing overhead: the median over pairs of
        ``(traced - untraced) / untraced`` wall time, where the two lists
        hold invocations run back to back."""
        totals = self.invocation_totals()
        count = len(totals)
        metrics: dict[str, float] = {}
        for prefix in map(metric_prefix, TARGETS):
            rows = [t.get(prefix, (0, 0.0, 0.0)) for t in totals]
            metrics[f"{prefix}.calls"] = sum(r[0] for r in rows) / count
            metrics[f"{prefix}.self_s"] = statistics.median(r[1] for r in rows)
            metrics[f"{prefix}.incl_s"] = statistics.median(r[2] for r in rows)
        propagation_s = sum(t.get("evolution.run_ensemble", (0, 0.0, 0.0))[2] for t in totals)
        points = sum(c["evolution.points"] for c in self.counters)
        metrics["evolution.points_per_s"] = points / propagation_s if propagation_s > 0 else 0.0
        for name, _ in COUNTERS:
            metrics[name] = sum(c[name] for c in self.counters) / count
        metrics["trace.wall_s"] = statistics.median(traced_walls)
        metrics["trace.overhead_frac"] = statistics.median(
            (traced - untraced) / untraced for traced, untraced in zip(traced_walls, untraced_walls)
        )
        return metrics
