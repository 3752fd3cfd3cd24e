"""Spans and counts at the boundaries of the dephasim layers.

Tracing lives in the benchmark, not in the program: ``Tracer.install``
replaces each public function named in ``TRACED`` by a wrapper, in every
``dephasim`` module namespace bound to it.  That includes plain
``from .channels import evolve`` bindings, so calls between modules are
seen as well as calls from the benchmark.  Spans (name, start, end, parent)
stay in memory until ``write_spans``.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import math
import sys
import time
from collections import defaultdict
from pathlib import Path

#: the wrapped public functions, as "<module>.<function>".
TRACED = (
    "linalg.partial_trace",
    "channels.evolve",
    "channels.kraus_for",
    "channels.apply_kraus",
    "channels.verify_completeness",
    "states.projector",
    "states.analytic_evolved",
    "entanglement.concurrence_curve",
    "entanglement.entanglement_of_formation",
    "timescales.sample_evolution",
    "timescales.fit_exponential",
    "timescales.build_report",
    "timescales.audit_inequality",
    "montecarlo.simulate_statistics",
    "presets.draw_state",
    "config.load_config",
    "svgplot.line_chart",
    "cli.main",
)


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _matrices(stack) -> int:
    """Number of matrices in a (..., d, d) stack."""
    return math.prod(getattr(stack, "shape", ())[:-2])


def _apply_kraus_flops(ks) -> int:
    """Real flops of sum_k K rho K^dagger as dense complex products.

    Per operator: two d x d complex matrix products (8 d^3 flops each) and
    one complex accumulation (2 d^2 flops).  Computed from shapes, not
    measured.
    """
    d = ks.dim
    return len(ks.operators) * (16 * d**3 + 2 * d**2)


class Tracer:
    """Records one span per call of a traced function, plus exact counts."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.active = False
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        # keys seen in the current iteration; folded into counts by end_iteration
        self._kraus_keys: set = set()
        self._evolution_keys: set = set()

    # -- counts made at the boundaries ---------------------------------
    def _before(self, name: str, args: tuple, kwargs: dict) -> None:
        if name == "channels.kraus_for":
            self._kraus_keys.add(
                (
                    _arg(args, kwargs, 0, "kind"),
                    _arg(args, kwargs, 1, "register_size"),
                    _arg(args, kwargs, 2, "rate"),
                    _arg(args, kwargs, 3, "t"),
                )
            )
        elif name == "channels.apply_kraus":
            self.counts["channels.apply_kraus.flops_computed"] += _apply_kraus_flops(
                _arg(args, kwargs, 1, "ks")
            )
        elif name == "timescales.sample_evolution":
            self._evolution_keys.add(
                (
                    _arg(args, kwargs, 0, "spec"),
                    _arg(args, kwargs, 1, "scenario"),
                    _arg(args, kwargs, 2, "grid"),
                )
            )
        elif name == "linalg.partial_trace":
            self.counts["linalg.partial_trace.matrices"] += _matrices(_arg(args, kwargs, 0, "rho"))
        elif name == "entanglement.concurrence_curve":
            self.counts["entanglement.concurrence_curve.matrices"] += _matrices(
                _arg(args, kwargs, 0, "stack")
            )
        elif name == "montecarlo.simulate_statistics":
            self.counts["montecarlo.trajectories"] += _arg(args, kwargs, 2, "cfg").n_trajectories

    def _after(self, name: str, result) -> None:
        if name == "timescales.audit_inequality" and result.overall == "FAIL":
            self.counts["timescales.audit_inequality.fail_verdicts"] += 1

    def end_iteration(self) -> None:
        """Close the scope of the distinct-key counts (one workload iteration)."""
        self.counts["channels.kraus_for.distinct"] += len(self._kraus_keys)
        self.counts["timescales.sample_evolution.distinct"] += len(self._evolution_keys)
        self._kraus_keys.clear()
        self._evolution_keys.clear()

    # -- spans ----------------------------------------------------------
    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.calls[name] += 1
            self._before(name, args, kwargs)
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                self.ends[idx] = time.perf_counter()
                self.starts[idx] = start
                self._stack.pop()
            self._after(name, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every TRACED function in all loaded dephasim modules."""
        importlib.import_module("dephasim.cli")  # loads every layer
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == "dephasim" or key.startswith("dephasim."))
        ]
        for name in TRACED:
            module, func = name.split(".")
            original = getattr(importlib.import_module(f"dephasim.{module}"), func)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    @contextlib.contextmanager
    def recording(self):
        """Record spans for the duration of the block."""
        self.active = True
        try:
            yield
        finally:
            self.active = False

    @contextlib.contextmanager
    def paused(self):
        """Let traced functions run unrecorded, e.g. inside output checks."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def self_times(self) -> dict[str, float]:
        """Seconds per function: span durations minus the time their children cover.

        Spans come from one thread, so the children of a span run one after
        another inside it and the part they cover is the sum of their
        durations, each clipped to the parent interval.
        """
        covered = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                lo = max(self.starts[i], self.starts[parent])
                hi = min(self.ends[i], self.ends[parent])
                covered[parent] += max(0.0, hi - lo)
        out: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            out[name] += (self.ends[i] - self.starts[i]) - covered[i]
        return out

    def write_spans(self, path: Path) -> None:
        """All spans as CSV: index, name, start and end (s from the first span), parent."""
        origin = min(self.starts, default=0.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["span", "name", "start_s", "end_s", "parent"])
            for i, name in enumerate(self.names):
                writer.writerow(
                    [i, name, self.starts[i] - origin, self.ends[i] - origin, self.parents[i]]
                )
