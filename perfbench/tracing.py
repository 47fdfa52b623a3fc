"""Spans recorded from outside the program, around calls into its modules.

A Tracer replaces functions of the spinpath modules by timing wrappers and
keeps one span per call in memory: (name, start, end, parent, op, ok,
amount).  ``parent`` is the index of the enclosing span (-1 for none),
``op`` the benchmark operation the call belongs to, ``ok`` whether it
returned normally and ``amount`` a per-call work count (rate points,
objective points, bytes).  A wrapper is installed at every place the
original function object is bound, so a call is caught wherever its caller
looks the name up (``analysis.simulate_interferogram`` and
``experiment.simulate_interferogram`` are one function bound twice).

This module imports nothing outside the standard library, so the traced CLI
entry can load it before timing ``import spinpath``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import namedtuple
from pathlib import Path

Span = namedtuple("Span", "name start end parent op ok amount")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _file_bytes(path) -> int:
    """Size of a CSV and of its ``.meta`` sidecar, when there is one."""
    path = Path(path)
    total = path.stat().st_size if path.exists() else 0
    meta = path.with_suffix(".meta")
    if meta.exists():
        total += meta.stat().st_size
    return total


def _counts_size(args, kwargs, result):
    return getattr(result.counts, "size", 0)


def _result_size(args, kwargs, result):
    return getattr(result, "size", 1)


def _written_bytes(args, kwargs, result):
    return _file_bytes(_arg(args, kwargs, 1, "csv_path"))


def _read_bytes(args, kwargs, result):
    return _file_bytes(_arg(args, kwargs, 0, "csv_path"))


# (span name, module, attribute, amount function).  Span names are
# "<module>.<function>"; metrics group them by function.
TRACED = (
    ("quantum.joint_probability", "quantum", "joint_probability", None),
    ("experiment.simulate_interferogram", "experiment", "simulate_interferogram",
     _counts_size),
    ("experiment.simulate_beam_block", "experiment", "simulate_beam_block",
     _counts_size),
    ("experiment.reference_run", "experiment", "reference_run", _counts_size),
    ("experiment.stream_rng", "experiment", "stream_rng", None),
    ("experiment.write_interferogram", "experiment", "write_interferogram",
     _written_bytes),
    ("experiment.write_beam_block", "experiment", "write_beam_block",
     _written_bytes),
    ("experiment.read_interferogram", "experiment", "read_interferogram",
     _read_bytes),
    ("experiment.read_beam_block", "experiment", "read_beam_block", _read_bytes),
    ("analysis.fit_sinusoid", "analysis", "fit_sinusoid", None),
    ("analysis.fit_sinusoid_xy", "analysis", "fit_sinusoid_xy", None),
    ("analysis.estimate_bell_s", "analysis", "estimate_bell_s", None),
    ("analysis.run_polar_scan", "analysis", "run_polar_scan", None),
    ("analysis.run_azimuthal_scan", "analysis", "run_azimuthal_scan", None),
    ("analysis.write_scan_results", "analysis", "write_scan_results", None),
    ("analysis.read_scan_results", "analysis", "read_scan_results", None),
    ("chsh.maximize_2d", "chsh", "maximize_2d", None),
    ("chsh.s_polar", "chsh", "s_polar", None),
    ("chsh.grid_maximize_s", "chsh", "grid_maximize_s", None),
    ("cli.run", "cli", "run", None),
)

# Metric groups: span names whose outermost calls a metric counts.
SIMULATE = ("experiment.simulate_interferogram", "experiment.simulate_beam_block",
            "experiment.reference_run")
IO_WRITE = ("experiment.write_interferogram", "experiment.write_beam_block")
IO_READ = ("experiment.read_interferogram", "experiment.read_beam_block")
FIT = ("analysis.fit_sinusoid", "analysis.fit_sinusoid_xy")
PIPELINE = ("analysis.estimate_bell_s", "analysis.run_polar_scan",
            "analysis.run_azimuthal_scan")
SCAN_IO = ("analysis.write_scan_results", "analysis.read_scan_results")
SURFACE = ("chsh.s_polar", "chsh.grid_maximize_s")

# flippers is not traced: no pipeline, CLI subcommand or workload calls it.
UNTRACED_MODULES = {"flippers": "no pipeline calls it"}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.op = -1
        self.missing: list = []

    def wrap(self, name, fn, amount=None, wrap_args=None):
        """A wrapper that records one span per call of ``fn``; ``amount``
        maps (args, kwargs, result) to the call's work count and
        ``wrap_args`` may rewrite the arguments first."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if wrap_args is not None:
                args, kwargs = wrap_args(args, kwargs)
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            ok = False
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                count = amount(args, kwargs, result) if ok and amount else 0
                spans[index] = Span(name, start, end, parent, self.op, ok, count)

        return traced

    def _wrap_objective(self, args, kwargs):
        """Count the points maximize_2d's objective is evaluated at."""
        name = "chsh.objective"
        if "objective" in kwargs:
            kwargs = dict(kwargs, objective=self.wrap(name, kwargs["objective"],
                                                      _result_size))
        elif args:
            args = (self.wrap(name, args[0], _result_size),) + tuple(args[1:])
        return args, kwargs

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around a block of the benchmark's own code."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        ok = False
        try:
            yield
            ok = True
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.op, ok, 0)

    def add(self, name, start, end):
        """Record a span measured elsewhere, under the innermost open span."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, start, end, parent, self.op, True, 0))

    def merge(self, path):
        """Adopt the spans a child process wrote to ``path``; its top-level
        spans hang under the innermost open span here."""
        base = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            s = Span(**json.loads(line))
            self.spans.append(s._replace(
                parent=parent if s.parent < 0 else s.parent + base, op=self.op))

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function at each place it is bound in a loaded
        spinpath module; restore the originals on exit."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "spinpath" or n.startswith("spinpath.")]
        restore = []
        try:
            for name, module_name, attr, amount in TRACED:
                module = sys.modules.get("spinpath." + module_name)
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(name)
                    continue
                wrap_args = (self._wrap_objective if name == "chsh.maximize_2d"
                             else None)
                wrapper = self.wrap(name, original, amount, wrap_args)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            restore.append((mod, key, original))
            yield self
        finally:
            for mod, key, original in reversed(restore):
                setattr(mod, key, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


def _outermost(spans, names) -> list:
    """Spans named in ``names`` with no enclosing span from the same set."""
    names = set(names)
    out = []
    for s in spans:
        if s.name not in names:
            continue
        parent = s.parent
        while parent >= 0 and spans[parent].name not in names:
            parent = spans[parent].parent
        if parent < 0:
            out.append(s)
    return out


def _busy(spans, names) -> float:
    return sum(s.end - s.start for s in _outermost(spans, names))


def self_times(spans) -> dict:
    """Seconds per span name not covered by that span's direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    out: dict = {}
    for i, s in enumerate(spans):
        out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - child[i]
    return out


def layer_metrics(spans) -> dict:
    """Per-layer metrics from the spans of a traced phase: {name: (value,
    unit)}.  Counts are exact; times are sums of outermost spans."""
    def calls(names):
        return len(_outermost(spans, names))

    def amount(names):
        return sum(s.amount for s in _outermost(spans, names))

    self_s = self_times(spans)
    rate_points = amount(SIMULATE)
    simulate_busy = _busy(spans, SIMULATE)
    return {
        "quantum.joint_probability_calls": (calls(["quantum.joint_probability"]), "count"),
        "quantum.busy_s": (_busy(spans, ["quantum.joint_probability"]), "s"),
        "experiment.simulate_calls": (calls(SIMULATE), "count"),
        "experiment.rate_points": (rate_points, "count"),
        "experiment.simulate_busy_s": (simulate_busy, "s"),
        "experiment.us_per_rate_point": (
            1e6 * simulate_busy / rate_points if rate_points else 0.0, "us"),
        "experiment.stream_rng_calls": (calls(["experiment.stream_rng"]), "count"),
        "experiment.stream_rng_busy_s": (_busy(spans, ["experiment.stream_rng"]), "s"),
        "experiment.io_write_s": (_busy(spans, IO_WRITE), "s"),
        "experiment.io_read_s": (_busy(spans, IO_READ), "s"),
        "experiment.io_bytes": (amount(IO_WRITE + IO_READ), "bytes"),
        "analysis.fit_calls": (calls(FIT), "count"),
        "analysis.fit_busy_s": (_busy(spans, FIT), "s"),
        "analysis.fit_failures": (
            sum(1 for s in _outermost(spans, FIT) if not s.ok), "count"),
        "analysis.self_s": (sum(self_s.get(n, 0.0) for n in PIPELINE), "s"),
        "analysis.scan_io_s": (_busy(spans, SCAN_IO), "s"),
        "chsh.maximize_calls": (calls(["chsh.maximize_2d"]), "count"),
        "chsh.maximize_busy_s": (_busy(spans, ["chsh.maximize_2d"]), "s"),
        "chsh.objective_points": (amount(["chsh.objective"]), "count"),
        "chsh.s_polar_calls": (calls(["chsh.s_polar"]), "count"),
        "chsh.surface_busy_s": (_busy(spans, SURFACE), "s"),
        "cli.process_s": (_busy(spans, ["cli.process"]), "s"),
        "cli.import_s": (_busy(spans, ["cli.import"]), "s"),
        "cli.run_busy_s": (_busy(spans, ["cli.run"]), "s"),
    }
