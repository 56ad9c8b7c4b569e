"""Spans and counters around the calls into each fknlab layer.

The tracer wraps functions from outside the package: it rebinds every name
that refers to a wrapped function in every `fknlab` module namespace (a
`from .rv import convolve` makes `fknlab.bounds.convolve` a binding of its
own), patches `DiscreteRV.__post_init__` and the CLI argument parser on
their classes, and shadows `print` and `csv` inside `fknlab.cli`.  Leaving
`installed()` restores every original.

Layers are the package modules: cli, sweep, bounds, rv and cube.  A span's
self time is its duration minus the time its child spans cover; a layer's
self time is the sum over its spans, so the five layers' self times add up
to the traced wall time of the commands.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from types import FunctionType

LAYERS = ("cli", "sweep", "bounds", "rv", "cube")

EVALUATORS = (
    "theorem1_check",
    "lemma4_bound",
    "lemma5_bound",
    "lemma7_bound",
    "claim8_check",
    "claim9_bound",
    "corollary2_apply",
)

# (name, unit, better) of every per-layer metric, in report order.  Times and
# counts cover one traced pass over the workload's command pool.
LAYER_METRICS = (
    ("rv.convolve.calls", "count", "lower"),
    ("rv.convolve.s", "s", "lower"),
    ("rv.convolve.pairs", "count", "lower"),
    ("rv.convolve.atoms_out", "count", "lower"),
    ("rv.convolve.merge_ratio", "ratio", "higher"),
    ("rv.max_support", "count", "lower"),
    ("rv.atom_cap_use", "ratio", "lower"),
    ("rv.discrete_rv.constructions", "count", "lower"),
    ("rv.discrete_rv.validate_s", "s", "lower"),
    ("rv.abs_rv.s", "s", "lower"),
    ("rv.variance_rv.s", "s", "lower"),
    ("rv.expectation.calls", "count", "lower"),
    ("rv.center.s", "s", "lower"),
    ("rv.format_rv_inline.s", "s", "lower"),
    ("rv.self_s", "s", "lower"),
    ("cube.wht.calls", "count", "lower"),
    ("cube.wht.s", "s", "lower"),
    ("cube.wht.entries", "count", "lower"),
    ("cube.wht.bytes_computed", "bytes", "lower"),
    ("cube.inverse_wht.calls", "count", "lower"),
    ("cube.inverse_wht.s", "s", "lower"),
    ("cube.cross_partition_weight.s", "s", "lower"),
    ("cube.sq_l2_dist.s", "s", "lower"),
    ("cube.variance.s", "s", "lower"),
    ("cube.parse_boolean_function.s", "s", "lower"),
    ("cube.self_s", "s", "lower"),
    *(
        (f"bounds.{name}.{kind}", unit, "lower")
        for name in EVALUATORS
        for kind, unit in (("calls", "count"), ("s", "s"))
    ),
    ("bounds.self_s", "s", "lower"),
    ("sweep.run_sweep.s", "s", "lower"),
    ("sweep.corollary2_exhaustive.s", "s", "lower"),
    ("sweep.self_s", "s", "lower"),
    ("sweep.instances", "count", "higher"),
    ("sweep.errors", "count", "lower"),
    ("sweep.violations", "count", "lower"),
    ("cli.parse_s", "s", "lower"),
    ("cli.output_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

# Computed, not measured: each butterfly stage reads and writes every
# float64 entry once, so a transform of 2^m entries moves 16 * m * 2^m bytes.
WHT_BYTES_PER_ENTRY_STAGE = 16

_UNSET = object()  # marks an attribute that a patch added rather than replaced


class Tracer:
    """Records spans (id, parent, command, name, start, end) and counters."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, int | None, str, float, float]] = []
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.maxima: dict[str, float] = defaultdict(float)
        self.inclusive: dict[str, float] = defaultdict(float)  # outermost calls per name
        self.self_time: dict[str, float] = defaultdict(float)  # per layer
        self.command: int | None = None  # index of the command being run
        self._stack: list[list] = []  # [span id, parent id, name, start, child seconds]
        self._active: Counter[str] = Counter()
        self._next_id = 0
        self._default_atom_cap = 0  # set when installed

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([self._next_id, parent, name, time.perf_counter(), 0.0])
        self._next_id += 1
        self._active[name] += 1
        self.calls[name] += 1

    def _close(self) -> None:
        end = time.perf_counter()
        span_id, parent, name, start, children = self._stack.pop()
        duration = end - start
        self.self_time[name.partition(".")[0]] += duration - children
        self._active[name] -= 1
        if not self._active[name]:
            self.inclusive[name] += duration
        if self._stack:
            self._stack[-1][4] += duration
        self.spans.append((span_id, parent, self.command, name, start, end))

    def wrap(self, name: str, fn, after=None):
        """`fn` inside a span called `name`; `after(args, kwargs, result)` updates counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- counters ------------------------------------------------------------

    def _after_convolve(self, args, kwargs, result) -> None:
        x, y = args[0], args[1]
        cap = args[2] if len(args) > 2 else kwargs.get("atom_cap", self._default_atom_cap)
        pairs = x.support_size * y.support_size
        self.counts["rv.convolve.pairs"] += pairs
        self.counts["rv.convolve.atoms_out"] += result.support_size
        self.maxima["rv.atom_cap_use"] = max(self.maxima["rv.atom_cap_use"], pairs / cap)

    def _after_validate(self, args, kwargs, result) -> None:
        self.maxima["rv.max_support"] = max(self.maxima["rv.max_support"], len(args[0].atoms))

    def _after_wht(self, args, kwargs, result) -> None:
        m = args[0].m
        self.counts["cube.wht.entries"] += 1 << m
        self.counts["cube.wht.bytes_computed"] += WHT_BYTES_PER_ENTRY_STAGE * m << m

    def _after_run_sweep(self, args, kwargs, result) -> None:
        self.counts["sweep.instances"] += result.instances_run
        self.counts["sweep.errors"] += len(result.errors)
        self.counts["sweep.violations"] += len(result.violations)

    # -- installation ----------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap the package's layer boundaries; restore every original on exit."""
        cli = sys.modules["fknlab.cli"]
        rv = sys.modules["fknlab.rv"]
        self._default_atom_cap = rv.DEFAULT_ATOM_CAP
        after = {
            "rv.convolve": self._after_convolve,
            "cube.wht": self._after_wht,
            "sweep.run_sweep": self._after_run_sweep,
        }
        wrappers = {}
        for layer in LAYERS[1:]:
            module = sys.modules[f"fknlab.{layer}"]
            for attr, value in vars(module).items():
                if (
                    isinstance(value, FunctionType)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                    and not inspect.isgeneratorfunction(value)  # a span would time only its creation
                ):
                    name = f"{layer}.{attr}"
                    wrappers[value] = self.wrap(name, value, after.get(name))
        wrappers[cli.main] = self.wrap("cli.main", cli.main)
        for attr in ("build_parser", "_read_text", "_read_partition"):
            fn = getattr(cli, attr)
            wrappers[fn] = self.wrap("cli.parse", fn)

        restore: list[tuple[object, str, object]] = []  # (owner, attribute, original or _UNSET)

        def patch(owner, attr, value):
            restore.append((owner, attr, owner.__dict__.get(attr, _UNSET)))
            setattr(owner, attr, value)

        try:
            for module_name, module in list(sys.modules.items()):
                if module_name == "fknlab" or module_name.startswith("fknlab."):
                    for attr, value in list(vars(module).items()):
                        if isinstance(value, FunctionType) and value in wrappers:
                            patch(module, attr, wrappers[value])
            validate = rv.DiscreteRV.__post_init__
            patch(rv.DiscreteRV, "__post_init__", self.wrap("rv.discrete_rv.validate", validate, self._after_validate))
            patch(cli._Parser, "parse_args", self.wrap("cli.parse", cli._Parser.parse_args))
            patch(cli, "print", self.wrap("cli.output", print))
            patch(cli, "csv", _TracedCsv(self))
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                if original is _UNSET:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def metrics(self, traced_s: float, untraced_s: float) -> dict[str, float]:
        """Every per-layer metric of LAYER_METRICS, by name."""
        calls, inclusive, counts = self.calls, self.inclusive, self.counts
        pairs = counts["rv.convolve.pairs"]
        values = {
            "rv.convolve.calls": calls["rv.convolve"],
            "rv.convolve.s": inclusive["rv.convolve"],
            "rv.convolve.pairs": pairs,
            "rv.convolve.atoms_out": counts["rv.convolve.atoms_out"],
            "rv.convolve.merge_ratio": counts["rv.convolve.atoms_out"] / pairs if pairs else 0.0,
            "rv.max_support": int(self.maxima["rv.max_support"]),
            "rv.atom_cap_use": self.maxima["rv.atom_cap_use"],
            "rv.discrete_rv.constructions": calls["rv.discrete_rv.validate"],
            "rv.discrete_rv.validate_s": inclusive["rv.discrete_rv.validate"],
            "rv.abs_rv.s": inclusive["rv.abs_rv"],
            "rv.variance_rv.s": inclusive["rv.variance_rv"],
            "rv.expectation.calls": calls["rv.expectation"],
            "rv.center.s": inclusive["rv.center"],
            "rv.format_rv_inline.s": inclusive["rv.format_rv_inline"],
            "cube.wht.calls": calls["cube.wht"],
            "cube.wht.s": inclusive["cube.wht"],
            "cube.wht.entries": counts["cube.wht.entries"],
            "cube.wht.bytes_computed": counts["cube.wht.bytes_computed"],
            "cube.inverse_wht.calls": calls["cube.inverse_wht"],
            "cube.inverse_wht.s": inclusive["cube.inverse_wht"],
            "cube.cross_partition_weight.s": inclusive["cube.cross_partition_weight"],
            "cube.sq_l2_dist.s": inclusive["cube.sq_l2_dist"],
            "cube.variance.s": inclusive["cube.variance"],
            "cube.parse_boolean_function.s": inclusive["cube.parse_boolean_function"],
            "sweep.run_sweep.s": inclusive["sweep.run_sweep"],
            "sweep.corollary2_exhaustive.s": inclusive["sweep.corollary2_exhaustive"],
            "sweep.instances": counts["sweep.instances"],
            "sweep.errors": counts["sweep.errors"],
            "sweep.violations": counts["sweep.violations"],
            "cli.parse_s": inclusive["cli.parse"],
            "cli.output_s": inclusive["cli.output"],
            "trace.overhead_frac": traced_s / untraced_s - 1 if untraced_s > 0 else 0.0,
        }
        for name in EVALUATORS:
            values[f"bounds.{name}.calls"] = calls[f"bounds.{name}"]
            values[f"bounds.{name}.s"] = inclusive[f"bounds.{name}"]
        for layer in LAYERS:
            values[f"{layer}.self_s"] = self.self_time[layer]
        return {name: values[name] for name, _, _ in LAYER_METRICS}

    def write(self, path: Path, header: dict) -> None:
        """Write the recorded spans, times relative to the first span's start."""
        origin = min((span[4] for span in self.spans), default=0.0)
        spans = [
            [span_id, parent, command, name, start - origin, end - origin]
            for span_id, parent, command, name, start, end in sorted(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {**header, "fields": ["id", "parent", "command", "name", "start_s", "end_s"], "spans": spans}
        path.write_text(json.dumps(document, separators=(",", ":")) + "\n")



class _TracedCsv:
    """Stands in for the `csv` module inside fknlab.cli: row writing is output time."""

    def __init__(self, tracer: Tracer):
        self._tracer = tracer

    def __getattr__(self, attr):
        return getattr(csv, attr)

    def writer(self, *args, **kwargs):
        return _TracedWriter(self._tracer, csv.writer(*args, **kwargs))


class _TracedWriter:
    def __init__(self, tracer: Tracer, writer):
        self.writerow = tracer.wrap("cli.output", writer.writerow)
        self.writerows = tracer.wrap("cli.output", writer.writerows)
