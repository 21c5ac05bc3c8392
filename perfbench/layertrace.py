"""Span tracing of the lab's public functions, installed from outside the lab.

:class:`LayerTrace` replaces every function named in ``schwarzlab.__all__``,
plus the CLI's ``run``, ``render_json``, ``render_csv`` and ``build_parser``,
with a timing wrapper.  The wrapper is bound under every name that held the
original in any lab module, so calls made through ``from ... import`` bindings
(``cli`` -> ``bounds``/``families``/``regions``, ``families`` -> ``series``,
``regions`` -> ``families``) are seen as well as same-module calls.  Classes
in ``__all__`` (dataclasses, exceptions) are left alone: wrapping them would
break ``isinstance``; their constructors count toward the caller's self time.

Each span belongs to the current request and to the span that called it.
Spans are aggregated in memory per (request, function) and per
(request, parent, function); nothing is written while requests run.
A function's self time is its span duration minus the durations of the
spans it called; the tracer's bookkeeping after a span ends falls in the
caller's self time, and the traced run reports the whole cost of tracing as
``trace.overhead_ratio``.  Time a request spends outside every span
(argument parsing in ``cli.main``, writing the report) is the request's
unattributed time, so for every request the self times plus the
unattributed time equal the request time.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter
from types import ModuleType
from typing import Callable, Optional

LAYERS = ("series", "families", "bounds", "regions", "grammar", "cli")
CLI_FUNCTIONS = ("run", "render_json", "render_csv", "build_parser")


def _series_cmacs(args: tuple, name: str) -> int:
    """Complex multiply-adds the series kernel computes for these operands.

    ``mul`` is one full ``np.convolve`` of two length-n arrays (n^2),
    ``compose`` runs N = n - 1 of them in its Horner loop, and ``reciprocal``
    takes one dot product of length k for k = 1..N.
    """
    n = len(args[0].coeffs)
    if name == "mul":
        return n * len(args[1].coeffs)
    if name == "compose":
        return (n - 1) * n * len(args[1].coeffs)
    return n * (n - 1) // 2


class RequestRecord:
    """Aggregates of one traced request."""

    def __init__(self, request_id: int):
        self.request_id = request_id
        self.functions: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.edges: dict[tuple[str, str], int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.root_s = 0.0
        self.request_s = 0.0
        #: factor that converts this request's times to the reference host
        #: speed (see hostspeed.py); the raw times are kept as measured
        self.speed_scale = 1.0

    def unattributed_s(self) -> float:
        return self.request_s - self.root_s

    def as_json(self) -> dict:
        return {
            "request": self.request_id,
            "request_s": self.request_s,
            "unattributed_s": self.unattributed_s(),
            "speed_scale": self.speed_scale,
            "functions": {k: {"calls": v[0], "self_s": v[1]}
                          for k, v in sorted(self.functions.items())},
            "edges": [{"parent": p, "child": c, "calls": n}
                      for (p, c), n in sorted(self.edges.items())],
            "counters": dict(sorted(self.counters.items())),
        }


class LayerTrace:
    """Install timing wrappers on the lab's public functions.

    The wrappers are bound while the object is entered as a context manager
    and the originals restored on exit; records accumulate across entries.
    ``request(i)`` opens request ``i`` and returns its
    :class:`RequestRecord`, which the caller closes with
    ``finish(record, seconds)`` once the request's own wall time is known,
    or drops it with ``keep=False``.
    """

    def __init__(self, package: ModuleType):
        self.package = package
        self.modules = [package] + [
            sys.modules[f"{package.__name__}.{layer}"] for layer in LAYERS
        ]
        self.records: list[RequestRecord] = []
        self._current: Optional[RequestRecord] = None
        self._stack: list[list] = []
        self._patched: list[tuple[ModuleType, str, Callable]] = []
        self._wrappers = {id(fn): self._wrap(key, fn) for key, fn in self.targets().items()}

    def targets(self) -> dict[str, Callable]:
        """Qualified name ("layer.function") -> original function."""
        cli = sys.modules[f"{self.package.__name__}.cli"]
        fns = [getattr(self.package, n) for n in self.package.__all__]
        fns += [getattr(cli, n) for n in CLI_FUNCTIONS]
        out = {}
        for fn in fns:
            if inspect.isfunction(fn):
                layer = fn.__module__.rsplit(".", 1)[-1]
                out[f"{layer}.{fn.__name__}"] = fn
        return out

    def __enter__(self) -> "LayerTrace":
        for module in self.modules:
            for name, value in list(vars(module).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, name, value))
                    setattr(module, name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def request(self, request_id: int) -> RequestRecord:
        self._current = RequestRecord(request_id)
        return self._current

    def finish(self, record: RequestRecord, seconds: float, keep: bool = True) -> None:
        record.request_s = seconds
        if keep:
            self.records.append(record)
        self._current = None

    def _wrap(self, key: str, fn: Callable) -> Callable:
        stack = self._stack
        count = self._counter(key, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self._current
            parent = stack[-1][0] if stack else "<request>"
            frame = [key, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                elif record is not None:
                    record.root_s += dt
                if record is not None:
                    agg = record.functions[key]
                    agg[0] += 1
                    agg[1] += dt - frame[1]
                    record.edges[(parent, key)] += 1
            if count is not None and record is not None:
                count(record.counters, args, kwargs, result)
            return result

        return traced

    def _counter(self, key: str, fn: Callable) -> Optional[Callable]:
        """Work counts recorded at this function's boundary, if any."""
        layer, name = key.split(".", 1)
        if layer == "series" and name in ("mul", "compose", "reciprocal"):
            def count(c, args, kwargs, result):
                c["series.cmacs"] += _series_cmacs(args, name)
            return count
        if layer == "bounds":
            def count(c, args, kwargs, result):
                c["bounds.checks"] += len(result) if isinstance(result, (list, tuple)) else 1
            return count
        if key == "regions.b4_margin":
            sig = inspect.signature(fn)

            def count(c, args, kwargs, result):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                per_angle = 2 if bound.arguments["mode"] == "both" else 1
                c["regions.center_evals"] += per_angle * bound.arguments["angle_samples"]
            return count
        if key == "regions.intersect_disk_family":
            def count(c, args, kwargs, result):
                c["regions.cells"] += result.resolution ** 2
                c["regions.feasible_cells"] += result.feasible_area_cells
            return count
        if key in ("cli.render_json", "cli.render_csv"):
            def count(c, args, kwargs, result):
                c["cli.report_bytes"] += len(result.encode())
            return count
        return None
