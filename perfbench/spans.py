"""Per-layer spans, recorded from the benchmark's side of each layer call.

With ``--trace 1`` the benchmark wraps the entry points of each layer of
the scheduler and the proxy (pool bookkeeping, kernel scoring, the top-k
cut, the probe walk, capture, sibling refresh, churn admission, arena
patches, the sharded engine's worker replies and merge, the
write-ahead log and its fsyncs, checkpoints) in timing spans.  Nothing
inside the program changes: the wrappers are installed on the imported
classes and modules at start-up and record only while a benchmark
operation is open.  An entry point the program no longer has is an
error, so a stale list of spans cannot silently move a layer's time into
``other``.

Each span reads the wall clock and the CPU clock of the calling thread
(not the process's, which would also count the HTTP server thread).  A layer's
*self* time is its span's wall time minus the wall time of the spans it
called, so the per-layer times of one operation add up to its latency
(``other`` holds what no wrapped layer covers).  Its *wait* is the same
difference taken over wall minus CPU time: time the layer spent blocked
on the disk, a socket or a shard worker rather than computing.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

#: Root frame name: the time of an operation that no layer span covers.
OTHER = "other"


class Tracer:
    """Accumulates self and wait time, calls and named counters per layer."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.wait_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        # One [layer, child_wall, child_cpu] frame per open span; empty
        # between operations, which is when wrappers record nothing.
        self._stack: list[list] = []

    def _open(self, layer: str) -> list:
        frame = [layer, 0.0, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, wall: float, cpu: float) -> None:
        self._stack.pop()
        layer, child_wall, child_cpu = frame
        self.self_s[layer] += wall - child_wall
        self.wait_s[layer] += (wall - cpu) - (child_wall - child_cpu)
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][1] += wall
            self._stack[-1][2] += cpu

    @contextlib.contextmanager
    def _timed(self, layer: str):
        frame = self._open(layer)
        wall, cpu = time.perf_counter(), time.thread_time()
        try:
            yield
        finally:
            self._close(frame, time.perf_counter() - wall, time.thread_time() - cpu)

    def operation(self):
        """The root span of one benchmark operation."""
        return self._timed(OTHER)

    def region(self, layer: str):
        """A span around benchmark-side code (e.g. an HTTP round trip)."""
        return self._timed(layer) if self._stack else contextlib.nullcontext()

    def span(
        self,
        layer: str,
        fn: Callable,
        counter: Optional[Callable[[tuple, object], tuple[str, float]]] = None,
    ) -> Callable:
        """``fn`` wrapped in a span of ``layer`` (optionally counting)."""
        stack = self._stack
        wall_clock = time.perf_counter
        cpu_clock = time.thread_time

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            nested = stack[-1][0] == layer
            frame = self._open(layer)
            wall, cpu = wall_clock(), cpu_clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, wall_clock() - wall, cpu_clock() - cpu)
            if counter is not None and not nested:
                name, amount = counter(args, result)
                self.counters[name] += amount
            return result

        return wrapped

    def wrap_method(self, cls: type, attr: str, layer: str, counter=None) -> None:
        if attr not in vars(cls):
            raise AttributeError(f"{cls.__module__}.{cls.__qualname__} has no {attr}")
        setattr(cls, attr, self.span(layer, vars(cls)[attr], counter))

    def wrap_function(self, module: str, attr: str, layer: str) -> None:
        """Wrap a module function everywhere the program bound it by name."""
        original = getattr(importlib.import_module(module), attr)
        wrapped = self.span(layer, original)
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "repro" and getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)


def _rows_scored(args: tuple, result) -> tuple[str, float]:
    return "scored_rows", float(len(args[2]))


def _eis_captured(args: tuple, result) -> tuple[str, float]:
    return "captured_eis", float(len(result))


def _class(module: str, name: str) -> type:
    return getattr(importlib.import_module(module), name)


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points of the scheduler and the proxy.

    Raises ``ImportError`` or ``AttributeError`` naming the first entry
    point the program does not have.
    """
    fastpath = "repro.online.fastpath"
    pool = _class(fastpath, "FastCandidatePool")
    tracer.wrap_method(pool, "register", "register")
    tracer.wrap_method(pool, "open_windows", "open")
    tracer.wrap_method(pool, "close_windows", "close")
    tracer.wrap_method(pool, "sync_mirrors", "sync")
    tracer.wrap_method(pool, "capture_resource_rows", "capture", _eis_captured)
    tracer.wrap_method(_class(fastpath, "_LocalStream"), "_materialize", "select")
    tracer.wrap_function(fastpath, "run_fast_phases", "phase")
    tracer.wrap_function(fastpath, "_phase_walk", "walk")
    tracer.wrap_function(fastpath, "_refresh_siblings_fast", "refresh")
    tracer.wrap_function(fastpath, "run_fast_span", "span")

    kernels = [
        value
        for value in vars(importlib.import_module("repro.policies.kernels")).values()
        if isinstance(value, type) and "score_rows" in vars(value)
    ]
    if not kernels:
        raise AttributeError("repro.policies.kernels has no class with score_rows")
    for kernel in kernels:
        tracer.wrap_method(kernel, "score_rows", "score", _rows_scored)

    sharded = "repro.online.sharded"
    tracer.wrap_method(_class(sharded, "ShardedEngine"), "recv", "shard_recv")
    tracer.wrap_method(_class(sharded, "_ShardedStream"), "_collect", "merge")
    tracer.wrap_function(sharded, "run_sharded_phases", "phase")

    streaming = _class("repro.online.streaming", "StreamingMonitor")
    tracer.wrap_method(streaming, "submit", "admit")
    tracer.wrap_method(streaming, "cancel", "cancel")
    tracer.wrap_function("repro.sim.arena", "apply_patch", "arena_patch")

    durability = "repro.proxy.durability"
    tracer.wrap_method(_class(durability, "WriteAheadLog"), "append", "wal_append")
    tracer.wrap_method(_class(durability, "DurableStreamingProxy"), "checkpoint", "checkpoint")
    # The journal calls os.fsync through the module: the span sees every
    # fsync the program issues from Python.
    os.fsync = tracer.span("fsync", os.fsync)
