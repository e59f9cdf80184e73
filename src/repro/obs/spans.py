"""Phase spans: nested wall-clock (and optional CPU) timings as a trace tree.

A *span* times one phase of work — a peel run, an index load, a pipeline
cell, one served request.  Spans nest per thread: entering a span while
another is open makes it a child, so one decompose → build_index → serve run
produces a tree whose shape mirrors the call structure.  When the *root*
span of a thread finishes, the whole tree is emitted to the configured sink
as one JSON-safe dict::

    {"name": "pipeline.cell", "attrs": {"experiment": "figure5"},
     "wall_seconds": 0.81, "cpu_seconds": 0.79,
     "children": [{"name": "peel", ...}, ...]}

Usage — context manager or decorator::

    with span("index.load", mmap=True):
        ...

    @span("peel")
    def peel_kappa_scores(...): ...

While telemetry is disabled (:mod:`repro.obs.config`) ``span`` never touches
the clock or the sink — entering is an attribute write and a predicate, so
instrumented hot paths stay at reference speed.  Every finished span also
feeds the ``repro_span_seconds`` histogram (labelled by span name) in the
metrics registry, which is how phase p50/p99 reach the Prometheus
exposition without a separate recording step.

Sinks are pluggable via :func:`set_sink`: the default
:class:`InMemorySink` keeps the most recent traces in a ring buffer
(:func:`recent_traces` / :func:`drain_traces`); :class:`JsonlSink` appends
one JSON line per trace to a file (selected at import by
``REPRO_OBS_SINK=<path>``).  :func:`capture` temporarily swaps in a private
in-memory sink — the pipeline uses it to fold per-cell traces into the
experiment artifacts, and tests use it for isolation.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import threading
import time

from repro.obs import config
from repro.obs.metrics import REGISTRY

__all__ = [
    "InMemorySink",
    "JsonlSink",
    "capture",
    "drain_traces",
    "recent_traces",
    "set_sink",
    "span",
]

#: Children beyond this many per span are dropped (and counted in the
#: parent's ``dropped_children`` attr) so a span around a tight loop cannot
#: balloon one trace into millions of nodes.
MAX_CHILDREN = 1024


class InMemorySink:
    """Ring buffer of the most recent finished traces (the default sink).

    Traces pushed out of the buffer are counted in ``dropped`` and in the
    ``repro_obs_traces_dropped_total`` counter, so a reader can tell a
    complete buffer from the tail of a longer run.
    """

    def __init__(self, maxlen: int = 256) -> None:
        self.maxlen = maxlen
        self.dropped = 0
        self._traces: list[dict] = []
        self._lock = threading.Lock()

    def emit(self, trace: dict) -> None:
        with self._lock:
            self._traces.append(trace)
            overflow = len(self._traces) - self.maxlen
            if overflow > 0:
                del self._traces[:overflow]
                self.dropped += overflow
        if overflow > 0:
            REGISTRY.counter(
                "repro_obs_traces_dropped_total",
                "Finished traces pushed out of a full in-memory trace sink.",
            ).inc(overflow)

    def traces(self) -> list[dict]:
        """The buffered traces, oldest first (a copy)."""
        with self._lock:
            return list(self._traces)

    def drain(self) -> list[dict]:
        """Return the buffered traces and clear the buffer."""
        with self._lock:
            traces, self._traces = self._traces, []
            return traces


class JsonlSink:
    """Append one compact JSON line per finished trace to ``path``."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._lock = threading.Lock()

    def emit(self, trace: dict) -> None:
        line = json.dumps(trace, separators=(",", ":"), sort_keys=True)
        with self._lock:
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line + "\n")


def _sink_from_env():
    path = os.environ.get("REPRO_OBS_SINK", "").strip()
    return JsonlSink(path) if path else InMemorySink()


_SINK = _sink_from_env()
_LOCAL = threading.local()


def set_sink(sink) -> None:
    """Install ``sink`` (any object with ``emit(trace: dict)``) globally."""
    global _SINK
    _SINK = sink


def recent_traces() -> list[dict]:
    """Traces buffered by the current sink (empty for non-memory sinks)."""
    return _SINK.traces() if isinstance(_SINK, InMemorySink) else []


def drain_traces() -> list[dict]:
    """Drain the current sink's buffer (empty for non-memory sinks)."""
    return _SINK.drain() if isinstance(_SINK, InMemorySink) else []


def _stack() -> list[dict]:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    return stack


class span:
    """Time one named phase; context manager and decorator (see module docs).

    ``cpu=True`` additionally records ``time.process_time`` deltas
    (``cpu_seconds``); keyword attributes annotate the span in the trace.
    """

    __slots__ = ("name", "attrs", "cpu", "_record", "_wall0", "_cpu0")

    def __init__(self, name: str, cpu: bool = False, **attrs) -> None:
        self.name = name
        self.attrs = attrs
        self.cpu = cpu
        self._record: dict | None = None

    def annotate(self, **attrs) -> "span":
        """Attach attributes to the running span (no-op while disabled)."""
        if self._record is not None:
            self._record["attrs"].update(attrs)
        return self

    def __enter__(self) -> "span":
        if not config._ENABLED:
            self._record = None
            return self
        record: dict = {
            "name": self.name,
            "attrs": dict(self.attrs),
            "children": [],
        }
        self._record = record
        stack = _stack()
        if stack:
            parent = stack[-1]
            if len(parent["children"]) < MAX_CHILDREN:
                parent["children"].append(record)
            else:
                parent["attrs"]["dropped_children"] = (
                    parent["attrs"].get("dropped_children", 0) + 1
                )
        stack.append(record)
        self._cpu0 = time.process_time() if self.cpu else None
        self._wall0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        record = self._record
        if record is None:
            return False
        wall = time.perf_counter() - self._wall0
        record["wall_seconds"] = wall
        if self._cpu0 is not None:
            record["cpu_seconds"] = time.process_time() - self._cpu0
        if exc_type is not None:
            record["error"] = exc_type.__name__
        stack = _stack()
        # The record is ours by construction; tolerate a corrupted stack
        # (e.g. a generator suspended across __enter__) rather than raise.
        if stack and stack[-1] is record:
            stack.pop()
        elif record in stack:  # pragma: no cover - defensive
            stack.remove(record)
        REGISTRY.histogram(
            "repro_span_seconds",
            "Wall-clock seconds per finished span, labelled by span name.",
            span=self.name,
        ).observe(wall)
        if not stack:
            _SINK.emit(record)
        self._record = None
        return False

    def __call__(self, function):
        """Decorator form: every call runs inside a fresh span."""

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            with span(self.name, cpu=self.cpu, **self.attrs):
                return function(*args, **kwargs)

        return wrapper


@contextlib.contextmanager
def capture(enable: bool | None = None):
    """Collect the traces finished inside the block into a private list.

    Temporarily swaps the global sink for a fresh :class:`InMemorySink` and
    yields it; ``enable=True`` also switches telemetry on for the duration
    (restoring the previous state afterwards).  Used by the experiment
    pipeline to attach per-cell traces to artifacts, and by tests::

        with capture(enable=True) as sink:
            run()
        trace = sink.traces()[-1]
    """
    global _SINK
    previous_sink = _SINK
    previous_enabled = config.enabled()
    sink = InMemorySink()
    _SINK = sink
    if enable is not None:
        config.configure(enabled=enable)
    try:
        yield sink
    finally:
        _SINK = previous_sink
        config.configure(enabled=previous_enabled)
