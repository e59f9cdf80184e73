"""Outside-in span tracing for the benchmark.

The library is not edited to trace it.  Instead the tracer replaces the
public entry points of each ``repro`` layer with timing wrappers, on every
loaded ``repro`` module that binds them — the attribute the caller actually
looks up, since ``from x import f`` copies the binding into the caller's
namespace.  Spans stay in memory (name, start, end, parent id, run id and a
few attributes) until the benchmark writes them out when it ends; nothing
goes through ``repro.obs``'s capped in-memory sink.

A target whose module, class or attribute no longer exists (a later change
renamed it) is recorded in :attr:`Tracer.absent` and skipped, so the run goes
on and reports the layer as absent.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    layer: str
    start: float
    run_id: str
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``module:attr`` or ``module:Class.attr``.

    ``attrs(args, kwargs, result)`` may return a dict of attributes (counts)
    recorded on the span after the call returns.
    """

    path: str
    span: str
    layer: str
    attrs: object = None


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[Span] = []
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # spans
    # ------------------------------------------------------------------ #
    def _open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        record = Span(len(self.spans), parent, name, layer, time.perf_counter(), self.run_id)
        self.spans.append(record)
        self._stack.append(record)
        return record

    def _close(self, record: Span) -> None:
        record.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, layer: str = "bench"):
        record = self._open(name, layer)
        try:
            yield record
        finally:
            self._close(record)

    # ------------------------------------------------------------------ #
    # wrapper installation
    # ------------------------------------------------------------------ #
    def _wrap(self, func, target: Target):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            record = tracer._open(target.span, target.layer)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(record)
            if target.attrs is not None:
                record.attrs.update(target.attrs(args, kwargs, result))
            return result

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, targets) -> None:
        for target in targets:
            module_name, _, qualname = target.path.partition(":")
            try:
                module = importlib.import_module(module_name)
                owner = module
                *outer, attr = qualname.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.absent.append(target.path)
                continue
            if outer:  # a method: patch the class attribute
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self._wrap(raw.__func__, target))
                else:
                    wrapped = self._wrap(raw, target)
                self._set(owner, attr, wrapped)
                continue
            wrapped = self._wrap(raw, target)
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for name, value in list(vars(loaded).items()):
                    if value is raw:
                        self._set(loaded, name, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # analysis
    # ------------------------------------------------------------------ #
    def ancestors(self) -> list[tuple[str, ...]]:
        """Names of every span's ancestors, root first (parallel to spans)."""
        chains: list[tuple[str, ...]] = []
        for record in self.spans:
            if record.parent is None:
                chains.append(())
            else:
                parent = self.spans[record.parent]
                chains.append(chains[record.parent] + (parent.name,))
        return chains

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        covered = [0.0] * len(self.spans)
        for record in self.spans:
            if record.parent is not None:
                covered[record.parent] += record.seconds
        return [record.seconds - c for record, c in zip(self.spans, covered)]

    def self_by_layer(self, root_prefix: str) -> dict[str, float]:
        """Self time per layer, over the spans under roots named ``root_prefix*``."""
        totals: dict[str, float] = defaultdict(float)
        chains = self.ancestors()
        for record, chain, own in zip(self.spans, chains, self.self_seconds()):
            root = chain[0] if chain else record.name
            if root.startswith(root_prefix):
                totals[record.layer] += own
        return dict(totals)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for record in self.spans:
                out.write(
                    json.dumps(
                        {
                            "id": record.id,
                            "parent": record.parent,
                            "name": record.name,
                            "layer": record.layer,
                            "start": record.start,
                            "end": record.end,
                            "run_id": record.run_id,
                            "attrs": record.attrs,
                        }
                    )
                    + "\n"
                )
            out.write(json.dumps({"absent": self.absent}) + "\n")
