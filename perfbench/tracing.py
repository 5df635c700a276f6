"""In-memory span tracing around calls into the ``vtangle`` layers.

A span is opened around one call of a library function.  The census makes
millions of calls, so spans are not kept one by one: they are aggregated
by ``(name, parent)`` into a call count, the total time and the part of
that time covered by child spans, which gives self time.  Counters sit
beside the spans, keyed by name.

Functions are wrapped where their caller looks them up: the wrapper
replaces the attribute of the calling module (``vtangle.census`` looks up
``canonical_code_stats`` in its own namespace, so that is where it is
replaced).  A target that no longer exists is recorded as absent and left
alone, so the benchmark keeps running when a later version of the library
drops or renames a function.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class SpanStats:
    calls: int = 0
    total: float = 0.0
    child: float = 0.0

    @property
    def self_time(self) -> float:
        return self.total - self.child


@dataclass
class Tracer:
    """Aggregated spans and counters for one traced pass."""

    clock: Callable[[], float] = time.perf_counter
    spans: dict[tuple[str, str | None], SpanStats] = field(default_factory=dict)
    counts: Counter = field(default_factory=Counter)
    _stack: list = field(default_factory=list)

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        frame = [name, 0.0]  # name, time covered by child spans
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append(frame)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = self.clock() - start
            self._stack.pop()
            stats = self.spans.setdefault((name, parent), SpanStats())
            stats.calls += 1
            stats.total += elapsed
            stats.child += frame[1]
            if self._stack:
                self._stack[-1][1] += elapsed

    def total(self, name: str) -> float:
        """Inclusive time of every span called ``name``."""
        return sum(s.total for (n, _), s in self.spans.items() if n == name)

    def self_time(self, name: str) -> float:
        return sum(s.self_time for (n, _), s in self.spans.items() if n == name)

    def calls(self, name: str) -> int:
        return sum(s.calls for (n, _), s in self.spans.items() if n == name)

    def self_time_under(self, prefixes: tuple[str, ...]) -> float:
        """Self time summed over every span whose name has one of ``prefixes``."""
        return sum(
            s.self_time for (n, _), s in self.spans.items() if n.startswith(prefixes)
        )

    def dump(self) -> list[dict]:
        return [
            {
                "name": name,
                "parent": parent,
                "calls": s.calls,
                "total_s": s.total,
                "self_s": s.self_time,
            }
            for (name, parent), s in sorted(
                self.spans.items(), key=lambda kv: (kv[0][0], kv[0][1] or "")
            )
        ]


@dataclass(frozen=True)
class Wrap:
    """How to trace one library function.

    ``target`` is ``"module:attribute"``, naming the namespace the caller
    looks the function up in.  ``span`` names the span, or is ``None`` for
    a pure counter.  ``kind`` is ``"call"`` for an ordinary function,
    ``"list"`` for a generator function whose stream is drained inside the
    span, and ``"count_yields"`` for a generator whose items are counted
    under ``span`` without timing it.  ``after(tracer, args, result)``
    updates counters once the call returned.
    """

    target: str
    span: str | None
    kind: str = "call"
    after: Callable | None = None
    span_of: Callable | None = None  # args -> span name, overrides ``span``


def _wrapper(tracer: Tracer, wrap: Wrap, original):
    if wrap.kind == "count_yields":

        @functools.wraps(original)
        def counted(*args, **kwargs):
            for item in original(*args, **kwargs):
                tracer.counts[wrap.span] += 1
                yield item

        return counted

    def run(*args, **kwargs):
        if wrap.kind == "list":
            return list(original(*args, **kwargs))
        return original(*args, **kwargs)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        name = wrap.span_of(args) if wrap.span_of else wrap.span
        result = tracer.call(name, run, *args, **kwargs)
        if wrap.after is not None:
            wrap.after(tracer, args, result)
        return iter(result) if wrap.kind == "list" else result

    return traced


class Installed:
    """Wrappers put in place by :func:`install`; ``restore`` undoes them."""

    def __init__(self):
        self.absent: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def install(tracer: Tracer, wraps: tuple[Wrap, ...]) -> Installed:
    """Replace each target by its traced wrapper; absent ones are listed."""
    done = Installed()
    for wrap in wraps:
        module_name, _, attr = wrap.target.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            done.absent.append(wrap.target)
            continue
        original = getattr(module, attr, None)
        if not callable(original):
            done.absent.append(wrap.target)
            continue
        done._saved.append((module, attr, original))
        setattr(module, attr, _wrapper(tracer, wrap, original))
    return done
