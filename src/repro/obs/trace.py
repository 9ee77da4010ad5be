"""Nested wall-clock phase tracing.

:func:`span` is a context manager recording one named phase::

    with obs.span("sim.layer", layer="yolo/C2", mode="duplo"):
        ...

Spans nest: a span opened while another is active becomes its child,
so a run produces a forest of phase trees (one root per top-level
phase).  Each thread keeps its own open-span stack (``threading.local``)
and finished roots are appended to a process-global list under a lock,
which makes recording safe from concurrent threads (the sweep
executor's worker threads record straight into it).

When instrumentation is disabled (:mod:`repro.obs.state`) ``span``
returns a shared singleton whose ``__enter__``/``__exit__`` do
nothing — the hot-path cost is one flag test and one attribute call.

Serialized form (``tree()``)::

    {"spans": [{"name": ..., "attrs": {...}, "start": t0,
                "duration_s": dt, "children": [...]}, ...]}

``start`` is seconds since the process-local ``time.perf_counter``
epoch and is only meaningful for ordering/nesting within one process;
``duration_s`` is the quantity the manifest and perf gate consume.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional

from repro.obs import state

JsonDict = Dict[str, Any]


class Span:
    """One recorded phase: name, attributes, wall-clock, children."""

    __slots__ = ("name", "attrs", "start", "duration_s", "children")

    def __init__(self, name: str, attrs: Optional[JsonDict] = None):
        self.name = name
        self.attrs: JsonDict = attrs or {}
        self.start: float = 0.0
        self.duration_s: float = 0.0
        self.children: List["Span"] = []

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes to an open span (chainable)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self.start = time.perf_counter()
        _stack().append(self)
        return self

    def __exit__(self, *exc: Any) -> bool:
        self.duration_s = time.perf_counter() - self.start
        stack = _stack()
        # Tolerate exits out of order (a span closed from a different
        # thread than it was opened on records as its own root).
        if stack and stack[-1] is self:
            stack.pop()
        if stack:
            stack[-1].children.append(self)
        else:
            with _LOCK:
                _ROOTS.append(self)
        return False

    def as_dict(self) -> JsonDict:
        return {
            "name": self.name,
            "attrs": dict(self.attrs),
            "start": self.start,
            "duration_s": self.duration_s,
            "children": [c.as_dict() for c in self.children],
        }

class _NullSpan:
    """Shared do-nothing span returned while instrumentation is off."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


NULL_SPAN = _NullSpan()

_LOCK = threading.Lock()
_ROOTS: List[Span] = []
_LOCAL = threading.local()


def _stack() -> List[Span]:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = []
        _LOCAL.stack = stack
    return stack


def span(name: str, **attrs: Any):
    """Open a phase span (no-op singleton when disabled)."""
    if not state.enabled():
        return NULL_SPAN
    return Span(name, attrs or None)


def tree() -> JsonDict:
    """The finished span forest, JSON-serializable."""
    with _LOCK:
        roots = list(_ROOTS)
    return {"spans": [r.as_dict() for r in roots]}


def reset() -> None:
    """Drop all finished spans and this thread's open-span stack.

    Clearing the stack too means a span left open across the reset can
    never adopt later spans as its children.
    """
    with _LOCK:
        _ROOTS.clear()
    _LOCAL.stack = []


def phase_timings() -> Dict[str, Dict[str, float]]:
    """Aggregate seconds/call-count per span name over the whole forest.

    The flat view the run manifest embeds: ``{name: {"total_s": ...,
    "count": ...}}``, children included.
    """
    totals: Dict[str, Dict[str, float]] = {}

    def visit(span_: Span) -> None:
        agg = totals.setdefault(span_.name, {"total_s": 0.0, "count": 0})
        agg["total_s"] += span_.duration_s
        agg["count"] += 1
        for child in span_.children:
            visit(child)

    with _LOCK:
        roots = list(_ROOTS)
    for root in roots:
        visit(root)
    for agg in totals.values():
        agg["total_s"] = round(agg["total_s"], 6)
    return totals
