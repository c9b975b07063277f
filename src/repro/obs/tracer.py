"""Hierarchical tracing spans for the compile/execute pipeline.

A :class:`Tracer` hands out context-manager *spans*: named, monotonic-clock
timed intervals that nest (a span opened while another is active becomes
its child). The finished spans form a tree — one ``compile`` span with
``translate``/``apply``/``excise`` children, one ``engine.run`` span with a
``engine.step`` child per scheduler decision — exportable as JSONL and
renderable as an indented tree with per-phase timings.

The default everywhere is :class:`NullTracer`: its :meth:`~NullTracer.span`
returns a shared no-op context manager, so instrumented code pays one
attribute lookup and one call per hook when tracing is off (benchmarked
against a 3% budget in ``benchmarks/bench_observability.py``).

**Distributed mode.** A tracer constructed with an
:class:`~repro.obs.context.IdSource` additionally stamps every span with
globally-meaningful identity: a 128-bit ``trace_id`` (inherited from the
parent span, adopted from an explicit remote :class:`~repro.obs.context.
TraceContext`, or freshly minted for a root), a 64-bit ``ref`` naming
the span across processes, and a ``parent_ref`` pointing at its parent —
local or remote. Those three fields are what
:mod:`repro.obs.distributed` reassembles a cross-process tree from; the
local integer ``span_id``/``parent_id`` pair stays exactly as before, so
single-process traces and their JSONL format are unchanged.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, TextIO

from .context import IdSource, TraceContext

__all__ = ["Span", "Tracer", "NullTracer", "render_spans"]


@dataclass
class Span:
    """One timed, named interval in the trace tree."""

    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float | None = None
    attrs: dict[str, Any] = field(default_factory=dict)
    # Distributed identity (set only by a tracer with an IdSource):
    trace_id: str | None = None
    ref: str | None = None          # this span's cross-process id
    parent_ref: str | None = None   # parent's ref — local or remote

    @property
    def duration(self) -> float:
        """Seconds from start to end (0 while the span is still open)."""
        return 0.0 if self.end is None else self.end - self.start

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes after the span was opened."""
        self.attrs.update(attrs)

    @property
    def context(self) -> TraceContext | None:
        """This span as a propagable context (None without distributed ids)."""
        if self.trace_id is None or self.ref is None:
            return None
        return TraceContext(trace_id=self.trace_id, span_id=self.ref)

    def to_dict(self) -> dict[str, Any]:
        data = {
            "kind": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
        }
        # Emitted only in distributed mode: plain traces stay byte-stable.
        if self.trace_id is not None:
            data["trace_id"] = self.trace_id
        if self.ref is not None:
            data["ref"] = self.ref
        if self.parent_ref is not None:
            data["parent_ref"] = self.parent_ref
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Span":
        return cls(
            span_id=data["id"],
            parent_id=data["parent"],
            name=data["name"],
            start=data["start"],
            end=data["end"],
            attrs=dict(data.get("attrs") or {}),
            trace_id=data.get("trace_id"),
            ref=data.get("ref"),
            parent_ref=data.get("parent_ref"),
        )


class _ActiveSpan:
    """The context manager yielded by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._finish(self.span, exc)
        return False

    def annotate(self, **attrs: Any) -> None:
        self.span.annotate(**attrs)


class _NullSpan:
    """Shared do-nothing span: the hot-path cost of disabled tracing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def annotate(self, **attrs: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects a tree of timed spans.

    >>> tracer = Tracer(time_source=iter(range(100)).__next__)
    >>> with tracer.span("compile"):
    ...     with tracer.span("apply"):
    ...         pass
    >>> [(s.name, s.parent_id) for s in tracer.spans]
    [('compile', None), ('apply', 0)]
    """

    enabled = True

    def __init__(self, time_source: Callable[[], float] = time.perf_counter,
                 *, ids: IdSource | None = None, segment: str = "local",
                 max_spans: int | None = None):
        self._time = time_source
        self._stack: list[Span] = []
        self.spans: list[Span] = []  # in start order; finished spans have `end`
        self._next_id = 0
        self.ids = ids
        self.segment = segment
        self.max_spans = max_spans

    def span(self, name: str, *, ctx: TraceContext | None = None,
             root: bool = False, **attrs: Any) -> _ActiveSpan:
        """Open a child span of the currently-active span.

        ``ctx`` — a remote parent (e.g. parsed off an ``X-Repro-Trace``
        header) — overrides the local stack for the span's *distributed*
        parentage; the local parent/child ids are recorded regardless.
        Only meaningful on a tracer holding an :class:`IdSource`.

        ``root=True`` ignores the local stack entirely: the span is a
        top-level request boundary (parented only by ``ctx``, if any).
        The async servers need this — their tracer is shared by every
        task on the event loop, so an unrelated request landing while
        another is awaiting would otherwise inherit that request's span
        (and its trace id) off the stack.
        """
        parent_span = (None if root
                       else self._stack[-1] if self._stack else None)
        parent = parent_span.span_id if parent_span is not None else None
        span = Span(
            span_id=self._next_id,
            parent_id=parent,
            name=name,
            start=self._time(),
            attrs=attrs,
        )
        if self.ids is not None:
            if ctx is not None:
                span.trace_id = ctx.trace_id
                span.parent_ref = ctx.span_id
            elif parent_span is not None and parent_span.trace_id is not None:
                span.trace_id = parent_span.trace_id
                span.parent_ref = parent_span.ref
            else:
                span.trace_id = self.ids.trace_id()
            span.ref = self.ids.span_id()
        self._next_id += 1
        self.spans.append(span)
        self._stack.append(span)
        if self.max_spans is not None and len(self.spans) > self.max_spans:
            self._evict()
        return _ActiveSpan(self, span)

    def _evict(self) -> None:
        """Drop the oldest *finished* spans to an eighth below the bound.

        Open spans are kept no matter how old: they are still on the
        stack and their ``end`` is pending. A long-running daemon with
        ``max_spans`` set therefore holds a sliding window of recent
        request trees instead of growing without bound. Eviction goes an
        eighth below the bound (to the bound itself when it is under 8),
        so the next ``max_spans // 8`` spans append without rebuilding
        the list: O(1) amortized per span instead of O(max_spans) each.
        """
        excess = len(self.spans) - (self.max_spans - self.max_spans // 8)
        if excess <= 0:
            return
        keep: list[Span] = []
        dropped = 0
        for span in self.spans:
            if dropped < excess and span.end is not None:
                dropped += 1
                continue
            keep.append(span)
        self.spans = keep

    def spans_for(self, trace_id: str) -> list[Span]:
        """Every retained span stamped with ``trace_id``, in start order."""
        return [s for s in self.spans if s.trace_id == trace_id]

    def trace_ids(self) -> list[str]:
        """Distinct trace ids among retained spans, oldest first."""
        seen: dict[str, None] = {}
        for span in self.spans:
            if span.trace_id is not None:
                seen.setdefault(span.trace_id, None)
        return list(seen)

    def _finish(self, span: Span, exc: BaseException | None) -> None:
        span.end = self._time()
        if exc is not None:
            span.attrs.setdefault("error", type(exc).__name__)
        # Unwind past abandoned children (an exception may skip __exit__
        # ordering when spans are closed out of band).
        while self._stack and self._stack[-1] is not span:
            self._stack.pop()
        if self._stack:
            self._stack.pop()

    def to_dicts(self) -> list[dict[str, Any]]:
        return [span.to_dict() for span in self.spans]

    def export_jsonl(self, fp: TextIO) -> None:
        """Write one JSON object per span, in start order."""
        for span in self.spans:
            fp.write(json.dumps(span.to_dict(), default=repr))
            fp.write("\n")

    def render(self) -> str:
        """The span tree with per-phase timings (see :func:`render_spans`)."""
        return render_spans(self.spans)


class NullTracer:
    """The disabled tracer: every hook is a no-op.

    ``span`` returns a shared context manager, so instrumented code runs
    with near-zero overhead when observability is off.
    """

    enabled = False
    spans: tuple[Span, ...] = ()
    ids = None
    segment = "local"

    def span(self, name: str, *, ctx: TraceContext | None = None,
             root: bool = False, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def spans_for(self, trace_id: str) -> list[Span]:
        return []

    def trace_ids(self) -> list[str]:
        return []

    def to_dicts(self) -> list[dict[str, Any]]:
        return []

    def export_jsonl(self, fp: TextIO) -> None:
        pass

    def render(self) -> str:
        return ""


def _format_duration(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.1f}us"


def render_spans(spans: list[Span] | tuple[Span, ...]) -> str:
    """Render spans as an indented tree with durations and attributes.

    Repeated runs of sibling spans with the same name (e.g. hundreds of
    ``engine.step`` spans) are collapsed into one line with a count and the
    summed duration, keeping the output readable for long executions.
    """
    children: dict[int | None, list[Span]] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)

    lines: list[str] = []

    def visit(parent: int | None, depth: int) -> None:
        group = children.get(parent, [])
        index = 0
        while index < len(group):
            span = group[index]
            run = [span]
            while (
                index + len(run) < len(group)
                and group[index + len(run)].name == span.name
            ):
                run.append(group[index + len(run)])
            indent = "  " * depth
            if len(run) > 1:
                total = sum(s.duration for s in run)
                lines.append(
                    f"{indent}{span.name} x{len(run)}"
                    f"  [{_format_duration(total)} total]"
                )
            else:
                attrs = "".join(
                    f" {key}={value!r}" for key, value in span.attrs.items()
                )
                lines.append(
                    f"{indent}{span.name}  [{_format_duration(span.duration)}]{attrs}"
                )
                visit(span.span_id, depth + 1)
            index += len(run)

    visit(None, 0)
    return "\n".join(lines)
