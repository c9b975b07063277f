"""Tests for the hierarchical span tracer."""

import io
import json

import pytest

from repro.obs import NullTracer, Tracer
from repro.obs.tracer import Span, render_spans


class TestTracer:
    def test_nesting_records_parentage(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer, inner = tracer.spans[0], tracer.spans[1]
        assert outer.name == "outer" and outer.parent_id is None
        assert inner.name == "inner" and inner.parent_id == outer.span_id

    def test_span_order_is_start_order(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("c"):
                pass
        assert [s.name for s in tracer.spans] == ["a", "b", "c"]

    def test_durations_are_monotonic(self):
        ticks = iter(range(100))
        tracer = Tracer(time_source=lambda: float(next(ticks)))
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer, inner = tracer.spans
        assert outer.duration >= inner.duration
        assert inner.duration >= 0

    def test_attrs_and_annotate(self):
        tracer = Tracer()
        with tracer.span("work", items=3) as span:
            span.annotate(result="done")
        assert tracer.spans[0].attrs == {"items": 3, "result": "done"}

    def test_exception_marks_span_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        span = tracer.spans[0]
        assert span.end is not None
        assert span.attrs["error"] == "ValueError"
        # The stack unwound: a new span is again a root.
        with tracer.span("after"):
            pass
        assert tracer.spans[1].parent_id is None

    def test_jsonl_round_trip(self):
        tracer = Tracer()
        with tracer.span("a", n=1):
            with tracer.span("b"):
                pass
        buffer = io.StringIO()
        tracer.export_jsonl(buffer)
        lines = [json.loads(l) for l in buffer.getvalue().splitlines()]
        assert len(lines) == 2
        rebuilt = [Span.from_dict(d) for d in lines]
        assert [s.name for s in rebuilt] == ["a", "b"]
        assert rebuilt[0].attrs == {"n": 1}
        assert rebuilt[1].parent_id == rebuilt[0].span_id

    def test_root_span_ignores_the_open_stack(self):
        # An async server's tracer is shared by every task on the loop:
        # a request landing while another is awaiting must not inherit
        # that request's span — or its trace id — off the stack.
        from repro.obs.context import IdSource, TraceContext

        tracer = Tracer(ids=IdSource(seed=3))
        with tracer.span("http.verify") as busy:
            with tracer.span("http.healthz", root=True) as interloper:
                pass
        assert interloper.parent_id is None
        assert interloper.parent_ref is None
        assert interloper.trace_id != busy.trace_id
        # An explicit remote parent still wins over rootness.
        ctx = TraceContext(trace_id="ab" * 16, span_id="cd" * 8)
        with tracer.span("outer"):
            with tracer.span("http.verify", ctx=ctx, root=True) as joined:
                pass
        assert joined.parent_id is None
        assert joined.trace_id == ctx.trace_id
        assert joined.parent_ref == ctx.span_id

    def test_eviction_is_amortized_and_keeps_open_spans(self):
        bound = 80
        tracer = Tracer(max_spans=bound)
        rebuilds = 0
        with tracer.span("daemon") as daemon:
            for _ in range(10 * bound):
                before = tracer.spans
                with tracer.span("request"):
                    with tracer.span("batch"):
                        pass
                rebuilds += tracer.spans is not before
                assert len(tracer.spans) <= bound
            assert daemon in tracer.spans  # open, so never evicted
        # Evicting an eighth below the bound rebuilds the list once per
        # bound // 8 new spans, not once per span past the bound.
        assert rebuilds <= 2 * 10 * bound // (bound // 8) + 1
        assert tracer.spans[-1].name == "batch"

    def test_render_collapses_sibling_runs(self):
        tracer = Tracer()
        with tracer.span("run"):
            for _ in range(5):
                with tracer.span("step"):
                    pass
        text = render_spans(tracer.spans)
        assert "step x5" in text
        assert text.count("step") == 1


class TestNullTracer:
    def test_is_disabled_and_records_nothing(self):
        tracer = NullTracer()
        assert not tracer.enabled
        with tracer.span("anything", key="value") as span:
            span.annotate(more="stuff")
        assert tracer.spans == ()

    def test_null_span_is_shared(self):
        tracer = NullTracer()
        with tracer.span("a") as first:
            pass
        with tracer.span("b") as second:
            pass
        assert first is second
