"""Unit tests of the trace/span primitives (``repro.obs.trace``).

The two properties everything else leans on: spans are **free when no
trace is active** (a single contextvar read, yielding ``None``), and a
trace is **bounded** (the span cap keeps a runaway loop from growing an
unbounded tree).
"""

import json
import time

from repro.obs.trace import (
    MAX_SPANS_PER_TRACE,
    TRACE_HEADER,
    current_trace,
    current_trace_id,
    new_trace_id,
    normalize_trace_id,
    record_timed,
    render_trace,
    span,
    trace_context,
)


class TestIds:
    def test_new_trace_id_is_urlsafe_hex(self):
        trace_id = new_trace_id()
        assert len(trace_id) == 32
        assert normalize_trace_id(trace_id) == trace_id

    def test_normalize_accepts_reasonable_inbound_ids(self):
        assert normalize_trace_id("abc123def456") == "abc123def456"
        assert normalize_trace_id("A-Z_09" + "x" * 10) == "A-Z_09" + "x" * 10

    def test_normalize_rejects_garbage(self):
        assert normalize_trace_id(None) is None
        assert normalize_trace_id("") is None
        assert normalize_trace_id("short") is None  # < 8 chars
        assert normalize_trace_id("x" * 129) is None  # > 128 chars
        assert normalize_trace_id("spaces are bad!") is None
        assert normalize_trace_id("inject\r\nheader" + "x" * 10) is None

    def test_header_name_is_stable(self):
        # clients and CI curl this literal name; changing it is a break
        assert TRACE_HEADER == "X-Repro-Trace-Id"


class TestNoActiveTrace:
    def test_span_is_a_noop_without_a_trace(self):
        assert current_trace() is None
        with span("anything", attr=1) as opened:
            assert opened is None
        assert current_trace() is None

    def test_record_timed_is_a_noop_without_a_trace(self):
        record_timed("solver.solve", 0.5)  # must not raise
        assert current_trace_id() is None


class TestTraceContext:
    def test_mints_an_id_when_none_given(self):
        with trace_context() as trace:
            assert trace.trace_id
            assert current_trace_id() == trace.trace_id
        assert current_trace_id() is None

    def test_honours_a_given_id(self):
        with trace_context("e2e-abcdef123456") as trace:
            assert trace.trace_id == "e2e-abcdef123456"

    def test_nested_spans_build_a_tree(self):
        with trace_context() as trace:
            with span("outer", kind="demo"):
                with span("inner"):
                    time.sleep(0.001)
        assert [root.name for root in trace.roots] == ["outer"]
        outer = trace.roots[0]
        assert [child.name for child in outer.children] == ["inner"]
        assert outer.wall_seconds >= outer.children[0].wall_seconds >= 0.001
        assert outer.attrs == {"kind": "demo"}

    def test_trace_is_readable_after_exit(self):
        with trace_context() as trace:
            with span("work"):
                pass
        payload = trace.to_payload()
        assert payload["trace_id"] == trace.trace_id
        assert [item["name"] for item in payload["spans"]] == ["work"]
        json.dumps(payload)  # the payload must be JSON-serialisable

    def test_record_timed_attaches_a_completed_leaf(self):
        with trace_context() as trace:
            with span("parent"):
                record_timed("hook", 0.25, cpu_seconds=0.1, detail="x")
        parent = trace.roots[0]
        assert [child.name for child in parent.children] == ["hook"]
        hook = parent.children[0]
        assert hook.wall_seconds == 0.25
        assert hook.cpu_seconds == 0.1
        assert hook.attrs == {"detail": "x"}
        payload = hook.to_dict()
        assert payload["wall_seconds"] == 0.25 and "in_progress" not in payload
        assert payload["started_at"] <= time.time() - 0.25

    def test_exceptions_still_close_spans(self):
        try:
            with trace_context() as trace:
                with span("failing"):
                    raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert trace.roots[0].wall_seconds is not None  # finished, not open

    def test_span_cap_bounds_the_tree(self):
        with trace_context() as trace:
            for _ in range(MAX_SPANS_PER_TRACE + 50):
                with span("tick"):
                    pass
        assert trace.span_count == MAX_SPANS_PER_TRACE
        assert trace.dropped_spans == 50
        assert trace.to_payload()["dropped_spans"] == 50

    def test_contexts_do_not_leak_across_nesting(self):
        with trace_context("outer-trace-id-1") as outer:
            with trace_context("inner-trace-id-2") as inner:
                assert current_trace_id() == "inner-trace-id-2"
                with span("inner-work"):
                    pass
            assert current_trace_id() == "outer-trace-id-1"
        assert [root.name for root in inner.roots] == ["inner-work"]
        assert outer.roots == []


class TestRenderTrace:
    def _doc(self):
        with trace_context("render-trace-42") as trace:
            with span("http.request", method="POST"):
                record_timed("http.read", 0.001)
        return {
            "digest": "d" * 64,
            "trace_id": trace.trace_id,
            "state": "done",
            "sources": {"frontend": trace.to_payload()},
        }

    def test_renders_a_flame_style_tree(self):
        text = render_trace(self._doc())
        assert "render-trace-42" in text
        assert "frontend" in text
        assert "http.request" in text
        assert "method=POST" in text
        # the child is indented under its parent
        lines = text.splitlines()
        parent = next(line for line in lines if "http.request" in line)
        child = next(line for line in lines if "http.read" in line)
        assert len(child) - len(child.lstrip()) > len(parent) - len(parent.lstrip())

    def test_renders_empty_sources_gracefully(self):
        text = render_trace(
            {"digest": "d" * 64, "trace_id": None, "state": "queued", "sources": {}}
        )
        assert "no spans recorded" in text
