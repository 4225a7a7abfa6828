"""Trace/span primitives for the serving pipeline.

A **trace** follows one request across processes: minted (or accepted via
the ``X-Repro-Trace-Id`` header) at HTTP ingress, stamped on the durable
job row, picked up by whichever worker claims the job, and finally merged
back into one tree by ``GET /v1/trace/{digest}``.  A **span** is one timed
stage inside a process: a named node capturing monotonic wall time
(``time.perf_counter``) and CPU time (``time.process_time``), nesting
through a contextvar so the structure mirrors the call structure — and
survives ``await`` boundaries, which a ``threading.local`` would not.

Usage::

    with trace_context() as trace:          # activates a trace
        with span("http.request", method="POST"):
            with span("http.parse"):
                ...
        payload = trace.to_payload()        # JSON-safe span tree

Two properties the serving layer depends on:

* **Inactive tracing is free.**  ``span(...)`` and ``record_timed(...)``
  with no active trace are a single contextvar read; the solver-substrate
  hooks next to ``collect_solver_stats`` cost nothing on the library path.
* **Bounded traces.**  A trace records at most
  :data:`MAX_SPANS_PER_TRACE` spans (a pathological solve cannot balloon
  the sidecar row); overflow is counted in ``dropped_spans``, never
  silently lost.

Trace ids and span payloads must never feed ``config_digest`` or result
envelopes — they ride headers, the ``jobs.trace_id`` column and the
``trace_spans`` sidecar table only.
"""

from __future__ import annotations

import contextvars
import os
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

#: The HTTP header a trace id rides on — echoed on every response and
#: accepted inbound so external callers can stitch our trace into theirs.
TRACE_HEADER = "X-Repro-Trace-Id"

#: Spans recorded per trace before overflow counting starts.
MAX_SPANS_PER_TRACE = 1000

#: Characters accepted in an inbound trace id (anything else is replaced
#: by a freshly minted id rather than rejected — tracing never 400s).
_ID_CHARS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_")


def new_trace_id() -> str:
    """A fresh 32-hex-char trace id (128 random bits)."""
    # os.urandom directly: uuid4() wraps the same bytes in a UUID object,
    # which costs several times more on every minted trace
    return os.urandom(16).hex()


def normalize_trace_id(value: Optional[str]) -> Optional[str]:
    """A usable trace id from an inbound header value, or ``None``.

    Accepts 8–128 chars of ``[A-Za-z0-9_-]`` (covers W3C-style hex ids and
    uuids with dashes); anything else — too short, too long, control
    characters — is treated as absent so the caller mints a fresh id.
    """
    if not isinstance(value, str):
        return None
    candidate = value.strip()
    if not (8 <= len(candidate) <= 128):
        return None
    if not all(ch in _ID_CHARS for ch in candidate):
        return None
    return candidate


class Span:
    """One timed, attributed, nestable stage of a trace."""

    __slots__ = (
        "name",
        "attrs",
        "started_at",
        "wall_seconds",
        "cpu_seconds",
        "children",
        "_wall0",
        "_cpu0",
        "_open",
    )

    def __init__(self, name: str, attrs: Dict[str, Any]) -> None:
        self.name = str(name)
        self.attrs = attrs
        self.started_at = time.time()  # epoch: aligns spans across processes
        self.wall_seconds = 0.0
        self.cpu_seconds = 0.0
        self.children: List["Span"] = []
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        self._open = True

    def finish(self) -> None:
        self.wall_seconds = time.perf_counter() - self._wall0
        self.cpu_seconds = time.process_time() - self._cpu0
        self._open = False

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form; an open span reports its elapsed time so far."""
        wall = self.wall_seconds
        cpu = self.cpu_seconds
        if self._open:
            wall = time.perf_counter() - self._wall0
            cpu = time.process_time() - self._cpu0
        payload: Dict[str, Any] = {
            "name": self.name,
            "started_at": self.started_at,
            "wall_seconds": wall,
            "cpu_seconds": cpu,
        }
        if self.attrs:
            payload["attrs"] = dict(self.attrs)
        if self._open:
            payload["in_progress"] = True
        if self.children:
            payload["children"] = [child.to_dict() for child in self.children]
        return payload


class Trace:
    """The per-context span collector: one tree per traced request."""

    __slots__ = ("trace_id", "roots", "_stack", "span_count", "dropped_spans")

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.roots: List[Span] = []
        self._stack: List[Span] = []
        self.span_count = 0
        self.dropped_spans = 0

    def _admit(self) -> bool:
        if self.span_count >= MAX_SPANS_PER_TRACE:
            self.dropped_spans += 1
            return False
        self.span_count += 1
        return True

    def open_span(self, name: str, attrs: Dict[str, Any]) -> Optional[Span]:
        if not self._admit():
            return None
        node = Span(name, attrs)
        parent = self._stack[-1] if self._stack else None
        (parent.children if parent is not None else self.roots).append(node)
        self._stack.append(node)
        return node

    def close_span(self, node: Span) -> None:
        node.finish()
        # tolerate exits out of order (a generator finalized late): pop to
        # the closed node rather than corrupting the stack
        while self._stack:
            top = self._stack.pop()
            if top is node:
                break

    def add_completed(
        self, name: str, wall_seconds: float, cpu_seconds: float, attrs: Dict[str, Any]
    ) -> None:
        """Attach an already-measured stage as a leaf of the open span."""
        # _admit inlined: this runs about three times per traced LP
        if self.span_count >= MAX_SPANS_PER_TRACE:
            self.dropped_spans += 1
            return
        self.span_count += 1
        # Built without Span.__init__, whose three clock reads would only be
        # overwritten, and without coercions: every caller hands in a str
        # name and perf_counter float durations.  The solver substrate
        # records about three of these per LP, so their cost is a visible
        # share of a traced solve.
        node = Span.__new__(Span)
        node.name = name
        node.attrs = attrs
        node.wall_seconds = wall_seconds
        node.cpu_seconds = cpu_seconds
        node.started_at = time.time() - (wall_seconds if wall_seconds > 0 else 0.0)
        node.children = []
        node._open = False
        stack = self._stack
        (stack[-1].children if stack else self.roots).append(node)

    def to_payload(self) -> Dict[str, Any]:
        """The JSON-safe cross-process slice of this trace (one source)."""
        return {
            "trace_id": self.trace_id,
            "pid": os.getpid(),
            "spans": [node.to_dict() for node in self.roots],
            "dropped_spans": self.dropped_spans,
        }


_ACTIVE: contextvars.ContextVar[Optional[Trace]] = contextvars.ContextVar(
    "repro_active_trace", default=None
)


def current_trace() -> Optional[Trace]:
    """The trace active in this context, if any."""
    return _ACTIVE.get()


def current_trace_id() -> Optional[str]:
    """The id of the active trace, if any (log correlation reads this)."""
    trace = _ACTIVE.get()
    return trace.trace_id if trace is not None else None


class trace_context:
    """Activate a trace for the enclosed block (nesting replaces, scoped).

    ``trace_id=None`` mints a fresh id; the HTTP ingress passes the
    normalized inbound header, workers pass the id stored on the job row.
    The trace object stays readable (``to_payload``) after the block ends,
    which is how callers persist it.

    A plain class rather than a ``@contextmanager`` generator: one of
    these wraps every served job, and the generator protocol costs about
    twice as much per block.
    """

    __slots__ = ("trace", "_token")

    def __init__(self, trace_id: Optional[str] = None) -> None:
        self.trace = Trace(trace_id or new_trace_id())
        self._token: Optional[contextvars.Token] = None

    def __enter__(self) -> Trace:
        self._token = _ACTIVE.set(self.trace)
        return self.trace

    def __exit__(self, *exc_info: Any) -> None:
        _ACTIVE.reset(self._token)


@contextmanager
def span(name: str, **attrs: Any) -> Iterator[Optional[Span]]:
    """Time the enclosed block as a span of the active trace.

    With no active trace this is a no-op costing one contextvar read —
    safe to leave in library code unconditionally.
    """
    trace = _ACTIVE.get()
    if trace is None:
        yield None
        return
    node = trace.open_span(name, attrs)
    if node is None:  # over the span budget: time nothing, drop quietly
        yield None
        return
    try:
        yield node
    finally:
        trace.close_span(node)


def record_timed(
    name: str, wall_seconds: float, cpu_seconds: float = 0.0, **attrs: Any
) -> None:
    """Attach an externally measured stage to the active trace (hook form).

    The solver-substrate reporters (``record_solve``/``record_build``…)
    already hold measured durations; this lets them contribute spans
    without restructuring their call sites.  No active trace: no-op.
    """
    trace = _ACTIVE.get()
    if trace is None:
        return
    trace.add_completed(name, wall_seconds, cpu_seconds, attrs)


# --------------------------------------------------------------------- #
# Rendering (the `repro.cli trace` flame-style tree)
# --------------------------------------------------------------------- #
def _format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:7.3f}s "
    return f"{seconds * 1000.0:7.2f}ms"


def _render_span(
    node: Dict[str, Any], scale: float, indent: int, lines: List[str]
) -> None:
    wall = float(node.get("wall_seconds", 0.0))
    cpu = float(node.get("cpu_seconds", 0.0))
    bar = "▇" * max(1, int(round((wall / scale) * 24))) if scale > 0 else "▏"
    attrs = node.get("attrs") or {}
    suffix = "".join(f" {key}={value}" for key, value in sorted(attrs.items()))
    if node.get("in_progress"):
        suffix += " [in progress]"
    lines.append(
        f"{'  ' * indent}{node.get('name', '?'):<{max(4, 36 - 2 * indent)}} "
        f"{_format_seconds(wall)} wall {_format_seconds(cpu)} cpu  {bar}{suffix}"
    )
    for child in node.get("children", []):
        _render_span(child, scale, indent + 1, lines)


def render_trace(doc: Dict[str, Any]) -> str:
    """The flame-style text tree of a ``GET /v1/trace/{digest}`` document.

    Bars are scaled per source against that source's longest root span, so
    a microsecond front-end trace and a multi-second worker trace are each
    readable on their own scale.
    """
    lines = [
        f"trace {doc.get('trace_id') or '(none)'} · digest {doc.get('digest', '?')}"
        f" · state {doc.get('state', '?')}"
    ]
    sources = doc.get("sources") or {}
    for source in sorted(sources):
        payload = sources[source] or {}
        spans = payload.get("spans") or []
        pid = payload.get("pid")
        dropped = int(payload.get("dropped_spans", 0) or 0)
        header = f"{source}" + (f" (pid {pid})" if pid is not None else "")
        if dropped:
            header += f" [{dropped} span(s) dropped]"
        lines.append(header)
        scale = max((float(node.get("wall_seconds", 0.0)) for node in spans), default=0.0)
        for node in spans:
            _render_span(node, scale, 1, lines)
        if not spans:
            lines.append("  (no spans recorded)")
    if not sources:
        lines.append("(no spans recorded yet)")
    return "\n".join(lines)


__all__ = [
    "MAX_SPANS_PER_TRACE",
    "Span",
    "TRACE_HEADER",
    "Trace",
    "current_trace",
    "current_trace_id",
    "new_trace_id",
    "normalize_trace_id",
    "record_timed",
    "render_trace",
    "span",
    "trace_context",
]
