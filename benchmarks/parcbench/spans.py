"""Spans recorded from outside the runtime, around public calls.

This PR adds no tracing inside ``src/``: every span here is opened by
benchmark code at a layer boundary it can reach through public API —
the PO call (``op``), the channel's ``round_trip`` (``client.round_trip``)
and the request handler a host hands to ``Channel.listen``
(``server.handler``).  The user method stamps its own execution time
(:data:`objects.user_stamps`).  All four share ``perf_counter_ns`` of one
process, so the traced rungs run in-process.

Spans are kept in memory and written as Chrome-trace JSON when the run
ends (choosing-metrics §4).
"""

from __future__ import annotations

import json
import threading
import time
from typing import Mapping

from repro.channels.base import Channel, RequestHandler, ServerBinding

#: Parent of each span name: the nesting the trace file shows.
PARENT = {
    "op": None,
    "client.round_trip": "op",
    "server.handler": "client.round_trip",
    "user.method": "server.handler",
}


class SpanRecorder:
    """In-memory span store for a closed loop with one caller.

    ``op`` is the id of the operation in flight, set by :meth:`begin_op`;
    spans that close while it is ``None`` (cluster housekeeping between
    measured calls) are dropped.  One caller means at most one operation
    is in flight, so a server-side span belongs to the current ``op``.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.op: int | None = None
        #: Host slow-down factor in force while each op ran
        #: (``measure.HostProbe``), set by whoever times the ops.
        self.host: dict[int, float] = {}
        self._ops = 0

    def begin_op(self) -> int:
        self._ops += 1
        self.op = self._ops
        return self.op

    def end_op(self, start_ns: int, end_ns: int) -> None:
        self.add("op", start_ns, end_ns)
        self.op = None

    def add(self, name: str, start_ns: int, end_ns: int) -> None:
        op = self.op
        if op is not None:
            self.spans.append(
                (name, start_ns, end_ns, op, threading.get_ident())
            )

    def durations_by_op(self) -> dict[int, dict[str, int]]:
        """``{op: {span_name: duration_ns}}``; a repeated name keeps the
        first span (one op makes one round trip in the traced rungs)."""
        table: dict[int, dict[str, int]] = {}
        for name, start, end, op, _thread in self.spans:
            table.setdefault(op, {}).setdefault(name, end - start)
        return table



def write_chrome_trace(path: str, recorders: Mapping[str, SpanRecorder]) -> None:
    """Write *recorders* to *path* as one Chrome-trace document.

    Each recorder is a process lane named by its key, each thread that
    recorded into it a thread lane; ``args`` carry the op id and the
    parent span's name.
    """
    events: list[dict] = []
    for pid, (label, recorder) in enumerate(recorders.items(), start=1):
        events.append(
            {"name": "process_name", "ph": "M", "pid": pid,
             "args": {"name": label}}
        )
        lanes: dict[int, int] = {}
        for name, start, end, op, thread in recorder.spans:
            events.append(
                {
                    "name": name,
                    "cat": label,
                    "ph": "X",
                    "ts": start / 1000.0,
                    "dur": (end - start) / 1000.0,
                    "pid": pid,
                    "tid": lanes.setdefault(thread, len(lanes) + 1),
                    "args": {"op": op, "parent": PARENT[name]},
                }
            )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ns"}, handle)


class SpanChannel(Channel):
    """A channel that times ``round_trip`` and the served handler.

    Wraps a real transport without changing its scheme, so URIs, the
    formatter and the zero-copy fast path are the wrapped channel's own;
    the cost added per call is two clock reads and one list append on
    each side.
    """

    def __init__(self, inner: Channel, recorder: SpanRecorder) -> None:
        super().__init__(inner.formatter)
        self.inner = inner
        self.scheme = inner.scheme
        self.recorder = recorder

    @property
    def last_request_bytes(self) -> int:  # type: ignore[override]
        return self.inner.last_request_bytes

    def listen(self, authority: str, handler: RequestHandler) -> ServerBinding:
        recorder = self.recorder

        def timed_handler(path, body, headers):  # type: ignore[no-untyped-def]
            start = time.perf_counter_ns()
            try:
                return handler(path, body, headers)
            finally:
                recorder.add("server.handler", start, time.perf_counter_ns())

        # Bindings read the flow-control grantor off the handler.
        grantor = getattr(handler, "credit_grantor", None)
        if grantor is not None:
            timed_handler.credit_grantor = grantor  # type: ignore[attr-defined]
        return self.inner.listen(authority, timed_handler)

    def call(self, authority, path, body, headers=None):  # type: ignore[no-untyped-def]
        return self.inner.call(authority, path, body, headers=headers)

    def round_trip(self, authority, path, message, headers=None):  # type: ignore[no-untyped-def]
        start = time.perf_counter_ns()
        try:
            return self.inner.round_trip(
                authority, path, message, headers=headers
            )
        finally:
            self.recorder.add(
                "client.round_trip", start, time.perf_counter_ns()
            )

    def close(self) -> None:
        self.inner.close()
