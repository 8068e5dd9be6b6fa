"""Distributed trace context: ids, propagation header, sampling.

A :class:`TraceContext` names one span in one trace.  It is created at a
PO call site (or any root operation), carried across the wire in the
``parc-trace`` request header, and re-activated on the server dispatch
path so spans recorded on different nodes share a ``trace_id`` and chain
parent → child through ``span_id`` references.

The module is deliberately dependency-free (no tracer import) so the
remoting and channel layers can use it without cycles.  Activation uses
a :class:`contextvars.ContextVar`, which follows the caller across
``await`` points and — when explicitly copied with
:func:`contextvars.copy_context` — across thread-pool handoffs.
"""

from __future__ import annotations

import contextlib
import contextvars
import random
import threading
from dataclasses import dataclass, replace
from typing import Iterator

#: Request-header key carrying ``trace_id:parent_span_id:sampled`` over
#: every channel (the request codec ships headers verbatim, so tcp, aio,
#: http, loopback, and the chaos wrapper all preserve it).
TRACE_HEADER = "parc-trace"

_ID_BITS = 64


def _new_id() -> str:
    """Random 64-bit hex id (trace and span ids share the format)."""
    return f"{random.getrandbits(_ID_BITS):016x}"


@dataclass(frozen=True)
class TraceContext:
    """One span's identity within a distributed trace."""

    trace_id: str
    span_id: str
    sampled: bool = True

    def child(self) -> "TraceContext":
        """New span in the same trace (sampling decision inherited)."""
        return replace(self, span_id=_new_id())


#: The currently-active span context (what new spans become children of).
current_context: contextvars.ContextVar[TraceContext | None] = (
    contextvars.ContextVar("parc_trace_context", default=None)
)

_sample_lock = threading.Lock()
_sample_rate = 1.0


def set_sample_rate(rate: float) -> None:
    """Fraction of *new root traces* that are recorded (0.0 .. 1.0).

    The decision is made once at the trace root and inherited by every
    child span, local or remote, so a trace is always complete or absent
    — never recorded on one node and missing on another.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError("sample rate must be in [0, 1]")
    global _sample_rate
    with _sample_lock:
        _sample_rate = float(rate)


def get_sample_rate() -> float:
    return _sample_rate


def _sample() -> bool:
    rate = _sample_rate
    if rate >= 1.0:
        return True
    if rate <= 0.0:
        return False
    return random.random() < rate


def new_root() -> TraceContext:
    """Fresh trace with the sampling decision taken now."""
    return TraceContext(
        trace_id=_new_id(), span_id=_new_id(), sampled=_sample()
    )


def child_of(parent: TraceContext | None) -> TraceContext:
    """Child span of *parent*, or a new sampled-or-not root if None."""
    if parent is None:
        return new_root()
    return parent.child()


def to_header(ctx: TraceContext) -> str:
    """Serialize for the ``parc-trace`` request header."""
    return f"{ctx.trace_id}:{ctx.span_id}:{1 if ctx.sampled else 0}"


def from_header(value: str | None) -> TraceContext | None:
    """Parse a ``parc-trace`` header; malformed input yields None."""
    if not value:
        return None
    parts = value.split(":")
    if len(parts) != 3 or not parts[0] or not parts[1]:
        return None
    return TraceContext(
        trace_id=parts[0], span_id=parts[1], sampled=parts[2] != "0"
    )


@contextlib.contextmanager
def activate(ctx: TraceContext | None) -> Iterator[TraceContext | None]:
    """Make *ctx* the current context for the enclosed block."""
    token = current_context.set(ctx)
    try:
        yield ctx
    finally:
        current_context.reset(token)
