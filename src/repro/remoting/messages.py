"""Wire messages of the remoting protocol.

A remote invocation is two messages: a :class:`CallMessage` (method name +
argument graph) and a :class:`ReturnMessage` (result or error).  Both are
registered serializable types, so they travel through whichever formatter
the channel uses — binary on ``tcp://``, SOAP on ``http://`` — exactly the
.Net channel/formatter split the paper benchmarks.  The binary formatter
writes the call as a positional record of its own (defined with it in
:mod:`repro.serialization.codec`) and the replies on its one object path,
as named fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.serialization import serializable
from repro.serialization.codec import CallMessage  # noqa: F401 - exported


@serializable(name="parc.remoting.ErrorInfo")
@dataclass
class RemoteErrorInfo:
    """Portable description of a server-side exception.

    The exception object itself may not be serializable (and re-raising
    arbitrary decoded exceptions would be an execution vector), so the
    client rethrows a :class:`~repro.errors.RemoteInvocationError` carrying
    this description.
    """

    type_name: str
    message: str
    traceback_text: str = ""

    @classmethod
    def from_exception(cls, exc: BaseException, traceback_text: str = "") -> "RemoteErrorInfo":
        return cls(
            type_name=type(exc).__qualname__,
            message=str(exc),
            traceback_text=traceback_text,
        )


@serializable(name="parc.remoting.Return")
@dataclass
class ReturnMessage:
    """Response to a :class:`CallMessage`: a value or an error, never both."""

    value: Any = None
    error: RemoteErrorInfo | None = None

    @property
    def is_error(self) -> bool:
        return self.error is not None


@serializable(name="parc.remoting.ReturnN")
@dataclass
class ReturnBatch:
    """Aggregated response to an ``invoke_batch``: N results in one frame.

    The reply-side twin of the columnar ``processN`` aggregate: instead of
    N status+payload response frames, the server ships one status frame
    whose body is this message — ``count`` results packed either as a
    contiguous ``array('d')`` column (all-float results, the common
    numeric-kernel case; the binary formatter encodes arrays as a typecode +
    one memcpy) or a plain list with ``None`` at error slots.  Per-call
    failures ride in ``errors`` as ``(index, type_name, message,
    traceback_text)`` tuples so one bad call does not poison its batch.

    Travels inside the ordinary ``ReturnMessage.value`` over the
    STATUS_OK path, so it needs no status byte or header flag of its own.
    """

    count: int = 0
    results: Any = None
    errors: tuple = ()

