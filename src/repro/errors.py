"""Exception hierarchy for PyParC.

Every subsystem raises exceptions derived from :class:`ParcError` so callers
can catch library failures with a single ``except`` clause.  The hierarchy
mirrors the error surfaces of the systems the paper compares:

* the .Net remoting analog raises :class:`RemotingError` subtypes
  (unchecked, like C# — one of the paper's usability points in Fig. 2);
* the Java RMI analog raises :class:`RemoteException`, which stubs are
  *required* to declare (checked, like Java — the burden shown in Fig. 1);
* the MPI analog raises :class:`MpiError`;
* the SCOOPP core raises :class:`ScooppError` subtypes.
"""

from __future__ import annotations


class ParcError(Exception):
    """Base class for every error raised by this library."""


class SerializationError(ParcError):
    """An object graph could not be encoded or decoded."""


class UnknownTypeError(SerializationError):
    """A value's type is not registered with the serialization registry.

    Mirrors the ``[Serializable]`` requirement of the .Net binary formatter
    (paper Fig. 7): only explicitly registered classes cross the wire.
    """


class WireFormatError(SerializationError):
    """The byte stream on the wire is malformed or truncated."""


class ChannelError(ParcError):
    """A transport channel failed (connect, frame, send, receive)."""


class ChannelClosedError(ChannelError):
    """Operation attempted on a channel that has been shut down."""


class OverloadError(ChannelError):
    """A call was shed because the target is saturated.

    Raised when a bounded IO mailbox (``ParcConfig.mailbox_depth``)
    refuses admission; a remote caller sees it re-raised by its proxy.
    A *typed* fail-fast signal: the node is alive but saturated, so a
    grain's proxy surfaces it without probing or respawning the node
    (that would add load to an overloaded cluster).
    """


class FaultInjectedError(ChannelError):
    """A failure injected on purpose by the chaos layer.

    Distinguishable from organic transport failures so tests can assert
    which faults fired, while still classified like any other
    :class:`ChannelError`.
    """


class AddressError(ChannelError):
    """A remoting URI or endpoint address could not be parsed or resolved."""


class ShmSetupError(ChannelError):
    """A shared-memory handshake or segment attach failed.

    Raised strictly *before* any request bytes were sent, so the call
    never reached a handler and is safe to retry.
    """


class RemotingError(ParcError):
    """Base error of the .Net remoting analog (unchecked, like C#)."""


class UnknownObjectError(RemotingError):
    """A call referenced an object URI not published on the server."""


class ActivationError(RemotingError):
    """A well-known object or factory could not be activated."""


class RemoteInvocationError(RemotingError):
    """The remote method itself raised; carries the remote traceback text."""

    def __init__(self, message: str, remote_traceback: str = "") -> None:
        super().__init__(message)
        self.remote_traceback = remote_traceback


class RemoteException(ParcError):
    """Checked remote failure of the Java RMI analog.

    Java RMI forces every remote method to declare ``throws RemoteException``
    (paper Fig. 1, step 1/4).  The analog enforces the same discipline: a
    remote interface method must declare it raises :class:`RemoteException`
    (see :func:`repro.rmi.interfaces.remote_method`), and every stub call
    site must be prepared for it.
    """

    def __init__(self, message: str, cause: BaseException | None = None) -> None:
        super().__init__(message)
        self.cause = cause


class NotBoundError(RemoteException):
    """Lookup of a name with no binding in the RMI registry."""


class AlreadyBoundError(RemoteException):
    """``bind`` of a name that is already bound (use ``rebind``)."""


class ExportError(RemoteException):
    """An object could not be exported as a remote object."""


class MpiError(ParcError):
    """Base error of the MPI analog."""


class RankError(MpiError):
    """A rank argument is outside the communicator's size."""


class TruncationError(MpiError):
    """A received message is larger than the posted receive buffer."""


class PackError(MpiError):
    """Explicit pack/unpack buffer misuse (overflow, type mismatch)."""


class NioError(ParcError):
    """Base error of the java.nio analog."""


class BufferStateError(NioError):
    """A buffer operation violated position/limit/capacity invariants."""


class ScooppError(ParcError):
    """Base error of the SCOOPP/ParC# core runtime."""


class NotRunningError(ScooppError):
    """The RTS was used before ``init`` or after ``shutdown``."""


class PlacementError(ScooppError):
    """The object manager could not place a new implementation object."""


class PreprocessError(ScooppError):
    """The source-level preprocessor rejected an input module."""


class GrainError(ScooppError):
    """Grain-size adaptation misuse (e.g. flushing a released proxy)."""


class BatchCallError(ScooppError):
    """One or more calls inside a ``call_many`` aggregate failed.

    Carries the full per-call picture so callers can keep the successes:
    ``results`` holds one entry per call (``None`` at failed slots) and
    ``failures`` maps call index → the re-raised exception for that slot.
    """

    def __init__(self, message: str, results: list, failures: dict):
        super().__init__(message)
        self.results = results
        self.failures = failures


class MigrationError(ScooppError):
    """A live grain migration could not be carried out.

    Raised by the node scheduler when the named grain cannot be found,
    the target refuses the adoption, or the state transfer fails; the
    grain keeps serving on its original node (the move aborts cleanly
    before anything has executed elsewhere).
    """


class NodeLostError(ScooppError):
    """The node hosting a grain died and the grain is not restartable.

    Raised by proxy-object calls once the failure detector (or a failed
    call) establishes the hosting node is gone.  Grains declared
    ``@parallel(restartable=True)`` are respawned on a surviving node
    instead and never surface this error.
    """


class SimulationError(ParcError):
    """The discrete-event simulator reached an inconsistent state."""
