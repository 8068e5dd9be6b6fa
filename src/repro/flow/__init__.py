"""End-to-end flow control: credits and elasticity.

An overloaded node must not simply grow its queues until memory or
latency collapses.  This package supplies the credit window that bounds
work between a caller's PO and the serving IO, plus the controller that
adds capacity when bounding is not enough.  Admission control itself
lives in the IO mailbox (``ParcConfig.mailbox_depth``): a bounded
mailbox rejects a call that would overfill it with
:class:`~repro.errors.OverloadError`.

* :class:`CreditGate` / :class:`CreditGrantor` — credit-based
  backpressure on the wire.  Servers advertise how many requests a peer
  may keep in flight (a u32 piggybacked on response frames, see
  :mod:`repro.channels.framing`); clients stall sends against the gate
  instead of flooding a saturated peer, and fail fast with
  :class:`~repro.errors.OverloadError` when no credit arrives within the
  stall budget.
* :class:`ElasticController` — scale-out/scale-in decisions from
  queue-depth and ``parc.method.seconds`` histogram signals; the
  :class:`~repro.cluster.cluster.Cluster` applies them by spawning or
  retiring worker processes.

Every decision is observable through ``flow.*`` and ``cluster.elastic.*``
metrics and trace instants.
"""

from repro.flow.credit import (
    DEFAULT_STALL_TIMEOUT_S,
    DEFAULT_WINDOW,
    MIN_GRANT,
    CreditGate,
    CreditGrantor,
)
from repro.flow.elastic import ElasticController, ElasticPolicy

__all__ = [
    "CreditGate",
    "CreditGrantor",
    "DEFAULT_STALL_TIMEOUT_S",
    "DEFAULT_WINDOW",
    "MIN_GRANT",
    "ElasticController",
    "ElasticPolicy",
]
