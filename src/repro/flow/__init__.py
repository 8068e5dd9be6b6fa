"""End-to-end flow control: elasticity.

An overloaded node must not simply grow its queues until memory or
latency collapses.  Admission control lives in the IO mailbox
(``ParcConfig.mailbox_depth``): a bounded mailbox rejects a call that
would overfill it with :class:`~repro.errors.OverloadError`.  The wire
itself carries no flow control, as the paper's remoting channels carry
none; the calls in flight are bounded by the callers, since each
process's send runs share an executor capped by cores
(:mod:`repro.executor`).  This package supplies the controller that adds
capacity when bounding is not enough:

* :class:`ElasticController` — scale-out/scale-in decisions from
  queue-depth and ``parc.method.seconds`` histogram signals; the
  :class:`~repro.cluster.cluster.Cluster` applies them by spawning or
  retiring worker processes.

Shedding is counted by ``flow.shed``; every scaling decision is
observable through ``cluster.elastic.*`` metrics and trace instants.
"""

from repro.flow.elastic import ElasticController, ElasticPolicy

__all__ = [
    "ElasticController",
    "ElasticPolicy",
]
