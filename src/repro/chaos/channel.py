"""FaultyChannel: a channel wrapper that injects transport faults.

Wraps any :class:`~repro.channels.base.Channel` and registers under the
scheme ``chaos+<inner>`` (``chaos+tcp``, ``chaos+aio``, ``chaos+loopback``)
so a whole cluster can be pointed at it by URI scheme alone — every proxy,
factory and heartbeat probe then runs through the fault schedule, which
is exactly the coverage a self-healing runtime has to survive.

Faults come from two sources, checked in order:

1. the :class:`~repro.chaos.controller.ChaosController` (scripted,
   time/authority-targeted: "kill node 2 at t=1s", "30% drop for
   500 ms"), when one is attached;
2. the :class:`~repro.chaos.faults.FaultPlan` (seeded random schedule).

Injected failures raise :class:`~repro.errors.FaultInjectedError` (a
:class:`~repro.errors.ChannelError`), so retry policies, circuit breakers
and dead-node bookkeeping treat them exactly like organic failures.
Server-side behaviour is untouched: ``listen`` delegates to the inner
channel, and post-call faults (``recv_drop``, ``disconnect``,
``truncate``) deliberately let the server execute before the client-side
failure — reproducing the lost-response ambiguity that makes distributed
failure handling hard.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Mapping

from repro.channels.base import Channel, RequestHandler, ServerBinding
from repro.errors import FaultInjectedError
from repro.chaos.faults import FaultDecision, FaultKind, FaultPlan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.chaos.controller import ChaosController
    from repro.telemetry import MetricsRegistry


class FaultyChannel(Channel):
    """Delegates to an inner channel, injecting faults per plan/controller.

    Construction with ``FaultPlan()`` (zero rates) is the pass-through
    configuration: calls are forwarded with only a per-call decision
    lookup added — the overhead benchmark holds this under 10% of a bare
    call.
    """

    def __init__(
        self,
        inner: Channel,
        plan: FaultPlan | None = None,
        controller: "ChaosController | None" = None,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        super().__init__(inner.formatter)
        self.inner = inner
        self.scheme = f"chaos+{inner.scheme}"
        self.serves_inline = inner.serves_inline
        self.plan = plan if plan is not None else FaultPlan()
        self.controller = controller
        self._counters = None
        if metrics is not None:
            self._counters = {
                kind: metrics.counter(
                    f"chaos.injected.{kind.value}",
                    f"{kind.value} faults injected",
                )
                for kind in FaultKind
                if kind is not FaultKind.NONE
            }

    # -- server side (unaffected by client-fault injection) ---------------

    def listen(self, authority: str, handler: RequestHandler) -> ServerBinding:
        return self.inner.listen(authority, handler)

    # -- client side -------------------------------------------------------

    def call(
        self,
        authority: str,
        path: str,
        body: bytes,
        headers: Mapping[str, str] | None = None,
    ) -> bytes:
        decision = self._decide(authority)
        kind = decision.kind
        if kind is FaultKind.NONE:
            return self.inner.call(authority, path, body, headers)
        self._count(kind)
        if decision.latency_s > 0:
            time.sleep(decision.latency_s)
        if kind is FaultKind.LATENCY:
            return self.inner.call(authority, path, body, headers)
        if kind is FaultKind.CONNECT_REFUSED:
            raise FaultInjectedError(
                f"chaos: connect to {authority} refused"
            )
        if kind is FaultKind.SEND_DROP:
            raise FaultInjectedError(
                f"chaos: request to {authority}/{path} dropped"
            )
        # Post-call faults: the server executes, the client still fails.
        response = self.inner.call(authority, path, body, headers)
        if kind is FaultKind.TRUNCATE:
            keep = min(max(decision.truncate_to, 0), max(len(response) - 1, 0))
            return response[:keep]
        if kind is FaultKind.RECV_DROP:
            raise FaultInjectedError(
                f"chaos: response from {authority}/{path} dropped"
            )
        raise FaultInjectedError(
            f"chaos: connection to {authority} lost mid-call"
        )

    def _decide(self, authority: str) -> FaultDecision:
        if self.controller is not None:
            scripted = self.controller.decide(authority)
            if scripted is not None:
                return scripted
        return self.plan.draw()

    def _count(self, kind: FaultKind) -> None:
        if self._counters is not None:
            self._counters[kind].inc()

    def close(self) -> None:
        self.inner.close()
