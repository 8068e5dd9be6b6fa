"""Same-node router: shm for co-located peers, the wire for everyone else.

``SameNodeChannel`` wraps a socket channel (tcp/aio) and steers each
call by authority.  Negotiation is deliberately trivial — no extra
round trip, no capability headers: a peer that can accept shm has a
handshake socket at :func:`repro.shm.channel.socket_path_for` for its
authority, and only a same-node peer can have one (Unix sockets do not
cross hosts).  One ``stat`` on first contact decides the route; remote
peers keep riding the wrapped channel untouched.

The wrapper presents the *inner* channel's scheme, so it slots into an
existing stack invisibly: the cluster builds ``chaos+samenode+tcp`` and
chaos faults, breaker state and tracing headers all apply to
shm-routed calls exactly as to wire calls.

Fallback is safe by construction: establishment failures raise
:class:`ShmSetupError` strictly before any request bytes move, so those
calls are retried on the wire with no double-execution risk (and the
authority is demoted so the probe is not repeated).  Failures after a
route has proven itself propagate unchanged, like any channel error.
"""

from __future__ import annotations

import threading
from typing import Mapping

from repro.channels.base import Channel, RequestHandler, ServerBinding
from repro.errors import ShmSetupError
from repro.shm.channel import ShmChannel, shm_available


class SameNodeChannel(Channel):
    """Route calls over shm when the authority is provably co-located."""

    def __init__(
        self,
        inner: Channel,
        *,
        shm_channel: ShmChannel | None = None,
        metrics=None,  # type: ignore[no-untyped-def]
    ) -> None:
        super().__init__(inner.formatter)
        self.inner = inner
        self.scheme = inner.scheme
        self.shm = (
            shm_channel
            if shm_channel is not None
            else ShmChannel(formatter=inner.formatter, metrics=metrics)
        )
        self._lock = threading.Lock()
        self._shm_routed: set[str] = set()  # socket seen, shm selected
        self._proven: set[str] = set()  # at least one shm call completed
        self._demoted: set[str] = set()  # shm setup failed; wire forever
        if metrics is None:
            self._shm_calls = self._wire_calls = self._fallbacks = None
        else:
            self._shm_calls = metrics.counter(
                "shm.router.shm_calls", "calls routed over shared memory"
            )
            self._wire_calls = metrics.counter(
                "shm.router.wire_calls", "calls routed over the wire"
            )
            self._fallbacks = metrics.counter(
                "shm.router.fallbacks",
                "shm setup failures retried on the wire",
            )

    def listen(self, authority: str, handler: RequestHandler) -> ServerBinding:
        return self.inner.listen(authority, handler)

    def _route_shm(self, authority: str) -> bool:
        with self._lock:
            if authority in self._demoted:
                return False
            if authority in self._shm_routed:
                return True
        # Unrouted authorities re-probe every call on purpose: a worker's
        # shm listener may come up after its tcp endpoint is already being
        # dialled, and a one-time negative cache would strand it on the
        # wire forever.  The stat is noise next to a socket round trip.
        if shm_available(authority):
            with self._lock:
                self._shm_routed.add(authority)
            return True
        return False

    def _demote(self, authority: str) -> None:
        with self._lock:
            self._demoted.add(authority)
            self._shm_routed.discard(authority)
        if self._fallbacks is not None:
            self._fallbacks.inc()

    def _mark_proven(self, authority: str) -> None:
        if authority not in self._proven:
            with self._lock:
                self._proven.add(authority)

    def call(
        self,
        authority: str,
        path: str,
        body: bytes,
        headers: Mapping[str, str] | None = None,
    ) -> bytes:
        if self._route_shm(authority):
            try:
                response = self.shm.call(authority, path, body, headers=headers)
            except ShmSetupError:
                self._demote(authority)  # nothing was sent; wire retry is safe
            else:
                self._mark_proven(authority)
                if self._shm_calls is not None:
                    self._shm_calls.inc()
                return response
        if self._wire_calls is not None:
            self._wire_calls.inc()
        return self.inner.call(authority, path, body, headers=headers)

    def round_trip(
        self,
        authority: str,
        path: str,
        message: object,
        headers: Mapping[str, str] | None = None,
    ):
        if self._route_shm(authority):
            try:
                result = self.shm.round_trip(authority, path, message, headers)
            except ShmSetupError:
                self._demote(authority)
            else:
                self._mark_proven(authority)
                if self._shm_calls is not None:
                    self._shm_calls.inc()
                self.last_request_bytes = self.shm.last_request_bytes
                return result
        if self._wire_calls is not None:
            self._wire_calls.inc()
        result = self.inner.round_trip(authority, path, message, headers)
        self.last_request_bytes = self.inner.last_request_bytes
        return result

    def close(self) -> None:
        self.shm.close()
        self.inner.close()
