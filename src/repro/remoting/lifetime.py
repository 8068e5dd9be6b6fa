"""Lease-based lifetime management for published objects.

Paper §3.2: "In the new platform object lifetime is managed by the .Net
implementation" — ParC++ needed explicit PO→RTS destruction requests;
ParC# inherits .Net's leasing.  The analog: every implicitly published
object gets a :class:`Lease`; each dispatched call renews it; an expired
lease lets the host unpublish the object.  Well-known services and
explicitly published objects get infinite leases (they are roots).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

from repro.perfmodel.clock import Clock, WallClock

#: Default initial lease, matching .Net remoting's 5-minute default.
DEFAULT_TTL_SECONDS = 300.0


@dataclass
class Lease:
    """Expiry record of one published object path."""

    path: str
    ttl: float
    expires_at: float
    #: A call arrived since the expiry was last settled.
    touched: bool = False

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.ttl)

    def renew(self, now: float) -> None:
        """Push expiry to ``now + ttl`` (never shortens an existing lease)."""
        if not self.is_infinite:
            self.expires_at = max(self.expires_at, now + self.ttl)

    def expired(self, now: float) -> bool:
        return not self.is_infinite and now > self.expires_at


@dataclass
class LeaseManager:
    """Tracks leases for one host; thread-safe."""

    clock: Clock = field(default_factory=WallClock)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        self._leases: dict[str, Lease] = {}

    def register(self, path: str, ttl: float = DEFAULT_TTL_SECONDS) -> Lease:
        """Create (or return the existing) lease for *path*."""
        now = self.clock.now()
        with self._lock:
            lease = self._leases.get(path)
            if lease is None:
                lease = Lease(path=path, ttl=ttl, expires_at=now + ttl)
                self._leases[path] = lease
            return lease

    def renew(self, path: str) -> None:
        """Mark *path*'s lease touched (no lock, no clock read): the next
        :meth:`expired_paths` renews it from its own reading first."""
        lease = self._leases.get(path)
        if lease is not None:
            lease.touched = True

    def drop(self, path: str) -> None:
        with self._lock:
            self._leases.pop(path, None)

    def expired_paths(self) -> list[str]:
        """Paths whose lease has lapsed (sorted for determinism)."""
        now = self.clock.now()
        expired = []
        with self._lock:
            for path, lease in self._leases.items():
                if lease.touched:
                    lease.touched = False
                    lease.renew(now)
                if lease.expired(now):
                    expired.append(path)
        return sorted(expired)

    def lease_of(self, path: str) -> Lease | None:
        with self._lock:
            return self._leases.get(path)

    def __len__(self) -> int:
        with self._lock:
            return len(self._leases)
