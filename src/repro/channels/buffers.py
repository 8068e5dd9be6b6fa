"""Reusable byte buffers for the wire fast path.

Encoding every request into a fresh ``bytes`` object would make the
allocator churn dominate small-message latency at high call rates.  A
:class:`BufferPool` hands out ``bytearray``\\ s that are reused
across calls: encoders append into them (``dumps_into``), the socket layer
sends straight from them, and the pool reclaims them afterwards.

Safety rules, enforced here rather than by convention:

* a released buffer is cleared before reuse — no stale request bytes can
  leak into the next payload;
* a buffer with live ``memoryview`` exports cannot be cleared (CPython
  raises ``BufferError``); :meth:`BufferPool.release` treats that as "the
  caller still holds a view" and simply drops the buffer instead of
  corrupting it under the view;
* oversized buffers (a rare huge payload) are dropped on release so the
  pool's steady-state memory stays bounded.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Iterator

#: Buffers that grew beyond this are not retained (bytes).
DEFAULT_MAX_BUFFER = 4 * 1024 * 1024

#: Retained buffers per pool.
DEFAULT_MAX_BUFFERS = 16


class BufferPool:
    """A small thread-safe free list of reusable ``bytearray`` buffers."""

    __slots__ = ("_lock", "_buffers", "max_buffers", "max_buffer_size")

    def __init__(
        self,
        max_buffers: int = DEFAULT_MAX_BUFFERS,
        max_buffer_size: int = DEFAULT_MAX_BUFFER,
    ) -> None:
        self._lock = threading.Lock()
        self._buffers: list[bytearray] = []
        self.max_buffers = max_buffers
        self.max_buffer_size = max_buffer_size

    def acquire(self) -> bytearray:
        """Take an empty buffer from the pool (or allocate a fresh one)."""
        with self._lock:
            if self._buffers:
                return self._buffers.pop()
        return bytearray()

    def release(self, buf: bytearray) -> None:
        """Return *buf* to the pool.

        Buffers that still have live ``memoryview`` exports, grew beyond
        ``max_buffer_size``, or exceed the pool's capacity are dropped.
        """
        if len(buf) > self.max_buffer_size:
            return
        try:
            buf.clear()
        except BufferError:
            return  # caller still holds a view into it; let the GC have it
        with self._lock:
            if len(self._buffers) < self.max_buffers:
                self._buffers.append(buf)

    @contextlib.contextmanager
    def borrow(self) -> Iterator[bytearray]:
        """``with pool.borrow() as buf:`` — acquire/release scope helper."""
        buf = self.acquire()
        try:
            yield buf
        finally:
            self.release(buf)

    def __len__(self) -> int:
        with self._lock:
            return len(self._buffers)
