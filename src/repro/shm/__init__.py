"""Shared-memory channel transport.

The ``shm`` channel scheme moves the existing frame format through SPSC
ring buffers in ``multiprocessing.shared_memory`` instead of sockets —
same payload codec, same wrapper composition
(``channels.create("chaos+shm")``), no wire.  A cluster uses it when
its channel kind is ``"shm"`` (or a wrapped ``"chaos+shm"``).

Layers:

* :mod:`repro.shm.ring` — segment layout and the SPSC ring halves;
* :mod:`repro.shm.doorbell` — eventfd/pipe wakeups for the park side of
  the busy/park hybrid wait;
* :mod:`repro.shm.channel` — the :class:`ShmChannel` transport.
"""

from repro.shm.channel import (
    DEFAULT_SPIN,
    ShmChannel,
    shm_socket_dir,
    socket_path_for,
)
from repro.shm.doorbell import Doorbell
from repro.shm.ring import (
    DEFAULT_RING_SIZE,
    RingReader,
    RingWriter,
    client_rings,
    init_segment,
    read_segment_header,
    segment_size,
    server_rings,
)

__all__ = [
    "DEFAULT_RING_SIZE",
    "DEFAULT_SPIN",
    "Doorbell",
    "RingReader",
    "RingWriter",
    "ShmChannel",
    "client_rings",
    "init_segment",
    "read_segment_header",
    "segment_size",
    "server_rings",
    "shm_socket_dir",
    "socket_path_for",
]
