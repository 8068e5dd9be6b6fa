"""World, communicators, the SPMD launcher, and collectives.

:func:`run_mpi` is the ``mpirun`` analog: it starts ``size`` rank threads,
each running the user's main function with its own :class:`Comm`, and
joins them, propagating the first failure.  Collectives use binomial trees
(log₂ rounds), like small-message algorithms in real MPI implementations.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Sequence

from repro.errors import MpiError, RankError
from repro.mpi.ops import ReduceOp
from repro.mpi.p2p import (
    ANY_SOURCE,
    ANY_TAG,
    Envelope,
    Mailbox,
    Request,
    Status,
    as_payload,
)
from repro.serialization import BinaryFormatter

#: Tag space reserved for collective internals, above user tags.
_COLLECTIVE_TAG_BASE = 1 << 24

#: Encodes collective values; formatters are stateless and thread-safe.
_FORMATTER = BinaryFormatter()


class World:
    """Shared state of one MPI job: the mailboxes of all ranks."""

    def __init__(self, size: int) -> None:
        if size < 1:
            raise MpiError(f"world size must be >= 1, got {size}")
        self.size = size
        self._mailboxes = [Mailbox() for _ in range(size)]
        self._finalized = False
        self._collective_epoch = [0] * size

    def comm(self, rank: int) -> "Comm":
        self._check_rank(rank)
        return Comm(self, rank)

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise RankError(
                f"rank {rank} out of range for world of size {self.size}"
            )

    def mailbox(self, rank: int) -> Mailbox:
        self._check_rank(rank)
        return self._mailboxes[rank]

    def finalize(self) -> None:
        self._finalized = True
        for mailbox in self._mailboxes:
            mailbox.close()


class Comm:
    """Per-rank communicator handle (MPI_COMM_WORLD analog)."""

    def __init__(self, world: World, rank: int) -> None:
        self.world = world
        self.rank = rank
        self._collective_seq = 0

    @property
    def size(self) -> int:
        return self.world.size

    # -- point to point -----------------------------------------------------

    def send(self, data: Any, dest: int, tag: int = 0) -> None:
        """Blocking buffered send of a contiguous buffer (MPI_Send)."""
        self._check_user_tag(tag)
        payload = as_payload(data)
        self.world.mailbox(dest).deposit(
            Envelope(source=self.rank, tag=tag, payload=payload)
        )

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        timeout: float | None = None,
    ) -> tuple[bytes, Status]:
        """Blocking matched receive (MPI_Recv); returns (payload, status)."""
        envelope = self.world.mailbox(self.rank).collect(source, tag, timeout)
        return envelope.payload, Status(
            source=envelope.source, tag=envelope.tag, count=len(envelope.payload)
        )

    def isend(self, data: Any, dest: int, tag: int = 0) -> Request:
        """Non-blocking send; completes immediately (buffered semantics)."""
        self.send(data, dest, tag)
        return Request.completed_send()

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Non-blocking receive; complete via ``request.wait()``/``test()``."""
        return Request(
            mailbox=self.world.mailbox(self.rank), source=source, tag=tag
        )

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        """True if a matching message is waiting (no dequeue)."""
        mailbox = self.world.mailbox(self.rank)
        with mailbox._lock:
            return mailbox._match_index(source, tag) is not None

    @staticmethod
    def _check_user_tag(tag: int) -> None:
        if not 0 <= tag < _COLLECTIVE_TAG_BASE:
            raise MpiError(
                f"user tags must be in [0, {_COLLECTIVE_TAG_BASE}), got {tag}"
            )

    # -- collectives ----------------------------------------------------

    # Collectives piggyback a per-rank sequence number into the tag so
    # that back-to-back collectives cannot cross-match.  All ranks must
    # call collectives in the same order (an MPI requirement).

    def _next_collective_tag(self) -> int:
        self._collective_seq += 1
        return _COLLECTIVE_TAG_BASE + (self._collective_seq & 0xFFFF)

    def _send_obj(self, obj: Any, dest: int, tag: int) -> None:
        # Collectives move small control values; encode with the shared
        # binary formatter (user payloads in p2p stay raw buffers).
        payload = _FORMATTER.dumps(obj)
        self.world.mailbox(dest).deposit(
            Envelope(source=self.rank, tag=tag, payload=payload)
        )

    def _recv_obj(self, source: int, tag: int) -> Any:
        envelope = self.world.mailbox(self.rank).collect(source, tag, None)
        return _FORMATTER.loads(envelope.payload)

    def bcast(self, value: Any, root: int = 0) -> Any:
        """Broadcast *value* from *root* to every rank (binomial tree)."""
        self.world._check_rank(root)
        tag = self._next_collective_tag()
        size = self.size
        relative = (self.rank - root) % size
        mask = 1
        result = value if self.rank == root else None
        # Receive phase: find the bit that delivers to us.
        while mask < size:
            if relative & mask:
                source = (relative - mask + root) % size
                result = self._recv_obj(source, tag)
                break
            mask <<= 1
        # Send phase: forward to our subtree (halving the stride).
        mask >>= 1
        while mask >= 1:
            child = relative + mask
            if child < size:
                self._send_obj(result, (child + root) % size, tag)
            mask >>= 1
        return result

    def reduce(self, value: Any, op: ReduceOp, root: int = 0) -> Any:
        """Reduce to *root*; other ranks get None (binomial tree)."""
        self.world._check_rank(root)
        tag = self._next_collective_tag()
        size = self.size
        relative = (self.rank - root) % size
        accumulated = value
        mask = 1
        while mask < size:
            if relative & mask:
                parent = (relative & ~mask) % size
                self._send_obj(accumulated, (parent + root) % size, tag)
                break
            child = relative | mask
            if child < size:
                incoming = self._recv_obj((child + root) % size, tag)
                accumulated = op.combine(accumulated, incoming)
            mask <<= 1
        return accumulated if self.rank == root else None

    def allreduce(self, value: Any, op: ReduceOp) -> Any:
        """Reduce then broadcast the result to all ranks."""
        reduced = self.reduce(value, op, root=0)
        return self.bcast(reduced, root=0)

    def gather(self, value: Any, root: int = 0) -> list[Any] | None:
        """Collect one value per rank at *root*, ordered by rank."""
        self.world._check_rank(root)
        tag = self._next_collective_tag()
        if self.rank != root:
            self._send_obj(value, root, tag)
            return None
        values: list[Any] = [None] * self.size
        values[root] = value
        for rank in range(self.size):
            if rank == root:
                continue
            values[rank] = self._recv_obj(rank, tag)
        return values

    def scatter(self, values: Sequence[Any] | None, root: int = 0) -> Any:
        """Distribute ``values[rank]`` from *root* to each rank."""
        self.world._check_rank(root)
        tag = self._next_collective_tag()
        if self.rank == root:
            if values is None or len(values) != self.size:
                raise MpiError(
                    f"scatter at root needs exactly {self.size} values"
                )
            for rank, value in enumerate(values):
                if rank != root:
                    self._send_obj(value, rank, tag)
            return values[root]
        return self._recv_obj(root, tag)

    def allgather(self, value: Any) -> list[Any]:
        """Every rank gets [value of rank 0, ..., value of rank n-1]."""
        gathered = self.gather(value, root=0)
        return self.bcast(gathered, root=0)

    def alltoall(self, values: Sequence[Any]) -> list[Any]:
        """Personalized exchange: rank i sends ``values[j]`` to rank j.

        Returns the list of items this rank received, ordered by source.
        """
        if values is None or len(values) != self.size:
            raise MpiError(
                f"alltoall needs exactly {self.size} values per rank"
            )
        tag = self._next_collective_tag()
        for dest in range(self.size):
            if dest != self.rank:
                self._send_obj(values[dest], dest, tag)
        received: list[Any] = [None] * self.size
        received[self.rank] = values[self.rank]
        for source in range(self.size):
            if source != self.rank:
                received[source] = self._recv_obj(source, tag)
        return received

    def scan(self, value: Any, op: ReduceOp) -> Any:
        """Inclusive prefix reduction: rank i gets op(v₀, ..., vᵢ)."""
        gathered = self.allgather(value)
        accumulated = gathered[0]
        for rank in range(1, self.rank + 1):
            accumulated = op.combine(accumulated, gathered[rank])
        return accumulated

    def sendrecv(
        self,
        data: Any,
        dest: int,
        source: int,
        send_tag: int = 0,
        recv_tag: int = ANY_TAG,
    ) -> tuple[bytes, Status]:
        """Combined send+receive (MPI_Sendrecv): deadlock-free exchange."""
        self.send(data, dest, send_tag)
        return self.recv(source, recv_tag)

    def barrier(self) -> None:
        """Dissemination barrier: log₂(size) rounds of pairwise signals."""
        # Barrier rounds get a dedicated tag space (seq << 8 | round) so
        # rounds of one barrier can never match another collective's tag.
        self._collective_seq += 1
        base = (_COLLECTIVE_TAG_BASE << 1) + (
            (self._collective_seq & 0xFFFF) << 8
        )
        size = self.size
        distance = 1
        round_index = 0
        while distance < size:
            dest = (self.rank + distance) % size
            source = (self.rank - distance) % size
            self._send_obj(None, dest, base + round_index)
            self._recv_obj(source, base + round_index)
            distance <<= 1
            round_index += 1


def run_mpi(
    size: int,
    main: Callable[..., Any],
    *args: Any,
    timeout: float | None = 120.0,
    **kwargs: Any,
) -> list[Any]:
    """Run ``main(comm, *args, **kwargs)`` on *size* ranks; gather returns.

    The first rank exception (lowest rank wins ties) is re-raised in the
    caller after all ranks have been joined, with the world finalized so
    blocked peers wake up with a clean MpiError instead of hanging.
    """
    world = World(size)
    results: list[Any] = [None] * size
    failures: list[tuple[int, BaseException]] = []
    failure_lock = threading.Lock()

    def rank_main(rank: int) -> None:
        comm = world.comm(rank)
        try:
            results[rank] = main(comm, *args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - joined and re-raised
            with failure_lock:
                failures.append((rank, exc))
            world.finalize()

    threads = [
        threading.Thread(
            target=rank_main, args=(rank,), name=f"mpi-rank-{rank}", daemon=True
        )
        for rank in range(size)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout)
        if thread.is_alive():
            world.finalize()
            raise MpiError(
                f"rank thread {thread.name} did not finish within {timeout}s"
            )
    world.finalize()
    if failures:
        failures.sort(key=lambda pair: pair[0])
        rank, error = failures[0]
        raise MpiError(f"rank {rank} failed: {error}") from error
    return results
