"""Unit tests for the shm channel and doorbells."""

from __future__ import annotations

import gc
import os
import select
import sys
import threading
import warnings

import pytest

from repro.channels.factory import create
from repro.errors import ChannelClosedError, ChannelError
from repro.shm import DEFAULT_RING_SIZE, Doorbell, ShmChannel, socket_path_for
from repro.telemetry import MetricsRegistry


def echo_handler(path, body, headers):
    prefix = headers.get("prefix", "")
    return f"{prefix}{path}:".encode() + bytes(body)


@pytest.fixture
def shm_pair():
    channel = ShmChannel(ring_size=16 * 1024)
    binding = channel.listen("auto", echo_handler)
    yield channel, binding
    binding.close()
    channel.close()


class TestShmChannel:
    """Ring-specific behaviour; the common transport contract (echo,
    headers, reuse, concurrency, handler errors) runs over shm in
    ``test_channels.py``."""

    def test_body_larger_than_ring_streams_through(self, shm_pair):
        """A payload several times the ring size must flow via wrap/park."""
        channel, binding = shm_pair
        body = bytes(range(256)) * 512  # 128 KiB through a 16 KiB ring
        result = channel.call(binding.authority, "big", body)
        assert result == b"big:" + body

    def test_round_trip_structured(self, shm_pair):
        channel, binding = shm_pair

        # round_trip runs the payload codec over the frame body; echo
        # hands back path-prefixed bytes, so serve a real responder.
        def responder(path, body, headers):
            request = channel.formatter.loads(bytes(body))
            return channel.formatter.dumps(request * 2)

        binding2 = channel.listen("auto", responder)
        try:
            assert channel.round_trip(binding2.authority, "p", 21) == 42
        finally:
            binding2.close()

    def test_unknown_authority_raises(self):
        channel = ShmChannel()
        try:
            with pytest.raises(ChannelError):
                channel.call("no-such-authority", "p", b"")
        finally:
            channel.close()

    def test_duplicate_authority_rejected(self, shm_pair):
        channel, binding = shm_pair
        with pytest.raises(ChannelError, match="already bound"):
            channel.listen(binding.authority, echo_handler)

    def test_closed_channel_rejects_calls(self):
        channel = ShmChannel()
        binding = channel.listen("auto", echo_handler)
        authority = binding.authority
        binding.close()
        channel.close()
        with pytest.raises((ChannelClosedError, ChannelError)):
            channel.call(authority, "p", b"")

    def test_authority_reusable_after_close(self):
        channel = ShmChannel()
        binding = channel.listen("reuse-me", echo_handler)
        binding.close()
        binding2 = channel.listen("reuse-me", echo_handler)
        try:
            assert channel.call("reuse-me", "p", b"y") == b"p:y"
        finally:
            binding2.close()
            channel.close()

    def test_tiny_ring_rejected(self):
        with pytest.raises(ChannelError, match="ring_size"):
            ShmChannel(ring_size=128)

    def test_handshake_socket_tracks_listener(self):
        channel = ShmChannel()
        binding = channel.listen("auto", echo_handler)
        path = socket_path_for(binding.authority)
        assert os.path.exists(path)
        binding.close()
        channel.close()
        assert not os.path.exists(path)

    def test_metrics_exposed(self):
        registry = MetricsRegistry()
        channel = ShmChannel(metrics=registry)
        binding = channel.listen("auto", echo_handler)
        try:
            channel.call(binding.authority, "p", bytes(1024))
        finally:
            binding.close()
            channel.close()
        snap = registry.snapshot()
        assert snap["shm.frames"] >= 2  # request + response
        assert snap["shm.bytes"] > 2048
        assert "shm.doorbell.rings" in snap
        assert "shm.wait.parks" in snap
        assert "shm.ring.occupancy_mean" in snap


def mapped_segments():
    """Shared-memory segments this process still has mapped."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        return sum("/psm_" in line for line in maps)


class TestTeardown:
    """Every way a connection ends must unmap its segment, ring views
    first: ``SharedMemory``'s own finalizer raises (unraisably, in
    whichever test the collector happens to run) while one is alive."""

    @pytest.fixture
    def unraisable(self):
        caught = []
        previous, sys.unraisablehook = sys.unraisablehook, caught.append
        yield caught
        sys.unraisablehook = previous

    def test_channel_dropped_without_close(self, unraisable):
        """What tier-1 used to trip over: the collector finalizing an
        unclosed channel's pooled connection, segment before rings."""
        channel = ShmChannel()
        binding = channel.listen("auto", echo_handler)
        try:
            # Leaves one idle connection in the channel's pool.
            assert channel.call(binding.authority, "p", b"x") == b"p:x"
            del channel
            gc.collect()
        finally:
            binding.close()
        assert unraisable == []

    def test_close_under_a_parked_call(self, unraisable):
        """Closing both ends while the serve thread holds a ring view:
        that thread finishes the close once it has let the view go."""
        gc.collect()
        before = mapped_segments()
        entered, release = threading.Event(), threading.Event()
        kept = []

        def parked(path, body, headers):
            # A handler that caught an exception leaves frames behind
            # (traceback cycles) that still name the body; stand in for
            # them by keeping it.
            kept.append(body)
            entered.set()
            release.wait(10)
            return bytes(body)

        channel = ShmChannel()
        binding = channel.listen("auto", parked)
        errors = []

        def caller():
            try:
                channel.call(binding.authority, "p", bytes(64))
            except ChannelError as exc:
                errors.append(exc)

        thread = threading.Thread(target=caller)
        thread.start()
        assert entered.wait(10)
        serving = [
            t for t in threading.enumerate()
            if t.name == f"parc-shm-conn-{binding.authority}"
        ]
        channel.close()
        binding.close()
        release.set()
        for each in [thread, *serving]:
            each.join(10)
            assert not each.is_alive()
        assert [type(exc) for exc in errors] == [ChannelClosedError]
        # Unmapped by the threads themselves, not by a later collection.
        assert mapped_segments() == before
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gc.collect()
        assert unraisable == []


class TestFactoryComposition:
    def test_create_shm(self):
        channel = create("shm")
        try:
            assert channel.scheme == "shm"
        finally:
            channel.close()

    def test_chaos_shm_stack(self):
        channel = create("chaos+shm")
        binding = channel.listen("auto", echo_handler)
        try:
            assert channel.call(binding.authority, "p", b"c") == b"p:c"
        finally:
            binding.close()
            channel.close()


class TestShmCluster:
    def test_large_payloads_cross_the_rings(self):
        """A payload bigger than the ring streams through wrap/park."""
        import repro.core as parc
        from repro.core import ParcConfig

        @parc.parallel(name="shmtest.Echo", sync_methods=["echo"])
        class Echo:
            def echo(self, blob):
                return blob

        runtime = parc.init(ParcConfig(nodes=2, channel="shm"))
        try:
            # Round robin puts one on each node; node 1's is reached
            # through the client channel's rings.
            echoes = [parc.new(Echo) for _ in range(2)]
            assert runtime.cluster.nodes[1].impl_snapshot()
            blob = bytes(range(256)) * (DEFAULT_RING_SIZE // 256 + 1024)
            assert len(blob) > DEFAULT_RING_SIZE
            for echo in echoes:
                assert echo.echo(blob) == blob
        finally:
            parc.shutdown()


class TestDoorbell:
    def test_ring_makes_fd_readable(self):
        bell = Doorbell.create()
        try:
            readable, _, _ = select.select([bell.fileno()], [], [], 0)
            assert not readable
            bell.ring()
            readable, _, _ = select.select([bell.fileno()], [], [], 1)
            assert readable
        finally:
            bell.close()

    def test_drain_clears_pending_rings(self):
        bell = Doorbell.create()
        try:
            bell.ring()
            bell.ring()
            bell.drain()
            readable, _, _ = select.select([bell.fileno()], [], [], 0)
            assert not readable
        finally:
            bell.close()

    def test_ring_after_close_is_noop(self):
        bell = Doorbell.create()
        bell.close()
        bell.ring()  # must not raise
        bell.drain()
