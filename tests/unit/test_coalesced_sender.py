"""The PO sender's group commit: a queued outbox leaves as one request.

While one ``enqueue_batch`` round trip is in flight the caller keeps
flushing aggregates into the outbox; when the sender comes back it ships
the whole queued prefix as a single ``enqueue_batch`` of several entries.
These tests pin what may merge (same trace context, inside the call and
byte caps), what a partly refused run leaves behind, and the request a
lone aggregate and a single make, byte for byte.
"""

from __future__ import annotations

import array
import threading
import time
from types import SimpleNamespace

import pytest

from repro.channels.services import ChannelServices
from repro.channels.tcp import TcpChannel
from repro.core.impl import ImplementationObject
from repro.core.proxy_object import RemoteGrain
from repro.errors import OverloadError, RemoteInvocationError, ScooppError
from repro.remoting import RemotingHost
from repro.remoting.messages import CallMessage
from repro.serialization import BinaryFormatter
from repro.telemetry import TelemetryConfig, Tracer, set_global_tracer
from repro.telemetry.node import NodeTelemetry
from tests.unit.test_returnn_wire import RecordingChannel

MAX_CALLS = 4


class Target:
    """Records calls; ``step`` can be held at its first execution."""

    def __init__(self, hold_first: bool = False):
        self.rows = []
        self.lock = threading.Lock()
        self.entered = threading.Event()
        self.release = threading.Event()
        if not hold_first:
            self.release.set()

    def step(self, x: float, n: int):
        self.entered.set()
        assert self.release.wait(timeout=10.0)
        with self.lock:
            self.rows.append(("step", x, n))

    def mark(self, n: int):
        with self.lock:
            self.rows.append(("mark", n))

    def snapshot(self):
        with self.lock:
            return list(self.rows)


class GatedImpl:
    """Forwards to an IO, records each request, holds it while gated.

    A held request is how a slow wire looks to the sender: whatever the
    caller flushes meanwhile is queued when the round trip returns.
    ``bytes_per_call`` fakes the proxy's ``_parc_last_wire_bytes``.
    """

    def __init__(self, inner, bytes_per_call=0):
        self._inner = inner
        self.bytes_per_call = bytes_per_call
        self.requests = []
        self.gate = threading.Event()
        self.in_flight = threading.Event()

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def _request(self, name, calls, *args):
        self.requests.append((name, args))
        if not self.gate.is_set():
            self.in_flight.set()
            assert self.gate.wait(timeout=10.0)
        getattr(self._inner, name)(*args)
        self._parc_last_wire_bytes = self.bytes_per_call * calls

    def enqueue_batch(self, entries):
        calls = sum(count for _m, count, _c, _r in entries)
        self._request("enqueue_batch", calls, entries)

    def run_sizes(self):
        """Entries per request (1 for every lone send)."""
        return [len(args[0]) for _name, args in self.requests]


def steps(start, count):
    return [(float(index), index) for index in range(start, start + count)]


def post_steps(grain, start, count):
    for x, n in steps(start, count):
        grain.post("step", (x, n), {})


def columnar_grain(impl, max_calls=MAX_CALLS):
    grain = RemoteGrain(impl, max_calls=max_calls, flush_after_s=30.0)
    grain.columnar = True
    grain.impl_class = Target
    return grain


@pytest.fixture
def gated():
    target = Target()
    io = ImplementationObject(target, "test.Target")
    impl = GatedImpl(io)
    grain = columnar_grain(impl)
    yield target, io, impl, grain
    impl.gate.set()
    target.release.set()
    grain.dispose()


class TestRunFormation:
    def test_queued_aggregates_leave_as_one_request(self, gated):
        target, _io, impl, grain = gated
        k = 5
        post_steps(grain, 0, MAX_CALLS)
        assert impl.in_flight.wait(timeout=5.0)
        post_steps(grain, MAX_CALLS, k * MAX_CALLS)
        impl.gate.set()
        grain.drain()
        assert [name for name, _args in impl.requests] == ["enqueue_batch"] * 2
        (entries,) = impl.requests[1][1]
        assert len(entries) == k
        for index, (method, count, columns, rows) in enumerate(entries):
            first = MAX_CALLS * (index + 1)
            assert (method, count, rows) == ("step", MAX_CALLS, None)
            assert [list(column) for column in columns] == [
                [float(n) for n in range(first, first + MAX_CALLS)],
                list(range(first, first + MAX_CALLS)),
            ]
        assert target.snapshot() == [
            ("step", x, n) for x, n in steps(0, (k + 1) * MAX_CALLS)
        ]
        # The counters still count aggregates, not requests.
        assert (grain.batches, grain.singles) == (k + 1, 0)

    def test_run_keeps_method_switches_and_singles_in_order(self, gated):
        target, _io, impl, grain = gated
        # Each method's first send travels alone: the byte estimate
        # behind the run cap starts from a frame that really left.
        impl.gate.set()
        post_steps(grain, 0, MAX_CALLS)
        grain.post("mark", (0,), {})
        grain.post("mark", (1,), {})
        grain.drain()
        assert impl.run_sizes() == [1, 1]
        del impl.requests[:]
        impl.gate.clear()
        post_steps(grain, MAX_CALLS, MAX_CALLS)
        assert impl.in_flight.wait(timeout=5.0)
        grain.post("mark", (2,), {})
        post_steps(grain, 2 * MAX_CALLS, MAX_CALLS)  # flushes the mark
        grain.post("step", (99.0,), {"n": 99})  # kwargs: row form
        grain.flush()
        impl.gate.set()
        grain.drain()
        assert impl.run_sizes() == [1, 3]
        (entries,) = impl.requests[1][1]
        assert [(m, count) for m, count, _c, _r in entries] == [
            ("mark", 1),
            ("step", MAX_CALLS),
            ("step", 1),
        ]
        assert entries[2][2] is None and entries[2][3] == [
            ((99.0,), {"n": 99})
        ]
        assert target.snapshot()[MAX_CALLS + 2 :] == (
            [("step", x, n) for x, n in steps(MAX_CALLS, MAX_CALLS)]
            + [("mark", 2)]
            + [("step", x, n) for x, n in steps(2 * MAX_CALLS, MAX_CALLS)]
            + [("step", 99.0, 99)]
        )

    def test_wire_observer_sees_summed_calls(self, gated):
        _target, _io, impl, grain = gated
        observed = []
        grain.wire_observer = lambda nbytes, calls: observed.append(calls)
        post_steps(grain, 0, MAX_CALLS)
        assert impl.in_flight.wait(timeout=5.0)
        post_steps(grain, MAX_CALLS, 3 * MAX_CALLS)
        impl.gate.set()
        grain.drain()
        assert observed == [MAX_CALLS, 3 * MAX_CALLS]

    def test_row_speaking_peer_gets_no_runs(self):
        target = Target()
        impl = GatedImpl(ImplementationObject(target, "test.Target"))
        grain = RemoteGrain(impl, max_calls=MAX_CALLS, flush_after_s=30.0)
        try:
            post_steps(grain, 0, MAX_CALLS)
            assert impl.in_flight.wait(timeout=5.0)
            post_steps(grain, MAX_CALLS, 2 * MAX_CALLS)
            impl.gate.set()
            grain.drain()
            assert impl.run_sizes() == [1, 1, 1]
            for _name, (entries,) in impl.requests:
                assert entries[0][2] is None  # rows: the class is unknown
        finally:
            impl.gate.set()
            grain.dispose()


class TestFlushDeadline:
    def test_time_spent_sending_is_not_the_buffers_age(self):
        target = Target()
        impl = GatedImpl(ImplementationObject(target, "test.Target"))
        grain = RemoteGrain(impl, max_calls=MAX_CALLS, flush_after_s=0.5)
        try:
            post_steps(grain, 0, MAX_CALLS)
            assert impl.in_flight.wait(timeout=5.0)
            post_steps(grain, MAX_CALLS, 2)  # a partial buffer opens ...
            time.sleep(0.7)  # ... and outlives the deadline behind the send
            impl.gate.set()
            time.sleep(0.1)
            # The wire has been free for 0.1 s, not 0.8 s: still buffered,
            # so the aggregate can fill up instead of leaving as a stub.
            assert (grain.batches, grain.singles) == (1, 0)
            post_steps(grain, MAX_CALLS + 2, 2)
            grain.drain()
            assert (grain.batches, grain.singles) == (2, 0)
            (entries,) = impl.requests[1][1]
            assert entries == [
                (
                    "step",
                    MAX_CALLS,
                    None,
                    [((x, n), {}) for x, n in steps(MAX_CALLS, MAX_CALLS)],
                )
            ]
        finally:
            impl.gate.set()
            grain.dispose()

    def test_idle_sender_still_flushes_a_partial_buffer_on_time(self):
        target = Target()
        impl = ImplementationObject(target, "test.Target")
        grain = RemoteGrain(impl, max_calls=MAX_CALLS, flush_after_s=0.05)
        try:
            post_steps(grain, 0, 2)
            deadline = time.monotonic() + 5.0
            while len(target.snapshot()) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert target.snapshot() == [
                ("step", x, n) for x, n in steps(0, 2)
            ]
        finally:
            grain.dispose()


class TestRunCaps:
    def test_call_cap_splits_the_outbox(self, gated, monkeypatch):
        target, _io, impl, grain = gated
        monkeypatch.setattr(RemoteGrain, "RUN_MAX_CALLS", 3 * MAX_CALLS)
        post_steps(grain, 0, MAX_CALLS)
        assert impl.in_flight.wait(timeout=5.0)
        post_steps(grain, MAX_CALLS, 7 * MAX_CALLS)
        impl.gate.set()
        grain.drain()
        assert impl.run_sizes() == [1, 3, 3, 1]
        ((_method, count, columns, _rows),) = impl.requests[-1][1][0]
        assert (count, len(columns)) == (MAX_CALLS, 2)
        assert len(target.snapshot()) == 8 * MAX_CALLS

    def test_byte_cap_uses_the_observed_bytes_per_call(self, gated):
        target, _io, impl, grain = gated
        # Every frame shows 100 KiB per call: a 1 MiB run then holds two
        # 4-call aggregates, not all six.
        impl.bytes_per_call = 100 * 1024
        post_steps(grain, 0, MAX_CALLS)
        assert impl.in_flight.wait(timeout=5.0)
        post_steps(grain, MAX_CALLS, 6 * MAX_CALLS)
        impl.gate.set()
        grain.drain()
        assert impl.run_sizes() == [1, 2, 2, 2]
        assert len(target.snapshot()) == 7 * MAX_CALLS

    def test_default_caps_are_the_documented_constants(self):
        assert RemoteGrain.RUN_MAX_CALLS == 4096
        assert RemoteGrain.RUN_MAX_BYTES == 1 << 20


def count_yields(grain):
    """Record the timeout of every wait the caller makes for the sender."""
    waits = []
    wait_for = grain._outbox_cv.wait_for

    def counting(predicate, timeout=None):
        waits.append(timeout)
        return wait_for(predicate, timeout)

    grain._outbox_cv.wait_for = counting
    return waits


class TestCallerYield:
    """A caller ``YIELD_AT_CALLS`` ahead of the sender lets it catch up."""

    def test_post_that_reaches_the_lead_waits_for_the_sender(
        self, gated, monkeypatch
    ):
        target, _io, impl, grain = gated
        monkeypatch.setattr(RemoteGrain, "YIELD_AT_CALLS", 3 * MAX_CALLS)
        monkeypatch.setattr(RemoteGrain, "YIELD_TIMEOUT_S", 30.0)
        post_steps(grain, 0, MAX_CALLS)
        assert impl.in_flight.wait(timeout=5.0)  # taken: nothing unsent
        posted = threading.Event()

        def caller():
            post_steps(grain, MAX_CALLS, 3 * MAX_CALLS)
            posted.set()

        thread = threading.Thread(target=caller, daemon=True)
        thread.start()
        # The third aggregate puts the caller 12 calls ahead: it waits.
        assert not posted.wait(timeout=0.2)
        assert grain.batches == 4  # every call was queued before the wait
        impl.gate.set()  # the sender returns and takes the three together
        assert posted.wait(timeout=5.0)
        thread.join(timeout=5.0)
        grain.drain()
        assert impl.run_sizes() == [1, 3]
        assert target.snapshot() == [
            ("step", x, n) for x, n in steps(0, 4 * MAX_CALLS)
        ]

    def test_wait_is_bounded_and_made_once_per_crossing(
        self, gated, monkeypatch
    ):
        target, _io, impl, grain = gated
        monkeypatch.setattr(RemoteGrain, "YIELD_AT_CALLS", 2 * MAX_CALLS)
        monkeypatch.setattr(RemoteGrain, "YIELD_TIMEOUT_S", 0.05)
        waits = count_yields(grain)
        post_steps(grain, 0, MAX_CALLS)
        assert impl.in_flight.wait(timeout=5.0)
        # The wire stays busy: the caller waits out one timeout when it
        # gets two aggregates ahead and is not held up again behind it.
        post_steps(grain, MAX_CALLS, 6 * MAX_CALLS)
        assert waits == [0.05]
        impl.gate.set()
        grain.drain()
        assert impl.run_sizes() == [1, 6]
        assert len(target.snapshot()) == 7 * MAX_CALLS

    def test_caller_the_sender_keeps_up_with_never_waits(self, gated):
        _target, _io, impl, grain = gated
        impl.gate.set()
        waits = count_yields(grain)
        ahead = RemoteGrain.YIELD_AT_CALLS // MAX_CALLS - 1
        for block in range(3):
            post_steps(grain, block * ahead * MAX_CALLS, ahead * MAX_CALLS)
            grain.sync_outbox()
        assert [w for w in waits if w == RemoteGrain.YIELD_TIMEOUT_S] == []

    def test_failed_send_releases_a_waiting_caller(self, monkeypatch):
        gate, in_flight = threading.Event(), threading.Event()

        class Refusing:
            def enqueue_batch(self, entries):
                in_flight.set()
                assert gate.wait(timeout=10.0)
                raise OverloadError("mailbox full")

            def dispose(self):
                pass

        monkeypatch.setattr(RemoteGrain, "YIELD_AT_CALLS", 2 * MAX_CALLS)
        monkeypatch.setattr(RemoteGrain, "YIELD_TIMEOUT_S", 30.0)
        grain = columnar_grain(Refusing())
        try:
            post_steps(grain, 0, MAX_CALLS)
            assert in_flight.wait(timeout=5.0)
            posted = threading.Event()

            def caller():
                post_steps(grain, MAX_CALLS, 2 * MAX_CALLS)
                posted.set()

            thread = threading.Thread(target=caller, daemon=True)
            thread.start()
            assert not posted.wait(timeout=0.2)
            gate.set()  # the send fails: the outbox is dropped
            assert posted.wait(timeout=5.0)
            thread.join(timeout=5.0)
            with pytest.raises(OverloadError):
                grain.post("step", (0.0, 0), {})
        finally:
            gate.set()
            grain.dispose()

    def test_default_lead_is_the_documented_constant(self):
        assert RemoteGrain.YIELD_AT_CALLS == 128
        assert RemoteGrain.YIELD_TIMEOUT_S == 0.005


class TestPartialAdmission:
    def test_overflow_admits_the_prefix_once_and_sheds_the_rest(self):
        target = Target(hold_first=True)
        node = SimpleNamespace(
            telemetry=NodeTelemetry("n0", TelemetryConfig(enabled=True))
        )
        io = ImplementationObject(
            target, "test.Target", node=node, mailbox_depth=2 * MAX_CALLS
        )
        impl = GatedImpl(io)
        impl.gate.set()
        grain = columnar_grain(impl)
        try:
            # The worker takes the first aggregate and sits in its first
            # call, so from here on the lane only fills: depth 8 admits
            # two more aggregates and refuses the third.
            post_steps(grain, 0, MAX_CALLS)
            assert target.entered.wait(timeout=5.0)
            impl.gate.clear()
            post_steps(grain, MAX_CALLS, MAX_CALLS)
            assert impl.in_flight.wait(timeout=5.0)
            post_steps(grain, 2 * MAX_CALLS, 4 * MAX_CALLS)
            impl.gate.set()
            with pytest.raises(OverloadError):
                grain.drain()
            assert impl.run_sizes() == [1, 1, 4]
            assert grain.sheds == 1
            target.release.set()
            io.drain()
            grain.post("mark", (7,), {})  # usable again afterwards
            grain.drain()
            # The run's first entry ran exactly once, its second (the
            # overflow) and everything behind it never.
            assert target.snapshot() == [
                ("step", x, n) for x, n in steps(0, 3 * MAX_CALLS)
            ] + [("mark", 7)]
            assert io.stats()["shed"] == MAX_CALLS
            shed = node.telemetry.metrics.export()["flow.shed"]
            assert shed["value"] == MAX_CALLS
        finally:
            impl.gate.set()
            target.release.set()
            grain.dispose()

    def test_failed_run_is_not_resent_in_another_form(self, gated):
        target, _io, impl, grain = gated

        admit = impl.enqueue_batch

        def refuse(entries):
            if len(entries) == 1:
                return admit(entries)
            impl.requests.append(("enqueue_batch", (entries,)))
            raise RemoteInvocationError(
                "remote call enqueue_batch failed with ValueError: boom"
            )

        impl.enqueue_batch = refuse
        post_steps(grain, 0, MAX_CALLS)
        assert impl.in_flight.wait(timeout=5.0)
        post_steps(grain, MAX_CALLS, 2 * MAX_CALLS)
        impl.gate.set()
        with pytest.raises(ScooppError, match="boom"):
            grain.drain()
        assert impl.run_sizes() == [1, 2]
        assert grain.columnar
        grain.drain()  # the error was reported once; the grain works on
        assert target.snapshot() == [
            ("step", x, n) for x, n in steps(0, MAX_CALLS)
        ]


class TestTraceContexts:
    @pytest.fixture
    def tracer(self):
        tracer = Tracer()
        set_global_tracer(tracer)
        yield tracer
        set_global_tracer(None)

    def test_contexts_split_runs_and_io_spans_chain_to_the_poster(
        self, gated, tracer
    ):
        target, _io, impl, grain = gated
        post_steps(grain, 0, MAX_CALLS)
        assert impl.in_flight.wait(timeout=5.0)
        with tracer.span("app", "first"):
            post_steps(grain, MAX_CALLS, 2 * MAX_CALLS)
        with tracer.span("app", "second"):
            post_steps(grain, 3 * MAX_CALLS, 2 * MAX_CALLS)
        impl.gate.set()
        grain.drain()
        assert impl.run_sizes() == [1, 2, 2]
        events = tracer.events()
        app = {e.name: e for e in events if e.category == "app"}
        io_spans = [e for e in events if e.category == "io"]
        assert len(io_spans) == 5 * MAX_CALLS
        parents = [e.parent_id for e in io_spans]
        assert parents[MAX_CALLS : 3 * MAX_CALLS] == (
            [app["first"].span_id] * (2 * MAX_CALLS)
        )
        assert parents[3 * MAX_CALLS :] == (
            [app["second"].span_id] * (2 * MAX_CALLS)
        )
        # po.flush instants sit in the span that posted the aggregate.
        flushes = [e for e in events if e.name == "po.flush"]
        assert [e.span_id for e in flushes[1:]] == (
            [app["first"].span_id] * 2 + [app["second"].span_id] * 2
        )
        assert len(target.snapshot()) == 5 * MAX_CALLS


# -- over a real wire -----------------------------------------------------------


class GatedRecordingChannel(RecordingChannel):
    """The returnN suite's recording wrapper, plus a gate on the wire."""

    def __init__(self, inner):
        super().__init__(inner)
        self.gate = threading.Event()
        self.gate.set()
        self.in_flight = threading.Event()

    def call(self, authority, path, body, headers=None):
        if not self.gate.is_set():
            self.in_flight.set()
            assert self.gate.wait(timeout=10.0)
        return super().call(authority, path, body, headers=headers)

    def close(self):
        self.gate.set()
        super().close()

    @property
    def bodies(self):
        return [request for _path, request, _response in self.exchanges]

    def methods(self):
        return [self.formatter.loads(body).method for body in self.bodies]


class FailingColumnsIO(ImplementationObject):
    """An IO whose ``enqueue_batch`` fails *after* enqueueing."""

    def enqueue_batch(self, entries):
        super().enqueue_batch(entries)
        raise ValueError("disk full while journalling the aggregate")


@pytest.fixture
def wire():
    """(serve, connect) over tcp; everything is closed afterwards."""
    closers = []

    def serve(io):
        server = RemotingHost(name="run-server", services=ChannelServices())
        binding = server.listen(TcpChannel(), "127.0.0.1:0")
        server.publish(io, "io")
        closers.append(server.close)
        closers.append(io.dispose)
        return f"tcp://{binding.authority}/io"

    def connect(uri):
        channel = GatedRecordingChannel(TcpChannel())
        services = ChannelServices()
        services.register_channel(channel)
        client = RemotingHost(name="run-client", services=services)
        grain = columnar_grain(client.get_object(uri))
        closers.append(client.close)
        return channel, grain

    yield serve, connect
    for close in reversed(closers):
        close()


class TestOverTheWire:
    def test_lone_aggregate_request_is_byte_identical(self, wire):
        serve, connect = wire
        target = Target()
        uri = serve(ImplementationObject(target, "test.Target"))
        channel, grain = connect(uri)
        post_steps(grain, 0, MAX_CALLS)
        grain.post("mark", (5,), {})
        grain.drain()
        grain.dispose()
        # A lone aggregate and a single each leave as one columnar
        # entry; their encoding is pinned by tests/unit/test_wire_golden.py.
        oracle = BinaryFormatter()
        xs, ns = zip(*steps(0, MAX_CALLS))
        columns = [array.array("d", xs), array.array("b", ns)]
        assert channel.bodies[:2] == [
            oracle.dumps(
                CallMessage(
                    uri="io",
                    method="enqueue_batch",
                    args=([("step", MAX_CALLS, columns, None)],),
                )
            ),
            oracle.dumps(
                CallMessage(
                    uri="io",
                    method="enqueue_batch",
                    args=([("mark", 1, [array.array("b", [5])], None)],),
                )
            ),
        ]
        assert target.snapshot() == [
            ("step", x, n) for x, n in steps(0, MAX_CALLS)
        ] + [("mark", 5)]

    def test_run_over_the_wire_preserves_order_and_counts(self, wire):
        serve, connect = wire
        target = Target()
        io = ImplementationObject(target, "test.Target")
        channel, grain = connect(serve(io))
        aggregates = 64
        channel.gate.clear()
        post_steps(grain, 0, MAX_CALLS)
        assert channel.in_flight.wait(timeout=5.0)
        post_steps(grain, MAX_CALLS, (aggregates - 1) * MAX_CALLS)
        channel.gate.set()
        grain.drain()
        assert channel.methods() == ["enqueue_batch", "enqueue_batch", "drain"]
        assert target.snapshot() == [
            ("step", x, n) for x, n in steps(0, aggregates * MAX_CALLS)
        ]
        assert io.stats()["processed"] == aggregates * MAX_CALLS
        assert grain.batches == aggregates
        grain.dispose()

    def test_traced_run_chains_io_spans_through_the_rpc_span(self, wire):
        serve, connect = wire
        target = Target()
        channel, grain = connect(
            serve(ImplementationObject(target, "test.Target"))
        )
        post_steps(grain, 0, MAX_CALLS)  # the untraced first frame
        grain.drain()
        tracer = Tracer()
        set_global_tracer(tracer)
        try:
            channel.gate.clear()
            with tracer.span("app", "poster"):
                post_steps(grain, MAX_CALLS, MAX_CALLS)
                assert channel.in_flight.wait(timeout=5.0)
                post_steps(grain, 2 * MAX_CALLS, 3 * MAX_CALLS)
            channel.gate.set()
            grain.drain()
        finally:
            set_global_tracer(None)
        events = tracer.events()
        spans = {e.span_id: e for e in events if e.phase == "X"}
        poster = next(e for e in events if e.name == "poster")
        io_spans = [e for e in events if e.category == "io"]
        assert len(io_spans) == 4 * MAX_CALLS
        rpc_names = set()
        for event in io_spans:
            rpc = spans[event.parent_id]
            assert rpc.category == "rpc"
            assert rpc.parent_id == poster.span_id
            rpc_names.add(rpc.name)
        assert rpc_names == {"call.enqueue_batch"}
        flushes = [e for e in events if e.name == "po.flush"]
        assert [e.span_id for e in flushes] == [poster.span_id] * 4
        grain.dispose()

    def test_remote_failure_is_never_resent_as_rows(self, wire):
        serve, connect = wire
        target = Target()
        uri = serve(FailingColumnsIO(target, "test.Target"))
        _channel, grain = connect(uri)
        post_steps(grain, 0, MAX_CALLS)
        with pytest.raises(ScooppError, match="disk full"):
            grain.drain()
        # The failure surfaced once: columnar stays on, and the batch was
        # not re-sent as rows — nothing ran twice.
        assert grain.columnar
        grain.drain()
        assert target.snapshot() == [
            ("step", x, n) for x, n in steps(0, MAX_CALLS)
        ]
        grain.dispose()


class HeldIO(ImplementationObject):
    """An IO whose admission waits until the test lets it through."""

    def __init__(self, instance, class_name):
        super().__init__(instance, class_name)
        self.entered = threading.Event()
        self.release = threading.Event()

    def enqueue_batch(self, entries):
        self.entered.set()
        assert self.release.wait(timeout=10.0)
        super().enqueue_batch(entries)


class TestWireBytesPerGrain:
    def test_concurrent_sends_each_record_their_own_request_size(self):
        # Two grains share the client's one tcp channel.  A's admission
        # is held on the server while B's whole round trip completes, so
        # B's request is the channel's last one when A's reply arrives.
        server = RemotingHost(name="bytes-server", services=ChannelServices())
        held = HeldIO(Target(), "test.Target")
        free = ImplementationObject(Target(), "test.Target")
        binding = server.listen(TcpChannel(), "127.0.0.1:0")
        server.publish(held, "held")
        server.publish(free, "free")
        services = ChannelServices()
        services.register_channel(TcpChannel())
        client = RemotingHost(name="bytes-client", services=services)
        base = f"tcp://{binding.authority}"
        big = RemoteGrain(client.get_object(f"{base}/held"), max_calls=1)
        small = RemoteGrain(client.get_object(f"{base}/free"), max_calls=1)
        try:
            big.post("mark", ("x" * 4000,), {})
            assert held.entered.wait(timeout=5.0)
            small.post("mark", (1,), {})
            small.drain()
            held.release.set()
            big.drain()
            assert big._wire_bytes_per_call["mark"] > 4000
            assert small._wire_bytes_per_call["mark"] < 1000
        finally:
            held.release.set()
            big.dispose()
            small.dispose()
            client.close()
            server.close()
