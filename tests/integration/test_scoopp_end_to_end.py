"""Integration tests: the full SCOOPP runtime across nodes."""

from __future__ import annotations

import pytest

import repro.core as parc
from repro.core import (
    AdaptiveGrainController,
    GrainPolicy,
    ParcConfig,
    SchedulerConfig,
)
from repro.errors import NotRunningError, RemoteInvocationError, ScooppError


@parc.parallel(
    name="itest.Mailbox",
    async_methods=["deliver", "deliver_all"],
    sync_methods=["messages", "merge_from"],
)
class Mailbox:
    def __init__(self, owner="anon"):
        self.owner = owner
        self.inbox = []

    def deliver(self, message):
        self.inbox.append(message)

    def deliver_all(self, messages):
        self.inbox.extend(messages)

    def messages(self):
        return list(self.inbox)

    def merge_from(self, other_mailbox):
        """Takes a PO reference as an argument (§3.1 reference passing)."""
        for message in other_mailbox.messages():
            self.inbox.append(f"via-{self.owner}:{message}")
        return len(self.inbox)


@parc.parallel(
    name="itest.Spawner",
    async_methods=[],
    sync_methods=["spawn_and_fill", "keep_child"],
)
class Spawner:
    def spawn_and_fill(self, count):
        """Creates parallel objects from inside a parallel method."""
        child = parc.new(Mailbox, "child")
        for index in range(count):
            child.deliver(index)
        result = child.messages()
        child.parc_release()
        return result

    def keep_child(self):
        """Creates a parallel object and keeps it alive."""
        self.child = parc.new(Mailbox, "kept")
        return True


class TestLifecycle:
    def test_init_twice_rejected(self, plain_runtime):
        with pytest.raises(ScooppError, match="already initialized"):
            parc.init(ParcConfig(nodes=1))

    def test_new_before_init_rejected(self):
        with pytest.raises(NotRunningError):
            parc.new(Mailbox)

    def test_shutdown_idempotent(self):
        parc.init(ParcConfig(nodes=1))
        parc.shutdown()
        parc.shutdown()

    def test_runtime_restart(self):
        parc.init(ParcConfig(nodes=2))
        first = parc.new(Mailbox)
        first.deliver("x")
        assert first.messages() == ["x"]
        parc.shutdown()
        parc.init(ParcConfig(nodes=2))
        try:
            second = parc.new(Mailbox)
            second.deliver("y")
            assert second.messages() == ["y"]
        finally:
            parc.shutdown()

    def test_stats_reflect_placements(self, runtime):
        mailboxes = [parc.new(Mailbox) for _ in range(6)]
        for mailbox in mailboxes:
            mailbox.deliver(1)
            mailbox.messages()
        counts = [node["ios"] for node in runtime.stats()]
        assert sum(counts) == 6
        assert all(count == 2 for count in counts)  # round robin over 3


class TestCallSemantics:
    def test_async_then_sync_order(self, runtime):
        mailbox = parc.new(Mailbox)
        for index in range(10):
            mailbox.deliver(index)
        assert mailbox.messages() == list(range(10))
        mailbox.parc_release()

    def test_release_flushes_pending(self, runtime):
        mailbox = parc.new(Mailbox)
        mailbox.deliver("pending")
        mailbox.parc_release()
        with pytest.raises(ScooppError):
            mailbox.deliver("after release")

    def test_parc_wait_barrier(self, runtime):
        mailbox = parc.new(Mailbox)
        for index in range(20):
            mailbox.deliver(index)
        mailbox.parc_wait()
        assert len(mailbox.messages()) == 20
        mailbox.parc_release()

    def test_sync_error_propagates(self, runtime):
        # Over the wire the failure is a RemoteInvocationError; through the
        # same-node reference shortcut it is the original exception.
        mailbox = parc.new(Mailbox)
        with pytest.raises((RemoteInvocationError, AttributeError)):
            mailbox.merge_from("not a mailbox")
        mailbox.parc_release()

    def test_constructor_args_copied_not_shared(self, plain_runtime):
        payload = ["shared"]
        mailbox = parc.new(Mailbox, payload)  # owner is a list (odd but legal)
        payload.append("mutated later")
        assert mailbox.messages() == []
        mailbox.parc_release()


class TestReferencePassing:
    def test_po_as_argument_reaches_same_io(self, runtime):
        source = parc.new(Mailbox, "src")
        sink = parc.new(Mailbox, "dst")
        source.deliver("m1")
        source.deliver("m2")
        total = sink.merge_from(source)
        assert total == 2
        assert sorted(sink.messages()) == ["via-dst:m1", "via-dst:m2"]
        source.parc_release()
        sink.parc_release()

    def test_reference_edges_recorded(self, runtime):
        source = parc.new(Mailbox, "src")
        sink = parc.new(Mailbox, "dst")
        source.deliver("m")
        sink.merge_from(source)
        reference_edges = runtime.dependence.edges(kind="reference")
        assert reference_edges  # the PO crossing recorded a dependence
        source.parc_release()
        sink.parc_release()

    def test_fully_local_reference_passing(self):
        # When both grains are agglomerated, a PO argument is just a
        # Python reference — no promotion needed, calls work directly.
        parc.init(
            ParcConfig(
                nodes=2,
                scheduler=SchedulerConfig(grain=GrainPolicy(agglomerate=True)),
            )
        )
        try:
            local = parc.new(Mailbox, "local")
            assert local.parc_is_local
            local.deliver("m")
            sink = parc.new(Mailbox, "sink")
            assert sink.merge_from(local) == 1
            assert local.parc_is_local  # untouched: nothing crossed a wire
        finally:
            parc.shutdown()

    def test_promote_grain_converts_local_to_remote(self):
        parc.init(
            ParcConfig(
                nodes=2,
                scheduler=SchedulerConfig(grain=GrainPolicy(agglomerate=True)),
            )
        )
        try:
            local = parc.new(Mailbox, "local")
            local.deliver("before")
            promoted = parc.current_runtime().promote_grain(local)
            assert not local.parc_is_local
            assert promoted is local._parc_grain
            local.deliver("after")
            assert set(local.messages()) == {"before", "after"}
            local.parc_release()
        finally:
            parc.shutdown()


class TestNestedCreation:
    def test_parallel_method_creates_parallel_objects(self, runtime):
        spawner = parc.new(Spawner)
        assert spawner.spawn_and_fill(5) == list(range(5))
        spawner.parc_release()

    def test_nested_creation_recorded_in_dependence_graph(self, runtime):
        spawner = parc.new(Spawner)
        spawner.keep_child()
        creation_edges = runtime.dependence.edges(kind="creation")
        parents = {parent for parent, _child in creation_edges}
        assert "main" in parents
        assert len(parents) >= 2  # some creation did NOT come from main
        # The graph holds live grains: a released nested child leaves it.
        spawner.spawn_and_fill(1)
        assert runtime.dependence.edges(kind="creation") == creation_edges
        spawner.parc_release()


class TestChannelsAndPolicies:
    def test_tcp_cluster(self):
        parc.init(
            ParcConfig(
                nodes=2,
                channel="tcp",
                scheduler=SchedulerConfig(grain=GrainPolicy(max_calls=2)),
            )
        )
        try:
            mailbox = parc.new(Mailbox)
            for index in range(8):
                mailbox.deliver(index)
            assert mailbox.messages() == list(range(8))
            mailbox.parc_release()
        finally:
            parc.shutdown()

    def test_least_loaded_placement(self):
        parc.init(
            ParcConfig(
                nodes=3,
                scheduler=SchedulerConfig(placement="least_loaded"),
            )
        )
        try:
            mailboxes = [parc.new(Mailbox) for _ in range(6)]
            counts = [node["ios"] for node in parc.current_runtime().stats()]
            assert sum(counts) == 6
            assert max(counts) - min(counts) <= 2
            for mailbox in mailboxes:
                mailbox.parc_release()
        finally:
            parc.shutdown()

    def test_random_placement(self):
        parc.init(
            ParcConfig(nodes=3, scheduler=SchedulerConfig(placement="random"))
        )
        try:
            for _ in range(6):
                parc.new(Mailbox)
            assert sum(
                node["ios"] for node in parc.current_runtime().stats()
            ) == 6
        finally:
            parc.shutdown()


class TestAdaptiveRuntime:
    def test_adaptive_agglomerates_tiny_grains(self, adaptive_runtime):
        _runtime, controller = adaptive_runtime
        # Generate cheap-execution evidence.
        for _generation in range(4):
            workers = [parc.new(Mailbox) for _ in range(3)]
            for worker in workers:
                for index in range(10):
                    worker.deliver(index)
                worker.messages()
            for worker in workers:
                worker.parc_release()
        decision = controller.decide("itest.Mailbox")
        assert decision.agglomerate or decision.max_calls > 1
        late = parc.new(Mailbox)
        late.deliver(1)
        assert late.messages() == [1]
        late.parc_release()
