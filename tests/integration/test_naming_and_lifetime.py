"""Integration tests: the SCOOPP name service and lease sweeping."""

from __future__ import annotations

import threading

import pytest

import repro.core as parc
from repro.channels import LoopbackChannel
from repro.channels.services import ChannelServices
from repro.core import GrainPolicy, ParcConfig, SchedulerConfig
from repro.core.depgraph import MAIN
from repro.errors import RemotingError, ScooppError
from repro.executor import timer
from repro.perfmodel import VirtualClock
from repro.remoting import MarshalByRefObject, RemotingHost


@parc.parallel(
    name="naming.Board", async_methods=["post"], sync_methods=["posts"]
)
class Board:
    def __init__(self, topic="general"):
        self.topic = topic
        self.entries = []

    def post(self, text):
        self.entries.append(text)

    def posts(self):
        return list(self.entries)


@parc.parallel(name="naming.Author", async_methods=[], sync_methods=["publish"])
class Author:
    def publish(self, text):
        """Looks the board up *from inside a parallel method*."""
        board = parc.lookup("board")
        board.post(text)
        board.parc_wait()
        return True


class TestNameService:
    def test_bind_lookup_roundtrip(self, runtime):
        board = parc.new(Board, "news")
        parc.bind("board", board)
        found = parc.lookup("board")
        found.post("hello")
        found.parc_wait()
        assert board.posts() == ["hello"]  # the very same IO
        parc.unbind("board")
        board.parc_release()

    def test_bind_twice_rejected_rebind_allowed(self, runtime):
        first = parc.new(Board)
        second = parc.new(Board)
        parc.bind("dup", first)
        with pytest.raises(Exception, match="already bound"):
            parc.bind("dup", second)
        parc.rebind("dup", second)
        parc.unbind("dup")
        first.parc_release()
        second.parc_release()

    def test_lookup_missing(self, runtime):
        with pytest.raises(Exception, match="not bound"):
            parc.lookup("ghost")

    def test_unbind_missing(self, runtime):
        with pytest.raises(Exception, match="not bound"):
            parc.unbind("ghost")

    def test_names_listing(self, runtime):
        a = parc.new(Board)
        b = parc.new(Board)
        parc.bind("zeta", a)
        parc.bind("alpha", b)
        assert parc.names() == ["alpha", "zeta"]
        parc.unbind("zeta")
        parc.unbind("alpha")
        a.parc_release()
        b.parc_release()

    def test_only_pos_bindable(self, runtime):
        with pytest.raises(ScooppError, match="parallel objects"):
            parc.bind("x", object())

    def test_lookup_from_inside_parallel_method(self, runtime):
        board = parc.new(Board)
        parc.bind("board", board)
        author = parc.new(Author)
        assert author.publish("from a worker") is True
        assert board.posts() == ["from a worker"]
        parc.unbind("board")
        author.parc_release()
        board.parc_release()

    def test_agglomerated_po_promoted_on_bind(self):
        parc.init(
            ParcConfig(
                nodes=2,
                scheduler=SchedulerConfig(grain=GrainPolicy(agglomerate=True)),
            )
        )
        try:
            board = parc.new(Board)
            assert board.parc_is_local
            parc.bind("local-board", board)
            assert not board.parc_is_local  # promoted by the crossing
            found = parc.lookup("local-board")
            found.post("promoted")
            found.parc_wait()
            assert board.posts() == ["promoted"]
        finally:
            parc.shutdown()

    def test_names_are_per_runtime(self):
        parc.init(ParcConfig(nodes=2))
        try:
            board = parc.new(Board)
            parc.bind("ephemeral", board)
        finally:
            parc.shutdown()
        parc.init(ParcConfig(nodes=2))
        try:
            assert parc.names() == []
        finally:
            parc.shutdown()


class TestLeaseSweeper:
    def test_background_sweeper_collects(self):
        clock = VirtualClock()
        services = ChannelServices()
        services.register_channel(LoopbackChannel())
        host = RemotingHost(name="sweep-host", services=services, clock=clock)
        host.listen(LoopbackChannel(), "auto")
        try:

            class Ephemeral(MarshalByRefObject):
                def ping(self):
                    return "pong"

            ephemeral = Ephemeral()
            host.objref_for(ephemeral)  # implicit publish, finite lease
            path = ephemeral._parc_path
            swept = threading.Event()
            collect_expired = host.collect_expired

            def collect_and_signal():
                expired = collect_expired()
                swept.set()
                return expired

            host.collect_expired = collect_and_signal
            clock.advance(10_000.0)  # lease long expired in virtual time
            host.start_lease_sweeper(interval_s=0.02)
            host.start_lease_sweeper(interval_s=0.02)  # idempotent
            assert swept.wait(5)
            assert path not in host.published_paths()
        finally:
            host.close()

    def test_no_sweep_runs_after_close_returns(self):
        host = RemotingHost(name="sweep-close", services=ChannelServices())
        log = []
        entered, leave = threading.Event(), threading.Event()

        def collect_expired():
            log.append("sweep")
            entered.set()
            leave.wait(10)
            log.append("swept")
            return []

        host.collect_expired = collect_expired
        host.start_lease_sweeper(interval_s=0.01)
        assert entered.wait(5)

        def close():
            host.close()
            log.append("closed")

        closer = threading.Thread(target=close)
        closer.start()
        # Long enough for a close() that does not wait out the sweep in
        # flight to return before the sweep ends.
        closer.join(0.2)
        leave.set()
        closer.join(10)
        assert not closer.is_alive()
        # Callbacks run in deadline order: once this one has run, any
        # sweep the closed host still had armed would have run too.
        later = threading.Event()
        timer().call_later(0.05, later.set)
        assert later.wait(5)
        assert log == ["sweep", "swept", "closed"]

    def test_sweeper_validation(self):
        services = ChannelServices()
        host = RemotingHost(name="sv", services=services)
        try:
            with pytest.raises(RemotingError):
                host.start_lease_sweeper(interval_s=0)
        finally:
            host.close()

    def test_sweeper_on_closed_host_rejected(self):
        services = ChannelServices()
        host = RemotingHost(name="sc", services=services)
        host.close()
        with pytest.raises(RemotingError):
            host.start_lease_sweeper()


class TestReleasedGrainsLeaveTheirNode:
    def test_churn_returns_nodes_to_their_pre_churn_state(self):
        config = parc.ParcConfig(
            nodes=2,
            channel="tcp",
            scheduler=parc.SchedulerConfig(grain=GrainPolicy(max_calls=4)),
        )
        with parc.session(config) as rt:
            nodes = rt.cluster.nodes
            before_ios = [row["ios"] for row in rt.stats()]
            before_paths = [node.host.published_paths() for node in nodes]
            before_load = [node.report()["load"] for node in nodes]
            for _round in range(4):
                boards = [parc.new(Board) for _ in range(50)]
                for index, board in enumerate(boards):
                    for n in range(4):
                        board.post(f"{index}.{n}")
                assert all(len(board.posts()) == 4 for board in boards)
                assert sum(row["ios"] for row in rt.stats()) == (
                    sum(before_ios) + 50
                )
                for board in boards:
                    board.parc_release()
                    board.parc_release()  # idempotent
            rows = rt.stats()
            assert [row["ios"] for row in rows] == before_ios
            assert [
                node.host.published_paths() for node in nodes
            ] == before_paths
            assert [node.report()["load"] for node in nodes] == before_load
            # The cumulative figures keep what the released grains did:
            # 4 posts and 1 posts() per grain.
            assert sum(row["created_total"] for row in rows) == 200
            assert sum(row["processed"] for row in rows) == 200 * 5
            assert list(rt.dependence.nodes()) == [MAIN]

    @pytest.mark.parametrize("agglomerate", [False, True])
    def test_released_grains_leave_the_dependence_graph(self, agglomerate):
        config = ParcConfig(
            nodes=2,
            scheduler=SchedulerConfig(grain=GrainPolicy(agglomerate=agglomerate)),
        )
        with parc.session(config) as rt:
            for _cycle in range(1000):
                parc.new(Board).parc_release()
            assert list(rt.dependence.nodes()) == [MAIN]
            assert rt.dependence.edges() == []
