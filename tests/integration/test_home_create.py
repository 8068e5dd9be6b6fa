"""Grain creation without a round trip to the creating node itself.

A grain the object manager places on the creating node is built in
process: no framed exchange from ``new`` to ``parc_release``, while the
arguments are still copied by value, a raising constructor still
surfaces as :class:`RemoteInvocationError`, and the IO is published and
unpublished as over the wire.  Column plans are compiled once per
(class, method) for the whole process, not once per grain.
"""

from __future__ import annotations

import collections

import pytest

import repro.core as parc
import repro.core.proxy_object as proxy_object
from repro.core import GrainPolicy, ParcConfig, SchedulerConfig
from repro.core.impl import ImplementationObject
from repro.errors import RemoteInvocationError
from repro.remoting.host import RemotingHost

#: Constructor arguments as the constructors below received them.
received: list = []


@parc.parallel(
    name="itest.home.Tally",
    async_methods=["tick"],
    sync_methods=["count", "owner", "seen"],
)
class Tally:
    def __init__(self, owner=None, source=None):
        received.append((owner, source))
        self._owner = owner
        self._seen = source.count() if source is not None else None
        self.calls = 0
        self.total = 0

    def tick(self, value: int) -> None:
        self.total += value
        self.calls += 1

    def count(self) -> tuple:
        return (self.calls, self.total)

    def owner(self):
        return self._owner

    def seen(self):
        return self._seen


@parc.parallel(name="itest.home.Faulty", sync_methods=["ping"])
class Faulty:
    def __init__(self):
        raise ValueError("constructor refused")

    def ping(self):
        return "pong"


@parc.parallel(
    name="itest.home.Planned",
    async_methods=["tick", "add"],
    sync_methods=["count"],
)
class Planned:
    def __init__(self):
        self.total = 0

    def tick(self, value: int) -> None:
        self.total += value

    def add(self, value: float) -> None:
        self.total += value

    def count(self) -> float:
        return self.total


@pytest.fixture
def served(monkeypatch):
    """Requests each host serves, as ``{host_id: Counter(method)}``.

    The object manager's ``report`` refreshes are left out: placement
    reads peer rows on its own clock, not per grain.
    """
    counts: dict[str, collections.Counter] = collections.defaultdict(
        collections.Counter
    )
    run_call = RemotingHost._run_call

    def counting(self, message):  # type: ignore[no-untyped-def]
        if message.method != "report":
            counts[self.host_id][message.method] += 1
        return run_call(self, message)

    monkeypatch.setattr(RemotingHost, "_run_call", counting)
    return counts


def _session(nodes: int, channel: str = "tcp", max_calls: int = 4):
    return parc.session(
        ParcConfig(
            nodes=nodes,
            channel=channel,
            scheduler=SchedulerConfig(grain=GrainPolicy(max_calls=max_calls)),
        )
    )


def _on_home(runtime, po) -> bool:
    impl = po._parc_grain.impl
    return (
        isinstance(impl, ImplementationObject)
        and impl.node is runtime.cluster.home_node
    )


def _served_total(counts) -> int:
    return sum(sum(c.values()) for c in counts.values())


def _lifecycle(values) -> tuple:
    grain = parc.new(Tally)
    for value in values:
        grain.tick(value)
    result = grain.count()
    return grain, result


class TestLifecycleCensus:
    def test_home_grain_makes_no_exchange_remote_grain_makes_four(
        self, served
    ):
        with _session(nodes=2) as runtime:
            home_node, other = runtime.cluster.nodes
            seen = {"home": 0, "remote": 0}
            for index in range(6):
                before = {
                    host: collections.Counter(c)
                    for host, c in served.items()
                }
                grain, result = _lifecycle(range(index, index + 4))
                on_home = _on_home(runtime, grain)
                grain.parc_release()
                assert result == (4, 4 * index + 6)
                delta = {
                    host: served[host] - before.get(host, collections.Counter())
                    for host in list(served)
                }
                delta = {host: c for host, c in delta.items() if c}
                if on_home:
                    seen["home"] += 1
                    assert delta == {}
                else:
                    seen["remote"] += 1
                    assert delta == {
                        other.host.host_id: collections.Counter(
                            create=1, enqueue_batch=1, invoke=1, dispose=1
                        )
                    }
            assert seen["home"] >= 2 and seen["remote"] >= 2
            assert home_node.host.host_id not in served


class TestHomeCreateKeepsWireSemantics:
    def test_raising_constructor_is_remote_invocation_error(self, served):
        with _session(nodes=1) as runtime:
            with pytest.raises(
                RemoteInvocationError, match="ValueError: constructor refused"
            ) as caught:
                parc.new(Faulty)
            assert "constructor refused" in caught.value.remote_traceback
            assert runtime.cluster.home_node.om.dead_nodes() == []
            assert _served_total(served) == 0
            # The node is still placeable: the failure was the user's.
            grain = parc.new(Tally)
            assert _on_home(runtime, grain)
            grain.parc_release()

    def test_constructor_args_copied_on_home_node(self, served):
        received.clear()
        with _session(nodes=1) as runtime:
            payload = ["shared"]
            grain = parc.new(Tally, payload)
            assert _on_home(runtime, grain)
            payload.append("mutated later")
            assert grain.owner() == ["shared"]
            assert received[-1][0] is not payload
            assert _served_total(served) == 0
            grain.parc_release()

    def test_po_argument_ships_its_earlier_calls_first(self, served):
        received.clear()
        with _session(nodes=1, max_calls=8) as runtime:
            source = parc.new(Tally)
            for value in (1, 2, 3):
                source.tick(value)  # buffered: fewer than max_calls
            sink = parc.new(Tally, "sink", source)
            assert _on_home(runtime, sink)
            assert sink.seen() == (3, 6)
            assert received[-1][1] is not source  # a copy of the reference
            assert _served_total(served) == 0
            sink.parc_release()
            source.parc_release()

    def test_release_unpublishes_the_path(self, served):
        with _session(nodes=1) as runtime:
            host = runtime.cluster.home_node.host
            grain = parc.new(Tally)
            assert _on_home(runtime, grain)
            path = grain._parc_grain.impl._parc_path
            assert path in host.published_paths()
            grain.parc_release()
            assert path not in host.published_paths()
            assert _served_total(served) == 0


class TestColumnPlans:
    def test_one_plan_per_class_and_method(self, monkeypatch):
        calls = collections.Counter()
        plan = proxy_object.method_column_plan

        def counting(func):  # type: ignore[no-untyped-def]
            calls[func.__name__] += 1
            return plan(func)

        monkeypatch.setattr(proxy_object, "method_column_plan", counting)
        with _session(nodes=2, channel="loopback") as runtime:
            grains = [parc.new(Planned) for _ in range(20)]
            for grain in grains:
                for value in range(4):
                    grain.tick(value)
                for value in range(4):
                    grain.add(0.5)
            assert [grain.count() for grain in grains] == [8.0] * 20
            for grain in grains:
                grain.parc_release()
            assert runtime.stats()  # still serving
        assert calls == {"tick": 1, "add": 1}


class TestAsyncFailureCount:
    @pytest.mark.parametrize("channel", ["loopback", "tcp"])
    def test_count_is_cumulative_past_the_log(self, channel):
        with _session(nodes=2, channel=channel, max_calls=1) as runtime:
            grains = [parc.new(Tally) for _ in range(2)]
            assert _on_home(runtime, grains[0])
            assert not _on_home(runtime, grains[1])
            for grain in grains:
                for _ in range(40):
                    grain.tick("not a number")
                assert grain.count() == (0, 0)
            impl = grains[0]._parc_grain.impl
            assert len(impl.async_failures()) == 32
            assert impl.stats()["async_failures"] == 40
            assert [row["async_failures"] for row in runtime.stats()] == [
                40,
                40,
            ]
            for grain in grains:
                grain.parc_release()
            # Retired IOs' failures stay in the node totals.
            assert [row["async_failures"] for row in runtime.stats()] == [
                40,
                40,
            ]
