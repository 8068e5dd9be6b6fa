"""Distributed tracing across real transports.

The guarantee under test: a PO call made inside an application span on
the home node produces spans on the *executing* node that chain, parent
by parent, back to the caller's span — across every transport, and
through the chaos wrapper (which must forward the ``parc-trace`` header
untouched).
"""

from __future__ import annotations

import pytest

import repro.core as parc
from repro.core import (
    GrainPolicy,
    ParcConfig,
    SchedulerConfig,
    TelemetryConfig,
)
from repro.telemetry import get_global_tracer

CHANNEL_KINDS = ["tcp", "aio", "shm", "chaos+tcp", "chaos+aio", "chaos+shm"]


@parc.parallel(
    name="ttrace.Summer", async_methods=["add"], sync_methods=["total"]
)
class Summer:
    def __init__(self):
        self.value = 0

    def add(self, n):
        self.value += n

    def total(self):
        return self.value


def _run_traced_farm(channel_kind: str) -> tuple[dict, dict]:
    """Run an aggregated async workload + sync collect under tracing.

    Returns (merged chrome-trace document, metrics snapshot), collected
    before shutdown.
    """
    config = ParcConfig(
        nodes=2,
        channel=channel_kind,
        telemetry=TelemetryConfig(enabled=True),
        scheduler=SchedulerConfig(grain=GrainPolicy(max_calls=4)),
    )
    with parc.session(config) as runtime:
        tracer = get_global_tracer()
        assert tracer is not None, "session must install the home tracer"
        with tracer.span("app", "root"):
            summers = [parc.new(Summer) for _ in range(4)]
            for summer in summers:
                for n in range(8):
                    summer.add(n)
            totals = [summer.total() for summer in summers]
        assert totals == [28] * 4
        for summer in summers:
            summer.parc_release()
        document = runtime.dump_trace()
        snapshot = runtime.metrics_snapshot()
    return document, snapshot


def _spans_by_id(document: dict) -> dict[str, dict]:
    return {
        event["args"]["span_id"]: event
        for event in document["traceEvents"]
        if event.get("ph") == "X" and "span_id" in event.get("args", {})
    }


def _chain_to_root(event: dict, spans: dict[str, dict]) -> list[dict]:
    """Follow parent_id links; returns the chain ending at a root span."""
    chain = [event]
    seen = {event["args"]["span_id"]}
    while "parent_id" in chain[-1]["args"]:
        parent = spans.get(chain[-1]["args"]["parent_id"])
        if parent is None:
            break
        assert parent["args"]["span_id"] not in seen, "span cycle"
        seen.add(parent["args"]["span_id"])
        chain.append(parent)
    return chain


@pytest.mark.parametrize("channel_kind", CHANNEL_KINDS)
def test_spans_chain_to_caller_across_nodes(channel_kind):
    document, _snapshot = _run_traced_farm(channel_kind)
    spans = _spans_by_id(document)
    roots = [e for e in spans.values() if e["name"] == "root"]
    assert len(roots) == 1
    root = roots[0]

    io_events = [
        e for e in document["traceEvents"] if e.get("cat") == "io"
    ]
    assert io_events, "no implementation-object spans recorded"

    # Every io span walks back to the caller's root span, and the walk
    # stays inside one distributed trace.
    connected_pids = set()
    for event in io_events:
        chain = _chain_to_root(event, spans)
        assert chain[-1]["args"]["span_id"] == root["args"]["span_id"], (
            f"io span {event['name']} on pid {event['pid']} does not "
            f"reach the root (chain: {[e['name'] for e in chain]})"
        )
        assert {e["args"]["trace_id"] for e in chain} == {
            root["args"]["trace_id"]
        }
        connected_pids.add(event["pid"])

    # The farm really fanned out: connected spans on >= 2 node lanes.
    assert len(connected_pids) >= 2, (
        f"expected io spans on >= 2 node lanes, got {connected_pids}"
    )
    # The server-side dispatch span sits between the io span and the
    # client's rpc span somewhere in at least one chain.
    assert any(
        e["cat"] == "dispatch"
        for event in io_events
        for e in _chain_to_root(event, spans)
    )
    assert any(
        e["cat"] == "rpc"
        for event in io_events
        for e in _chain_to_root(event, spans)
    )


@pytest.mark.parametrize("channel_kind", ["tcp", "chaos+aio"])
def test_method_histograms_on_every_executing_node(channel_kind):
    _document, snapshot = _run_traced_farm(channel_kind)
    nodes_with_methods = [
        label
        for label, export in snapshot["nodes"].items()
        if any(
            name.startswith("parc.method.seconds.Summer.")
            and metric["type"] == "histogram"
            for name, metric in export.items()
        )
    ]
    assert len(nodes_with_methods) >= 2, snapshot["nodes"].keys()

    merged = snapshot["cluster"]
    add = merged["parc.method.seconds.Summer.add"]
    total = merged["parc.method.seconds.Summer.total"]
    # 4 POs x 8 adds aggregated into batches; 4 sync totals.
    assert add["count"] == 32
    assert total["count"] == 4


def test_session_restores_global_tracer():
    assert get_global_tracer() is None
    _run_traced_farm("tcp")
    assert get_global_tracer() is None


def test_unsampled_runs_record_nothing():
    config = ParcConfig(
        nodes=2,
        channel="tcp",
        telemetry=TelemetryConfig(enabled=True, sample_rate=0.0),
        scheduler=SchedulerConfig(grain=GrainPolicy(max_calls=4)),
    )
    with parc.session(config) as runtime:
        tracer = get_global_tracer()
        with tracer.span("app", "root"):
            summer = parc.new(Summer)
            for n in range(8):
                summer.add(n)
            assert summer.total() == 28
        summer.parc_release()
        document = runtime.dump_trace()
        snapshot = runtime.metrics_snapshot()
    spans = [
        e for e in document["traceEvents"] if e.get("ph") in ("X", "i")
    ]
    assert spans == [], "sample_rate=0.0 must record no spans anywhere"
    # Metrics are decoupled from sampling: latency histograms still fill.
    assert "parc.method.seconds.Summer.add" in snapshot["cluster"]
