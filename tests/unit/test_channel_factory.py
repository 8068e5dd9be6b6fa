"""The scheme-registry channel factory (repro.channels.create)."""

from __future__ import annotations

import pytest

from repro import channels
from repro.channels.factory import register_scheme
from repro.channels.http import HttpChannel
from repro.channels.loopback import LoopbackChannel
from repro.channels.tcp import TcpChannel
from repro.chaos import FaultPlan, FaultyChannel
from repro.errors import ChannelError
from repro.telemetry import MetricsRegistry


class TestBaseSchemes:
    def test_every_builtin_base_scheme(self):
        assert set(channels.available_kinds()) >= {
            "loopback",
            "tcp",
            "http",
            "aio",
            "shm",
        }
        assert isinstance(channels.create("loopback"), LoopbackChannel)
        assert isinstance(channels.create("http"), HttpChannel)
        tcp = channels.create("tcp")
        try:
            assert isinstance(tcp, TcpChannel)
        finally:
            tcp.close()
        shm = channels.create("shm")
        try:
            assert shm.scheme == "shm"
        finally:
            shm.close()

    def test_unknown_base_rejected_with_catalog(self):
        with pytest.raises(ChannelError, match="loopback"):
            channels.create("carrier-pigeon")

    def test_base_opts_forwarded(self):
        from repro.serialization import BinaryFormatter

        formatter = BinaryFormatter()
        channel = channels.create("loopback", formatter=formatter)
        assert channel.formatter is formatter


class TestWrappers:
    def test_chaos_wraps_base(self):
        plan = FaultPlan(seed=0)
        channel = channels.create("chaos+loopback", chaos_plan=plan)
        assert isinstance(channel, FaultyChannel)
        assert isinstance(channel.inner, LoopbackChannel)
        assert channel.plan is plan

    def test_unknown_wrapper_rejected(self):
        with pytest.raises(ChannelError, match="wrapper"):
            channels.create("teleport+loopback")
        with pytest.raises(ChannelError, match="wrapper"):
            channels.create("chaos+chaos+loopback")

    def test_unconsumed_wrapper_option_rejected(self):
        # A silently ignored chaos_plan would run a test without its
        # faults; the factory refuses instead.
        with pytest.raises(ChannelError, match="chaos_plan"):
            channels.create("loopback", chaos_plan=FaultPlan(seed=0))

    def test_metrics_without_consumer_is_tolerated(self):
        # metrics is cross-cutting: many call sites pass it
        # unconditionally, and a bare base channel just ignores it.
        channel = channels.create("loopback", metrics=MetricsRegistry())
        assert isinstance(channel, LoopbackChannel)


class TestRegistration:
    def test_register_scheme_and_create(self):
        marker = object()

        def make(**opts):
            channel = LoopbackChannel(**opts)
            channel.marker = marker
            return channel

        register_scheme("loopback2", make)
        try:
            channel = channels.create("loopback2")
            assert channel.marker is marker
        finally:
            register_scheme("loopback2", LoopbackChannel, replace=True)

    def test_duplicate_scheme_rejected(self):
        with pytest.raises(ChannelError, match="already registered"):
            register_scheme("loopback", LoopbackChannel)

    def test_invalid_names_rejected(self):
        with pytest.raises(ChannelError):
            register_scheme("a+b", LoopbackChannel)
        with pytest.raises(ChannelError):
            register_scheme("", LoopbackChannel)
