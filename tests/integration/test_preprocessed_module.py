"""Integration test: preprocess a module, import it, run the generated POs.

Also the behavioural-equivalence check promised in DESIGN.md: the
source-generated PO and the runtime-generated PO (make_parallel_class)
must behave identically.
"""

from __future__ import annotations

import importlib.util
import sys
import textwrap

import pytest

import repro.core as parc
from repro.core import (
    GrainPolicy,
    ParcConfig,
    SchedulerConfig,
    make_parallel_class,
    preprocess_module,
)

MODULE_SOURCE = textwrap.dedent(
    '''
    from repro.core import parallel


    @parallel
    class Collector:
        """Accumulates labelled values."""

        def __init__(self, label):
            self.label = label
            self.values = []

        def add(self, value):
            self.values.append(value)

        def add_many(self, values, scale=1):
            for value in values:
                self.values.append(value * scale)

        def summary(self):
            return (self.label, sorted(self.values))
    '''
)


KEYWORD_SOURCE = textwrap.dedent(
    '''
    from repro.core import parallel


    @parallel
    class Ledger:
        """Records keyword-carrying posts."""

        def __init__(self):
            self.entries = []

        def note(self, key, *, weight=1, **tags):
            self.entries.append((key, weight, tags))

        def entries_so_far(self):
            return list(self.entries)
    '''
)


def load_generated(tmp_path, name, source=MODULE_SOURCE):
    source_file = tmp_path / f"{name}.py"
    source_file.write_text(source, encoding="utf-8")
    generated_path = preprocess_module(source_file)
    spec = importlib.util.spec_from_file_location(
        generated_path.stem, generated_path
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[generated_path.stem] = module
    spec.loader.exec_module(module)
    return module


class TestGeneratedModule:
    def test_po_class_replaces_original_name(self, tmp_path):
        module = load_generated(tmp_path, "collectors_a")
        from repro.core.proxy_object import ProxyObject

        assert issubclass(module.Collector, ProxyObject)
        assert module.CollectorImpl is not module.Collector

    def test_end_to_end(self, tmp_path):
        module = load_generated(tmp_path, "collectors_b")
        parc.init(
            ParcConfig(
                nodes=2,
                scheduler=SchedulerConfig(grain=GrainPolicy(max_calls=3)),
            )
        )
        try:
            collector = module.Collector("demo")
            collector.add(3)
            collector.add(1)
            collector.add_many([10, 20], scale=2)
            assert collector.summary() == ("demo", [1, 3, 20, 40])
            collector.parc_release()
        finally:
            parc.shutdown()

    def test_classification_frozen_in_source(self, tmp_path):
        module = load_generated(tmp_path, "collectors_c")
        info = module.Collector._parc_info
        assert info.async_methods == ["add", "add_many"]
        assert info.sync_methods == ["summary"]

    def test_source_and_runtime_paths_agree(self, tmp_path):
        """The DESIGN.md equivalence claim, executed."""
        module = load_generated(tmp_path, "collectors_d")
        runtime_po_class = make_parallel_class(module.CollectorImpl)
        parc.init(
            ParcConfig(
                nodes=2,
                scheduler=SchedulerConfig(grain=GrainPolicy(max_calls=2)),
            )
        )
        try:
            from_source = module.Collector("s")
            from_runtime = runtime_po_class("r")
            for po in (from_source, from_runtime):
                po.add(5)
                po.add_many([1, 2], scale=3)
            source_result = from_source.summary()
            runtime_result = from_runtime.summary()
            assert source_result[1] == runtime_result[1] == [3, 5, 6]
            # Same public surface.
            source_api = {
                n for n in dir(type(from_source)) if not n.startswith("_")
            }
            runtime_api = {
                n for n in dir(type(from_runtime)) if not n.startswith("_")
            }
            assert source_api == runtime_api
        finally:
            parc.shutdown()

    def test_generated_module_reusable_across_runtimes(self, tmp_path):
        module = load_generated(tmp_path, "collectors_e")
        for _round in range(2):
            parc.init(ParcConfig(nodes=2))
            try:
                collector = module.Collector("again")
                collector.add(1)
                assert collector.summary() == ("again", [1])
            finally:
                parc.shutdown()

    def test_keyword_posts_arrive_intact(self, tmp_path):
        """The generated method's fresh kwargs dict is buffered as is."""
        module = load_generated(tmp_path, "ledgers_a", KEYWORD_SOURCE)
        parc.init(
            ParcConfig(
                nodes=2,
                scheduler=SchedulerConfig(grain=GrainPolicy(max_calls=4)),
            )
        )
        try:
            ledgers = [module.Ledger(), module.Ledger()]  # one per node
            expected = []
            for index in range(10):
                expected.append((f"k{index}", index, {"round": index % 3}))
            for ledger in ledgers:
                for key, weight, tags in expected:
                    ledger.note(key, weight=weight, **tags)
                ledger.note("plain")
            for ledger in ledgers:
                assert ledger.entries_so_far() == expected + [("plain", 1, {})]
                ledger.parc_release()
        finally:
            parc.shutdown()
