#!/usr/bin/env python3
"""Higher-level paradigms: the Farm and Pipeline skeletons + naming.

The paper's related work points at "implementation of higher level
programming paradigms" on platforms like ParC#; this example shows the
two skeletons PyParC ships — a word-count built as a Farm, and a
text-processing Pipeline — plus the cluster-wide name service.

Run:  python examples/skeletons.py
"""

import repro.core as parc
from repro.core import Farm, GrainPolicy, ParcConfig, Pipeline, SchedulerConfig

TEXT = """the quick brown fox jumps over the lazy dog
the dog barks and the fox runs
a quick dog and a lazy fox meet the brown dog""".splitlines()


@parc.parallel(
    name="examples.WordCounter",
    async_methods=["count_line"],
    sync_methods=["totals", "lookup_and_report"],
)
class WordCounter:
    def __init__(self):
        self.counts = {}

    def count_line(self, line):
        for word in line.split():
            self.counts[word] = self.counts.get(word, 0) + 1

    def totals(self):
        return dict(self.counts)

    def lookup_and_report(self, name):
        """Find another farm's PO through the name service."""
        other = parc.lookup(name)
        return sum(other.totals().values())


@parc.parallel(
    name="examples.Normalize", async_methods=["feed", "set_next"],
    sync_methods=["lines"],
)
class Normalize:
    def __init__(self):
        self.next_stage = None
        self.items = []

    def set_next(self, stage):
        self.next_stage = stage

    def feed(self, line):
        cleaned = " ".join(line.strip().lower().split())
        self.items.append(cleaned)
        if self.next_stage is not None:
            self.next_stage.feed(cleaned)

    def lines(self):
        return list(self.items)


@parc.parallel(
    name="examples.Dedup", async_methods=["feed", "set_next"],
    sync_methods=["unique"],
)
class Dedup:
    def __init__(self):
        self.next_stage = None
        self.seen_words = set()

    def set_next(self, stage):
        self.next_stage = stage

    def feed(self, line):
        for word in line.split():
            self.seen_words.add(word)

    def unique(self):
        return sorted(self.seen_words)


def main() -> None:
    parc.init(
        ParcConfig(
            nodes=4,
            scheduler=SchedulerConfig(grain=GrainPolicy(max_calls=4)),
        )
    )
    try:
        # --- Farm: scatter lines, merge counts -------------------------
        with Farm(WordCounter, workers=3) as farm:
            farm.scatter("count_line", TEXT)
            merged: dict[str, int] = {}
            for partial in farm.collect("totals"):
                for word, count in partial.items():
                    merged[word] = merged.get(word, 0) + count
            top = sorted(merged.items(), key=lambda kv: -kv[1])[:5]
            print("Farm word-count, top 5:")
            for word, count in top:
                print(f"  {word:>6}: {count}")

            # --- name service: another PO finds this farm's worker ----
            parc.bind("counter0", farm.workers[0])
            reporter = parc.new(WordCounter)
            total = reporter.lookup_and_report("counter0")
            print(f"\nvia name service: worker 0 counted {total} words")
            parc.unbind("counter0")
            reporter.parc_release()

        # --- Pipeline: normalize -> dedup ------------------------------
        with Pipeline([(Normalize, ()), (Dedup, ())]) as pipe:
            pipe.feed_all(["  The QUICK   brown FOX  ", "THE lazy DOG "])
            unique = pipe.call_last("unique")
            print(f"\nPipeline unique words: {unique}")
    finally:
        parc.shutdown()


if __name__ == "__main__":
    main()
