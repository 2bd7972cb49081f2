"""One scope walk and one extractor feed all three per-file summaries:
which nested defs each summary lists and in what order, the extractor's
output on a fixture that reaches every handler, and the facts codec."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

from repro.lint.facts import FactsCache, FileFacts, extract_facts, facts_key

DATA = Path(__file__).parent / "data"

NESTED = textwrap.dedent(
    """\
    import functools


    def outer(a, b=None):
        total = 0

        def helper(x):
            def deepest():
                return x + total
            return deepest()

        if a:
            def branch_only(y):
                return y * a
            total += branch_only(2)

        for i in range(3):
            def looped():
                return i

        class Local:
            def method(self):
                def in_local_method():
                    return 1
                return in_local_method()

        def after(z=lambda q: q + b):
            return z(1)

        return helper(total), Local, after


    async def coro(sim, n):
        async def step():
            return n

        def sync_inner():
            return sim

        return await step()


    class Service:
        limit = 4

        def run(self, items):
            def key(item):
                return item.rank + self.limit

            @functools.lru_cache(maxsize=None)
            def cached(k):
                return k

            return sorted(items, key=key)

        async def drain(self, queue):
            async def pull():
                if queue:
                    def nested_in_async():
                        return queue.pop()
                    return nested_in_async()
            return await pull()

        class Inner:
            def hidden(self):
                def never_listed():
                    return 0
                return never_listed


    if True:
        def conditional_top():
            return 1
    """
)

#: Dataflow and effects list a function's nested defs shallowest
#: first (``after`` sits directly in ``outer``'s body, ``branch_only``
#: and ``looped`` one statement deeper).  Methods of classes nested in
#: a function or class, and defs under module-level statements, are
#: not summarized.
BREADTH_FIRST = [
    "repro.nested.outer",
    "repro.nested.outer.helper",
    "repro.nested.outer.helper.deepest",
    "repro.nested.outer.after",
    "repro.nested.outer.branch_only",
    "repro.nested.outer.looped",
    "repro.nested.coro",
    "repro.nested.coro.step",
    "repro.nested.coro.sync_inner",
    "repro.nested.Service.run",
    "repro.nested.Service.run.key",
    "repro.nested.Service.run.cached",
    "repro.nested.Service.drain",
    "repro.nested.Service.drain.pull",
    "repro.nested.Service.drain.pull.nested_in_async",
    "repro.nested.<module>",
]

#: Races lists nested defs in source order.
SOURCE_ORDER = [
    "repro.nested.outer",
    "repro.nested.outer.helper",
    "repro.nested.outer.helper.deepest",
    "repro.nested.outer.branch_only",
    "repro.nested.outer.looped",
    "repro.nested.outer.after",
    "repro.nested.coro",
    "repro.nested.coro.step",
    "repro.nested.coro.sync_inner",
    "repro.nested.Service.run",
    "repro.nested.Service.run.key",
    "repro.nested.Service.run.cached",
    "repro.nested.Service.drain",
    "repro.nested.Service.drain.pull",
    "repro.nested.Service.drain.pull.nested_in_async",
    "repro.nested.<module>",
]


def qualnames(summary):
    return [fn.qualname for fn in summary.functions]


class TestNestedDefs:
    def test_dataflow_lists_nested_defs_breadth_first(self):
        facts = extract_facts("repro/nested.py", "repro.nested", NESTED)
        assert qualnames(facts.dataflow) == BREADTH_FIRST
        assert [c.qualname for c in facts.dataflow.classes] == [
            "repro.nested.Service"
        ]

    def test_effects_lists_nested_defs_breadth_first(self):
        facts = extract_facts("repro/nested.py", "repro.nested", NESTED)
        assert qualnames(facts.effects) == BREADTH_FIRST

    def test_races_lists_nested_defs_in_source_order(self):
        facts = extract_facts("repro/nested.py", "repro.nested", NESTED)
        assert qualnames(facts.races) == SOURCE_ORDER

    def test_only_methods_of_module_level_classes(self):
        facts = extract_facts("repro/nested.py", "repro.nested", NESTED)
        methods = {
            fn.qualname: fn.is_method
            for fn in facts.dataflow.functions
            if fn.is_method
        }
        assert methods == {
            "repro.nested.Service.run": True,
            "repro.nested.Service.drain": True,
        }
        races = {fn.qualname: fn.class_ctx for fn in facts.races.functions}
        assert races["repro.nested.Service.drain.pull.nested_in_async"] == (
            "repro.nested.Service"
        )
        assert races["repro.nested.outer.after"] == ""


def golden_facts():
    source = (DATA / "facts_fixture.py").read_text(encoding="utf-8")
    return extract_facts("src/repro/sim/golden.py", "repro.sim.golden", source)


class TestExtractorGolden:
    """``data/facts_golden.json`` holds the fixture's facts as the three
    per-layer extractors wrote them before they were merged into one;
    any change to it is a change in what the layers see."""

    def test_facts_are_byte_equal_to_the_golden(self):
        expected = (DATA / "facts_golden.json").read_text(encoding="utf-8")
        assert json.dumps(golden_facts().to_json(), indent=1) + "\n" == expected

    def test_golden_round_trips_through_the_codec(self):
        payload = json.loads((DATA / "facts_golden.json").read_text(encoding="utf-8"))
        assert FileFacts.from_json(payload).to_json() == payload


class TestFactsCodec:
    def test_entry_missing_a_nested_field_is_a_miss(self, tmp_path):
        facts = golden_facts()
        key = facts_key("x = 1\n", "repro.m", "repro/m.py")
        FactsCache(tmp_path).put(key, facts)
        entry = tmp_path / key[:2] / f"{key}.json"
        payload = json.loads(entry.read_text())
        del payload["races"]["functions"][0]["accesses"][0]["segment"]
        entry.write_text(json.dumps(payload))
        cache = FactsCache(tmp_path)
        assert cache.get(key) is None
        assert cache.misses == 1

    def test_entry_with_a_wrong_shape_is_a_miss(self, tmp_path):
        key = facts_key("x = 1\n", "repro.m", "repro/m.py")
        FactsCache(tmp_path).put(key, golden_facts())
        entry = tmp_path / key[:2] / f"{key}.json"
        payload = json.loads(entry.read_text())
        payload["effects"]["functions"] = {"not": "a list"}
        entry.write_text(json.dumps(payload))
        assert FactsCache(tmp_path).get(key) is None
