"""The facts cache as the effects layer sees it: key discipline,
round trip and staleness of the effects summary, invalidation, and the
warm-run speedup bound."""

from __future__ import annotations

import json

from repro.lint.effects.model import EFFECTS_SCHEMA
from repro.lint.engine import analyze
from repro.lint.facts import FactsCache, extract_facts, facts_key

SOURCE = "def charge(stats, j):\n    stats.energy_j += j\n"
KEY = facts_key(SOURCE, "repro.m", "repro/m.py")


def make_facts():
    return extract_facts("repro/m.py", "repro.m", SOURCE)


def stored(tmp_path):
    """A cache dir holding SOURCE's facts, and that entry's file."""
    FactsCache(tmp_path).put(KEY, make_facts())
    return tmp_path / KEY[:2] / f"{KEY}.json"


class TestEffectsKey:
    def test_key_changes_with_source(self):
        assert KEY != facts_key(SOURCE + "\n# touched\n", "repro.m", "repro/m.py")

    def test_key_changes_with_module_and_path(self):
        assert KEY != facts_key(SOURCE, "repro.other", "repro/m.py")
        assert KEY != facts_key(SOURCE, "repro.m", "repro/other.py")

    def test_key_is_stable(self):
        assert KEY == facts_key(SOURCE, "repro.m", "repro/m.py")


class TestEffectsCache:
    def test_put_get_roundtrip(self, tmp_path):
        stored(tmp_path)
        fresh = FactsCache(tmp_path)
        assert fresh.get(KEY).effects == make_facts().effects
        assert fresh.hits == 1 and fresh.misses == 0

    def test_miss_on_absent_key(self, tmp_path):
        cache = FactsCache(tmp_path)
        assert cache.get("0" * 64) is None
        assert cache.misses == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        stored(tmp_path).write_text("{truncated")
        fresh = FactsCache(tmp_path)
        assert fresh.get(KEY) is None
        assert fresh.misses == 1

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        entry = stored(tmp_path)
        payload = json.loads(entry.read_text())
        payload["effects"]["schema"] = EFFECTS_SCHEMA + 1
        entry.write_text(json.dumps(payload))
        assert FactsCache(tmp_path).get(KEY) is None

    def test_none_directory_disables_persistence(self):
        cache = FactsCache(None)
        cache.put(KEY, make_facts())
        assert cache.get(KEY) is None


class TestIncrementalEffectsRuns:
    def test_edit_invalidates_only_the_edited_file(self, tmp_path):
        tree = tmp_path / "repro"
        tree.mkdir()
        (tree / "a.py").write_text("def f():\n    return 1\n")
        (tree / "b.py").write_text("def g():\n    return 2\n")
        cache_dir = tmp_path / "cache"
        analyze([tree], cache_dir=cache_dir, repo_root=tmp_path)
        (tree / "a.py").write_text("def f():\n    return 3\n")
        stats = analyze(
            [tree], cache_dir=cache_dir, repo_root=tmp_path
        ).effects_stats
        assert stats.cache_hits == 1
        assert stats.cache_misses == 1

    def test_warm_run_has_zero_misses(self, tree_analysis):
        warm_stats = tree_analysis.warm.effects_stats
        assert warm_stats.cache_misses == 0
        assert warm_stats.cache_hits == warm_stats.files
        assert warm_stats.hit_rate() == 1.0

    def test_warm_run_under_quarter_of_cold(self, tree_analysis):
        """The acceptance bound: a warm pass over the real tree must
        cost < 25% of the cold pass — the effect facts and the dataflow
        summaries they link against come from the cache, so warm runs
        skip parsing and every AST walk."""
        cold_stats = tree_analysis.cold.effects_stats
        assert cold_stats.cache_hits == 0
        assert cold_stats.cache_misses == cold_stats.files
        warm_stats = tree_analysis.warm.effects_stats
        assert warm_stats.cache_hits == warm_stats.files
        cold, warm = tree_analysis.cold_s, tree_analysis.warm_s
        assert warm < 0.25 * cold, (
            f"warm run took {warm:.3f}s vs cold {cold:.3f}s "
            f"({warm / cold:.0%}); the facts cache is not paying off"
        )
