"""The facts cache as the dataflow layer sees it: key discipline,
round trip and staleness of the dataflow summary, invalidation, and
the warm-run speedup the incremental design exists for."""

from __future__ import annotations

import json

from repro.lint.dataflow import DATAFLOW_RULE_IDS
from repro.lint.dataflow.model import DATAFLOW_SCHEMA
from repro.lint.engine import analyze
from repro.lint.facts import FactsCache, extract_facts, facts_key

SOURCE = "from repro.units import GiB\n\ndef cap_bytes():\n    return 2 * GiB\n"
KEY = facts_key(SOURCE, "repro.m", "repro/m.py")
DATAFLOW = set(DATAFLOW_RULE_IDS)


def make_facts():
    return extract_facts("repro/m.py", "repro.m", SOURCE)


def stored(tmp_path):
    """A cache dir holding SOURCE's facts, and that entry's file."""
    FactsCache(tmp_path).put(KEY, make_facts())
    return tmp_path / KEY[:2] / f"{KEY}.json"


class TestSummaryKey:
    def test_key_changes_with_source(self):
        assert KEY != facts_key(SOURCE + "\n# touched\n", "repro.m", "repro/m.py")

    def test_key_changes_with_module_and_path(self):
        assert KEY != facts_key(SOURCE, "repro.other", "repro/m.py")
        assert KEY != facts_key(SOURCE, "repro.m", "repro/other.py")

    def test_key_is_stable(self):
        assert KEY == facts_key(SOURCE, "repro.m", "repro/m.py")


class TestSummaryCache:
    def test_put_get_roundtrip(self, tmp_path):
        stored(tmp_path)
        fresh = FactsCache(tmp_path)
        assert fresh.get(KEY).dataflow == make_facts().dataflow
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
        payload["dataflow"]["schema"] = DATAFLOW_SCHEMA + 1
        entry.write_text(json.dumps(payload))
        assert FactsCache(tmp_path).get(KEY) is None

    def test_none_directory_disables_persistence(self):
        cache = FactsCache(None)
        cache.put(KEY, make_facts())
        assert cache.get(KEY) is None
        assert cache.hit_rate() == 0.0

    def test_no_temp_files_left_behind(self, tmp_path):
        stored(tmp_path)
        leftovers = [p for p in tmp_path.rglob("*") if p.name.startswith(".tmp-")]
        assert leftovers == []


class TestIncrementalRuns:
    def test_edit_invalidates_only_the_edited_file(self, tmp_path):
        tree = tmp_path / "repro"
        tree.mkdir()
        (tree / "a.py").write_text("def f_bytes():\n    return 1\n")
        (tree / "b.py").write_text("def g_bytes():\n    return 2\n")
        cache_dir = tmp_path / "cache"
        analyze([tree], cache_dir=cache_dir, repo_root=tmp_path)
        (tree / "a.py").write_text("def f_bytes():\n    return 3\n")
        stats = analyze(
            [tree], cache_dir=cache_dir, repo_root=tmp_path
        ).dataflow_stats
        assert stats.cache_hits == 1
        assert stats.cache_misses == 1

    def test_warm_run_under_quarter_of_cold(self, tree_analysis):
        """The acceptance bound: a warm-cache pass over the real
        src/repro tree must cost < 25% of the cold pass (it skips
        parsing and every AST walk, so in practice it is far below)."""
        cold_stats = tree_analysis.cold.dataflow_stats
        assert cold_stats.cache_hits == 0
        assert cold_stats.cache_misses == cold_stats.files

        warm_stats = tree_analysis.warm.dataflow_stats
        assert warm_stats.cache_hits == warm_stats.files
        assert warm_stats.cache_misses == 0
        assert warm_stats.hit_rate() == 1.0
        cold, warm = tree_analysis.cold_s, tree_analysis.warm_s
        assert warm < 0.25 * cold, (
            f"warm run took {warm:.3f}s vs cold {cold:.3f}s "
            f"({warm / cold:.0%}); the facts cache is not paying off"
        )

    def test_warm_and_cold_findings_agree(self, tmp_path):
        tree = tmp_path / "repro"
        tree.mkdir()
        (tree / "helpers.py").write_text(
            "from repro.units import GiB\n\n"
            "def reserved_bytes():\n    return 2 * GiB\n"
        )
        (tree / "driver.py").write_text(
            "from repro.helpers import reserved_bytes\n"
            "from repro.units import GB\n\n"
            "def total():\n    return reserved_bytes() + 4 * GB\n"
        )
        cache_dir = tmp_path / "cache"
        cold = analyze(
            [tree], cache_dir=cache_dir, repo_root=tmp_path, rule_ids=DATAFLOW
        )
        warm = analyze(
            [tree], cache_dir=cache_dir, repo_root=tmp_path, rule_ids=DATAFLOW
        )
        assert warm.dataflow_stats.hit_rate() == 1.0
        assert [f.render() for f in warm.new] == [f.render() for f in cold.new]
        assert [f.rule_id for f in warm.new] == ["RL013"]
