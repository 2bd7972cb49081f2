"""The facts cache as the races layer sees it: key discipline, round
trip and staleness of the access summary, invalidation, the warm-run
speedup bound, and report identity across serial and
4-worker-sharded cache warms."""

from __future__ import annotations

import ast
import json
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from repro.lint.engine import analyze, read_entries
from repro.lint.facts import FactsCache, extract_facts, facts_key
from repro.lint.races.model import RACES_SCHEMA

REPO_ROOT = Path(__file__).resolve().parents[2]

SOURCE = "def charge(stats, j):\n    stats.energy_j += j\n"
KEY = facts_key(SOURCE, "repro.m", "repro/m.py")


def make_facts():
    return extract_facts("repro/m.py", "repro.m", SOURCE)


def stored(tmp_path):
    """A cache dir holding SOURCE's facts, and that entry's file."""
    FactsCache(tmp_path).put(KEY, make_facts())
    return tmp_path / KEY[:2] / f"{KEY}.json"


class TestRacesKey:
    def test_key_changes_with_source(self):
        assert KEY != facts_key(SOURCE + "\n# touched\n", "repro.m", "repro/m.py")

    def test_key_changes_with_module_and_path(self):
        assert KEY != facts_key(SOURCE, "repro.other", "repro/m.py")
        assert KEY != facts_key(SOURCE, "repro.m", "repro/other.py")

    def test_key_is_stable(self):
        assert KEY == facts_key(SOURCE, "repro.m", "repro/m.py")


class TestRacesCache:
    def test_put_get_roundtrip(self, tmp_path):
        stored(tmp_path)
        fresh = FactsCache(tmp_path)
        assert fresh.get(KEY).races == make_facts().races
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
        payload["races"]["schema"] = RACES_SCHEMA + 1
        entry.write_text(json.dumps(payload))
        assert FactsCache(tmp_path).get(KEY) is None

    def test_none_directory_disables_persistence(self):
        cache = FactsCache(None)
        cache.put(KEY, make_facts())
        assert cache.get(KEY) is None


class TestIncrementalRacesRuns:
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
        ).races_stats
        assert stats.cache_hits == 1
        assert stats.cache_misses == 1

    def test_warm_run_has_zero_misses(self, tree_analysis):
        warm_stats = tree_analysis.warm.races_stats
        assert warm_stats.cache_misses == 0
        assert warm_stats.cache_hits == warm_stats.files
        assert warm_stats.hit_rate() == 1.0

    def test_warm_run_under_quarter_of_cold(self, tree_analysis):
        """The acceptance bound: a warm pass over the real tree must
        cost < 25% of the cold pass — the access facts, the dataflow
        summaries they link against and the effect facts the
        signatures come from are all cached, so warm runs skip parsing
        and every AST walk."""
        cold_stats = tree_analysis.cold.races_stats
        assert cold_stats.cache_hits == 0
        assert cold_stats.cache_misses == cold_stats.files
        warm_stats = tree_analysis.warm.races_stats
        assert warm_stats.cache_hits == warm_stats.files
        cold, warm = tree_analysis.cold_s, tree_analysis.warm_s
        assert warm < 0.25 * cold, (
            f"warm run took {warm:.3f}s vs cold {cold:.3f}s "
            f"({warm / cold:.0%}); the facts cache is not paying off"
        )


def _warm_shard(payload):
    """Worker: extract one shard of files into the shared cache.

    Module-level so ProcessPoolExecutor can pickle it.
    """
    cache_dir, files = payload
    cache = FactsCache(Path(cache_dir))
    for display, module, text in files:
        key = facts_key(text, module, display)
        if cache.get(key) is None:
            tree = ast.parse(text)
            cache.put(key, extract_facts(display, module, text, tree))
    return len(files)


class TestSerialParallelIdentity:
    def test_report_identical_after_4_worker_shard_warm(
        self, tmp_path, tree_analysis
    ):
        """The committed ``results/races_report.json`` and
        ``results/effects_report.json`` must not depend on how (or in
        what order, or by how many workers) the per-file facts were
        produced: reports built from a cache warmed by 4 worker
        processes over interleaved shards are byte-identical to a
        serial cold run's."""
        src = REPO_ROOT / "src" / "repro"
        serial = tree_analysis.cold

        entries = [entry[:3] for entry in read_entries([src], REPO_ROOT)]
        sharded_dir = tmp_path / "sharded"
        shards = [
            (str(sharded_dir), entries[index::4]) for index in range(4)
        ]
        with ProcessPoolExecutor(max_workers=4) as pool:
            counts = list(pool.map(_warm_shard, shards))
        assert sum(counts) == len(entries)

        sharded = analyze([src], cache_dir=sharded_dir, repo_root=REPO_ROOT)
        assert sharded.races_stats.cache_misses == 0  # the warm really warmed
        for report in ("races_report", "effects_report"):
            assert json.dumps(getattr(sharded, report), sort_keys=True) == (
                json.dumps(getattr(serial, report), sort_keys=True)
            )
