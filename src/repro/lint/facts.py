"""Per-file facts for the interprocedural layers, and their cache.

One :class:`FileFacts` record per file holds the three per-file
summaries — dataflow (:class:`~repro.lint.dataflow.model.FileSummary`),
effects (:class:`~repro.lint.effects.model.EffectFileSummary`) and
races (:class:`~repro.lint.races.model.RaceFileSummary`).  All three
come from one parse and one :class:`~repro.lint.scope.FileScope`, and
they are stored together under one content-hash key.

The facts are a pure function of (source bytes, module name, display
path, the three schemas), so the key hashes exactly those.  Change a
file — or bump any layer's schema — and the key changes; stale facts
are never loaded.  Writes are atomic (temp file + ``os.replace``, the
same pattern as :mod:`repro.parallel.cache`), so an interrupted lint
never leaves a truncated entry; unreadable or schema-mismatched
entries count as misses and are overwritten.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.lint.dataflow.extract import summarize_dataflow
from repro.lint.dataflow.model import DATAFLOW_SCHEMA, FileSummary
from repro.lint.effects.extract import summarize_effects
from repro.lint.effects.model import EFFECTS_SCHEMA, EffectFileSummary
from repro.lint.races.extract import summarize_accesses
from repro.lint.races.model import RACES_SCHEMA, RaceFileSummary
from repro.lint.scope import FileScope

#: Default cache directory name, created under the repo root.
DEFAULT_CACHE_DIR_NAME = ".repro-lint-cache"

#: One input file: (display_path, module, source, optional parsed tree).
FileEntry = Tuple[str, str, str, Optional[ast.Module]]


@dataclass
class FileFacts:
    """The three per-file summaries of one file."""

    dataflow: FileSummary
    effects: EffectFileSummary
    races: RaceFileSummary

    def to_json(self) -> Dict[str, Any]:
        return {
            "dataflow": self.dataflow.to_json(),
            "effects": self.effects.to_json(),
            "races": self.races.to_json(),
        }

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "FileFacts":
        return cls(
            dataflow=FileSummary.from_json(payload["dataflow"]),
            effects=EffectFileSummary.from_json(payload["effects"]),
            races=RaceFileSummary.from_json(payload["races"]),
        )

    def is_current(self) -> bool:
        """Were all three summaries written under today's schemas?"""
        return (
            self.dataflow.schema == DATAFLOW_SCHEMA
            and self.effects.schema == EFFECTS_SCHEMA
            and self.races.schema == RACES_SCHEMA
        )


def extract_facts(
    display_path: str,
    module: str,
    source: str,
    tree: Optional[ast.Module] = None,
) -> FileFacts:
    """One file's facts from one parse.  Pure function of the inputs."""
    if tree is None:
        tree = ast.parse(source, filename=display_path)
    scope = FileScope(tree, module, display_path)
    return FileFacts(
        dataflow=summarize_dataflow(scope),
        effects=summarize_effects(scope),
        races=summarize_accesses(scope),
    )


def facts_key(source: str, module: str, path: str) -> str:
    """Content address of one file's facts.

    The display path is part of the key (findings embed it), so two
    identical files at different paths never share an entry; paths are
    repo-relative, so moving the checkout does not invalidate anything.
    """
    digest = hashlib.sha256()
    digest.update(
        f"schemas={DATAFLOW_SCHEMA},{EFFECTS_SCHEMA},{RACES_SCHEMA}\n"
        f"module={module}\npath={path}\n".encode()
    )
    digest.update(source.encode("utf-8"))
    return digest.hexdigest()


@dataclass
class FactsStats:
    """Cache accounting for one load of facts (surfaced by the CLI and CI)."""

    files: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


class FactsCache:
    """On-disk facts store rooted at ``directory``.

    ``directory=None`` disables persistence: every lookup is a miss and
    writes are dropped (used by tests that need a guaranteed cold run).
    """

    def __init__(self, directory: Optional[os.PathLike]) -> None:
        self.directory = Path(directory) if directory is not None else None
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        assert self.directory is not None
        # Two-level fan-out keeps directories small on big trees.
        return self.directory / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[FileFacts]:
        facts = None
        if self.directory is not None:
            try:
                payload = json.loads(self._path(key).read_text(encoding="utf-8"))
                facts = FileFacts.from_json(payload)
            except (OSError, ValueError, KeyError, TypeError):
                facts = None
        if facts is None or not facts.is_current():
            self.misses += 1
            return None
        self.hits += 1
        return facts

    def put(self, key: str, facts: FileFacts) -> None:
        if self.directory is None:
            return
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        encoded = json.dumps(facts.to_json(), separators=(",", ":"))
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(encoded)
            os.replace(tmp_name, path)
        except OSError:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def load_facts(
    entries: Sequence[FileEntry], cache_dir: Optional[Path]
) -> Tuple[List[FileFacts], FactsStats]:
    """Every entry's facts, from the cache or extracted (and stored).

    An entry without a tree is parsed only on a miss, so a warm run
    skips the parse and every AST walk.  Files that fail to parse are
    left out; the engine reports parse errors itself.
    """
    cache = FactsCache(cache_dir)
    loaded: List[FileFacts] = []
    for display_path, module, source, tree in entries:
        key = facts_key(source, module, display_path)
        facts = cache.get(key)
        if facts is None:
            try:
                facts = extract_facts(display_path, module, source, tree)
            except SyntaxError:
                continue
            cache.put(key, facts)
        loaded.append(facts)
    stats = FactsStats(
        files=len(loaded), cache_hits=cache.hits, cache_misses=cache.misses
    )
    return loaded, stats
