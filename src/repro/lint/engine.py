"""The lint engine: discover files, parse once, run every rule.

Pipeline per run:

1. discover ``.py`` files under the given paths (skipping junk dirs);
2. parse each file once and build the repo-wide import graph, from
   which the determinism-critical module set is derived;
3. run every selected per-file rule over every file;
4. if any interprocedural rule is selected, load every file's
   :class:`~repro.lint.facts.FileFacts` (its dataflow, effects and
   races summaries, served from one content-hash cache and extracted
   from the already-parsed tree on a miss) and link them once
   (:class:`~repro.lint.interproc.Linked`);
5. run each layer with a selected rule over the linked program: the
   dataflow rules (RL012-RL015), then the effects rules (RL016-RL019,
   plus the kernel-readiness report), then the races rules
   (RL021-RL024, plus the cohort-conflict report) — the last two share
   one set of inferred effect signatures;
6. drop inline-suppressed findings, then split the rest against the
   baseline;
7. report — new ERROR findings (or, under ``--strict``, warnings too)
   fail the run.

:func:`analyze` runs steps 4-5 alone, without the per-file rules,
suppressions or baseline.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Type

from repro.lint.baseline import Baseline
from repro.lint.dataflow.rules import DATAFLOW_RULE_IDS
from repro.lint.dataflow.run import run_dataflow
from repro.lint.effects.rules import EFFECTS_RULE_IDS
from repro.lint.effects.run import run_effects
from repro.lint.facts import (
    DEFAULT_CACHE_DIR_NAME,
    FactsStats,
    FileEntry,
    load_facts,
)
from repro.lint.findings import Finding, Severity, sort_findings
from repro.lint.imports import ImportGraph, module_name_for
from repro.lint.interproc import Linked
from repro.lint.races.rules import RACES_RULE_IDS
from repro.lint.races.run import run_races
from repro.lint.rules import Rule, RuleContext, all_rule_ids, get_rule_classes
from repro.lint.suppressions import SuppressionIndex

#: Every interprocedural rule id: the default ``rule_ids`` selection.
INTERPROCEDURAL_RULE_IDS: Set[str] = {
    *DATAFLOW_RULE_IDS,
    *EFFECTS_RULE_IDS,
    *RACES_RULE_IDS,
}

#: Sentinel: derive the dataflow cache dir from the repo root.  Passing
#: ``dataflow_cache_dir=None`` explicitly disables on-disk caching.
AUTO_CACHE_DIR = object()

#: Directories never descended into.
SKIP_DIRS: Set[str] = {
    ".git",
    "__pycache__",
    ".pytest_cache",
    "build",
    "dist",
    ".eggs",
}


def discover_files(paths: Sequence[Path]) -> List[Path]:
    """All ``.py`` files under ``paths`` (files pass through verbatim),
    deduplicated, in sorted order for deterministic reports."""
    seen: Set[Path] = set()
    for path in paths:
        if path.is_file() and path.suffix == ".py":
            seen.add(path.resolve())
        elif path.is_dir():
            for child in path.rglob("*.py"):
                if not any(part in SKIP_DIRS for part in child.parts):
                    seen.add(child.resolve())
    return sorted(seen)


def _display_path(path: Path, root: Optional[Path]) -> str:
    """Repo-relative posix path when possible (stable fingerprints)."""
    if root is not None:
        try:
            return path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            pass
    return path.as_posix()


@dataclass
class ParsedFile:
    path: Path
    display_path: str
    tree: ast.Module
    lines: List[str]
    module: Optional[str]
    #: Raw source text — the facts cache key hashes exactly this, so
    #: engine runs and standalone :func:`analyze` runs share entries.
    source: str = ""


@dataclass
class LintResult:
    """Everything one run produced, pre-partitioned."""

    new: List[Finding] = field(default_factory=list)
    baselined: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    parse_errors: List[Tuple[str, str]] = field(default_factory=list)
    files_checked: int = 0
    stale_baseline_entries: List[dict] = field(default_factory=list)
    #: (path, line, token) for malformed or unknown-id suppression
    #: pragmas — the CLI turns these into exit code 2.
    suppression_errors: List[Tuple[str, int, str]] = field(default_factory=list)
    #: Facts-cache accounting, set for each layer that ran (None when it
    #: did not; all layers read the same facts, so the numbers agree).
    dataflow_stats: Optional[FactsStats] = None
    effects_stats: Optional[FactsStats] = None
    races_stats: Optional[FactsStats] = None
    #: The kernel-readiness report dict (None when effects did not run).
    effects_report: Optional[Dict[str, Any]] = None
    #: The cohort-conflict report dict (None when races did not run).
    races_report: Optional[Dict[str, Any]] = None

    @property
    def all_findings(self) -> List[Finding]:
        return sort_findings(self.new + self.baselined + self.suppressed)

    def failures(self, strict: bool = False) -> List[Finding]:
        """Findings that should fail the run."""
        return [
            f
            for f in self.new
            if strict or f.severity is Severity.ERROR
        ]


def run_layers(
    result: LintResult,
    entries: Sequence[FileEntry],
    cache_dir: Optional[Path],
    rule_ids: Optional[Set[str]],
    critical_modules: Optional[Set[str]],
) -> List[Finding]:
    """Run every interprocedural layer with a selected rule.

    Facts are loaded once and linked once for all of them.  Each layer
    that runs gets its stats (and report) set on ``result``; the return
    value is the layers' located findings, layer by layer, before
    suppression.
    """
    selected = INTERPROCEDURAL_RULE_IDS if rule_ids is None else set(rule_ids)
    if not selected & INTERPROCEDURAL_RULE_IDS:
        return []
    facts, stats = load_facts(entries, cache_dir)
    linked = Linked(facts, entries)
    findings: List[Finding] = []
    if selected & set(DATAFLOW_RULE_IDS):
        result.dataflow_stats = stats
        findings += linked.locate(run_dataflow(linked, selected))
    if selected & set(EFFECTS_RULE_IDS):
        result.effects_stats = stats
        found, result.effects_report = run_effects(
            linked, selected, critical_modules
        )
        findings += linked.locate(found)
    if selected & set(RACES_RULE_IDS):
        result.races_stats = stats
        found, result.races_report = run_races(
            linked, selected, critical_modules
        )
        findings += linked.locate(found)
    return findings


class LintEngine:
    """Configured lint run over a set of paths.

    ``rule_ids`` selects the interprocedural rules (None = all of
    them); a layer runs iff one of its rule ids is selected.
    """

    def __init__(
        self,
        rule_classes: Optional[Sequence[Type[Rule]]] = None,
        baseline: Optional[Baseline] = None,
        repo_root: Optional[Path] = None,
        rule_ids: Optional[Set[str]] = None,
        dataflow_cache_dir: object = AUTO_CACHE_DIR,
    ) -> None:
        # An explicit empty list is an interprocedural-only selection,
        # not "default to everything" — only None means the full registry.
        self.rule_classes = list(
            get_rule_classes() if rule_classes is None else rule_classes
        )
        self.baseline = baseline or Baseline()
        self.repo_root = repo_root
        self.rule_ids = rule_ids
        if dataflow_cache_dir is AUTO_CACHE_DIR:
            dataflow_cache_dir = (
                repo_root / DEFAULT_CACHE_DIR_NAME if repo_root else None
            )
        self.dataflow_cache_dir: Optional[Path] = (
            Path(dataflow_cache_dir) if dataflow_cache_dir else None  # type: ignore[arg-type]
        )

    # ------------------------------------------------------------------
    # Parsing
    # ------------------------------------------------------------------
    def _parse(self, files: Sequence[Path]) -> Tuple[List[ParsedFile], List[Tuple[str, str]]]:
        parsed: List[ParsedFile] = []
        errors: List[Tuple[str, str]] = []
        for path in files:
            display = _display_path(path, self.repo_root)
            try:
                source = path.read_text(encoding="utf-8")
                tree = ast.parse(source, filename=str(path))
            except (SyntaxError, UnicodeDecodeError, OSError) as exc:
                errors.append((display, str(exc)))
                continue
            parsed.append(
                ParsedFile(
                    path=path,
                    display_path=display,
                    tree=tree,
                    lines=source.splitlines(),
                    module=module_name_for(path),
                    source=source,
                )
            )
        return parsed, errors

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, paths: Sequence[Path]) -> LintResult:
        files = discover_files([Path(p) for p in paths])
        parsed, parse_errors = self._parse(files)

        graph = ImportGraph()
        for pf in parsed:
            graph.add(pf.path, pf.tree)
        critical = graph.determinism_critical()

        result = LintResult(parse_errors=parse_errors, files_checked=len(parsed))
        known_ids = all_rule_ids()
        found: List[Finding] = []
        suppression_index: Dict[str, SuppressionIndex] = {}
        for pf in parsed:
            ctx = RuleContext(
                path=pf.display_path,
                tree=pf.tree,
                lines=pf.lines,
                module=pf.module,
                determinism_critical=critical,
            )
            suppressions = SuppressionIndex(
                pf.lines, tree=pf.tree, known_ids=known_ids
            )
            suppression_index[pf.display_path] = suppressions
            for lineno, token in suppressions.errors:
                result.suppression_errors.append((pf.display_path, lineno, token))
            for rule_cls in self.rule_classes:
                found.extend(rule_cls().check(ctx))

        entries = [
            (pf.display_path, pf.module or "", pf.source, pf.tree)
            for pf in parsed
        ]
        found += run_layers(
            result, entries, self.dataflow_cache_dir, self.rule_ids, critical
        )

        raw: List[Finding] = []
        for finding in found:
            suppressions = suppression_index.get(finding.path)
            if suppressions is not None and suppressions.is_suppressed(finding):
                result.suppressed.append(finding)
            else:
                raw.append(finding)
        new, baselined = self.baseline.split(sort_findings(raw))
        result.new = sort_findings(new)
        result.baselined = sort_findings(baselined)
        result.stale_baseline_entries = self.baseline.stale_entries(raw)
        return result


def lint_paths(
    paths: Sequence[Path],
    rule_classes: Optional[Sequence[Type[Rule]]] = None,
    baseline: Optional[Baseline] = None,
    repo_root: Optional[Path] = None,
    rule_ids: Optional[Set[str]] = None,
    dataflow_cache_dir: object = AUTO_CACHE_DIR,
) -> LintResult:
    """One-call convenience wrapper used by tests and the CLI."""
    engine = LintEngine(
        rule_classes=rule_classes,
        baseline=baseline,
        repo_root=repo_root,
        rule_ids=rule_ids,
        dataflow_cache_dir=dataflow_cache_dir,
    )
    return engine.run(paths)


def read_entries(
    paths: Sequence[Path], repo_root: Optional[Path] = None
) -> List[FileEntry]:
    """Every readable ``.py`` file under ``paths`` as an unparsed
    (tree ``None``) facts entry."""
    entries: List[FileEntry] = []
    for path in discover_files([Path(p) for p in paths]):
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError):
            continue
        display = _display_path(path, repo_root)
        entries.append((display, module_name_for(path) or "", source, None))
    return entries


def analyze(
    paths: Sequence[Path],
    cache_dir: Optional[Path] = None,
    rule_ids: Optional[Set[str]] = None,
    repo_root: Optional[Path] = None,
) -> LintResult:
    """Standalone interprocedural run: discover, read, load facts, check.

    No per-file rules, suppressions, baseline or determinism-critical
    scoping: every finding comes back in ``new``.  Trees are passed as
    None, so a file is parsed only on a cache miss — on a warm cache
    the parse and every AST walk are skipped, which is what makes a
    warm run a small fraction of a cold one.
    """
    entries = read_entries(paths, repo_root)
    result = LintResult(files_checked=len(entries))
    result.new = sort_findings(
        run_layers(result, entries, cache_dir, rule_ids, critical_modules=None)
    )
    return result
