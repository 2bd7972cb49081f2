"""The whole-program side of the interprocedural layers.

:class:`Linked` joins a set of :class:`~repro.lint.facts.FileFacts`
into the views the layers check: the dataflow
:class:`~repro.lint.dataflow.linker.Program` (symbol table, call graph,
alias chasing), the effects join with its inferred signatures, and the
races join.  Each view is built on first use and then shared, so one
lint run links the program once and infers signatures once however
many layers read them.
"""

from __future__ import annotations

from dataclasses import replace
from functools import cached_property
from typing import Dict, List, Sequence

from repro.lint.dataflow.linker import Program
from repro.lint.effects.infer import (
    EffectSignature,
    EffectsProgram,
    infer_signatures,
)
from repro.lint.facts import FileEntry, FileFacts
from repro.lint.findings import Finding, sort_findings
from repro.lint.races.hb import RacesProgram


class Linked:
    """Facts for a set of files, linked into whole-program views."""

    def __init__(self, facts: List[FileFacts], entries: Sequence[FileEntry]):
        self.facts = facts
        self._sources = {path: source for path, _, source, _ in entries}

    @cached_property
    def program(self) -> Program:
        return Program([f.dataflow for f in self.facts])

    @cached_property
    def effects_program(self) -> EffectsProgram:
        return EffectsProgram(self.program, [f.effects for f in self.facts])

    @cached_property
    def signatures(self) -> Dict[str, EffectSignature]:
        return infer_signatures(self.effects_program)

    @cached_property
    def races_program(self) -> RacesProgram:
        return RacesProgram(self.program, [f.races for f in self.facts])

    def locate(self, findings: Sequence[Finding]) -> List[Finding]:
        """``findings`` sorted, with ``source_line`` filled in from the
        entry sources so suppression and baseline fingerprints work
        exactly as they do for per-file rules."""
        lines_by_path: Dict[str, List[str]] = {}
        located: List[Finding] = []
        for finding in findings:
            if finding.path not in lines_by_path:
                source = self._sources.get(finding.path, "")
                lines_by_path[finding.path] = source.splitlines()
            lines = lines_by_path[finding.path]
            source_line = (
                lines[finding.line - 1] if 1 <= finding.line <= len(lines) else ""
            )
            located.append(replace(finding, source_line=source_line))
        return sort_findings(located)
