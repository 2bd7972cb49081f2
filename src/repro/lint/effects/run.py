"""The effects layer's entry point: RL016-RL019 and the kernel-readiness
report over the linked program's inferred signatures.

Facts loading, linking, signature inference and finding location are
shared with the other interprocedural layers (:mod:`repro.lint.facts`,
:mod:`repro.lint.interproc`); this is the layer-specific step.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.lint.effects.report import build_report, hot_closure
from repro.lint.effects.rules import check_effects
from repro.lint.findings import Finding
from repro.lint.interproc import Linked


def run_effects(
    linked: Linked,
    rule_ids: Optional[Set[str]] = None,
    critical_modules: Optional[Set[str]] = None,
) -> Tuple[List[Finding], Dict[str, Any]]:
    """``(findings, report)``: the selected effect rules' findings and
    the kernel-readiness report (see :mod:`~repro.lint.effects.report`)."""
    effects_program = linked.effects_program
    sigs = linked.signatures
    findings = check_effects(
        effects_program,
        sigs,
        hot_closure(effects_program),
        rule_ids=rule_ids,
        critical_modules=critical_modules,
    )
    return findings, build_report(effects_program, sigs)
