"""The races layer's entry point: RL021-RL024 and the cohort-conflict
report over the linked program.

Facts loading, linking, the effect signatures RL023/RL024 reach through
and finding location are shared with the other interprocedural layers
(:mod:`repro.lint.facts`, :mod:`repro.lint.interproc`); this is the
layer-specific step.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.lint.findings import Finding
from repro.lint.interproc import Linked
from repro.lint.races.report import build_report
from repro.lint.races.rules import check_races


def run_races(
    linked: Linked,
    rule_ids: Optional[Set[str]] = None,
    critical_modules: Optional[Set[str]] = None,
) -> Tuple[List[Finding], Dict[str, Any]]:
    """``(findings, report)``: the selected race rules' findings and the
    cohort-conflict report (see :mod:`~repro.lint.races.report`)."""
    findings = check_races(
        linked.races_program,
        linked.signatures,
        rule_ids=rule_ids,
        critical_modules=critical_modules,
    )
    return findings, build_report(linked.races_program)
