"""The dataflow layer's entry point: RL012-RL015 over the linked program.

Facts loading, linking and finding location are shared with the other
interprocedural layers (:mod:`repro.lint.facts`,
:mod:`repro.lint.interproc`); this is the layer-specific step.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.lint.dataflow.rules import check_program
from repro.lint.findings import Finding
from repro.lint.interproc import Linked


def run_dataflow(
    linked: Linked, rule_ids: Optional[Set[str]] = None
) -> List[Finding]:
    """The selected dataflow rules' findings (None = all of them)."""
    return check_program(linked.program, rule_ids)
