"""Interprocedural dataflow analysis for repro-lint (RL012-RL015).

The per-file rules (RL001-RL011) see one expression at a time; the
failure modes that corrupt the paper's numbers *flow*: a function
returns decimal GB into a caller that treats it as GiB, or an RNG is
seeded locally instead of deriving from the sweep's ``SeedSequence``
root.  This package builds a whole-program view on top of the
per-file parses:

- :mod:`~repro.lint.dataflow.model` is the per-file
  :class:`~repro.lint.dataflow.model.FileSummary` — functions, their
  parameter/return dimensions, dataclass fields, resolved call sites,
  RNG constructions and wall-clock calls — which the one extractor
  (:mod:`repro.lint.extract`) fills in the same pass as the other
  layers' summaries, cached together as one
  :class:`~repro.lint.facts.FileFacts`;
- :mod:`~repro.lint.dataflow.linker` stitches summaries into a
  project symbol table and call graph (chasing re-export aliases);
- :mod:`~repro.lint.dataflow.rules` runs the four interprocedural
  rules over the linked program.

Entry point: :func:`repro.lint.engine.run_dataflow`, called by the
lint engine (or standalone, by :func:`repro.lint.engine.analyze`).
"""

from __future__ import annotations

from repro.lint.dataflow.model import DATAFLOW_SCHEMA
from repro.lint.dataflow.rules import (
    DATAFLOW_RULE_IDS,
    dataflow_catalog,
)

__all__ = [
    "DATAFLOW_SCHEMA",
    "DATAFLOW_RULE_IDS",
    "dataflow_catalog",
]
