"""The races layer of ``repro-lint``: static happens-before analysis
over co-scheduled sim processes (rules RL021-RL024), a ranked
cohort-conflict report, and the ``REPRO_SANITIZE=1`` runtime cohort
sanitizer that cross-validates the static model (RL025).

A "race" here is determinism-relative: the kernel dispatches every
same-timestamp cohort in FIFO push order, so two logically independent
handlers that can land in the same cohort see each other's shared-state
writes in an order set only by insertion accidents.  The layer finds
those handler pairs statically and checks their shared accesses for
non-commutative collisions.

Layer map (the file-local product is cached in :mod:`repro.lint.facts`):

- :mod:`model` — :class:`RaceFileSummary`, the cached per-file facts;
- :mod:`extract` — one file's AST -> yield-segmented access summary;
- :mod:`hb` — whole-program may-co-schedule relation + shared keys;
- :mod:`rules` — RL021-RL024 over the joined model;
- :mod:`report` — the ranked cohort-conflict report / sanitizer model;
- :mod:`run` — the layer's entry point, :func:`run.run_races`;
- :mod:`sanitizer` — the runtime cohort sanitizer (RL025).
"""

from __future__ import annotations

from repro.lint.races.rules import RACES_RULE_IDS, races_catalog
from repro.lint.races.sanitizer import CohortSanitizer, get_sanitizer

__all__ = [
    "RACES_RULE_IDS",
    "CohortSanitizer",
    "get_sanitizer",
    "races_catalog",
]
