"""The effects layer of ``repro-lint``: per-function effect-signature
inference (purity, state writes, RNG draws, I/O, float-reduction
order, closures) plus rules RL016-RL019 and the kernel-readiness
report consumed by the ROADMAP item 2 refactor.

Layer map (the file-local product is cached in :mod:`repro.lint.facts`):

- :mod:`contracts` — the runtime ``@declared_pure`` marker/registry;
- :mod:`model` — :class:`EffectFileSummary`, the cached per-file facts;
- :mod:`extract` — one file's AST -> direct effect facts;
- :mod:`infer` — whole-program fixpoint -> :class:`EffectSignature`;
- :mod:`rules` — RL016-RL019 over the inferred signatures;
- :mod:`report` — the ranked vectorization-readiness report;
- :mod:`run` — the layer's entry point, :func:`run.run_effects`.
"""

from __future__ import annotations

from repro.lint.effects.contracts import declared_pure, is_declared_pure
from repro.lint.effects.rules import EFFECTS_RULE_IDS, effects_catalog

__all__ = [
    "EFFECTS_RULE_IDS",
    "declared_pure",
    "effects_catalog",
    "is_declared_pure",
]
