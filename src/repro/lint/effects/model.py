"""Per-file effect summaries, one part of each file's cached facts.

Mirrors :mod:`repro.lint.dataflow.model`: an
:class:`EffectFileSummary` is a pure function of one file's source
text, JSON round-trips exactly, and is content-hash cached.  The
interprocedural part — propagating effects over the call graph into
whole-program :class:`~repro.lint.effects.infer.EffectSignature`
objects — happens later, in :mod:`repro.lint.effects.infer`, over a
set of summaries plus the dataflow linker's
:class:`~repro.lint.dataflow.linker.Program`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

#: Bump when the summary shape or extraction logic changes; part of
#: every cache key, so stale summaries are never loaded.
EFFECTS_SCHEMA = 1

# Mutation-target kinds --------------------------------------------------
#: Module-level state (a module global, or an object stored in one).
MUT_GLOBAL = "global"
#: Object state reachable from ``self``/``cls``.
MUT_SELF = "self"
#: State reachable from a function parameter (caller-visible aliasing).
MUT_PARAM = "param"

# Iteration-order classes ------------------------------------------------
#: Provably deterministic and canonical (sorted(), range(), literals).
ITER_SORTED = "sorted"
#: Deterministic but fixed by construction order (lists, tuples, args).
ITER_STABLE = "stable"
#: Dict insertion order — stable per process, but *not* canonical: it
#: depends on arrival order, which differs between serial and parallel
#: producers.
ITER_DICT = "dict-order"
#: Set iteration — hash-order, varies with PYTHONHASHSEED.
ITER_SET = "set-order"
#: Cannot classify (a bare name, an opaque call) — never flagged.
ITER_UNKNOWN = "unknown"

#: Orders that make a float reduction a merge hazard.
UNSTABLE_ORDERS = (ITER_DICT, ITER_SET)


@dataclass
class Mutation:
    """One direct write to non-local state."""

    #: MUT_GLOBAL / MUT_SELF / MUT_PARAM.
    kind: str = ""
    #: Dotted target as written (``self.stats.refresh_energy_j``).
    target: str = ""
    #: Root name the target hangs off (``self``, a param, a global).
    root: str = ""
    lineno: int = 0
    col: int = 0
    #: How the write happens ("assign", "augassign", "method:append",
    #: "call:heapq.heappush", "del").
    via: str = ""


@dataclass
class FloatAccum:
    """One float accumulation site (``x += e`` or a dict-reduction)."""

    #: Accumulation target as written.
    target: str = ""
    #: Root name of the target ("" for plain locals).
    root: str = ""
    #: Mutation kind of the target, or "" when it is function-local.
    kind: str = ""
    lineno: int = 0
    col: int = 0
    #: Iteration-order class of the nearest enclosing loop (ITER_*),
    #: or "" when the accumulation is not inside a loop here.
    iter_order: str = ""
    #: The loop's iterable as written, for messages.
    iter_text: str = ""
    #: Why the value is believed to be a float ("dimension:joules",
    #: "float-literal", "division").
    evidence: str = ""


@dataclass
class LoopCall:
    """A call made inside a loop whose iteration order is unstable."""

    #: Best-effort fully-qualified callee after file-local resolution.
    callee: str = ""
    #: The callee as written, for messages.
    callee_text: str = ""
    lineno: int = 0
    col: int = 0
    #: ITER_DICT or ITER_SET.
    iter_order: str = ""
    #: The loop's iterable as written.
    iter_text: str = ""


@dataclass
class ClosureCapture:
    """A nested ``def``/``lambda`` that captures enclosing locals."""

    #: "<lambda>" or the nested function's name.
    name: str = ""
    lineno: int = 0
    col: int = 0
    #: Captured enclosing-scope names, sorted.
    captured: List[str] = field(default_factory=list)


@dataclass
class AttrCall:
    """A ``self.<attr>.<method>(...)`` call — resolvable only once the
    linker knows what class ``self.<attr>`` holds (see infer)."""

    attr: str = ""
    method: str = ""
    lineno: int = 0
    col: int = 0


@dataclass
class RngDraw:
    """A direct draw from a generator (``rng.random()``, ``random.choice``)."""

    text: str = ""
    lineno: int = 0
    col: int = 0


@dataclass
class IoCall:
    """A direct I/O call (``open``, ``print``, ``os.replace``, ...)."""

    name: str = ""
    lineno: int = 0
    col: int = 0


@dataclass
class MutableDefault:
    """A parameter whose default is a shared mutable object."""

    param: str = ""
    #: "list" / "dict" / "set".
    kind: str = ""
    lineno: int = 0
    col: int = 0


@dataclass
class FunctionEffects:
    """Direct (intra-procedural) effect facts for one function."""

    qualname: str = ""
    lineno: int = 0
    col: int = 0
    is_method: bool = False
    #: Enclosing class qualname for methods, else "".
    class_ctx: str = ""
    #: Carries the ``@declared_pure`` marker.
    declared_pure: bool = False
    #: Contains a ``yield`` (generator — sim process or otherwise).
    has_yield: bool = False
    mutations: List[Mutation] = field(default_factory=list)
    float_accums: List[FloatAccum] = field(default_factory=list)
    loop_calls: List[LoopCall] = field(default_factory=list)
    closures: List[ClosureCapture] = field(default_factory=list)
    attr_calls: List[AttrCall] = field(default_factory=list)
    rng_draws: List[RngDraw] = field(default_factory=list)
    io_calls: List[IoCall] = field(default_factory=list)
    mutable_defaults: List[MutableDefault] = field(default_factory=list)
    #: ``self.<attr> = Klass(...)`` bindings: attr -> best-effort
    #: fully-qualified class name (linker-verified before use).
    attr_binds: Dict[str, str] = field(default_factory=dict)


@dataclass
class EffectFileSummary:
    """The cached per-file effects product."""

    schema: int = EFFECTS_SCHEMA
    path: str = ""
    module: str = ""
    functions: List[FunctionEffects] = field(default_factory=list)
