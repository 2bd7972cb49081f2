"""Per-file access summaries, one part of each file's cached facts.

Mirrors :mod:`repro.lint.effects.model`: a :class:`RaceFileSummary`
is a pure function of one file's source text, JSON round-trips
exactly, and is content-hash cached with the file's other summaries
(:class:`repro.lint.facts.FileFacts`).  The interprocedural
part — joining access summaries into a may-co-schedule relation and
the RL021-RL024 conflict rules — happens later, in
:mod:`repro.lint.races.hb` and :mod:`repro.lint.races.rules`.

The unit of concurrency here is the *timestamp cohort*: the kernel
(:meth:`repro.sim.events.EventQueue.pop_cohort`) dispatches every
payload scheduled for one simulated instant as a batch, ordered only
by the FIFO tie-break.  Two handlers in one cohort are therefore
"concurrent" in exactly the data-race sense: their relative order is
an implementation detail, so any non-commutative conflicting access
pair is a determinism bug waiting for the next kernel refactor.

A function body is segmented at yield points — each ``yield`` hands
control back to the kernel, so accesses in different segments run in
different cohorts.  Within a segment a handler runs atomically; the
races layer reasons about *whole segments* interleaving, never about
statement-level interleavings (there are none in a DES).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

#: Bump when the summary shape or extraction logic changes; part of
#: every cache key, so stale summaries are never loaded.
RACES_SCHEMA = 2

# Read-use classes --------------------------------------------------------
#: The read feeds a branch condition (If/While/IfExp/Assert test).
USE_CONTROL = "control"
#: The read feeds a recorded metric (obs counter/gauge, FaultLog.record).
USE_METRIC = "metric"
#: Any other data use.
USE_VALUE = "value"
#: The read iterates a shared container (order observation point).
USE_ITERATION = "iteration"

# Commutativity reasons (writes) ------------------------------------------
#: Integer-evidence accumulation: exact, associative, commutative.
COMM_INT_ACCUM = "int-accum"
#: ``x = max(x, v)`` / ``if v > x: x = v`` — an extremum fold.
COMM_EXTREMUM = "extremum-fold"
#: ``set.add`` / ``set.discard`` — membership, order-free.
COMM_SET = "set-add"
#: Float-evidence accumulation: addition is not associative.
ORDERED_FLOAT = "float-accum"
#: Sequence mutation (append/extend/insert/pop/...) — position-coded.
ORDERED_SEQ = "seq-order"
#: Dict/attr store — last writer wins / insertion-order coded.
ORDERED_STORE = "last-writer-wins"
#: Dict key insertion (``d[k] = v`` / ``.setdefault`` / ``.update``).
ORDERED_DICT = "dict-insert"


@dataclass
class Access:
    """One shared-state read or write inside a segment."""

    #: True for writes (including mutating method calls).
    write: bool = False
    #: MUT_SELF / MUT_PARAM / MUT_GLOBAL (effects-layer kinds).
    kind: str = ""
    #: Root name the target hangs off (``self``, a param, a global).
    root: str = ""
    #: First attribute component after the root (``self.stats.x`` ->
    #: ``stats``); "" when the root itself is the target.
    head: str = ""
    #: The access as written, for messages.
    target: str = ""
    lineno: int = 0
    col: int = 0
    #: Yield-delimited segment index within the function (0-based).
    segment: int = 0
    #: How the access happens ("assign", "augassign", "method:append").
    via: str = ""
    #: Writes: True when the write commutes with a concurrent copy of
    #: itself (exact accumulation, extremum fold, set membership).
    commutes: bool = False
    #: Why (one of the COMM_*/ORDERED_* reasons above).
    comm_reason: str = ""
    #: Reads: USE_CONTROL / USE_METRIC / USE_VALUE / USE_ITERATION.
    use: str = ""
    #: Iteration reads: the ITER_* order class of the loop.
    iter_order: str = ""


@dataclass
class Registration:
    """One same-instant scheduling action (timer, spawn, throw, ...).

    Registrations are where cohorts are *built*: everything registered
    for the same simulated instant lands in one cohort.  The delay
    class is the static abstraction of "which instant":

    - ``zero`` — joins the current cohort (spawn, trigger, interrupt,
      zero-delay schedule);
    - ``const:<v>`` — a literal constant delay: two registrations made
      at the same instant with the same constant coincide;
    - ``name:<expr>`` — a named/attribute delay (``policy.deadline_s``):
      coincides with registrations naming the same expression;
    - ``unknown`` — computed delay; may coincide with anything.
    """

    #: "schedule" / "schedule-at" / "spawn" / "trigger" / "interrupt" /
    #: "wakeup" / "timeout" (a sim process's own ``yield Timeout``).
    op: str = ""
    #: Delay class (see above).
    delay_class: str = ""
    #: Best-effort resolved qualname of the scheduled callback/process
    #: ("" when unresolvable).
    target: str = ""
    #: The callback/process as written, for messages.
    target_text: str = ""
    lineno: int = 0
    col: int = 0
    segment: int = 0
    in_loop: bool = False
    #: ITER_* class of the nearest enclosing loop ("" outside loops).
    loop_order: str = ""
    #: The loop's iterable as written.
    loop_text: str = ""


@dataclass
class FunctionAccesses:
    """Access summary of one function (or ``<module>`` pseudo-function)."""

    qualname: str = ""
    lineno: int = 0
    col: int = 0
    is_method: bool = False
    #: Enclosing class qualname for methods, else "".
    class_ctx: str = ""
    #: Contains a ``yield`` (generator — sim process or otherwise).
    has_yield: bool = False
    #: Yields at least one sim command (Timeout/Wait/Acquire/Release) —
    #: the races-layer sim-process test, independent of dataflow.
    is_sim_process: bool = False
    #: Number of yield-delimited segments (>= 1).
    segments: int = 1
    accesses: List[Access] = field(default_factory=list)
    registrations: List[Registration] = field(default_factory=list)


@dataclass
class RaceFileSummary:
    """The cached per-file races product."""

    schema: int = RACES_SCHEMA
    path: str = ""
    module: str = ""
    functions: List[FunctionAccesses] = field(default_factory=list)
