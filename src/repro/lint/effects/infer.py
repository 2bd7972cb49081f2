"""Whole-program effect inference: a bottom-up fixpoint over the call
graph.

The dataflow linker's call graph resolves module functions, methods
called through ``self.``, and constructor edges.  This module extends
it with **attribute-type binding**: ``self.kv = KVCacheManager(...)``
in ``__init__`` plus a later ``self.kv.register(...)`` call produce an
edge to ``KVCacheManager.register`` — exactly the edges the hot
dispatch paths (``sim/kernel.py``, ``inference/engine.py``) are made
of.

Over that extended graph, per-function direct facts (from
:mod:`repro.lint.extract`) are propagated callee-to-caller
with a monotone worklist: every flag only flips ``False -> True`` and
the flag lattice is finite, so the fixpoint terminates on any graph,
cycles included.  Propagation is kind-aware:

- ``writes_global`` / ``io`` / ``rng`` propagate through every edge
  (the caller triggers the effect no matter how the callee was named);
- ``writes_self`` propagates through ``self.m()`` and
  ``self.attr.m()`` edges (the mutated state is reachable from the
  caller's ``self``) but *not* through constructor edges — ``__init__``
  writing its own fresh object does not dirty the caller;
- ``writes_param`` propagates only when the caller demonstrably passed
  its own state (``self.x`` or one of its parameters) into the callee
  — passing a local into a param-mutating callee stays local;
- ``order_sensitive`` / ``closure`` / ``yields`` are direct-only
  facts; ``float_accum_shared`` (float accumulation into shared state)
  propagates so RL016 can flag an unstable loop whose callee
  accumulates three calls deep.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.lint.dataflow.linker import Program
from repro.lint.effects.model import (
    EffectFileSummary,
    FunctionEffects,
    MUT_GLOBAL,
    MUT_PARAM,
    MUT_SELF,
    UNSTABLE_ORDERS,
)

#: Flags whose truth breaks a ``@declared_pure`` contract.
PURITY_FLAGS: Tuple[str, ...] = (
    "writes_global",
    "writes_self",
    "writes_param",
    "rng",
    "io",
)

#: Every inferred flag, in report order.
ALL_FLAGS: Tuple[str, ...] = PURITY_FLAGS + (
    "yields",
    "order_sensitive",
    "float_accum_shared",
    "closure",
)

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass
class EffectSignature:
    """The inferred whole-program effect signature of one function."""

    qualname: str = ""
    writes_global: bool = False
    writes_self: bool = False
    writes_param: bool = False
    rng: bool = False
    io: bool = False
    yields: bool = False
    #: Direct unstable-order float accumulation in this body.
    order_sensitive: bool = False
    #: Accumulates floats into self/global state (direct or inherited).
    float_accum_shared: bool = False
    #: Creates closures over enclosing locals.
    closure: bool = False
    #: flag -> human-readable direct cause ("" when inherited).
    detail: Dict[str, str] = field(default_factory=dict)
    #: flag -> callee qualname the flag was inherited from ("" = direct).
    via: Dict[str, str] = field(default_factory=dict)

    @property
    def pure(self) -> bool:
        return not any(getattr(self, flag) for flag in PURITY_FLAGS)

    def flags(self) -> Dict[str, bool]:
        return {flag: bool(getattr(self, flag)) for flag in ALL_FLAGS}


@dataclass(frozen=True)
class Edge:
    """One call edge, annotated for kind-aware propagation."""

    caller: str
    callee: str
    #: "plain" | "self" | "attr" | "init".
    kind: str
    lineno: int = 0
    col: int = 0
    #: Root names of the arguments the caller passed ("self", a caller
    #: parameter name, or "" for locals/literals), for writes_param.
    arg_roots: Tuple[str, ...] = ()


def _short(qualname: str) -> str:
    parts = qualname.split(".")
    return ".".join(parts[-2:]) if len(parts) > 1 else qualname


class EffectsProgram:
    """Effect summaries joined with the dataflow program view."""

    def __init__(
        self, program: Program, summaries: List[EffectFileSummary]
    ) -> None:
        self.program = program
        self.effects: Dict[str, FunctionEffects] = {}
        self.path_of: Dict[str, str] = {}
        self.module_of: Dict[str, str] = {}
        for summary in summaries:
            for fn in summary.functions:
                self.effects[fn.qualname] = fn
                self.path_of[fn.qualname] = summary.path
                self.module_of[fn.qualname] = summary.module
        self._attr_types: Optional[Dict[Tuple[str, str], str]] = None
        self._edges: Optional[List[Edge]] = None

    # -- attribute-type binding -------------------------------------------
    def attr_types(self) -> Dict[Tuple[str, str], str]:
        """(class qualname, attribute) -> bound class qualname, from
        ``self.<attr> = Klass(...)`` assignments across all methods."""
        if self._attr_types is not None:
            return self._attr_types
        table: Dict[Tuple[str, str], str] = {}
        for qualname in sorted(self.effects):
            fn = self.effects[qualname]
            if not fn.class_ctx:
                continue
            for attr in sorted(fn.attr_binds):
                resolved = self.program.resolve(fn.attr_binds[attr])
                if resolved in self.program.classes:
                    table.setdefault((fn.class_ctx, attr), resolved)
        self._attr_types = table
        return table

    # -- the extended call graph ------------------------------------------
    @staticmethod
    def _arg_root(text: str, params: Set[str]) -> str:
        match = _IDENT.match(text)
        if match is None:
            return ""
        head = match.group(0)
        if head in ("self", "cls"):
            return "self"
        if head in params:
            return head
        return ""

    def edges(self) -> List[Edge]:
        """Dataflow call edges plus attribute-typed edges, sorted."""
        if self._edges is not None:
            return self._edges
        out: List[Edge] = []
        program = self.program
        for caller, sites in program.call_edges().items():
            caller_fn = program.functions.get(caller)
            params = (
                {p.name for p in caller_fn.params} if caller_fn else set()
            )
            caller_class = caller.rpartition(".")[0]
            for call, callee in sites:
                resolved = program.resolve(call.callee)
                if resolved in program.classes:
                    kind = "init"
                elif call.callee_text.startswith(("self.", "cls.")):
                    kind = "self" if callee.startswith(f"{caller_class}.") else "plain"
                else:
                    kind = "plain"
                roots = tuple(
                    self._arg_root(arg.text, params) for arg in call.args
                )
                out.append(
                    Edge(
                        caller=caller,
                        callee=callee,
                        kind=kind,
                        lineno=call.lineno,
                        col=call.col,
                        arg_roots=roots,
                    )
                )
        attr_types = self.attr_types()
        for qualname in sorted(self.effects):
            fn = self.effects[qualname]
            if not fn.class_ctx:
                continue
            for attr_call in fn.attr_calls:
                bound = attr_types.get((fn.class_ctx, attr_call.attr))
                if bound is None:
                    continue
                target = f"{bound}.{attr_call.method}"
                if target in self.program.functions:
                    out.append(
                        Edge(
                            caller=qualname,
                            callee=target,
                            kind="attr",
                            lineno=attr_call.lineno,
                            col=attr_call.col,
                        )
                    )
        out.sort(key=lambda e: (e.caller, e.callee, e.lineno, e.col, e.kind))
        self._edges = out
        return out

    def reachable_from(self, seeds: Set[str]) -> Set[str]:
        """Functions transitively callable from ``seeds`` (inclusive),
        over the extended (attribute-typed) call graph."""
        forward: Dict[str, List[str]] = {}
        for edge in self.edges():
            forward.setdefault(edge.caller, []).append(edge.callee)
        closure = set(seeds)
        frontier = list(seeds)
        while frontier:
            current = frontier.pop()
            for callee in forward.get(current, []):
                if callee not in closure:
                    closure.add(callee)
                    frontier.append(callee)
        return closure


def _direct_signature(fn: FunctionEffects) -> EffectSignature:
    sig = EffectSignature(qualname=fn.qualname)
    for mutation in fn.mutations:
        flag = {
            MUT_GLOBAL: "writes_global",
            MUT_SELF: "writes_self",
            MUT_PARAM: "writes_param",
        }.get(mutation.kind)
        if flag and not getattr(sig, flag):
            setattr(sig, flag, True)
            sig.via[flag] = ""
            sig.detail[flag] = (
                f"{mutation.target} ({mutation.via}) at line {mutation.lineno}"
            )
    if fn.rng_draws:
        draw = fn.rng_draws[0]
        sig.rng = True
        sig.via["rng"] = ""
        sig.detail["rng"] = f"{draw.text} at line {draw.lineno}"
    if fn.io_calls:
        call = fn.io_calls[0]
        sig.io = True
        sig.via["io"] = ""
        sig.detail["io"] = f"{call.name}(...) at line {call.lineno}"
    if fn.has_yield:
        sig.yields = True
    if fn.closures:
        sig.closure = True
        first = fn.closures[0]
        sig.detail["closure"] = (
            f"{first.name} captures {', '.join(first.captured)} "
            f"at line {first.lineno}"
        )
    for accum in fn.float_accums:
        if accum.iter_order in UNSTABLE_ORDERS and not sig.order_sensitive:
            sig.order_sensitive = True
            sig.detail["order_sensitive"] = (
                f"{accum.target} over {accum.iter_text} at line {accum.lineno}"
            )
        if accum.kind in (MUT_SELF, MUT_GLOBAL) and not sig.float_accum_shared:
            sig.float_accum_shared = True
            sig.via["float_accum_shared"] = ""
            sig.detail["float_accum_shared"] = (
                f"{accum.target} += ... at line {accum.lineno}"
            )
    return sig


def _inherit(
    sig: EffectSignature, flag: str, callee: str
) -> bool:
    if getattr(sig, flag):
        return False
    setattr(sig, flag, True)
    sig.via[flag] = callee
    return True


def infer_signatures(
    effects_program: EffectsProgram,
) -> Dict[str, EffectSignature]:
    """The fixpoint: direct facts seeded, then propagated to a fixed
    point over the extended call graph (monotone, so it terminates)."""
    sigs: Dict[str, EffectSignature] = {}
    for qualname in sorted(effects_program.effects):
        sigs[qualname] = _direct_signature(effects_program.effects[qualname])
    # Functions the dataflow layer saw but the effects layer did not
    # (shouldn't happen for same-source runs, but stay total).
    for qualname in effects_program.program.functions:
        sigs.setdefault(qualname, EffectSignature(qualname=qualname))

    edges = effects_program.edges()
    changed = True
    while changed:
        changed = False
        for edge in edges:
            callee_sig = sigs.get(edge.callee)
            caller_sig = sigs.get(edge.caller)
            if callee_sig is None or caller_sig is None:
                continue
            for flag in ("writes_global", "io", "rng"):
                if getattr(callee_sig, flag):
                    changed |= _inherit(caller_sig, flag, edge.callee)
            if callee_sig.writes_self and edge.kind in ("self", "attr"):
                changed |= _inherit(caller_sig, "writes_self", edge.callee)
            if callee_sig.writes_param:
                roots = set(edge.arg_roots)
                if "self" in roots:
                    changed |= _inherit(caller_sig, "writes_self", edge.callee)
                caller_params = roots - {"self", ""}
                if caller_params:
                    changed |= _inherit(caller_sig, "writes_param", edge.callee)
            if callee_sig.float_accum_shared and edge.kind in (
                "self",
                "attr",
                "plain",
            ):
                changed |= _inherit(
                    caller_sig, "float_accum_shared", edge.callee
                )
    return sigs


def cause_chain(
    sigs: Dict[str, EffectSignature], qualname: str, flag: str
) -> str:
    """Human-readable provenance: ``a.f -> b.g -> c.h (detail)``."""
    hops: List[str] = []
    seen: Set[str] = set()
    current = qualname
    while current and current not in seen:
        seen.add(current)
        hops.append(_short(current))
        sig = sigs.get(current)
        if sig is None:
            break
        nxt = sig.via.get(flag, "")
        if not nxt:
            detail = sig.detail.get(flag, "")
            if detail:
                hops[-1] = f"{hops[-1]} ({detail})"
            break
        current = nxt
    return " -> ".join(hops)
