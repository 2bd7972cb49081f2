"""Stitch per-file summaries into a whole-program view.

The linker owns everything extraction could not know file-locally:

- **alias chasing** — ``repro.workload.ArrivalProcess`` (a package
  re-export) resolves to ``repro.workload.requests.ArrivalProcess``
  by following each file's import-alias edges to a real definition;
- **the call graph** — resolved call edges between function summaries,
  with forward/backward reachability used for RL014's scope and
  RL015's taint;
- **return-quantity and RNG-provenance resolution** — chasing
  ``return helper(x)`` chains with memoization and cycle guards.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.lint.dataflow.model import (
    ArgInfo,
    CallInfo,
    ClassSummary,
    FileSummary,
    FunctionSummary,
    ParamInfo,
    PROV_DERIVED,
    PROV_LITERAL,
    PROV_UNKNOWN,
    PROV_UNSEEDED,
)

#: Parameter names that identify the seed input of an RNG factory.
SEED_PARAM_NAMES: Set[str] = {
    "seed",
    "root_seed",
    "seed_seq",
    "seed_sequence",
    "rng",
    "generator",
}

_MAX_ALIAS_HOPS = 16
_MAX_RETURN_CHASE = 8


class Program:
    """The linked program: symbol tables plus resolution services."""

    def __init__(self, summaries: List[FileSummary]) -> None:
        self.summaries = summaries
        #: fq function name -> summary.
        self.functions: Dict[str, FunctionSummary] = {}
        #: fq class name -> summary.
        self.classes: Dict[str, ClassSummary] = {}
        #: fq local name -> fq target (import/re-export edges).
        self.alias_edges: Dict[str, str] = {}
        #: display path by module, for findings.
        self.path_of_module: Dict[str, str] = {}
        #: owning file path by function qualname.
        self.path_of_function: Dict[str, str] = {}
        for summary in summaries:
            if summary.module:
                self.path_of_module[summary.module] = summary.path
            for fn in summary.functions:
                self.functions[fn.qualname] = fn
                self.path_of_function[fn.qualname] = summary.path
            for klass in summary.classes:
                self.classes[klass.qualname] = klass
                self.path_of_function[klass.qualname] = summary.path
            if summary.module:
                for alias, target in summary.aliases.items():
                    self.alias_edges[f"{summary.module}.{alias}"] = target
        self._return_quantity_cache: Dict[str, Tuple[Optional[str], Optional[str]]] = {}
        self._rng_provenance_cache: Dict[str, Tuple[str, str]] = {}
        self._edges: Optional[Dict[str, List[Tuple[CallInfo, str]]]] = None

    # -- name resolution ---------------------------------------------------
    def resolve(self, name: str) -> str:
        """Chase alias edges until ``name`` names a known function or
        class (or a method of a known class); '' when unresolvable."""
        current = name
        for _ in range(_MAX_ALIAS_HOPS):
            if current in self.functions or current in self.classes:
                return current
            # `Alias.method` where Alias itself is re-exported.
            head, _, tail = current.rpartition(".")
            if head in self.alias_edges and tail:
                current = f"{self.alias_edges[head]}.{tail}"
                continue
            if current in self.alias_edges:
                current = self.alias_edges[current]
                continue
            return ""
        return ""

    def callee_params(self, resolved: str) -> Optional[List[ParamInfo]]:
        """The parameter list a call binds against: a function's params
        or a class's constructor surface.  None for unknown callees."""
        if resolved in self.functions:
            return self.functions[resolved].params
        if resolved in self.classes:
            return self.classes[resolved].init_params
        return None

    # -- call-site argument binding ---------------------------------------
    @staticmethod
    def bind(
        params: List[ParamInfo], call: CallInfo
    ) -> List[Tuple[ParamInfo, ArgInfo]]:
        """Pair call arguments with callee parameters (positional by
        index, keywords by name; unmatched args are skipped)."""
        by_name = {p.name: p for p in params}
        bound: List[Tuple[ParamInfo, ArgInfo]] = []
        for arg in call.args:
            if arg.keyword:
                param = by_name.get(arg.keyword)
                if param is not None:
                    bound.append((param, arg))
            elif 0 <= arg.position < len(params):
                bound.append((params[arg.position], arg))
        return bound

    # -- return-quantity resolution ---------------------------------------
    def return_quantity(self, resolved: str) -> Tuple[Optional[str], Optional[str]]:
        """(dimension, base) of a callable's return value, chasing
        ``return helper(...)`` forwarding with a cycle guard."""
        if resolved in self._return_quantity_cache:
            return self._return_quantity_cache[resolved]
        self._return_quantity_cache[resolved] = (None, None)  # cycle guard
        dim: Optional[str] = None
        base: Optional[str] = None
        seen: Set[str] = set()
        current = resolved
        for _ in range(_MAX_RETURN_CHASE):
            fn = self.functions.get(current)
            if fn is None or current in seen:
                break
            seen.add(current)
            dim = dim or fn.return_dimension
            base = base or fn.return_base
            if dim is not None and base is not None:
                break
            if not fn.returns_call:
                break
            current = self.resolve(fn.returns_call)
            if not current:
                break
        self._return_quantity_cache[resolved] = (dim, base)
        return dim, base

    # -- RNG factory resolution -------------------------------------------
    def rng_factory_provenance(self, resolved: str) -> Tuple[str, str]:
        """('' , '') when ``resolved`` does not return an RNG; else the
        provenance tag of the RNG it builds plus its seed parameter name
        (for PROV_DERIVED factories)."""
        if resolved in self._rng_provenance_cache:
            return self._rng_provenance_cache[resolved]
        self._rng_provenance_cache[resolved] = ("", "")  # cycle guard
        result: Tuple[str, str] = ("", "")
        fn = self.functions.get(resolved)
        if fn is not None:
            if fn.returns_rng:
                result = (fn.returns_rng, fn.rng_seed_param)
            elif fn.returns_call:
                inner = self.resolve(fn.returns_call)
                if inner:
                    prov, _ = self.rng_factory_provenance(inner)
                    if prov:
                        # A chained factory: we cannot track how the
                        # seed threads through, so only a definitely
                        # bad inner provenance survives the chain.
                        result = (
                            (prov, "")
                            if prov in (PROV_LITERAL, PROV_UNSEEDED)
                            else (PROV_UNKNOWN, "")
                        )
        self._rng_provenance_cache[resolved] = result
        return result

    def effective_rng_at_call(
        self, call: CallInfo
    ) -> Tuple[str, str]:
        """Provenance of the RNG a call to a factory produces at *this*
        site, accounting for which seed argument the caller passed.

        Returns ``("", "")`` when the callee is not an RNG factory or
        when the site is fine (seed derived / defaulted to a literal).
        The second element names the factory's seed parameter, for
        messages.
        """
        resolved = self.resolve(call.callee)
        if not resolved:
            return "", ""
        prov, seed_param = self.rng_factory_provenance(resolved)
        if not prov:
            return "", ""
        if prov in (PROV_LITERAL, PROV_UNSEEDED):
            # The factory pins or drops the seed no matter what the
            # caller passes — that is flagged once, at the factory's own
            # construction site, not at every call.
            return "", ""
        if prov != PROV_DERIVED:
            return "", ""
        fn = self.functions.get(resolved)
        if fn is None:
            return "", ""
        params = fn.params
        seed_name = seed_param or next(
            (p.name for p in params if p.name in SEED_PARAM_NAMES), ""
        )
        if not seed_name:
            return "", ""
        bound = {p.name: a for p, a in self.bind(params, call)}
        arg = bound.get(seed_name)
        if arg is not None:
            if arg.rng in (PROV_LITERAL, PROV_UNSEEDED):
                return arg.rng, seed_name
            return "", ""
        # Seed omitted: the factory's default decides.
        param = next((p for p in params if p.name == seed_name), None)
        if param is not None and param.default_is_none:
            return PROV_UNSEEDED, seed_name
        return "", ""

    # -- call graph --------------------------------------------------------
    def call_edges(self) -> Dict[str, List[Tuple[CallInfo, str]]]:
        """caller qualname -> [(call site, resolved callee qualname)],
        computed once and memoized."""
        if self._edges is not None:
            return self._edges
        edges: Dict[str, List[Tuple[CallInfo, str]]] = {}
        for qualname in sorted(self.functions):
            fn = self.functions[qualname]
            out: List[Tuple[CallInfo, str]] = []
            for call in fn.calls:
                resolved = self.resolve(call.callee)
                if not resolved:
                    continue
                targets: List[str] = []
                if resolved in self.functions:
                    targets.append(resolved)
                elif resolved in self.classes:
                    # Constructing a class executes its __init__.
                    init = f"{resolved}.__init__"
                    if init in self.functions:
                        targets.append(init)
                for target in targets:
                    out.append((call, target))
            if out:
                edges[qualname] = out
        self._edges = edges
        return edges

    def reachable_from(self, seeds: Set[str]) -> Set[str]:
        """Functions transitively callable from ``seeds`` (inclusive)."""
        edges = self.call_edges()
        closure = set(seeds)
        frontier = list(seeds)
        while frontier:
            current = frontier.pop()
            for _, callee in edges.get(current, []):
                if callee not in closure:
                    closure.add(callee)
                    frontier.append(callee)
        return closure
