"""Reduce one file's scope to an :class:`EffectFileSummary`.

Same contract as the dataflow extractor, over the same
:class:`~repro.lint.scope.FileScope`: extraction is file-local (a pure
function of path, module and source, so the result can be
content-hash cached), and the precision stance is *prefer silence
over guessing* — a mutation of a plain local is not an
effect, an iteration over a bare name has unknown order and can never
fire RL016, an unresolvable callee produces no edge.

What is collected per function:

- **mutations** — writes to ``self``/``cls`` state, to parameters
  (caller-visible aliasing), or to module globals: attribute and
  subscript stores, ``global``-declared rebinding, mutating method
  calls (``.append``, ``.pop``, ``.add``, ...), and known mutating
  free functions (``heapq.heappush``, ``random.shuffle``, ...);
- **float accumulations** — ``x += expr`` / dict-reduction stores with
  float evidence, tagged with the iteration-order class of the nearest
  enclosing loop;
- **loop calls** — calls made inside dict/set-ordered loops (RL016's
  interprocedural half);
- **closures** — nested ``def``/``lambda`` capturing enclosing locals
  (RL019's raw material);
- **attr calls / attr binds** — ``self.<attr>.<method>()`` call sites
  plus ``self.<attr> = Klass(...)`` bindings, which the inference step
  joins into call-graph edges the dataflow linker alone cannot see;
- **RNG draws, I/O calls, mutable defaults, yields,**
  ``@declared_pure`` **markers**.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.lint.dataflow import dimensions as dims
from repro.lint.effects.model import (
    AttrCall,
    ClosureCapture,
    EffectFileSummary,
    FloatAccum,
    FunctionEffects,
    IoCall,
    ITER_DICT,
    ITER_SET,
    ITER_SORTED,
    ITER_STABLE,
    ITER_UNKNOWN,
    LoopCall,
    MUT_GLOBAL,
    MUT_PARAM,
    MUT_SELF,
    MutableDefault,
    Mutation,
    RngDraw,
    UNSTABLE_ORDERS,
)
from repro.lint.rules.base import dotted_name
from repro.lint.scope import (
    FileScope,
    FunctionScope,
    ModuleBody,
    loop_of,
    names_stored,
    param_names_of,
    snippet,
)

#: Dimensions that imply float arithmetic (non-associative addition).
FLOAT_DIMENSIONS: Set[str] = {dims.SECONDS, dims.JOULES, dims.WATTS, dims.RATIO}

#: Method tails that mutate their receiver in place.
MUTATING_METHOD_TAILS: Set[str] = {
    "append",
    "extend",
    "insert",
    "remove",
    "pop",
    "popitem",
    "clear",
    "update",
    "add",
    "discard",
    "setdefault",
    "sort",
    "reverse",
    "appendleft",
    "popleft",
    "observe",
    "observe_many",
    "push",
    "set",
}

#: Free functions that mutate their first argument in place.
MUTATING_FREE_FUNCS: Set[str] = {
    "heapq.heappush",
    "heapq.heappop",
    "heapq.heapify",
    "heapq.heapreplace",
    "heapq.heappushpop",
    "bisect.insort",
    "bisect.insort_left",
    "bisect.insort_right",
    "random.shuffle",
    "setattr",
    "delattr",
}

#: Direct I/O, by fully-dotted name.
IO_CALL_NAMES: Set[str] = {
    "open",
    "print",
    "input",
    "json.dump",
    "json.load",
    "pickle.dump",
    "pickle.load",
    "os.replace",
    "os.rename",
    "os.remove",
    "os.unlink",
    "os.makedirs",
    "os.mkdir",
    "os.rmdir",
    "os.fdopen",
    "tempfile.mkstemp",
    "tempfile.mkdtemp",
    "shutil.rmtree",
    "shutil.copy",
    "shutil.copytree",
    "sys.stdout.write",
    "sys.stderr.write",
}

#: Direct I/O, by attribute tail (the pathlib idiom).
IO_CALL_TAILS: Set[str] = {
    "write_text",
    "read_text",
    "write_bytes",
    "read_bytes",
}

#: Method tails that draw from (and advance) a generator's stream.
RNG_DRAW_TAILS: Set[str] = {
    "random",
    "randint",
    "randrange",
    "uniform",
    "normal",
    "standard_normal",
    "standard_exponential",
    "integers",
    "choice",
    "choices",
    "sample",
    "shuffle",
    "permutation",
    "gauss",
    "expovariate",
    "exponential",
    "poisson",
    "lognormal",
    "gamma",
    "binomial",
    "bytes",
}

#: Receiver tails that identify the receiver as a generator.
RNG_RECEIVER_TAILS: Set[str] = {"rng", "_rng", "random", "gen", "generator"}

#: Iterable wrappers that preserve the inner iterable's order class.
_ORDER_PRESERVING_WRAPPERS: Set[str] = {"enumerate", "list", "tuple", "reversed", "iter"}


def classify_iter(node: ast.AST) -> Tuple[str, str]:
    """(order class, iterable snippet) of a ``for`` loop's iterable."""
    text = snippet(node)
    while (
        isinstance(node, ast.Call)
        and dotted_name(node.func).split(".")[-1] in _ORDER_PRESERVING_WRAPPERS
        and node.args
    ):
        node = node.args[0]
    if isinstance(node, ast.Call):
        # dotted_name fails when the receiver is itself a call (e.g.
        # ``snap.get("counters", {}).items()``), so read method tails
        # straight off the Attribute node.
        tail = (
            node.func.attr
            if isinstance(node.func, ast.Attribute)
            else dotted_name(node.func).split(".")[-1]
        )
        if tail == "sorted":
            return ITER_SORTED, text
        if tail == "range":
            return ITER_STABLE, text
        if tail in ("items", "values", "keys"):
            return ITER_DICT, text
        if tail in ("set", "frozenset"):
            return ITER_SET, text
        return ITER_UNKNOWN, text
    if isinstance(node, (ast.Set, ast.SetComp)):
        return ITER_SET, text
    if isinstance(node, (ast.List, ast.Tuple, ast.ListComp, ast.GeneratorExp)):
        return ITER_STABLE, text
    if isinstance(node, ast.Dict):
        # A dict literal iterates in source order — stable.
        return ITER_STABLE, text
    return ITER_UNKNOWN, text


def _target_root(node: ast.AST) -> str:
    """Root name an attribute/subscript chain hangs off; '' otherwise."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _target_tail(node: ast.AST) -> str:
    """Innermost attribute/name component, for dimension lookup."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Subscript):
        return _target_tail(node.value)
    return ""


def _names_loaded(node: ast.AST) -> Set[str]:
    return {
        n.id
        for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }


def _has_pure_marker(node: ast.AST) -> bool:
    for decorator in getattr(node, "decorator_list", []):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if dotted_name(target).split(".")[-1] == "declared_pure":
            return True
    return False


def _float_evidence(target: ast.AST, value: ast.AST) -> str:
    """Why an accumulation is believed to involve floats; '' when the
    evidence points at integer (associative) arithmetic instead."""
    tail = _target_tail(target)
    dim = dims.dimension_of_name(tail) if tail else None
    if dim in FLOAT_DIMENSIONS:
        return f"dimension:{dim}"
    for sub in ast.walk(value):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, float):
            return "float-literal"
        if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Div):
            return "division"
        if isinstance(sub, ast.Name):
            sub_dim = dims.dimension_of_name(sub.id)
            if sub_dim in FLOAT_DIMENSIONS:
                return f"dimension:{sub_dim}"
        if isinstance(sub, ast.Attribute):
            sub_dim = dims.dimension_of_name(sub.attr)
            if sub_dim in FLOAT_DIMENSIONS:
                return f"dimension:{sub_dim}"
    return ""


class _EffectsExtractor:
    """Collects direct effect facts for one function body."""

    def __init__(
        self, scope: FileScope, function: Union[FunctionScope, ModuleBody]
    ) -> None:
        self.resolver = scope.resolver
        self.class_ctx = function.class_ctx
        self.param_names = set(function.params)
        self.module_globals = scope.module_globals
        self.global_decls: Set[str] = set()
        node = function.node
        self.effects = FunctionEffects(
            qualname=function.qualname,
            lineno=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            is_method=function.is_method,
            class_ctx=function.class_ctx,
            declared_pure=_has_pure_marker(node),
        )

    # -- classification ----------------------------------------------------
    def _mutation_kind(self, root: str) -> str:
        if root in ("self", "cls"):
            return MUT_SELF
        if root in self.param_names:
            return MUT_PARAM
        if root in self.module_globals:
            return MUT_GLOBAL
        return ""

    def _record_mutation(
        self, kind: str, target: ast.AST, root: str, via: str
    ) -> None:
        self.effects.mutations.append(
            Mutation(
                kind=kind,
                target=snippet(target),
                root=root,
                lineno=getattr(target, "lineno", 0),
                col=getattr(target, "col_offset", 0),
                via=via,
            )
        )

    # -- loop context ------------------------------------------------------
    @staticmethod
    def _loop_order(
        node: ast.AST, parents: Dict[ast.AST, ast.AST]
    ) -> Tuple[str, str]:
        loop = loop_of(node, parents)
        return classify_iter(loop.iter) if loop else ("", "")

    # -- statement handlers ------------------------------------------------
    def _handle_assign_target(
        self, target: ast.AST, value: Optional[ast.AST], via: str
    ) -> None:
        if isinstance(target, ast.Name):
            if target.id in self.global_decls:
                self._record_mutation(MUT_GLOBAL, target, target.id, via)
            return
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            root = _target_root(target)
            kind = self._mutation_kind(root)
            if kind:
                self._record_mutation(kind, target, root, via)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._handle_assign_target(element, value, via)

    def _handle_float_accum(
        self, node: ast.AST, parents: Dict[ast.AST, ast.AST]
    ) -> None:
        """``x += expr`` (and ``-=``) with float evidence."""
        if not isinstance(node, ast.AugAssign):
            return
        if not isinstance(node.op, (ast.Add, ast.Sub)):
            return
        evidence = _float_evidence(node.target, node.value)
        if not evidence:
            return
        root = _target_root(node.target)
        order, iter_text = self._loop_order(node, parents)
        self.effects.float_accums.append(
            FloatAccum(
                target=snippet(node.target),
                root=root,
                kind=self._mutation_kind(root),
                lineno=node.lineno,
                col=node.col_offset,
                iter_order=order,
                iter_text=iter_text,
                evidence=evidence,
            )
        )

    def _handle_dict_reduction(
        self, node: ast.Assign, parents: Dict[ast.AST, ast.AST]
    ) -> None:
        """``B[k] = B.get(k, 0.0) + v`` — a reduction in disguise."""
        if len(node.targets) != 1 or not isinstance(node.targets[0], ast.Subscript):
            return
        target = node.targets[0]
        base_root = _target_root(target)
        base_text = snippet(target.value)
        if not base_text:
            return
        has_add = any(
            isinstance(sub, ast.BinOp) and isinstance(sub.op, (ast.Add, ast.Sub))
            for sub in ast.walk(node.value)
        )
        if not has_add:
            return
        reads_base = False
        for sub in ast.walk(node.value):
            if isinstance(sub, ast.Subscript) and snippet(sub.value) == base_text:
                reads_base = True
            elif (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "get"
                and snippet(sub.func.value) == base_text
            ):
                reads_base = True
        if not reads_base:
            return
        evidence = _float_evidence(target, node.value)
        if not evidence:
            return
        order, iter_text = self._loop_order(node, parents)
        self.effects.float_accums.append(
            FloatAccum(
                target=snippet(target),
                root=base_root,
                kind=self._mutation_kind(base_root),
                lineno=node.lineno,
                col=node.col_offset,
                iter_order=order,
                iter_text=iter_text,
                evidence=evidence,
            )
        )

    def _handle_call(
        self, node: ast.Call, parents: Dict[ast.AST, ast.AST]
    ) -> None:
        raw = dotted_name(node.func)
        tail = raw.split(".")[-1] if raw else ""
        resolved = self.resolver.resolve(raw, self.class_ctx) if raw else ""

        # Mutating method on a non-local receiver.
        if isinstance(node.func, ast.Attribute) and tail in MUTATING_METHOD_TAILS:
            receiver = node.func.value
            root = _target_root(receiver)
            kind = self._mutation_kind(root)
            if kind:
                self._record_mutation(kind, receiver, root, f"method:{tail}")

        # Known mutating free functions (first argument mutated).
        if (raw in MUTATING_FREE_FUNCS or resolved in MUTATING_FREE_FUNCS) and node.args:
            first = node.args[0]
            root = _target_root(first)
            kind = self._mutation_kind(root)
            if kind:
                self._record_mutation(kind, first, root, f"call:{raw}")

        # Direct I/O.
        if raw in IO_CALL_NAMES or resolved in IO_CALL_NAMES or tail in IO_CALL_TAILS:
            self.effects.io_calls.append(
                IoCall(name=raw or tail, lineno=node.lineno, col=node.col_offset)
            )

        # RNG draws: rng-ish receiver, stream-advancing method.
        if isinstance(node.func, ast.Attribute) and tail in RNG_DRAW_TAILS:
            receiver_tail = _target_tail(node.func.value)
            if receiver_tail.lstrip("_") in RNG_RECEIVER_TAILS or receiver_tail in RNG_RECEIVER_TAILS:
                self.effects.rng_draws.append(
                    RngDraw(text=snippet(node), lineno=node.lineno, col=node.col_offset)
                )

        # self.<attr>.<method>(...) — resolvable once attr types are known.
        if (
            isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Attribute)
            and isinstance(node.func.value.value, ast.Name)
            and node.func.value.value.id in ("self", "cls")
        ):
            self.effects.attr_calls.append(
                AttrCall(
                    attr=node.func.value.attr,
                    method=node.func.attr,
                    lineno=node.lineno,
                    col=node.col_offset,
                )
            )

        # Calls inside unstable-order loops (RL016's interprocedural half).
        order, iter_text = self._loop_order(node, parents)
        if order in UNSTABLE_ORDERS and resolved:
            self.effects.loop_calls.append(
                LoopCall(
                    callee=resolved,
                    callee_text=raw,
                    lineno=node.lineno,
                    col=node.col_offset,
                    iter_order=order,
                    iter_text=iter_text,
                )
            )

    def _handle_attr_bind(self, node: ast.Assign) -> None:
        """``self.<attr> = Klass(...)`` — attribute type binding."""
        if len(node.targets) != 1 or not isinstance(node.value, ast.Call):
            return
        target = node.targets[0]
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id in ("self", "cls")
        ):
            candidate = self.resolver.resolve(
                dotted_name(node.value.func), self.class_ctx
            )
            if candidate:
                self.effects.attr_binds.setdefault(target.attr, candidate)

    # -- closures ----------------------------------------------------------
    def _collect_closures(self, function: FunctionScope) -> None:
        if not function.closures:
            return
        enclosing_locals = set(self.param_names) | function.stored
        if self.effects.is_method:
            enclosing_locals |= {"self", "cls"}

        for node in function.closures:
            body = node.body if isinstance(node.body, list) else [node.body]
            loaded: Set[str] = set()
            bound: Set[str] = set(param_names_of(node, is_method=False))
            for stmt in body:
                loaded |= _names_loaded(stmt)
                bound |= names_stored(stmt)
            captured = sorted((loaded - bound) & enclosing_locals)
            if captured:
                self.effects.closures.append(
                    ClosureCapture(
                        name=getattr(node, "name", "<lambda>"),
                        lineno=node.lineno,
                        col=node.col_offset,
                        captured=captured,
                    )
                )

    # -- mutable defaults --------------------------------------------------
    def _collect_mutable_defaults(self, node: ast.AST) -> None:
        args = getattr(node, "args", None)
        if args is None:
            return
        positional = list(args.posonlyargs) + list(args.args)
        defaults: List[Optional[ast.expr]] = [None] * (
            len(positional) - len(args.defaults)
        ) + list(args.defaults)
        pairs = list(zip(positional, defaults)) + list(
            zip(args.kwonlyargs, args.kw_defaults)
        )
        for arg, default in pairs:
            if default is None:
                continue
            kind = ""
            if isinstance(default, ast.List):
                kind = "list"
            elif isinstance(default, ast.Dict):
                kind = "dict"
            elif isinstance(default, ast.Set):
                kind = "set"
            elif isinstance(default, ast.Call):
                ctor = dotted_name(default.func).split(".")[-1]
                if ctor in ("list", "dict", "set"):
                    kind = ctor
            if kind:
                self.effects.mutable_defaults.append(
                    MutableDefault(
                        param=arg.arg,
                        kind=kind,
                        lineno=default.lineno,
                        col=default.col_offset,
                    )
                )

    # -- the walk ----------------------------------------------------------
    def run(self, function: FunctionScope) -> FunctionEffects:
        own, parents = function.own, function.parents
        # Pass 1: global declarations (they affect later classification).
        for node in own:
            if isinstance(node, ast.Global):
                self.global_decls |= set(node.names)
        for node in own:
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                self.effects.has_yield = True
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    self._handle_assign_target(target, node.value, "assign")
                self._handle_dict_reduction(node, parents)
                self._handle_attr_bind(node)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                self._handle_assign_target(node.target, node.value, "assign")
            elif isinstance(node, ast.AugAssign):
                self._handle_assign_target(node.target, node.value, "augassign")
                self._handle_float_accum(node, parents)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    self._handle_assign_target(target, None, "del")
            elif isinstance(node, ast.Call):
                self._handle_call(node, parents)
        self._collect_mutable_defaults(function.node)
        self._collect_closures(function)
        return self.effects


def summarize_effects(scope: FileScope) -> EffectFileSummary:
    """One file's direct effect facts, from its shared scope."""
    summary = EffectFileSummary(path=scope.path, module=scope.module)
    for function in scope.walk(breadth_first=True):
        summary.functions.append(_EffectsExtractor(scope, function).run(function))
    module_extractor = _EffectsExtractor(scope, scope.body)
    for own, parents in scope.body.statements:
        for sub in own:
            if isinstance(sub, ast.Call):
                module_extractor._handle_call(sub, parents)
    summary.functions.append(module_extractor.effects)
    return summary
