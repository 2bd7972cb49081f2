"""Reduce one file's scope to its dataflow, effects and races summaries.

One :class:`_Extractor` walks each function's own nodes once
(:attr:`~repro.lint.scope.FunctionScope.own`, in source order) and
dispatches on each node's type once, filling the function's
:class:`~repro.lint.dataflow.model.FunctionSummary`,
:class:`~repro.lint.effects.model.FunctionEffects` and
:class:`~repro.lint.races.model.FunctionAccesses` together.  One pass
over the module's top-level statements does the same for the
``<module>`` pseudo-function.

Extraction is file-local — a pure function of path, module and source
(through the file's shared :class:`~repro.lint.scope.FileScope`) — so
the result can be content-hash cached.  Names resolve through the
file's own imports; chasing re-export chains across files is the
linker's job.  The precision stance of every layer is *prefer silence
over guessing*: straight-line local assignments are tracked (last
write wins) but control flow is not joined, a write to a plain local
is neither an effect nor shared state, an iteration over a bare name
has unknown order, an unresolvable callee produces no edge, and a
computed delay is ``unknown`` rather than a guessed coincidence class.

What each layer gets per function:

- **dataflow** — parameter/return dimensions and byte bases, resolved
  call sites with their argument facts, RNG constructions with their
  seed provenance, wall-clock/blocking calls, and whether the function
  is a sim process (yields a Timeout/Wait/Acquire/Release command);
- **effects** — writes to ``self``/``cls`` state, to parameters or to
  module globals (stores, ``global`` rebinding, ``del``, mutating
  methods and free functions); float accumulations (``x += e`` and
  ``B[k] = B.get(k, 0.0) + v`` with float evidence) tagged with the
  enclosing loop's iteration-order class; calls made in dict/set-ordered
  loops; closures over enclosing locals; ``self.<attr>.<method>()``
  calls and ``self.<attr> = Klass(...)`` bindings; RNG draws, I/O,
  mutable defaults, yields and the ``@declared_pure`` marker;
- **races** — shared-state reads and writes (``self``/param/closure/
  global roots), each tagged with its yield-delimited segment, with a
  commutativity verdict for writes (integer accumulation, extremum
  folds and set membership commute; float accumulation, sequence
  mutation, dict inserts and plain stores do not) and a use class for
  reads (control flow, recorded metric, iteration, plain value); and
  every same-instant scheduling action (``sim.schedule``, spawns,
  zero-delay triggers and interrupts, raw wakeup pushes, and a sim
  process's own ``yield Timeout(d)``) with a normalized delay class and
  a best-effort resolved target.

The layers differ where their consumers need them to:

- *parameters* — dataflow binds the positional and keyword-only
  parameters (no ``*args``/``**kwargs``) plus ``self``/``cls`` for
  methods; effects takes every parameter; races adds the names a nested
  def captures from its enclosers (param-kind shared state: a closure
  over an enclosing function's parameter aliases what it aliases);
- *function order* — dataflow and effects list nested defs breadth
  first, races in source order (see :meth:`FileScope.walk`);
- *the* ``<module>`` *pseudo-function* — dataflow tracks its
  assignments and calls, effects its calls, races its scheduling calls;
- *sim processes* — dataflow counts ``yield`` only, races also
  ``yield from``.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.lint.dataflow import dimensions as dims
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
    RngEvent,
    WallCall,
)
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
from repro.lint.races.model import (
    Access,
    COMM_EXTREMUM,
    COMM_INT_ACCUM,
    COMM_SET,
    FunctionAccesses,
    ORDERED_DICT,
    ORDERED_FLOAT,
    ORDERED_SEQ,
    ORDERED_STORE,
    RaceFileSummary,
    Registration,
    USE_CONTROL,
    USE_ITERATION,
    USE_METRIC,
    USE_VALUE,
)
from repro.lint.rules.base import dotted_name
from repro.lint.rules.determinism import _WALL_CLOCK_CALLS
from repro.lint.rules.simhygiene import BLOCKING_CALLS, COMMAND_CONSTRUCTORS
from repro.lint.scope import (
    FileScope,
    FunctionScope,
    ModuleBody,
    loop_of,
    names_stored,
    param_names_of,
    snippet,
)

#: Constructor names that build a generator (after alias resolution).
_RNG_CTOR_TAILS: Tuple[str, ...] = (
    "random.default_rng",
    "random.RandomState",
)

#: Helpers whose result is seed-derived by construction.
_SEED_DERIVING_TAILS: Set[str] = {"SeedSequence", "spawn", "spawn_seeds"}

#: Dimensions that imply float arithmetic (non-associative addition).
FLOAT_DIMENSIONS: Set[str] = {dims.SECONDS, dims.JOULES, dims.WATTS, dims.RATIO}

#: Method tails that mutate their receiver in place, with the races
#: verdict on two concurrent copies of the call: (commutes, reason).
MUTATING_METHODS: Dict[str, Tuple[bool, str]] = {
    # Membership / monotone counting: order-free.
    "add": (True, COMM_SET),
    "discard": (True, COMM_SET),
    "observe": (True, COMM_SET),
    "observe_many": (True, COMM_SET),
    # Position / insertion order is encoded in the receiver.
    **dict.fromkeys(
        (
            "append",
            "extend",
            "insert",
            "remove",
            "pop",
            "popitem",
            "clear",
            "sort",
            "reverse",
            "appendleft",
            "popleft",
            "push",
            "record",
            "submit",
        ),
        (False, ORDERED_SEQ),
    ),
    "update": (False, ORDERED_DICT),
    "setdefault": (False, ORDERED_DICT),
    "set": (False, ORDERED_STORE),
}

#: Mutating tails that only the races layer counts as writes (an
#: append-only log's order matters to a cohort, not to purity).
_RACES_ONLY_METHODS: Set[str] = {"record", "submit"}

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

#: Wrappers unwrapped when locating the container a loop iterates.
_ITER_UNWRAP_TAILS: Set[str] = _ORDER_PRESERVING_WRAPPERS | {"sorted"}

#: Call tails that register work for a (possibly shared) instant.
#: Maps tail -> (op, delay_arg_position, delay_keyword, target_arg_position).
_REGISTRATION_TAILS: Dict[str, Tuple[str, Optional[int], str, Optional[int]]] = {
    "schedule": ("schedule", 0, "delay", 1),
    "spawn": ("spawn", None, "", 0),
    "trigger": ("trigger", 2, "delay", 0),
    "interrupt": ("interrupt", None, "", None),
    "push_wakeup": ("wakeup", None, "", None),
}

#: Call tails that sink a read into a recorded metric.
_METRIC_SINK_TAILS: Set[str] = {
    "record",
    "observe",
    "observe_many",
    "add",
    "set",
    "inc",
}


# -- pure helpers -------------------------------------------------------------
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


def _iter_container(node: ast.AST) -> ast.AST:
    """Unwrap wrappers/views down to the container a loop iterates."""
    while True:
        if (
            isinstance(node, ast.Call)
            and dotted_name(node.func).split(".")[-1] in _ITER_UNWRAP_TAILS
            and node.args
        ):
            node = node.args[0]
            continue
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("items", "values", "keys")
        ):
            node = node.func.value
            continue
        return node


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


def _chain_parts(node: ast.AST) -> Tuple[str, str]:
    """(root, head) of an attribute/subscript chain.

    ``self.stats.hits[k]`` -> ("self", "stats"); ``table[k]`` ->
    ("table", ""); non-chains -> ("", "").
    """
    parts: List[str] = []
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return "", ""
    return node.id, (parts[-1] if parts else "")


def _root_kind(root: str, bound: Set[str], module_names: Set[str]) -> str:
    """MUT_SELF / MUT_PARAM / MUT_GLOBAL for a write's root name, or ''
    when it is a plain local (not an effect, not shared state)."""
    if root in ("self", "cls"):
        return MUT_SELF
    if root in bound:
        return MUT_PARAM
    if root in module_names:
        return MUT_GLOBAL
    return ""


def _names_in(node: ast.AST) -> Set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _names_loaded(node: ast.AST) -> Set[str]:
    return {
        n.id
        for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }


def _decorated(node: Optional[ast.AST], tail: str) -> bool:
    """Does ``node`` carry a decorator named ``tail`` (called or bare)?"""
    for decorator in getattr(node, "decorator_list", []):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if dotted_name(target).split(".")[-1] == tail:
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


def _reduction_evidence(target: ast.Subscript, value: ast.AST) -> Optional[str]:
    """``B[k] = B.get(k, 0.0) + v`` — a reduction in disguise.

    None when the store is no reduction (a plain key insert); else its
    float evidence, '' for integer arithmetic."""
    base_text = snippet(target.value)
    has_add = reads_base = False
    for sub in ast.walk(value):
        if isinstance(sub, ast.BinOp) and isinstance(sub.op, (ast.Add, ast.Sub)):
            has_add = True
        if isinstance(sub, ast.Subscript) and snippet(sub.value) == base_text:
            reads_base = True
        elif (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr == "get"
            and snippet(sub.func.value) == base_text
        ):
            reads_base = True
    if not (base_text and has_add and reads_base):
        return None
    return _float_evidence(target, value)


def _verdict(evidence: Optional[str], otherwise: str) -> Tuple[bool, str]:
    """Races (commutes, reason) of a store: an accumulation with float
    evidence is ordered, one without (``''``) is an exact integer
    accumulation; no accumulation at all (None) is ``otherwise``."""
    if evidence is None:
        return False, otherwise
    if evidence:
        return False, ORDERED_FLOAT
    return True, COMM_INT_ACCUM


def _delay_class(node: Optional[ast.AST]) -> str:
    """Normalize a delay expression into a coincidence class."""
    if node is None:
        return "unknown"
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = node.operand
        if isinstance(inner, ast.Constant) and isinstance(inner.value, (int, float)):
            return f"const:{-float(inner.value)!r}"
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        # A literal constant, not a computed float: exact zero is the
        # intended classification.  # repro-lint: disable=RL006
        if float(node.value) == 0.0:
            return "zero"
        return f"const:{float(node.value)!r}"
    if isinstance(node, (ast.Name, ast.Attribute)):
        return f"name:{snippet(node)}"
    return "unknown"


def _call_arg(
    node: ast.Call, position: Optional[int], keyword: str
) -> Optional[ast.AST]:
    if keyword:
        for kw in node.keywords:
            if kw.arg == keyword:
                return kw.value
    if position is not None and len(node.args) > position:
        return node.args[position]
    return None


def _seed_expr_of_ctor(call: ast.Call) -> Optional[ast.expr]:
    if call.args:
        return call.args[0]
    for kw in call.keywords:
        if kw.arg in ("seed", "x"):
            return kw.value
    return None


def _maximal_binop(
    node: ast.AST, parents: Dict[ast.AST, ast.AST]
) -> Optional[ast.BinOp]:
    """The outermost BinOp enclosing ``node``, or None."""
    top: Optional[ast.BinOp] = None
    current = parents.get(node)
    while current is not None:
        if isinstance(current, ast.BinOp):
            top = current
        elif top is not None:
            break
        current = parents.get(current)
    return top


def _bases_excluding(root: ast.AST, excluded: ast.AST) -> List[str]:
    """Size-constant bases under ``root``, skipping the ``excluded``
    subtree (so a call's own arguments don't count as 'mixed with' its
    result)."""
    bases: Set[str] = set()
    stack: List[ast.AST] = [root]
    while stack:
        node = stack.pop()
        if node is excluded:
            continue
        name = ""
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        if name in dims.BINARY_SIZE_CONSTANTS:
            bases.add(dims.BINARY)
        elif name in dims.DECIMAL_SIZE_CONSTANTS:
            bases.add(dims.DECIMAL)
        stack.extend(ast.iter_child_nodes(node))
    return sorted(bases)


def _assign_names(node: ast.AST) -> List[str]:
    """The plain-name targets of an Assign/AnnAssign, in order."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    else:
        targets = [node.target]  # type: ignore[attr-defined]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _defaulted(args: ast.arguments) -> List[Tuple[ast.arg, Optional[ast.expr]]]:
    """Positional then keyword-only parameters, each with its default
    (None when it has none); ``*args``/``**kwargs`` are left out."""
    positional = list(args.posonlyargs) + list(args.args)
    defaults: List[Optional[ast.expr]] = [None] * (
        len(positional) - len(args.defaults)
    ) + list(args.defaults)
    return list(zip(positional, defaults)) + list(
        zip(args.kwonlyargs, args.kw_defaults)
    )


def _param_info(
    name: str, annotation: Optional[ast.expr], default: Optional[ast.expr]
) -> ParamInfo:
    dim = dims.dimension_of_annotation(annotation)
    if dim is None:
        dim = dims.dimension_of_name(name)
    return ParamInfo(
        name=name,
        dimension=dim,
        has_default=default is not None,
        default_is_none=isinstance(default, ast.Constant) and default.value is None,
    )


def _param_infos(
    pairs: List[Tuple[ast.arg, Optional[ast.expr]]], is_method: bool
) -> List[ParamInfo]:
    """ParamInfo list in binding order (``self``/``cls`` dropped)."""
    infos = [_param_info(arg.arg, arg.annotation, default) for arg, default in pairs]
    if is_method and infos and infos[0].name in ("self", "cls"):
        infos = infos[1:]
    return infos


def _mutable_kind(default: ast.expr) -> str:
    """"list"/"dict"/"set" when a default builds a shared mutable."""
    if isinstance(default, ast.List):
        return "list"
    if isinstance(default, ast.Dict):
        return "dict"
    if isinstance(default, ast.Set):
        return "set"
    if isinstance(default, ast.Call):
        ctor = dotted_name(default.func).split(".")[-1]
        if ctor in ("list", "dict", "set"):
            return ctor
    return ""


class _Extractor:
    """One function's (or the module body's) facts for all three layers."""

    def __init__(
        self, scope: FileScope, function: Union[FunctionScope, ModuleBody]
    ) -> None:
        node = function.node
        self.resolver = scope.resolver
        self.class_ctx = function.class_ctx
        self.module_globals = scope.module_globals
        #: Module-level *data* names (defs excluded) — races read targets.
        self.data_globals = scope.data_globals
        self.module_level = node is None
        self.defaults = _defaulted(node.args) if node is not None else []
        header = dict(
            qualname=function.qualname,
            lineno=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            is_method=function.is_method,
        )
        self.summary = FunctionSummary(
            **header, params=_param_infos(self.defaults, function.is_method)
        )
        self.effects = FunctionEffects(
            **header,
            class_ctx=function.class_ctx,
            declared_pure=_decorated(node, "declared_pure"),
        )
        self.accesses = FunctionAccesses(**header, class_ctx=function.class_ctx)
        # Parameter sets, per layer (see the module docstring).
        self.dataflow_params = {p.name for p in self.summary.params}
        if function.is_method:
            self.dataflow_params |= {"self", "cls"}
        self.effects_params = set(function.params)
        self.races_bound = self.effects_params | (
            function.parent.captures if function.parent is not None else set()
        )
        self.nested_defs = {c.node.name: c.qualname for c in function.children}
        self.global_decls: Set[str] = set()
        self.races_globals = self.module_globals
        self.parents: Dict[ast.AST, ast.AST] = {}
        #: Dataflow environment: local name -> quantity, RNG-valued
        #: locals -> (provenance, seed_param), seed-derived locals.
        self.env: Dict[str, dims.Quantity] = {}
        self.env_rng: Dict[str, Tuple[str, str]] = {}
        self.env_seed_derived: Set[str] = set()
        self.inferencer = dims.ExpressionInferencer(self.env)
        self.returns: List[ast.Return] = []
        #: Parameter name -> byte bases of the arithmetic it appears in.
        self.param_bases: Dict[str, Set[str]] = {}
        #: Races: yield-delimited segment, extremum-fold store targets,
        #: and (lineno, col) of their guard reads to suppress.
        self.segment = 0
        self.folds: Set[ast.AST] = set()
        self.fold_guards: Set[Tuple[int, int]] = set()
        #: Per-call (raw dotted name, tail, resolved name), and per
        #: iterable its (order class, snippet): each computed once.
        self._callees: Dict[ast.Call, Tuple[str, str, str]] = {}
        self._orders: Dict[ast.AST, Tuple[str, str]] = {}

    # -- the walks ---------------------------------------------------------
    def run(self, function: FunctionScope) -> None:
        own = function.own
        self.parents = function.parents
        for node in own:
            if isinstance(node, ast.Global):
                self.global_decls |= set(node.names)
            elif isinstance(node, ast.Assign):
                # Before any read is recorded: own nodes are in pre-order,
                # so the guard of ``if v > x: x = v`` precedes its fold.
                self.folds.update(
                    target
                    for target in node.targets
                    if (
                        isinstance(target, ast.Attribute)
                        or getattr(target, "id", None) in self.global_decls
                    )
                    and self._extremum_fold(node, target)
                )
        self.races_globals = self.module_globals | self.global_decls
        for node in own:
            handler = _HANDLERS.get(type(node))
            if handler is not None:
                handler(self, node)
        self.accesses.segments = self.segment + 1
        self._finish_returns()
        for param in self.summary.params:
            seen = self.param_bases.get(param.name)
            if seen and len(seen) == 1 and param.base is None:
                param.base = next(iter(seen))
        for arg, default in self.defaults:
            kind = _mutable_kind(default) if default is not None else ""
            if kind:
                self.effects.mutable_defaults.append(
                    MutableDefault(
                        param=arg.arg,
                        kind=kind,
                        lineno=default.lineno,  # type: ignore[union-attr]
                        col=default.col_offset,  # type: ignore[union-attr]
                    )
                )
        self._collect_closures(function)

    def run_module(self, body: ModuleBody) -> None:
        for own, parents in body.statements:
            self.parents = parents
            for node in own:
                if isinstance(node, (ast.Assign, ast.AnnAssign)):
                    self._track_assignment(node)
                elif isinstance(node, ast.Call):
                    self._call(node)

    # -- shared lookups ----------------------------------------------------
    def _callee(self, call: ast.Call) -> Tuple[str, str, str]:
        """(raw dotted name, its tail, resolved name) of a call's callee."""
        found = self._callees.get(call)
        if found is None:
            raw = dotted_name(call.func)
            found = (
                raw,
                raw.split(".")[-1],
                self.resolver.resolve(raw, self.class_ctx),
            )
            self._callees[call] = found
        return found

    def _order(self, iterable: ast.AST) -> Tuple[str, str]:
        found = self._orders.get(iterable)
        if found is None:
            found = self._orders[iterable] = classify_iter(iterable)
        return found

    def _loop_order(self, loop: Optional[ast.For]) -> Tuple[str, str]:
        return self._order(loop.iter) if loop is not None else ("", "")

    # -- node handlers -----------------------------------------------------
    def _yield(self, node: Union[ast.Yield, ast.YieldFrom]) -> None:
        self.effects.has_yield = self.accesses.has_yield = True
        value = node.value
        if isinstance(value, ast.Call):
            tail = self._callee(value)[1]
            if tail in COMMAND_CONSTRUCTORS:
                self.accesses.is_sim_process = True
                if isinstance(node, ast.Yield):
                    self.summary.is_sim_process = True
            if tail == "Timeout":
                loop = loop_of(node, self.parents)
                self._register(
                    node,
                    "timeout",
                    _delay_class(value.args[0] if value.args else None),
                    self.accesses.qualname,
                    snippet(value),
                    loop,
                )
        self.segment += 1

    def _assign(self, node: ast.Assign) -> None:
        self._track_assignment(node)
        for target in node.targets:
            self._store(node, target)
        self._attr_bind(node)

    def _ann_assign(self, node: ast.AnnAssign) -> None:
        self._track_assignment(node)
        if node.value is not None:
            self._store(node, node.target)

    def _aug_assign(self, node: ast.AugAssign) -> None:
        target = node.target
        self._mutation(target, "augassign")
        evidence = (
            _float_evidence(target, node.value)
            if isinstance(node.op, (ast.Add, ast.Sub))
            else None
        )
        if evidence:
            self._float_accum(node, target, evidence)
        if isinstance(target, ast.Name) and target.id not in self.global_decls:
            return
        commutes, reason = _verdict(evidence, ORDERED_STORE)
        self._write(target, _target_root(target), "augassign", commutes, reason)

    def _delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._mutation(target, "del")

    def _return(self, node: ast.Return) -> None:
        self.returns.append(node)

    def _binop(self, node: ast.BinOp) -> None:
        """A parameter used in arithmetic with exactly one size-constant
        family inherits that family as its byte base."""
        bases = dims.bases_in(node)
        if len(bases) == 1:
            base = next(iter(bases))
            for name in _names_in(node):
                self.param_bases.setdefault(name, set()).add(base)

    def _loop(self, node: Union[ast.For, ast.comprehension]) -> None:
        self._iteration(node.iter)

    def _load(self, node: Union[ast.Name, ast.Attribute, ast.Subscript]) -> None:
        if isinstance(node.ctx, ast.Load):
            self._read(node)

    def _call(self, node: ast.Call) -> None:
        raw, tail, resolved = self._callee(node)
        loop = loop_of(node, self.parents)
        self._dataflow_call(node, raw, resolved)
        self._effects_call(node, raw, tail, resolved, loop)
        if not isinstance(node.func, ast.Attribute):
            return
        if tail in _REGISTRATION_TAILS and (
            self.module_level or self._sim_receiver(node, tail)
        ):
            self._registration(node, tail, loop)
        elif tail in MUTATING_METHODS and not self.module_level:
            receiver = node.func.value
            commutes, reason = MUTATING_METHODS[tail]
            self._write(
                receiver, _target_root(receiver), f"method:{tail}", commutes, reason
            )

    # -- stores (effects mutations, races writes) --------------------------
    def _store(self, node: Union[ast.Assign, ast.AnnAssign], target: ast.AST) -> None:
        """One assignment target, recursing into unpacking."""
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._store(node, element)
            return
        self._mutation(target, "assign")
        if isinstance(target, ast.Name):
            if target.id in self.global_decls:
                self._plain_store(node, target, target.id)
        elif isinstance(target, ast.Subscript):
            evidence = (
                _reduction_evidence(target, node.value)
                if isinstance(node, ast.Assign)
                else None
            )
            commutes, reason = _verdict(evidence, ORDERED_DICT)
            self._write(target, _target_root(target), "assign", commutes, reason)
            if evidence and node.targets == [target]:  # type: ignore[union-attr]
                # Effects: a float reduction in disguise (sole target only).
                self._float_accum(node, target, evidence)
        elif isinstance(target, ast.Attribute):
            self._plain_store(node, target, _target_root(target))

    def _plain_store(
        self, node: Union[ast.Assign, ast.AnnAssign], target: ast.AST, root: str
    ) -> None:
        """Races: an extremum fold, or a last-writer-wins store.  Stores
        whose value reads a parameter/closure binding differ between two
        pending instances of the same callback (each registration binds
        its own arguments); stores computed from ``self``/constants are
        identical and therefore symmetric."""
        if target in self.folds:
            self._write(target, root, "assign", True, COMM_EXTREMUM)
            return
        via = "assign"
        if any(
            isinstance(sub, ast.Name) and sub.id in self.races_bound
            for sub in ast.walk(node.value)  # type: ignore[arg-type]
        ):
            via = "assign:arg"
        self._write(target, root, via, False, ORDERED_STORE)

    def _extremum_fold(self, node: ast.Assign, target: ast.AST) -> bool:
        """``x = max(x, v)`` or ``if v > x: x = v``."""
        target_text = snippet(target)
        value = node.value
        if (
            isinstance(value, ast.Call)
            and self._callee(value)[1] in ("max", "min")
            and any(snippet(arg) == target_text for arg in value.args)
        ):
            return True
        current = self.parents.get(node)
        while current is not None and not isinstance(current, ast.If):
            current = self.parents.get(current)
        if isinstance(current, ast.If) and isinstance(current.test, ast.Compare):
            test = current.test
            if len(test.ops) == 1 and isinstance(
                test.ops[0], (ast.Gt, ast.GtE, ast.Lt, ast.LtE)
            ):
                value_text = snippet(value)
                sides = [test.left, test.comparators[0]]
                texts = [snippet(s) for s in sides]
                if target_text in texts and value_text in texts:
                    for side, text in zip(sides, texts):
                        if text == target_text:
                            self.fold_guards.add((side.lineno, side.col_offset))
                    return True
        return False

    def _mutation(self, target: ast.AST, via: str) -> None:
        """Effects: a write into ``target`` when it is non-local state."""
        if isinstance(target, ast.Name):
            if target.id in self.global_decls:
                self._add_mutation(MUT_GLOBAL, target, target.id, via)
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            self._mutation_of(target, via)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._mutation(element, via)

    def _add_mutation(self, kind: str, target: ast.AST, root: str, via: str) -> None:
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

    def _float_accum(self, node: ast.AST, target: ast.AST, evidence: str) -> None:
        root = _target_root(target)
        order, iter_text = self._loop_order(loop_of(node, self.parents))
        self.effects.float_accums.append(
            FloatAccum(
                target=snippet(target),
                root=root,
                kind=_root_kind(root, self.effects_params, self.module_globals),
                lineno=node.lineno,  # type: ignore[attr-defined]
                col=node.col_offset,  # type: ignore[attr-defined]
                iter_order=order,
                iter_text=iter_text,
                evidence=evidence,
            )
        )

    def _attr_bind(self, node: ast.Assign) -> None:
        """``self.<attr> = Klass(...)`` — attribute type binding."""
        if len(node.targets) != 1 or not isinstance(node.value, ast.Call):
            return
        target = node.targets[0]
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id in ("self", "cls")
        ):
            candidate = self._callee(node.value)[2]
            if candidate:
                self.effects.attr_binds.setdefault(target.attr, candidate)

    # -- races accesses ----------------------------------------------------
    def _write(
        self, target: ast.AST, root: str, via: str, commutes: bool, reason: str
    ) -> None:
        self._access(
            target,
            root,
            write=True,
            head=_chain_parts(target)[1],
            via=via,
            commutes=commutes,
            comm_reason=reason,
        )

    def _access(self, node: ast.AST, root: str, **facts) -> None:
        """Races: an access to ``node`` when its root is shared state."""
        kind = _root_kind(root, self.races_bound, self.races_globals)
        if kind:
            self.accesses.accesses.append(
                Access(
                    kind=kind,
                    root=root,
                    target=snippet(node),
                    lineno=getattr(node, "lineno", 0),
                    col=getattr(node, "col_offset", 0),
                    segment=self.segment,
                    **facts,
                )
            )

    def _read(self, node: ast.AST) -> None:
        parent = self.parents.get(node)
        if isinstance(parent, (ast.Attribute, ast.Subscript)) and parent.value is node:
            return  # inner part of a longer chain
        if isinstance(parent, ast.Call) and parent.func is node:
            return  # method/function reference, not a data read
        if isinstance(node, ast.Name):
            root, head = node.id, ""
            if root not in self.data_globals and root not in self.global_decls:
                return
        else:
            root, head = _chain_parts(node)
            if not root:
                return
        if (node.lineno, node.col_offset) in self.fold_guards:  # type: ignore[attr-defined]
            return
        self._access(node, root, head=head, via="read", use=self._use_of(node))

    def _use_of(self, node: ast.AST) -> str:
        child = node
        current = self.parents.get(node)
        while current is not None:
            if isinstance(current, (ast.If, ast.While, ast.IfExp)):
                if current.test is child:
                    return USE_CONTROL
                # Falling out of the test subtree means we were in a
                # branch body, not the condition — stop classifying.
                if not isinstance(current, ast.IfExp):
                    return USE_VALUE
            if isinstance(current, ast.Assert) and current.test is child:
                return USE_CONTROL
            if isinstance(current, (ast.Compare, ast.BoolOp, ast.UnaryOp, ast.BinOp)):
                child = current
                current = self.parents.get(current)
                continue
            if isinstance(current, ast.Call):
                func_tail = (
                    current.func.attr
                    if isinstance(current.func, ast.Attribute)
                    else self._callee(current)[1]
                )
                in_args = child in current.args or any(
                    kw.value is child for kw in current.keywords
                )
                if in_args and func_tail in _METRIC_SINK_TAILS:
                    return USE_METRIC
            child = current
            current = self.parents.get(current)
        return USE_VALUE

    def _iteration(self, iterable: ast.AST) -> None:
        order = self._order(iterable)[0]
        container = _iter_container(iterable)
        if isinstance(container, ast.Name):
            root, head = container.id, ""
            if root not in self.data_globals and root not in self.races_bound:
                return
        elif isinstance(container, (ast.Attribute, ast.Subscript)):
            root, head = _chain_parts(container)
        else:
            return
        if order == ITER_SORTED:
            # Sorted iteration never observes container order.
            return
        self._access(
            container, root, head=head, via="read", use=USE_ITERATION, iter_order=order
        )

    # -- races registrations -----------------------------------------------
    def _sim_receiver(self, node: ast.Call, tail: str) -> bool:
        """Does this registration-shaped call target the simulator?

        ``spawn``/``schedule``/``trigger`` tails collide with unrelated
        APIs (``SeedSequence.spawn``, cron-style schedulers), so the
        receiver must look like a simulator handle: ``sim``/``*.sim``,
        the kernel's own ``self``, or the raw event queue.
        ``interrupt`` targets a *process* handle, so it passes as-is.
        """
        if tail == "interrupt":
            return True
        text = snippet(node.func.value)  # type: ignore[attr-defined]
        return (
            text in ("sim", "self", "cls")
            or text.endswith(".sim")
            or text.endswith("_queue")
        )

    def _registration(
        self, node: ast.Call, tail: str, loop: Optional[ast.For]
    ) -> None:
        op, delay_pos, delay_kw, target_pos = _REGISTRATION_TAILS[tail]
        delay_node = _call_arg(node, delay_pos, delay_kw)
        if op in ("spawn", "interrupt", "trigger") and delay_node is None:
            delay_class = "zero"
        elif op == "wakeup":
            delay_class = "unknown"
        else:
            delay_class = _delay_class(delay_node)
        target = ""
        target_text = ""
        if target_pos is not None:
            target_node = _call_arg(node, target_pos, "")
            if target_node is None and target_pos == 1:
                target_node = _call_arg(node, None, "callback")
            if target_node is not None:
                target = self._resolve_callable(target_node)
                target_text = snippet(target_node)
        elif op == "interrupt":
            target_text = snippet(node.func.value)  # type: ignore[attr-defined]
        self._register(node, op, delay_class, target, target_text, loop)

    def _register(
        self,
        node: ast.AST,
        op: str,
        delay_class: str,
        target: str,
        target_text: str,
        loop: Optional[ast.For],
    ) -> None:
        loop_order, loop_text = self._loop_order(loop)
        self.accesses.registrations.append(
            Registration(
                op=op,
                delay_class=delay_class,
                target=target,
                target_text=target_text,
                lineno=node.lineno,  # type: ignore[attr-defined]
                col=node.col_offset,  # type: ignore[attr-defined]
                segment=self.segment,
                in_loop=loop is not None,
                loop_order=loop_order,
                loop_text=loop_text,
            )
        )

    def _resolve_callable(self, node: ast.AST) -> str:
        """Best-effort qualname of a scheduled callback/process."""
        if isinstance(node, ast.Lambda):
            body = node.body
            if isinstance(body, ast.Call):
                return self._resolve_callable(body.func)
            return ""
        if isinstance(node, ast.Call):
            # spawn(self._proc(...)) — a generator constructor call.
            return self._resolve_callable(node.func)
        if isinstance(node, ast.Attribute):
            root = _target_root(node)
            raw = dotted_name(node)
            if root in ("self", "cls") and self.class_ctx:
                parts = raw.split(".")
                if len(parts) == 2:
                    return f"{self.class_ctx}.{parts[1]}"
                return ""
            return self.resolver.resolve(raw, self.class_ctx) if raw else ""
        if isinstance(node, ast.Name):
            if node.id in self.nested_defs:
                return self.nested_defs[node.id]
            return self.resolver.resolve(node.id, self.class_ctx)
        return ""

    # -- effects calls and closures ----------------------------------------
    def _effects_call(
        self,
        node: ast.Call,
        raw: str,
        tail: str,
        resolved: str,
        loop: Optional[ast.For],
    ) -> None:
        func = node.func
        # Mutating method on a non-local receiver.
        if (
            isinstance(func, ast.Attribute)
            and tail in MUTATING_METHODS
            and tail not in _RACES_ONLY_METHODS
        ):
            self._mutation_of(func.value, f"method:{tail}")
        # Known mutating free functions (first argument mutated).
        if (raw in MUTATING_FREE_FUNCS or resolved in MUTATING_FREE_FUNCS) and node.args:
            self._mutation_of(node.args[0], f"call:{raw}")
        # Direct I/O.
        if raw in IO_CALL_NAMES or resolved in IO_CALL_NAMES or tail in IO_CALL_TAILS:
            self.effects.io_calls.append(
                IoCall(name=raw or tail, lineno=node.lineno, col=node.col_offset)
            )
        if isinstance(func, ast.Attribute):
            # RNG draws: rng-ish receiver, stream-advancing method.
            if tail in RNG_DRAW_TAILS:
                receiver_tail = _target_tail(func.value)
                if (
                    receiver_tail.lstrip("_") in RNG_RECEIVER_TAILS
                    or receiver_tail in RNG_RECEIVER_TAILS
                ):
                    self.effects.rng_draws.append(
                        RngDraw(
                            text=snippet(node), lineno=node.lineno, col=node.col_offset
                        )
                    )
            # self.<attr>.<method>(...) — resolvable once attr types are known.
            if (
                isinstance(func.value, ast.Attribute)
                and isinstance(func.value.value, ast.Name)
                and func.value.value.id in ("self", "cls")
            ):
                self.effects.attr_calls.append(
                    AttrCall(
                        attr=func.value.attr,
                        method=func.attr,
                        lineno=node.lineno,
                        col=node.col_offset,
                    )
                )
        # Calls inside unstable-order loops (RL016's interprocedural half).
        if loop is not None and resolved:
            order, iter_text = self._loop_order(loop)
            if order in UNSTABLE_ORDERS:
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

    def _mutation_of(self, receiver: ast.AST, via: str) -> None:
        """Effects: a call mutating ``receiver`` in place."""
        root = _target_root(receiver)
        kind = _root_kind(root, self.effects_params, self.module_globals)
        if kind:
            self._add_mutation(kind, receiver, root, via)

    def _collect_closures(self, function: FunctionScope) -> None:
        if not function.closures:
            return
        enclosing_locals = self.effects_params | function.stored
        if function.is_method:
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

    # -- dataflow: seeds, assignments, calls, returns ----------------------
    def _rng_ctor(self, call: ast.Call) -> bool:
        raw, _, resolved = self._callee(call)
        return bool(raw) and (
            "random.Random" in (raw, resolved)
            or raw.endswith(_RNG_CTOR_TAILS)
            or resolved.endswith(_RNG_CTOR_TAILS)
        )

    def _classify_seed_expr(self, node: Optional[ast.AST]) -> Tuple[str, str]:
        """(provenance, seed_param) of a seed-like expression."""
        if node is None:
            return PROV_UNSEEDED, ""
        if isinstance(node, ast.Constant):
            if node.value is None:
                return PROV_UNSEEDED, ""
            return PROV_LITERAL, ""
        names = _names_in(node)
        param_hits = sorted(names & self.dataflow_params)
        if param_hits:
            hit = next((p for p in param_hits if p not in ("self", "cls")), "")
            return PROV_DERIVED, hit
        if names & self.env_seed_derived:
            return PROV_DERIVED, ""
        for name in names:
            if name in self.env_rng:
                return self.env_rng[name]
        if not names:
            # Pure-constant arithmetic (e.g. SeedSequence(2**32 - 1)).
            return PROV_LITERAL, ""
        return PROV_UNKNOWN, ""

    def _classify_value(self, node: ast.AST) -> Tuple[str, str]:
        """Seed provenance of an arbitrary value expression: an rng
        construction classifies its seed; a seed-ish derivation
        (SeedSequence/.spawn) classifies its inputs; a bare name looks
        up the local environment."""
        if isinstance(node, ast.Call):
            if self._rng_ctor(node):
                return self._classify_seed_expr(_seed_expr_of_ctor(node))
            if self._callee(node)[1] in _SEED_DERIVING_TAILS:
                if not node.args and not node.keywords:
                    return PROV_UNSEEDED, ""
                provs = [self._classify_seed_expr(a) for a in node.args] + [
                    self._classify_seed_expr(k.value) for k in node.keywords
                ]
                for wanted in (PROV_DERIVED, PROV_UNSEEDED, PROV_UNKNOWN):
                    for prov, param in provs:
                        if prov == wanted:
                            return prov, param
                return PROV_LITERAL, ""
        return self._classify_seed_expr(node)

    def _track_assignment(self, node: Union[ast.Assign, ast.AnnAssign]) -> None:
        value = node.value
        if value is None:
            return
        names = _assign_names(node)
        if not names:
            return
        quantity = self.inferencer.infer(value)
        prov, seed_param = self._classify_value(value)
        is_call = isinstance(value, ast.Call)
        is_rng = is_call and self._rng_ctor(value)  # type: ignore[arg-type]
        tail = self._callee(value)[1] if is_call else ""  # type: ignore[arg-type]
        seed_derived = prov == PROV_DERIVED or bool(
            _names_in(value) & (self.dataflow_params | self.env_seed_derived)
        )
        for name in names:
            if quantity != dims.UNKNOWN:
                self.env[name] = quantity
            if is_rng or tail in _SEED_DERIVING_TAILS:
                self.env_rng[name] = (prov, seed_param)
            if seed_derived:
                self.env_seed_derived.add(name)

    def _dataflow_call(self, node: ast.Call, raw: str, resolved: str) -> None:
        # Direct wall-clock / blocking calls (RL015's taint sources).
        if raw in _WALL_CLOCK_CALLS or raw in BLOCKING_CALLS:
            self.summary.wall_calls.append(
                WallCall(name=raw, lineno=node.lineno, col=node.col_offset)
            )
        # Direct RNG constructions (RL014's direct events).
        if self._rng_ctor(node):
            seed_expr = _seed_expr_of_ctor(node)
            self.summary.rng_events.append(
                RngEvent(
                    lineno=node.lineno,
                    col=node.col_offset,
                    provenance=self._classify_seed_expr(seed_expr)[0],
                    text=snippet(node),
                    seed_text=snippet(seed_expr) if seed_expr is not None else "",
                )
            )
        if not resolved:
            return
        info = CallInfo(
            callee=resolved, callee_text=raw, lineno=node.lineno, col=node.col_offset
        )
        for position, arg in enumerate(node.args):
            if not isinstance(arg, ast.Starred):
                info.args.append(self._arg_info(arg, position=position))
        for kw in node.keywords:
            if kw.arg is not None:  # not **kwargs
                info.args.append(self._arg_info(kw.value, keyword=kw.arg))
        top = _maximal_binop(node, self.parents)
        if top is not None:
            info.expr_bases = _bases_excluding(top, node)
        parent = self.parents.get(node)
        if isinstance(parent, (ast.Assign, ast.AnnAssign)):
            names = _assign_names(parent)
            if names:
                info.target_text = names[0]
                info.target_dimension = dims.dimension_of_name(names[0])
            elif isinstance(parent, ast.Assign) and isinstance(
                parent.targets[0], ast.Attribute
            ):
                info.target_text = parent.targets[0].attr
                info.target_dimension = dims.dimension_of_name(parent.targets[0].attr)
        self.summary.calls.append(info)

    def _arg_info(
        self, node: ast.expr, position: int = -1, keyword: str = ""
    ) -> ArgInfo:
        dim, base = self.inferencer.infer(node)
        return ArgInfo(
            position=position,
            keyword=keyword,
            dimension=dim,
            base=base,
            call=self._callee(node)[2] if isinstance(node, ast.Call) else "",
            rng=self._classify_value(node)[0],
            text=snippet(node),
        )

    def _finish_returns(self) -> None:
        summary = self.summary
        dims_seen: List[str] = []
        bases_seen: List[str] = []
        for ret in self.returns:
            value = ret.value
            if value is None:
                continue
            dim, base = self.inferencer.infer(value)
            if dim is not None:
                dims_seen.append(dim)
            if base is not None:
                bases_seen.append(base)
            if isinstance(value, ast.Call):
                resolved = self._callee(value)[2]
                if resolved and not summary.returns_call:
                    summary.returns_call = resolved
            if not summary.returns_rng:
                prov, seed_param = self._returned_rng(value)
                if prov:
                    summary.returns_rng = prov
                    summary.rng_seed_param = seed_param
        if dims_seen and len(set(dims_seen)) == 1:
            summary.return_dimension = dims_seen[0]
        if bases_seen and len(set(bases_seen)) == 1:
            summary.return_base = bases_seen[0]

    def _returned_rng(self, value: ast.expr) -> Tuple[str, str]:
        if isinstance(value, ast.Call) and self._rng_ctor(value):
            return self._classify_seed_expr(_seed_expr_of_ctor(value))
        if isinstance(value, ast.Name) and value.id in self.env_rng:
            return self.env_rng[value.id]
        return "", ""


#: Each own node's type -> its one handler (other types carry no facts).
_HANDLERS = {
    ast.Yield: _Extractor._yield,
    ast.YieldFrom: _Extractor._yield,
    ast.Assign: _Extractor._assign,
    ast.AnnAssign: _Extractor._ann_assign,
    ast.AugAssign: _Extractor._aug_assign,
    ast.Delete: _Extractor._delete,
    ast.Return: _Extractor._return,
    ast.BinOp: _Extractor._binop,
    ast.Call: _Extractor._call,
    ast.For: _Extractor._loop,
    ast.comprehension: _Extractor._loop,
    ast.Name: _Extractor._load,
    ast.Attribute: _Extractor._load,
    ast.Subscript: _Extractor._load,
}


def _class_summary(node: ast.ClassDef, class_qual: str) -> ClassSummary:
    """Constructor parameters (explicit ``__init__`` or dataclass fields)
    with their dimensions and byte bases."""
    init_params: List[ParamInfo] = []
    explicit_init = None
    for item in node.body:
        if (
            isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and item.name == "__init__"
        ):
            explicit_init = item
    is_dataclass = _decorated(node, "dataclass")
    if explicit_init is not None:
        init_params = _param_infos(_defaulted(explicit_init.args), is_method=True)
    elif is_dataclass:
        init_params = [
            _param_info(item.target.id, item.annotation, item.value)
            for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        ]
    # Byte base of ``self.<field>`` usage across the class's methods.
    wanted = {p.name for p in init_params}
    candidates: Dict[str, Set[str]] = {}
    for sub in ast.walk(node):
        if not isinstance(sub, ast.BinOp):
            continue
        bases = dims.bases_in(sub)
        if len(bases) != 1:
            continue
        base = next(iter(bases))
        for attr in ast.walk(sub):
            if (
                isinstance(attr, ast.Attribute)
                and isinstance(attr.value, ast.Name)
                and attr.value.id == "self"
                and attr.attr in wanted
            ):
                candidates.setdefault(attr.attr, set()).add(base)
    for param in init_params:
        seen = candidates.get(param.name)
        if seen and len(seen) == 1 and param.base is None:
            param.base = next(iter(seen))
    return ClassSummary(
        qualname=class_qual,
        lineno=node.lineno,
        is_dataclass=is_dataclass,
        init_params=init_params,
    )


def summarize(
    scope: FileScope,
) -> Tuple[FileSummary, EffectFileSummary, RaceFileSummary]:
    """One file's dataflow, effects and races summaries, one pass per
    function over its shared scope."""
    dataflow = FileSummary(
        path=scope.path, module=scope.module, aliases=dict(scope.aliases)
    )
    effects = EffectFileSummary(path=scope.path, module=scope.module)
    races = RaceFileSummary(path=scope.path, module=scope.module)
    accesses: Dict[FunctionScope, FunctionAccesses] = {}
    for function in scope.walk(breadth_first=True):
        extractor = _Extractor(scope, function)
        extractor.run(function)
        dataflow.functions.append(extractor.summary)
        effects.functions.append(extractor.effects)
        accesses[function] = extractor.accesses
    races.functions = [accesses[function] for function in scope.walk()]
    dataflow.classes = [_class_summary(node, qual) for node, qual in scope.classes]
    module = _Extractor(scope, scope.body)
    module.run_module(scope.body)
    dataflow.functions.append(module.summary)
    effects.functions.append(module.effects)
    races.functions.append(module.accesses)
    return dataflow, effects, races
