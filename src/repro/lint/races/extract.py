"""Reduce one file's scope to a :class:`RaceFileSummary`.

Same contract as the dataflow and effects extractors, over the same
:class:`~repro.lint.scope.FileScope`: extraction is file-local (a pure
function of path, module and source, so the result can be
content-hash cached), and the precision stance is *prefer silence over
guessing* — an access on a plain local is not shared state, an
unresolvable callback produces a registration with an empty target, a
computed delay is ``unknown`` rather than a guessed coincidence class.

What is collected per function:

- **accesses** — shared-state reads and writes (``self``/param/
  closure/global roots), each tagged with its yield-delimited segment,
  a commutativity verdict for writes (exact integer accumulation,
  extremum folds and set membership commute; float accumulation,
  sequence mutation and plain stores do not), and a use class for
  reads (control flow, recorded metric, iteration, plain value);
- **registrations** — every same-instant scheduling action: timer
  registrations (``sim.schedule``), process spawns, zero-delay event
  triggers/interrupts, raw wakeup pushes, and a sim process's own
  ``yield Timeout(d)`` self-continuation, each with a normalized
  delay class and a best-effort resolved callback target.

Nested ``def``s (the ``spawn_kv_faults``-style ``_process`` idiom) are
summarized as their own functions; names they capture from the
enclosing scope are classified as param-kind shared state, because a
closure over an enclosing function's parameter aliases exactly what
that parameter aliases.  Which defs are summarized, and in what
order, is the scope's call (see :mod:`repro.lint.scope`).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.lint.effects.extract import (
    MUTATING_METHOD_TAILS,
    _float_evidence,
    _target_root,
    classify_iter,
)
from repro.lint.effects.model import (
    ITER_SORTED,
    MUT_GLOBAL,
    MUT_PARAM,
    MUT_SELF,
)
from repro.lint.races.model import (
    Access,
    COMM_EXTREMUM,
    COMM_INT_ACCUM,
    COMM_SET,
    FunctionAccesses,
    ORDERED_CALL,
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
from repro.lint.scope import (
    FileScope,
    FunctionScope,
    ModuleBody,
    loop_of,
    snippet,
)

#: Yielded command constructors that mark a generator as a sim process.
SIM_COMMAND_TAILS: Set[str] = {"Timeout", "Wait", "Acquire", "Release"}

#: Call tails that register work for a (possibly shared) instant.
#: Maps tail -> (op, delay_arg_position, delay_keyword, target_arg_position).
_REGISTRATION_TAILS: Dict[str, Tuple[str, Optional[int], str, Optional[int]]] = {
    "schedule": ("schedule", 0, "delay", 1),
    "spawn": ("spawn", None, "", 0),
    "trigger": ("trigger", 2, "delay", 0),
    "interrupt": ("interrupt", None, "", None),
    "push_wakeup": ("wakeup", None, "", None),
}

#: Method tails whose receiver mutation commutes with a concurrent
#: copy of itself (membership / monotone counting).
_COMMUTING_METHOD_TAILS: Set[str] = {"add", "discard", "observe", "observe_many"}

#: Method tails that encode position/insertion order in the receiver.
_SEQ_METHOD_TAILS: Set[str] = {
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
}

#: Method tails that insert/overwrite dict keys.
_DICT_METHOD_TAILS: Set[str] = {"update", "setdefault"}

#: Call tails that sink a read into a recorded metric.
_METRIC_SINK_TAILS: Set[str] = {
    "record",
    "observe",
    "observe_many",
    "add",
    "set",
    "inc",
}

#: Every method tail that marks its receiver as written (union of the
#: effects layer's set and the order-classified sets above — the
#: effects set misses e.g. ``record``/``submit``, ours classifies
#: them).
_ALL_MUTATING_TAILS: Set[str] = (
    MUTATING_METHOD_TAILS
    | _COMMUTING_METHOD_TAILS
    | _SEQ_METHOD_TAILS
    | _DICT_METHOD_TAILS
)

#: Wrappers unwrapped when locating the container a loop iterates.
_ITER_UNWRAP_TAILS: Set[str] = {
    "enumerate",
    "list",
    "tuple",
    "reversed",
    "iter",
    "sorted",
}


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


class _RacesExtractor:
    """Collects access + registration facts for one function body."""

    def __init__(
        self, scope: FileScope, function: Union[FunctionScope, ModuleBody]
    ) -> None:
        self.resolver = scope.resolver
        self.class_ctx = function.class_ctx
        self.param_names = set(function.params)
        #: What a nested def captures from its enclosers — param-kind
        #: shared state (see module docstring).
        self.closure_names = (
            set(function.parent.captures) if function.parent else set()
        )
        self.module_globals = scope.module_globals
        #: Module-level *data* names (defs excluded) — read targets.
        self.data_globals = scope.module_globals - scope.local_defs
        self.nested_defs = {c.node.name: c.qualname for c in function.children}
        self.global_decls: Set[str] = set()
        self.segment = 0
        #: (lineno, col) of extremum-fold guard reads to suppress.
        self._fold_guards: Set[Tuple[int, int]] = set()
        self.fn = FunctionAccesses(
            qualname=function.qualname,
            lineno=getattr(function.node, "lineno", 0),
            col=getattr(function.node, "col_offset", 0),
            is_method=function.is_method,
            class_ctx=function.class_ctx,
        )

    # -- classification ----------------------------------------------------
    def _access_kind(self, root: str) -> str:
        if root in ("self", "cls"):
            return MUT_SELF
        if root in self.param_names or root in self.closure_names:
            return MUT_PARAM
        if root in self.global_decls:
            return MUT_GLOBAL
        if root in self.module_globals:
            return MUT_GLOBAL
        return ""

    def _add_write(
        self,
        target: ast.AST,
        root: str,
        via: str,
        commutes: bool,
        reason: str,
    ) -> None:
        kind = self._access_kind(root)
        if not kind:
            return
        _, head = _chain_parts(target)
        if not head and isinstance(target, ast.Name):
            head = ""
            root = target.id
        self.fn.accesses.append(
            Access(
                write=True,
                kind=kind,
                root=root,
                head=head,
                target=snippet(target),
                lineno=getattr(target, "lineno", 0),
                col=getattr(target, "col_offset", 0),
                segment=self.segment,
                via=via,
                commutes=commutes,
                comm_reason=reason,
            )
        )

    def _add_read(
        self, node: ast.AST, root: str, head: str, use: str, iter_order: str = ""
    ) -> None:
        kind = self._access_kind(root)
        if not kind:
            return
        self.fn.accesses.append(
            Access(
                write=False,
                kind=kind,
                root=root,
                head=head,
                target=snippet(node),
                lineno=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                segment=self.segment,
                via="read",
                use=use,
                iter_order=iter_order,
            )
        )

    # -- extremum folds ----------------------------------------------------
    def _extremum_fold(
        self,
        node: ast.Assign,
        target: ast.AST,
        parents: Dict[ast.AST, ast.AST],
    ) -> bool:
        """``x = max(x, v)`` or ``if v > x: x = v``."""
        target_text = snippet(target)
        value = node.value
        if (
            isinstance(value, ast.Call)
            and dotted_name(value.func).split(".")[-1] in ("max", "min")
            and any(snippet(arg) == target_text for arg in value.args)
        ):
            return True
        current = parents.get(node)
        while current is not None and not isinstance(current, ast.If):
            current = parents.get(current)
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
                            self._fold_guards.add(
                                (side.lineno, side.col_offset)
                            )
                    return True
        return False

    # -- statement handlers ------------------------------------------------
    def _handle_assign_target(
        self,
        node: ast.AST,
        target: ast.AST,
        value: Optional[ast.AST],
        parents: Dict[ast.AST, ast.AST],
    ) -> None:
        if isinstance(target, ast.Name):
            if target.id in self.global_decls:
                if (
                    isinstance(node, ast.Assign)
                    and value is not None
                    and self._extremum_fold(node, target, parents)
                ):
                    self._add_write(
                        target, target.id, "assign", True, COMM_EXTREMUM
                    )
                    return
                via = "assign"
                if value is not None and self._reads_bound_args(value):
                    via = "assign:arg"
                self._add_write(target, target.id, via, False, ORDERED_STORE)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._handle_assign_target(node, element, value, parents)
            return
        if not isinstance(target, (ast.Attribute, ast.Subscript)):
            return
        root = _target_root(target)
        if isinstance(target, ast.Subscript):
            commutes, reason = self._classify_subscript_store(node, target)
            self._add_write(target, root, "assign", commutes, reason)
            return
        if (
            isinstance(node, ast.Assign)
            and value is not None
            and self._extremum_fold(node, target, parents)
        ):
            self._add_write(target, root, "assign", True, COMM_EXTREMUM)
            return
        # Stores whose value reads a parameter/closure binding differ
        # between two pending instances of the same callback (each
        # registration binds its own arguments); stores computed from
        # `self`/constants are identical and therefore symmetric.
        via = "assign"
        if value is not None and self._reads_bound_args(value):
            via = "assign:arg"
        self._add_write(target, root, via, False, ORDERED_STORE)

    def _reads_bound_args(self, value: ast.AST) -> bool:
        for sub in ast.walk(value):
            if isinstance(sub, ast.Name) and (
                sub.id in self.param_names or sub.id in self.closure_names
            ):
                return True
        return False

    def _classify_subscript_store(
        self, node: ast.AST, target: ast.Subscript
    ) -> Tuple[bool, str]:
        """``d[k] = ...``: a reduction in disguise, or a key insert."""
        if not isinstance(node, ast.Assign):
            return False, ORDERED_DICT
        base_text = snippet(target.value)
        reads_base = False
        has_add = False
        for sub in ast.walk(node.value):
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
        if reads_base and has_add:
            if _float_evidence(target, node.value):
                return False, ORDERED_FLOAT
            return True, COMM_INT_ACCUM
        return False, ORDERED_DICT

    def _handle_augassign(self, node: ast.AugAssign) -> None:
        target = node.target
        if isinstance(target, ast.Name):
            if target.id not in self.global_decls:
                return
            root = target.id
        else:
            root = _target_root(target)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            if _float_evidence(node.target, node.value):
                self._add_write(target, root, "augassign", False, ORDERED_FLOAT)
            else:
                self._add_write(target, root, "augassign", True, COMM_INT_ACCUM)
            return
        self._add_write(target, root, "augassign", False, ORDERED_STORE)

    def _handle_mutating_call(self, node: ast.Call, tail: str) -> None:
        receiver = node.func.value  # type: ignore[union-attr]
        root = _target_root(receiver)
        via = f"method:{tail}"
        if tail in _COMMUTING_METHOD_TAILS:
            self._add_write(receiver, root, via, True, COMM_SET)
        elif tail in _SEQ_METHOD_TAILS:
            self._add_write(receiver, root, via, False, ORDERED_SEQ)
        elif tail in _DICT_METHOD_TAILS:
            self._add_write(receiver, root, via, False, ORDERED_DICT)
        elif tail == "set":
            self._add_write(receiver, root, via, False, ORDERED_STORE)
        else:
            self._add_write(receiver, root, via, False, ORDERED_CALL)

    # -- callback resolution -----------------------------------------------
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
        text = snippet(node.func.value)  # type: ignore[union-attr]
        return (
            text in ("sim", "self", "cls")
            or text.endswith(".sim")
            or text.endswith("_queue")
        )

    def _call_arg(
        self, node: ast.Call, position: Optional[int], keyword: str
    ) -> Optional[ast.AST]:
        if keyword:
            for kw in node.keywords:
                if kw.arg == keyword:
                    return kw.value
        if position is not None and len(node.args) > position:
            return node.args[position]
        return None

    def _handle_registration(
        self, node: ast.Call, tail: str, parents: Dict[ast.AST, ast.AST]
    ) -> None:
        op, delay_pos, delay_kw, target_pos = _REGISTRATION_TAILS[tail]
        delay_node = self._call_arg(node, delay_pos, delay_kw)
        if op in ("spawn", "interrupt", "trigger") and delay_node is None:
            delay_class = "zero"
        elif op == "wakeup":
            delay_class = "unknown"
        else:
            delay_class = _delay_class(delay_node)
        target = ""
        target_text = ""
        if target_pos is not None:
            target_node = self._call_arg(node, target_pos, "")
            if target_node is None and target_pos == 1:
                target_node = self._call_arg(node, None, "callback")
            if target_node is not None:
                target = self._resolve_callable(target_node)
                target_text = snippet(target_node)
        elif op == "interrupt" and isinstance(node.func, ast.Attribute):
            target_text = snippet(node.func.value)
        loop = loop_of(node, parents)
        loop_order, loop_text = classify_iter(loop.iter) if loop else ("", "")
        self.fn.registrations.append(
            Registration(
                op=op,
                delay_class=delay_class,
                target=target,
                target_text=target_text,
                lineno=node.lineno,
                col=node.col_offset,
                segment=self.segment,
                in_loop=loop is not None,
                loop_order=loop_order,
                loop_text=loop_text,
            )
        )

    # -- reads -------------------------------------------------------------
    def _use_of(
        self, node: ast.AST, parents: Dict[ast.AST, ast.AST]
    ) -> str:
        child = node
        current = parents.get(node)
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
            if isinstance(current, ast.Compare) or isinstance(
                current, (ast.BoolOp, ast.UnaryOp, ast.BinOp)
            ):
                child = current
                current = parents.get(current)
                continue
            if isinstance(current, ast.Call):
                func_tail = (
                    current.func.attr
                    if isinstance(current.func, ast.Attribute)
                    else dotted_name(current.func).split(".")[-1]
                )
                in_args = child in current.args or any(
                    kw.value is child for kw in current.keywords
                )
                if in_args and func_tail in _METRIC_SINK_TAILS:
                    return USE_METRIC
            child = current
            current = parents.get(current)
        return USE_VALUE

    def _handle_read(
        self, node: ast.AST, parents: Dict[ast.AST, ast.AST]
    ) -> None:
        parent = parents.get(node)
        if isinstance(parent, (ast.Attribute, ast.Subscript)) and parent.value is node:
            return  # inner part of a longer chain
        if isinstance(parent, ast.Call) and parent.func is node:
            return  # method/function reference, not a data read
        if isinstance(node, ast.Name):
            root, head = node.id, ""
            if root not in self.data_globals or root in self.global_decls:
                if root not in self.global_decls:
                    return
        else:
            root, head = _chain_parts(node)
            if not root:
                return
        if (getattr(node, "lineno", 0), getattr(node, "col_offset", 0)) in self._fold_guards:
            return
        self._add_read(node, root, head, self._use_of(node, parents))

    def _handle_iteration(self, iter_node: ast.AST) -> None:
        order, _text = classify_iter(iter_node)
        container = _iter_container(iter_node)
        if isinstance(container, ast.Name):
            root, head = container.id, ""
            if root not in self.data_globals and root not in self.param_names and root not in self.closure_names:
                return
        elif isinstance(container, (ast.Attribute, ast.Subscript)):
            root, head = _chain_parts(container)
        else:
            return
        if order == ITER_SORTED:
            # Sorted iteration never observes container order.
            return
        self._add_read(container, root, head, USE_ITERATION, iter_order=order)

    # -- the walk ----------------------------------------------------------
    def run(self, function: FunctionScope) -> FunctionAccesses:
        own, parents = function.own, function.parents
        for node in own:
            if isinstance(node, ast.Global):
                self.global_decls |= set(node.names)
        for node in own:
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                self.fn.has_yield = True
                value = getattr(node, "value", None)
                if isinstance(value, ast.Call):
                    tail = dotted_name(value.func).split(".")[-1]
                    if tail in SIM_COMMAND_TAILS:
                        self.fn.is_sim_process = True
                    if tail == "Timeout":
                        delay_node = value.args[0] if value.args else None
                        loop = loop_of(node, parents)
                        loop_order, loop_text = (
                            classify_iter(loop.iter) if loop else ("", "")
                        )
                        self.fn.registrations.append(
                            Registration(
                                op="timeout",
                                delay_class=_delay_class(delay_node),
                                target=self.fn.qualname,
                                target_text=snippet(value),
                                lineno=node.lineno,
                                col=node.col_offset,
                                segment=self.segment,
                                in_loop=loop is not None,
                                loop_order=loop_order,
                                loop_text=loop_text,
                            )
                        )
                self.segment += 1
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    self._handle_assign_target(node, target, node.value, parents)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                self._handle_assign_target(node, node.target, node.value, parents)
            elif isinstance(node, ast.AugAssign):
                self._handle_augassign(node)
            elif isinstance(node, ast.Call):
                raw = dotted_name(node.func)
                tail = raw.split(".")[-1] if raw else ""
                if isinstance(node.func, ast.Attribute):
                    if tail in _REGISTRATION_TAILS and self._sim_receiver(
                        node, tail
                    ):
                        self._handle_registration(node, tail, parents)
                    elif tail in _ALL_MUTATING_TAILS:
                        self._handle_mutating_call(node, tail)
            elif isinstance(node, ast.For):
                self._handle_iteration(node.iter)
            elif isinstance(node, ast.comprehension):
                self._handle_iteration(node.iter)
            elif isinstance(node, (ast.Attribute, ast.Subscript, ast.Name)) and isinstance(
                getattr(node, "ctx", None), ast.Load
            ):
                self._handle_read(node, parents)
        self.fn.segments = self.segment + 1
        return self.fn


def summarize_accesses(scope: FileScope) -> RaceFileSummary:
    """One file's access + registration facts, from its shared scope."""
    summary = RaceFileSummary(path=scope.path, module=scope.module)
    for function in scope.walk():
        summary.functions.append(_RacesExtractor(scope, function).run(function))
    module_extractor = _RacesExtractor(scope, scope.body)
    for own, parents in scope.body.statements:
        for sub in own:
            if isinstance(sub, ast.Call):
                raw = dotted_name(sub.func)
                tail = raw.split(".")[-1] if raw else ""
                if isinstance(sub.func, ast.Attribute) and tail in _REGISTRATION_TAILS:
                    module_extractor._handle_registration(sub, tail, parents)
    summary.functions.append(module_extractor.fn)
    return summary
