"""One file's scope, built once for the interprocedural extractor.

The dataflow, effects and races layers each get their own per-file
summary, but the extractor needs the same file-level facts for all three:
the import aliases, the module-level definitions and globals, a name
resolver, and — for every function — its own nodes (the body up to
nested def/lambda/class boundaries), their parent map and the defs
nested directly inside it.  :class:`FileScope` computes all of that in
one linear walk; :mod:`repro.lint.extract` reads it for all three.

Which functions get summarized: module-level defs, the methods of
module-level classes, and every def nested in one of those functions
(recursively).  Defs inside a class that is itself nested (in a
function or another class) are not summarized.
"""

from __future__ import annotations

import ast
from functools import cached_property
from typing import Dict, List, Optional, Set, Tuple

#: Nodes that end a function's own body: they are summarized (or
#: deliberately skipped) as scopes of their own.
_BOUNDARIES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)

_MAX_SNIPPET = 48


def snippet(node: ast.AST) -> str:
    """Source text of ``node``, truncated for messages and cache keys."""
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on parsed trees
        return ""
    return text if len(text) <= _MAX_SNIPPET else text[: _MAX_SNIPPET - 3] + "..."


def build_aliases(tree: ast.Module, module: str) -> Dict[str, str]:
    """Local name -> fully-qualified dotted target, from this file's
    imports (relative imports resolved against ``module``'s package)."""
    package_parts = module.split(".")[:-1] if module else []
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    # `import a.b` binds `a`; attribute chains keep the path.
                    head = alias.name.split(".")[0]
                    aliases.setdefault(head, head)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package_parts[: len(package_parts) - (node.level - 1)]
                prefix = ".".join(base)
                if node.module:
                    prefix = f"{prefix}.{node.module}" if prefix else node.module
            else:
                prefix = node.module or ""
            if not prefix:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = f"{prefix}.{alias.name}"
    return aliases


class NameResolver:
    """Resolves a dotted name written in this file to a fully-qualified
    candidate, using imports, module-level definitions, and (for
    ``self.x``) the enclosing class."""

    def __init__(
        self, module: str, aliases: Dict[str, str], local_defs: Set[str]
    ) -> None:
        self.module = module
        self.aliases = aliases
        self.local_defs = local_defs

    def resolve(self, name: str, class_ctx: str = "") -> str:
        if not name:
            return ""
        head, _, rest = name.partition(".")
        if head in ("self", "cls") and class_ctx:
            if rest and "." not in rest:
                return f"{class_ctx}.{rest}"
            return ""
        if head in self.aliases:
            target = self.aliases[head]
            return f"{target}.{rest}" if rest else target
        if head in self.local_defs and self.module:
            return f"{self.module}.{name}"
        return ""


def names_stored(node: ast.AST) -> Set[str]:
    """Every name bound (``Store`` context) anywhere under ``node``."""
    return {
        n.id
        for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
    }


def loop_of(node: ast.AST, parents: Dict[ast.AST, ast.AST]) -> Optional[ast.For]:
    """The innermost ``for`` loop around ``node`` (within its own body)."""
    current = parents.get(node)
    while current is not None:
        if isinstance(current, ast.For):
            return current
        current = parents.get(current)
    return None


def _scan(
    root: ast.AST, include_root: bool
) -> Tuple[List[ast.AST], Dict[ast.AST, ast.AST], List[Tuple[ast.AST, int]]]:
    """``root``'s own nodes in source (pre-)order, their parent map, and
    the boundary nodes met on the way with their depth below ``root``.

    Own nodes stop at nested def/lambda/class boundaries; a boundary is
    mapped to its parent but not descended into.
    """
    own: List[ast.AST] = [root] if include_root else []
    parents: Dict[ast.AST, ast.AST] = {}
    boundaries: List[Tuple[ast.AST, int]] = []
    stack: List[Tuple[ast.AST, int]] = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        if node is not root:
            if isinstance(node, _BOUNDARIES):
                boundaries.append((node, depth))
                continue
            own.append(node)
        children = list(ast.iter_child_nodes(node))
        if node is not root or include_root:
            for child in children:
                parents[child] = node
        stack.extend((child, depth + 1) for child in reversed(children))
    return own, parents, boundaries


def param_names_of(node: ast.AST, is_method: bool) -> List[str]:
    """Every parameter name of a def, ``self``/``cls`` dropped for methods."""
    args = node.args  # type: ignore[attr-defined]
    names = [
        a.arg
        for a in (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        )
    ]
    if is_method and names and names[0] in ("self", "cls"):
        names = names[1:]
    return names


class FunctionScope:
    """One summarized def: its own nodes, their parents, and the defs
    nested directly inside it."""

    def __init__(
        self,
        node: ast.AST,
        qualname: str,
        class_ctx: str,
        is_method: bool,
        parent: Optional["FunctionScope"] = None,
        depth: int = 0,
    ) -> None:
        self.node = node
        self.qualname = qualname
        self.class_ctx = class_ctx
        self.is_method = is_method
        self.parent = parent
        #: Depth of ``node`` below the enclosing function's def node.
        self.depth = depth
        self.params = param_names_of(node, is_method)
        self.own, self.parents, boundaries = _scan(node, include_root=False)
        #: Boundaries whose parent is an own node (not the def itself).
        self._inner_boundaries = [b for b, _ in boundaries if b in self.parents]
        #: Nested defs and lambdas, in source order (closure candidates).
        self.closures = sorted(
            (b for b, _ in boundaries if not isinstance(b, ast.ClassDef)),
            key=lambda n: (n.lineno, n.col_offset),
        )
        #: Directly nested defs, in source order.
        self.children = [
            FunctionScope(
                child, f"{qualname}.{child.name}", class_ctx, False, self, d
            )
            for child, d in boundaries
            if isinstance(child, _DEFS)
        ]

    @cached_property
    def stored(self) -> Set[str]:
        """Names stored under any own node — including inside defs and
        lambdas nested below one, but not in defs that are direct body
        statements of this function."""
        stored = {
            n.id
            for n in self.own
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
        }
        for boundary in self._inner_boundaries:
            stored |= names_stored(boundary)
        return stored

    @cached_property
    def captures(self) -> Set[str]:
        """Names a def nested directly in this body can capture: the
        parameters and stores of this function and of its enclosers."""
        inherited = self.parent.captures if self.parent is not None else set()
        return set(self.params) | inherited | self.stored


class ModuleBody:
    """The pseudo-function ``<module>``: a module's top-level statements
    outside any def or class."""

    node = None
    params: Tuple[str, ...] = ()
    is_method = False
    class_ctx = ""
    parent = None
    children: Tuple[FunctionScope, ...] = ()

    def __init__(self, prefix: str) -> None:
        self.qualname = f"{prefix}.<module>"
        #: (own nodes, parent map) of each statement, in source order.
        self.statements: List[Tuple[List[ast.AST], Dict[ast.AST, ast.AST]]] = []


class FileScope:
    """The file-level facts the extractor reads, plus the functions
    (and the module body) to summarize."""

    def __init__(self, tree: ast.Module, module: str, path: str) -> None:
        self.path = path
        self.module = module
        #: Qualname prefix: the module name, or the path for loose files.
        self.prefix = module or path
        self.aliases = build_aliases(tree, module)
        self.local_defs = {
            n.name for n in tree.body if isinstance(n, (*_DEFS, ast.ClassDef))
        }
        self.module_globals = set(self.local_defs)
        for node in tree.body:
            if isinstance(node, ast.Assign):
                self.module_globals |= {
                    t.id for t in node.targets if isinstance(t, ast.Name)
                }
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                self.module_globals.add(node.target.id)
        #: Module-level *data* names (defs and classes excluded).
        self.data_globals = self.module_globals - self.local_defs
        self.resolver = NameResolver(module, self.aliases, self.local_defs)
        #: Module-level defs and the methods of module-level classes.
        self.functions: List[FunctionScope] = []
        #: Module-level classes with their qualnames.
        self.classes: List[Tuple[ast.ClassDef, str]] = []
        self.body = ModuleBody(self.prefix)
        for node in tree.body:
            if isinstance(node, _DEFS):
                self.functions.append(
                    FunctionScope(node, f"{self.prefix}.{node.name}", "", False)
                )
            elif isinstance(node, ast.ClassDef):
                class_qual = f"{self.prefix}.{node.name}"
                self.classes.append((node, class_qual))
                for item in node.body:
                    if isinstance(item, _DEFS):
                        self.functions.append(
                            FunctionScope(
                                item, f"{class_qual}.{item.name}", class_qual, True
                            )
                        )
            else:
                own, parents, _ = _scan(node, include_root=True)
                self.body.statements.append((own, parents))

    def walk(self, breadth_first: bool = False) -> List[FunctionScope]:
        """Every summarized function, each before the defs nested in it.

        Nested defs come in source order, or with ``breadth_first``
        shallower ones first (the order the dataflow and effects
        summaries list them in)."""
        ordered: List[FunctionScope] = []
        stack = list(reversed(self.functions))
        while stack:
            scope = stack.pop()
            ordered.append(scope)
            children = scope.children
            if breadth_first:
                children = sorted(children, key=lambda c: c.depth)
            stack.extend(reversed(children))
        return ordered
