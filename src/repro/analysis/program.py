"""Whole-program model for the SPMD analyzer.

The analyzer works on a *set* of modules at once (every file handed to
``python -m repro analyze``), so taint can follow calls across files.  This
module builds the program model the dataflow consumes:

* :class:`ModuleInfo` — one file: its dotted name, top-level defs and
  classes, mutable globals, and its **import table**;
* :class:`FunctionInfo` — one body the dataflow runs over: a module
  function, a method, a nested ``def`` (qualname ``outer.<locals>.inner``),
  or the module's top-level statements as a zero-argument ``<module>``;
* :class:`ClassInfo` — methods, bases, class-level mutable attributes
  (state shared by every rank thread touching the class) and
  ``self.x = <collective>`` aliases;
* :class:`Program` — the registry and its import-aware call resolution.

Call resolution (:meth:`Program.resolve_call`):

* a bare name ``f(...)`` resolves through the caller's enclosing function
  scopes (their nested defs), then the caller module's own top-level defs,
  then its ``from … import f`` bindings into analyzed modules;
* ``mod.f(...)`` resolves through the caller module's import table; a
  receiver rooted at a module *outside* the analyzed set (``numpy``,
  ``json``, …) is never a collective and never reaches an analyzed def;
* ``self.m(...)`` / ``cls.m(...)`` resolve within the enclosing class and
  its analyzed bases;
* any other receiver ``obj.m(...)`` resolves to every analyzed method named
  ``m`` — the precision class of a hierarchy-less call graph, sound for
  taint union.

Function *summaries* (return taint, collective sequences, divergence-prone
parameters) are computed by the engine's fixpoint; this module only
answers "which defs can this call reach".
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: An import binding: (module, None) binds a module, (module, name) binds
#: ``name`` imported from ``module``.
Binding = Tuple[str, Optional[str]]


@dataclass
class ModuleInfo:
    """One analyzed file."""

    path: str
    name: str
    defs: Dict[str, List["FunctionInfo"]] = field(default_factory=dict)
    classes: Dict[str, "ClassInfo"] = field(default_factory=dict)
    imports: Dict[str, Binding] = field(default_factory=dict)
    #: Module-level globals: name -> line of first binding.
    globals: Dict[str, int] = field(default_factory=dict)


@dataclass
class ClassInfo:
    """Methods, bases and shared-state surface of one class."""

    module: ModuleInfo
    name: str
    bases: List[ast.expr]
    methods: Dict[str, List["FunctionInfo"]] = field(default_factory=dict)
    #: Class-body names bound to mutable literals (``cache = {}``): state
    #: shared across every rank thread unless shadowed per instance.
    mutable_attrs: Set[str] = field(default_factory=set)
    #: ``self.<attr>`` names assigned a collective bound-method anywhere in
    #: the class (``self._bcast = world.bcast``), mapped to the op name.
    collective_attrs: Dict[str, str] = field(default_factory=dict)


@dataclass(eq=False)
class FunctionInfo:
    """One analyzed body and where it lives."""

    module: ModuleInfo
    qualname: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef | Module
    #: The class ``self``/``cls`` refer to in this body (methods and defs
    #: nested in them).
    cls: Optional[ClassInfo] = None
    is_method: bool = False
    #: Enclosing function scope of a nested def (class scopes are skipped,
    #: as in Python's own name resolution).
    parent: Optional["FunctionInfo"] = None
    local_defs: Dict[str, List["FunctionInfo"]] = field(default_factory=dict)

    @property
    def path(self) -> str:
        return self.module.path

    @property
    def name(self) -> str:
        return getattr(self.node, "name", "<module>")

    @property
    def body(self) -> List[ast.stmt]:
        return self.node.body  # type: ignore[attr-defined]

    def param_names(self) -> List[str]:
        args = getattr(self.node, "args", None)
        if args is None:
            return []
        names = [a.arg for a in args.posonlyargs + args.args]
        names += [a.arg for a in args.kwonlyargs]
        return names

    @cached_property
    def _scope(self) -> Tuple[Set[str], Set[str]]:
        names: Set[str] = set(self.param_names())
        declared: Set[str] = set()
        for sub in self.own_nodes():
            if isinstance(sub, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    sub.targets
                    if isinstance(sub, ast.Assign)
                    else [sub.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif isinstance(sub, (ast.For, ast.AsyncFor)):
                for name in ast.walk(sub.target):
                    if isinstance(name, ast.Name):
                        names.add(name.id)
            elif isinstance(sub, ast.Global):
                declared.update(sub.names)
        return names, declared

    @property
    def local_names(self) -> Set[str]:
        """Parameters plus every name the body assigns or loop-binds."""
        return self._scope[0]

    @property
    def global_decls(self) -> Set[str]:
        """Names the body declares ``global``."""
        return self._scope[1]

    def own_nodes(self) -> Iterator[ast.AST]:
        """Every AST node of the body outside nested def/class bodies."""
        stack: List[ast.AST] = list(self.body)
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, _SCOPES):
                continue
            stack.extend(ast.iter_child_nodes(node))


def _is_mutable_literal(value: ast.AST) -> bool:
    if isinstance(value, (ast.List, ast.Dict, ast.Set)):
        return True
    return (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id in ("list", "dict", "set", "bytearray")
    )


def _defs_in(stmts: List[ast.stmt]) -> Iterator[ast.stmt]:
    """Def/class statements of a body, through compound statements."""
    stack = list(reversed(stmts))
    while stack:
        stmt = stack.pop()
        if isinstance(stmt, _SCOPES):
            yield stmt
            continue
        nested: List[ast.stmt] = []
        for name in ("body", "orelse", "finalbody"):
            nested += getattr(stmt, name, None) or []
        for handler in getattr(stmt, "handlers", None) or []:
            nested += handler.body
        stack.extend(reversed(nested))


def module_name(path: str, known: Set[str]) -> str:
    """Dotted module name of ``path``: climb while the parent is a package."""
    p = Path(path)
    parts = [] if p.stem == "__init__" else [p.stem]
    d = p.parent
    while d.name and (
        str(d / "__init__.py") in known or (d / "__init__.py").is_file()
    ):
        parts.insert(0, d.name)
        d = d.parent
    return ".".join(parts)


class Program:
    """Registry of every function, class, and module in the analyzed set."""

    def __init__(self, collective_calls: Set[str]) -> None:
        self._collective_calls = collective_calls
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: List[FunctionInfo] = []
        #: Names of every analyzed class (``Cls.attr = ...`` stores).
        self.class_names: Set[str] = set()
        self._methods: Dict[str, List[FunctionInfo]] = {}
        self._prefixes: Set[str] = set()
        self._resolved: Dict[ast.Call, Tuple[List[FunctionInfo], bool]] = {}
        self._calls: Dict[ast.AST, List[ast.Call]] = {}

    # -- construction ------------------------------------------------------

    def add_module(self, path: str, name: str, tree: ast.Module) -> None:
        module = ModuleInfo(path=path, name=name)
        self.modules[name] = module
        parts = name.split(".")
        self._prefixes.update(
            ".".join(parts[:i]) for i in range(1, len(parts) + 1)
        )
        for stmt in tree.body:
            targets: List[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    module.globals.setdefault(target.id, stmt.lineno)
        for sub in ast.walk(tree):
            if isinstance(sub, (ast.Import, ast.ImportFrom)):
                self._add_import(module, sub)
        self.functions.append(FunctionInfo(module, "<module>", tree))
        self._scan(module, tree.body, None, "", None, None)

    def _add_import(
        self, module: ModuleInfo, node: Union[ast.Import, ast.ImportFrom]
    ) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    module.imports[alias.asname] = (alias.name, None)
                else:
                    head = alias.name.split(".")[0]
                    module.imports[head] = (head, None)
            return
        source = node.module or ""
        if node.level:
            # A package's ``__init__`` is the base of its own level-1 imports.
            base = module.name.split(".")
            if Path(module.path).stem != "__init__":
                base = base[:-1]
            base = base[: len(base) - node.level + 1]
            if not base:
                return  # relative import past the analyzed root
            source = ".".join(base + ([source] if source else []))
        for alias in node.names:
            if alias.name != "*":
                module.imports[alias.asname or alias.name] = (
                    source,
                    alias.name,
                )

    def _scan(
        self,
        module: ModuleInfo,
        stmts: List[ast.stmt],
        scope: Optional[FunctionInfo],
        prefix: str,
        owner: Optional[ClassInfo],
        class_body: Optional[ClassInfo],
    ) -> None:
        """Register every def/class of one body; recurse into each."""
        for stmt in _defs_in(stmts):
            if isinstance(stmt, ast.ClassDef):
                self._add_class(module, stmt, scope, prefix)
                continue
            info = FunctionInfo(
                module,
                prefix + stmt.name,
                stmt,
                cls=class_body or owner,
                is_method=class_body is not None,
                parent=scope,
            )
            self.functions.append(info)
            if class_body is not None:
                class_body.methods.setdefault(stmt.name, []).append(info)
                self._methods.setdefault(stmt.name, []).append(info)
            elif scope is not None:
                scope.local_defs.setdefault(stmt.name, []).append(info)
            else:
                module.defs.setdefault(stmt.name, []).append(info)
            self._scan(
                module,
                stmt.body,
                info,
                f"{info.qualname}.<locals>.",
                info.cls,
                None,
            )

    def _add_class(
        self,
        module: ModuleInfo,
        node: ast.ClassDef,
        scope: Optional[FunctionInfo],
        prefix: str,
    ) -> None:
        info = ClassInfo(module=module, name=node.name, bases=node.bases)
        self.class_names.add(node.name)
        if not prefix:
            module.classes[node.name] = info
        assigned_plain: Set[str] = set()
        for stmt in node.body:
            if isinstance(stmt, _DEFS):
                for sub in ast.walk(stmt):
                    if isinstance(sub, ast.Assign):
                        for target in sub.targets:
                            if (
                                isinstance(target, ast.Attribute)
                                and isinstance(target.value, ast.Name)
                                and target.value.id == "self"
                            ):
                                assigned_plain.add(target.attr)
                                value = sub.value
                                if (
                                    isinstance(value, ast.Attribute)
                                    and value.attr in self._collective_calls
                                ):
                                    # ``self._bcast = world.bcast``
                                    info.collective_attrs[target.attr] = (
                                        value.attr
                                    )
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and _is_mutable_literal(
                        stmt.value
                    ):
                        info.mutable_attrs.add(target.id)
            elif isinstance(stmt, ast.AnnAssign):
                if (
                    isinstance(stmt.target, ast.Name)
                    and stmt.value is not None
                    and _is_mutable_literal(stmt.value)
                ):
                    info.mutable_attrs.add(stmt.target.id)
        # A per-instance rebinding in __init__ etc. shadows the class var for
        # that instance; drop those from the shared-state surface.
        info.mutable_attrs -= assigned_plain
        self._scan(
            module, node.body, scope, f"{prefix}{node.name}.", info, info
        )

    # -- import resolution -------------------------------------------------

    def _analyzed(self, dotted: str) -> bool:
        return dotted in self._prefixes

    def _binding_module(self, binding: Binding) -> Optional[str]:
        """The module an import binding names, if it surely names one.

        ``import x`` binds a module; ``from p import n`` binds one only when
        ``p.n`` is an analyzed module — from anywhere else ``n`` may be any
        object (a communicator, say), so it is not treated as a module.
        """
        source, name = binding
        if name is None:
            return source
        dotted = f"{source}.{name}"
        return dotted if self._analyzed(dotted) else None

    def module_ref(
        self, expr: ast.AST, caller: FunctionInfo
    ) -> Optional[str]:
        """Dotted module an expression names through imports, if any."""
        if isinstance(expr, ast.Name):
            if expr.id in caller.local_names:
                return None
            binding = caller.module.imports.get(expr.id)
            return self._binding_module(binding) if binding else None
        if isinstance(expr, ast.Attribute):
            base = self.module_ref(expr.value, caller)
            if base is None:
                return None
            dotted = f"{base}.{expr.attr}"
            if self._analyzed(base) and not self._analyzed(dotted):
                return None  # a def or class of an analyzed module
            return dotted
        return None

    def external(self, expr: ast.AST, caller: FunctionInfo) -> bool:
        """Whether ``expr`` is rooted at a module outside the analyzed set."""
        dotted = self.module_ref(expr, caller)
        return dotted is not None and not self._analyzed(dotted)

    def _origin(
        self, module: Optional[ModuleInfo], name: str
    ) -> Tuple[Optional[ModuleInfo], str]:
        """Where top-level ``name`` of ``module`` is defined, following the
        module's ``from … import`` bindings (re-exports included)."""
        for _ in range(8):
            if module is None or name in module.defs or name in module.classes:
                break
            binding = module.imports.get(name)
            if binding is None or binding[1] is None:
                break
            module, name = self.modules.get(binding[0]), binding[1]
        return module, name

    def _defs(
        self, module: Optional[ModuleInfo], name: str
    ) -> List[FunctionInfo]:
        module, name = self._origin(module, name)
        return list(module.defs.get(name, [])) if module else []

    def _base_class(
        self, expr: ast.expr, module: ModuleInfo
    ) -> Optional[ClassInfo]:
        """The analyzed class a ``Base`` / ``mod.Base`` base names."""
        home: Optional[ModuleInfo] = module
        name = getattr(expr, "id", None)
        if isinstance(expr, ast.Attribute) and isinstance(
            expr.value, ast.Name
        ):
            binding = module.imports.get(expr.value.id)
            dotted = self._binding_module(binding) if binding else None
            home, name = self.modules.get(dotted or ""), expr.attr
        if name is None:
            return None
        home, name = self._origin(home, name)
        return home.classes.get(name) if home else None

    def _method_in_mro(
        self, cls: ClassInfo, name: str, seen: Optional[Set[int]] = None
    ) -> List[FunctionInfo]:
        """``name`` on ``cls`` or, first match wins, its analyzed bases."""
        if name in cls.methods:
            return list(cls.methods[name])
        seen = seen if seen is not None else set()
        seen.add(id(cls))
        for base in cls.bases:
            base_cls = self._base_class(base, cls.module)
            if base_cls is not None and id(base_cls) not in seen:
                found = self._method_in_mro(base_cls, name, seen)
                if found:
                    return found
        return []

    # -- call resolution ---------------------------------------------------

    def calls(self, node: ast.AST) -> List[ast.Call]:
        """Every call under ``node`` in ``ast.walk`` order, memoized: the
        dataflow and the rules revisit each statement many times."""
        if node not in self._calls:
            self._calls[node] = [
                sub for sub in ast.walk(node) if isinstance(sub, ast.Call)
            ]
        return self._calls[node]

    def resolve_call(
        self, call: ast.Call, caller: FunctionInfo
    ) -> Tuple[List[FunctionInfo], bool]:
        """``(analyzed defs the call can reach, whether its receiver is
        rooted at a module outside the analyzed set)``, memoized per call."""
        if call not in self._resolved:
            self._resolved[call] = self._resolve(call, caller)
        return self._resolved[call]

    def _resolve(
        self, call: ast.Call, caller: FunctionInfo
    ) -> Tuple[List[FunctionInfo], bool]:
        func = call.func
        if isinstance(func, ast.Name):
            scope: Optional[FunctionInfo] = caller
            while scope is not None:
                if func.id in scope.local_defs:
                    return list(scope.local_defs[func.id]), False
                scope = scope.parent
            return self._defs(caller.module, func.id), False
        if not isinstance(func, ast.Attribute):
            return [], False
        receiver = func.value
        if (
            isinstance(receiver, ast.Name)
            and receiver.id in ("self", "cls")
            and caller.cls is not None
        ):
            return self._method_in_mro(caller.cls, func.attr), False
        dotted = self.module_ref(receiver, caller)
        if dotted is None:
            return list(self._methods.get(func.attr, [])), False
        if self._analyzed(dotted):
            return self._defs(self.modules.get(dotted), func.attr), False
        return [], True

    def callees(self, info: FunctionInfo) -> Iterator[FunctionInfo]:
        """Every analyzed def a body's own calls can reach."""
        for node in info.own_nodes():
            if isinstance(node, ast.Call):
                yield from self.resolve_call(node, info)[0]
