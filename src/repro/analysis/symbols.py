"""Project-wide symbol collection shared by every interprocedural rule.

Historically each rule re-derived what it needed from the AST; the class
collector below started life inside SRN004 (lock discipline) and was
hoisted here when the dataflow engine arrived, because the call graph,
the buffer rules and the summaries all need the same facts:

* :func:`collect_class_info` — one :class:`ClassInfo` per class:
  declared locks, ``@guarded_by``/``@holds_lock`` metadata (a subclass
  of a class in the same module inherits its locks and guarded state),
  ``@frozen_buffers``/``@happens_before`` contracts, methods, and the
  ``self.attr`` → class-name type hints used for alias-aware call
  resolution;
* :func:`module_name_for` — the dotted import path a repo-relative
  source file denotes (``src/repro/serving/app.py`` →
  ``repro.serving.app``), which is how cross-module call targets are
  matched against import aliases;
* small AST helpers (:func:`self_attr`, :func:`decorator_call`,
  :func:`annotation_class`) reused verbatim by the rules.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    from repro.analysis.engine import ParsedModule

_LOCK_CONSTRUCTORS = {
    "threading.Lock": "lock",
    "threading.RLock": "rlock",
    "threading.Condition": "rlock",  # Condition wraps an RLock by default
}

INIT_METHODS = frozenset({"__init__", "__post_init__", "__enter__"})

FunctionDefs = (ast.FunctionDef, ast.AsyncFunctionDef)


@dataclass
class ClassInfo:
    """Everything the interprocedural rules need to know about one class."""

    name: str
    relpath: str
    node: ast.ClassDef
    lock_attrs: set[str] = field(default_factory=set)
    rlock_attrs: set[str] = field(default_factory=set)
    #: attribute -> lock attribute guarding it (from @guarded_by).
    guarded: dict[str, str] = field(default_factory=dict)
    #: method name -> lock attrs the caller must hold (from @holds_lock).
    holds: dict[str, set[str]] = field(default_factory=dict)
    methods: dict[str, ast.FunctionDef] = field(default_factory=dict)
    #: attribute -> class name, inferred from ``self.x = ClassName(...)``.
    attr_types: dict[str, str] = field(default_factory=dict)
    #: buffer attributes declared immutable-after-init (@frozen_buffers).
    frozen_buffers: tuple[str, ...] = ()
    #: (first, second) call orderings declared with @happens_before.
    ordering: tuple[tuple[str, str], ...] = ()

    @property
    def all_locks(self) -> set[str]:
        return self.lock_attrs | self.rlock_attrs

    def lock_node(self, lock_attr: str) -> str:
        return f"{self.name}.{lock_attr}"


def self_attr(node: ast.AST) -> str | None:
    """``self.X`` -> ``"X"``; anything else -> ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def string_args(call: ast.Call) -> list[str]:
    return [
        arg.value
        for arg in call.args
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
    ]


def decorator_call(node: ast.expr, name: str) -> ast.Call | None:
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id == name:
            return node
        if isinstance(func, ast.Attribute) and func.attr == name:
            return node
    return None


def annotation_class(annotation: ast.expr | None) -> str | None:
    """Class name from a simple annotation (``B``, ``mod.B``, ``"B"``)."""
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        leaf = annotation.value.strip().rsplit(".", 1)[-1]
    elif isinstance(annotation, ast.Name):
        leaf = annotation.id
    elif isinstance(annotation, ast.Attribute):
        leaf = annotation.attr
    else:
        return None
    if leaf[:1].isupper() and leaf.isidentifier():
        return leaf
    return None


def module_name_for(relpath: str) -> str | None:
    """Dotted import path of a repo-relative source file, if derivable.

    ``src/repro/serving/app.py`` → ``repro.serving.app``;
    ``src/repro/core/__init__.py`` → ``repro.core``. Files outside a
    ``src/`` layout fall back to their path with slashes as dots, which
    keeps same-module resolution working for fixture trees.
    """
    if not relpath.endswith(".py"):
        return None
    parts = relpath[: -len(".py")].split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if not parts:
        return None
    return ".".join(parts)


def collect_class_info(module: "ParsedModule") -> list[ClassInfo]:
    """Per-class lock/contract/type facts (originally SRN004's collector)."""
    infos: list[ClassInfo] = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        info = ClassInfo(name=node.name, relpath=module.relpath, node=node)
        frozen: list[str] = []
        ordering: list[tuple[str, str]] = []
        for decorator in node.decorator_list:
            call = decorator_call(decorator, "guarded_by")
            if call is not None:
                names = string_args(call)
                if names:
                    lock_attr, *attrs = names
                    for attr in attrs:
                        info.guarded[attr] = lock_attr
            call = decorator_call(decorator, "frozen_buffers")
            if call is not None:
                frozen.extend(string_args(call))
            call = decorator_call(decorator, "happens_before")
            if call is not None:
                names = string_args(call)
                if len(names) == 2:
                    ordering.append((names[0], names[1]))
        info.frozen_buffers = tuple(dict.fromkeys(frozen))
        info.ordering = tuple(dict.fromkeys(ordering))
        for item in node.body:
            if not isinstance(item, FunctionDefs):
                continue
            info.methods[item.name] = item
            for decorator in item.decorator_list:
                call = decorator_call(decorator, "holds_lock")
                if call is not None:
                    info.holds.setdefault(item.name, set()).update(
                        string_args(call)
                    )
            param_types: dict[str, str] = {}
            if item.name == "__init__":
                for arg in [*item.args.posonlyargs, *item.args.args]:
                    leaf = annotation_class(arg.annotation)
                    if leaf is not None:
                        param_types[arg.arg] = leaf
            for stmt in ast.walk(item):
                targets: list[ast.expr]
                value: ast.expr | None
                if isinstance(stmt, ast.Assign):
                    targets, value = stmt.targets, stmt.value
                elif isinstance(stmt, ast.AnnAssign):
                    targets, value = [stmt.target], stmt.value
                else:
                    continue
                annotated = (
                    annotation_class(stmt.annotation)
                    if isinstance(stmt, ast.AnnAssign)
                    else None
                )
                for target in targets:
                    attr = self_attr(target)
                    if attr is None:
                        continue
                    if isinstance(value, ast.Call):
                        qualified = module.qualified_name(value.func)
                        kind = _LOCK_CONSTRUCTORS.get(qualified or "")
                        if kind == "lock":
                            info.lock_attrs.add(attr)
                            continue
                        if kind == "rlock":
                            info.rlock_attrs.add(attr)
                            continue
                        if qualified is not None and item.name == "__init__":
                            leaf = qualified.rsplit(".", 1)[-1]
                            if leaf[:1].isupper():
                                info.attr_types[attr] = leaf
                                continue
                    if item.name != "__init__":
                        continue
                    if annotated is not None:
                        info.attr_types.setdefault(attr, annotated)
                    elif isinstance(value, ast.Name) and value.id in param_types:
                        info.attr_types.setdefault(attr, param_types[value.id])
        infos.append(info)
    _inherit_lock_declarations(infos)
    return infos


def _inherit_lock_declarations(infos: list[ClassInfo]) -> None:
    """Give each class the ``@guarded_by`` attributes and the lock
    attributes of its bases defined in the same module, so a subclass
    method touching inherited guarded state is checked like the base's.
    What a class declares or assigns itself wins over what it inherits.
    """
    by_name = {info.name: info for info in infos}

    def ancestors(info: ClassInfo, seen: set[str]) -> Iterator[ClassInfo]:
        for base in info.node.bases:
            parent = by_name.get(base.id) if isinstance(base, ast.Name) else None
            if parent is not None and parent.name not in seen:
                seen.add(parent.name)
                yield parent
                yield from ancestors(parent, seen)

    # Every chain is read before any class is widened.
    inherited = [(info, list(ancestors(info, {info.name}))) for info in infos]
    own_locks = {info.name: info.all_locks for info in infos}
    for info, parents in inherited:
        for parent in parents:
            for attr, lock in parent.guarded.items():
                info.guarded.setdefault(attr, lock)
            info.lock_attrs |= parent.lock_attrs - own_locks[info.name]
            info.rlock_attrs |= parent.rlock_attrs - own_locks[info.name]
