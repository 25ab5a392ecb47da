"""Shared AST helpers for reprolint rules."""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def terminal_name(node: ast.AST) -> Optional[str]:
    """The last component of a Name/Attribute chain (``a.b.c`` → ``c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def walk_runtime(tree: ast.AST) -> Iterator[ast.AST]:
    """Like ``ast.walk`` but skipping ``if TYPE_CHECKING:`` bodies.

    Type-only imports never execute, so import-graph rules must not count
    them (they are the sanctioned way to annotate across layers).
    """
    stack: List[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.If) and _is_type_checking_test(node.test):
            stack.extend(node.orelse)
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _is_type_checking_test(test: ast.AST) -> bool:
    name = dotted_name(test)
    return name in ("TYPE_CHECKING", "typing.TYPE_CHECKING", "t.TYPE_CHECKING")


def imported_modules(tree: ast.AST, module: str) -> List[Tuple[str, ast.AST]]:
    """Every runtime-imported module as a dotted name, with its AST node.

    ``from X import y`` contributes ``X`` (and ``X.y`` when ``y`` is
    plausibly a submodule is not distinguishable statically, so the
    coarser ``X`` prefix is what layering contracts match on).  Relative
    imports are resolved against ``module``.
    """
    out: List[Tuple[str, ast.AST]] = []
    for node in walk_runtime(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out.append((alias.name, node))
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                package_parts = module.split(".")
                # level 1 = current package: drop only the module's own
                # last component; each extra level drops one package.
                keep = len(package_parts) - node.level
                if keep < 0:
                    keep = 0
                prefix = ".".join(package_parts[:keep])
                base = f"{prefix}.{base}" if base and prefix else (prefix or base)
            if base:
                out.append((base, node))
    return out


def module_level_names(tree: ast.Module) -> Set[str]:
    """Names bound at module scope (defs, classes, imports, assignments)."""
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for element in ast.walk(target):
                    if isinstance(element, ast.Name):
                        names.add(element.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def is_dataclass_def(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if dotted_name(target) in ("dataclass", "dataclasses.dataclass"):
            return True
    return False


def dataclass_field_names(node: ast.ClassDef) -> List[str]:
    """Annotated (non-ClassVar) field names of a dataclass body."""
    fields: List[str] = []
    for statement in node.body:
        if not isinstance(statement, ast.AnnAssign):
            continue
        if not isinstance(statement.target, ast.Name):
            continue
        annotation = ast.unparse(statement.annotation)
        if "ClassVar" in annotation:
            continue
        fields.append(statement.target.id)
    return fields


def string_elements(node: ast.AST) -> Optional[Set[str]]:
    """The string constants of a set/list/tuple display or a
    frozenset/set/tuple/list call over one; None when not statically a
    collection of string literals."""
    if isinstance(node, ast.Call):
        callee = dotted_name(node.func)
        if callee in ("frozenset", "set", "tuple", "list") and len(node.args) == 1:
            return string_elements(node.args[0])
        if callee in ("frozenset", "set", "tuple", "list") and not node.args:
            return set()
        return None
    if isinstance(node, (ast.Set, ast.List, ast.Tuple)):
        out: Set[str] = set()
        for element in node.elts:
            if isinstance(element, ast.Constant) and isinstance(element.value, str):
                out.add(element.value)
            else:
                return None
        return out
    return None
