"""No module imports a name it never uses (ruff's F401, stdlib only).

CI's ``lint`` job runs ruff, which is not always installed where tier-1
runs; this check keeps its most common finding out of ``src/``,
``tests/`` and ``benchmarks/`` anyway.  A name counts as used when any
expression of the module reads it, when a string annotation names it, or
when ``__all__`` lists it; ``import x as x`` and ``from m import x as x``
are explicit re-exports, and a line marked ``# noqa`` is skipped, as
ruff does.  Scopes are not told apart: a name read anywhere in the module
uses every import of it.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
CHECKED = ("src", "tests", "benchmarks")


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of every import ``source`` binds and never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound: list[tuple[int, str, str]] = []  # (line, bound name, shown)
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "noqa" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                if alias.name == "*" or alias.asname == alias.name:
                    continue
                if isinstance(node, ast.Import):
                    name = alias.asname or alias.name.split(".")[0]
                else:
                    name = alias.asname or alias.name
                bound.append((node.lineno, name, alias.name))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(_strings(node.value))
        for annotation in _annotations(node):
            for text in _strings(annotation):
                used.update(_names_in(text))
    return [(line, shown) for line, name, shown in bound if name not in used]


def _annotations(node: ast.AST) -> list[ast.AST]:
    if isinstance(node, ast.arg) and node.annotation is not None:
        return [node.annotation]
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [node.returns] if node.returns is not None else []
    if isinstance(node, ast.AnnAssign):
        return [node.annotation]
    return []


def _strings(node: ast.AST) -> list[str]:
    return [
        child.value
        for child in ast.walk(node)
        if isinstance(child, ast.Constant) and isinstance(child.value, str)
    ]


def _names_in(text: str) -> set[str]:
    """Names a string annotation reads (none if it does not parse)."""
    try:
        expression = ast.parse(text, mode="eval")
    except SyntaxError:
        return set()
    return {
        node.id for node in ast.walk(expression) if isinstance(node, ast.Name)
    }


def _files() -> list[pathlib.Path]:
    return sorted(
        path for directory in CHECKED for path in (ROOT / directory).rglob("*.py")
    )


def test_no_module_imports_a_name_it_never_uses():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in _files()
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert not found, "\n".join(found)


@pytest.mark.parametrize(
    "source, unused",
    [
        ("import os\n", [(1, "os")]),
        ("import os.path\nos.sep\n", []),
        ("from a import b, c\nb()\n", [(1, "c")]),
        ("from a import b as c\nb()\n", [(1, "b")]),
        ("from a import b as b\n", []),
        ("from a import b\n__all__ = ['b']\n", []),
        ("from a import b\ndef f(x: 'list[b]') -> None: ...\n", []),
        ("from a import b\nx: 'b | None' = None\n", []),
        ("from a import b  # noqa: F401\n", []),
        ("from __future__ import annotations\n", []),
        ("def f():\n    import json\n    return 1\n", [(2, "json")]),
    ],
)
def test_the_check_finds_what_ruff_would(source, unused):
    assert unused_imports(source) == unused
