"""Every top-level name of the library has a caller in the library or the
benchmark.

A name that only tests reach is test code kept in the package: it grows
the library without serving the pipelines, the CLI or the benchmark.
References count as they appear in code: names, attributes, imports and
the identifiers inside string constants (the benchmark's tracer names
its sites as "module:attr" strings).  A name's own definition, its
`__all__` entry and docstrings do not count.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ainfbg"


def top_level_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names.extend(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names.append(node.target.id)
    return [n for n in names if n != "__all__"]


def docstring_nodes(tree: ast.Module) -> set[int]:
    """ids of the string constants that are docstrings."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.add(id(first.value))
    return out


def references(tree: ast.Module) -> Counter:
    skip = docstring_nodes(tree)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            skip.update(id(c) for c in ast.walk(node.value))
    refs: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs[node.name.rsplit(".", 1)[-1]] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skip):
            refs.update(re.findall(r"\w+", node.value))
    return refs


def test_every_library_name_has_a_caller():
    refs: Counter = Counter()
    for directory in (ROOT / "src", ROOT / "perfbench"):
        for path in sorted(directory.rglob("*.py")):
            refs += references(ast.parse(path.read_text()))
    defined = [(path.name, name) for path in sorted(PACKAGE.glob("*.py"))
               for name in top_level_names(ast.parse(path.read_text()))]
    assert defined
    assert [f"{module}:{name}" for module, name in defined
            if not refs[name]] == []
