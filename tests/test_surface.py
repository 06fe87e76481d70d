"""The library surface carries no dead options: every parameter with a
default, of every function in ``src/sawtopics``, is passed by some call in
the source, the tests or the benchmark harness. And no module of the
package reaches into another's private (``_``-prefixed) names."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sawtopics"
CALLERS = (ROOT / "src", ROOT / "tests", ROOT / "perfbench")


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def defaulted_parameters(tree: ast.Module):
    """(function name, parameter name, positional index or None) for every
    parameter with a default; a method's index does not count ``self``."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        positional = a.posonlyargs + a.args
        skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
        for i in range(len(positional) - len(a.defaults), len(positional)):
            yield node.name, positional[i].arg, i - skip
        for arg, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                yield node.name, arg.arg, None


def record_calls(tree: ast.Module, keywords: dict, positional: dict) -> None:
    """Record, per called name, the keywords its calls pass and the most
    positional arguments one call passes; ``*args`` or ``**kwargs`` pass
    everything."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        if name is None:
            continue
        keywords.setdefault(name, set()).update(kw.arg or "**" for kw in node.keywords)
        n = float("inf") if any(isinstance(a, ast.Starred) for a in node.args) else len(node.args)
        positional[name] = max(positional.get(name, 0), n)


def test_every_defaulted_parameter_is_passed_somewhere():
    keywords: dict = {}
    positional: dict = {}
    for folder in CALLERS:
        for path in sorted(folder.rglob("*.py")):
            record_calls(parse(path), keywords, positional)
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for func, param, index in defaulted_parameters(parse(path)):
            names = keywords.get(func, set())
            by_position = index is not None and positional.get(func, 0) > index
            if not (by_position or param in names or "**" in names):
                unused.append(f"{path.stem}.{func}.{param}")
    assert unused == []


def private_imports(tree: ast.Module):
    """``_``-prefixed names that a package module imports from a sibling
    (``from .x import _y``) or reads off one (``from . import x``, then
    ``x._y``)."""
    siblings = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if node.module is None:
                    siblings.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    yield f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and node.attr.startswith("_")):
            yield f"{node.value.id}.{node.attr}"


def test_no_private_name_crosses_modules():
    found = [f"{path.stem}: {name}" for path in sorted(PACKAGE.glob("*.py"))
             for name in private_imports(parse(path))]
    assert found == []
