"""The library surface carries no dead options: every parameter with a
default, of every function in ``src/sawtopics``, is passed by some call in
the source, the tests or the benchmark harness. No module of the package
reaches into another's private (``_``-prefixed) names. And scipy is
imported only by the functions that need it, and a ``Corpus`` is its CSC
arrays alone."""

import ast
from pathlib import Path

import numpy as np

from sawtopics.corpus import Corpus, Vocabulary
from sawtopics.survival import SurvivalLabels

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


# the functions that may import scipy: the two that build a sparse matrix for
# its products, cv, which loads scipy.sparse once before it forks, and the
# censoring root find
SCIPY_SITES = {"corpus.normalize_columns", "cooccur.build_cooccurrence",
               "evaluation.cross_validate", "synthgen.generate_survival"}


def scipy_import_sites(node: ast.AST, owner: str):
    """The dotted name of the function, class or module around each import
    of scipy under ``node``, whose own name is ``owner``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            modules = [alias.name for alias in child.names]
        elif isinstance(child, ast.ImportFrom) and not child.level:
            modules = [child.module]
        else:
            modules = []
        if any(m.split(".")[0] == "scipy" for m in modules):
            yield owner
        named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        yield from scipy_import_sites(child, f"{owner}.{child.name}" if named else owner)


def test_scipy_imported_only_at_its_sites():
    found = {site for path in sorted(PACKAGE.glob("*.py"))
             for site in scipy_import_sites(parse(path), path.stem)}
    assert found - SCIPY_SITES == set()


def test_corpus_holds_no_count_matrix():
    c = Corpus((np.array([1, 2]), np.array([0, 1]), np.array([0, 1, 2])), Vocabulary(("a", "b")),
               SurvivalLabels(np.ones(2), np.ones(2, dtype=bool)), ("p1", "p2"))
    assert not hasattr(Corpus, "counts") and not hasattr(c, "counts")
