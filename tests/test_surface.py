"""The library surface carries no dead options: every parameter with a
default, of every function in ``src/sawtopics``, is passed by some call in
the source, the tests or the benchmark harness. No module of the package
reaches into another's private (``_``-prefixed) names or imports a name it
never uses. And scipy is
imported only by the functions that need it, only ``build_corpus`` reads
the event and label files, one pair of functions writes and reads a
vocabulary in corpus and model files, a ``Corpus`` is its CSC arrays
alone, every name in the package's ``__all__`` is bound, and the README's
library examples run."""

import ast
import re
from pathlib import Path

import numpy as np

import sawtopics
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


def unused_imports(path: Path):
    """The names that a module imports and never reads, leaving out
    ``__future__`` imports and imports on lines marked ``# noqa``."""
    lines = path.read_text(encoding="utf-8").splitlines()
    tree = parse(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or "# noqa" in lines[node.lineno - 1]:
            continue
        if getattr(node, "module", None) == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                yield name


def test_no_unused_imports():
    # __init__.py imports to re-export
    found = [f"{path.stem}: {name}" for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py" for name in unused_imports(path)]
    assert found == []


# the functions that may import scipy: the one that builds a CSC design for
# its products, cv, which loads scipy.sparse once before it forks, and the
# censoring root find
SCIPY_SITES = {"corpus.normalize_columns", "evaluation.cross_validate",
               "synthgen.generate_survival"}


def sites(node: ast.AST, owner: str, found):
    """The dotted name of the function, class or module around each node
    under ``node``, whose own name is ``owner``, for which ``found`` holds."""
    for child in ast.iter_child_nodes(node):
        if found(child):
            yield owner
        named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        yield from sites(child, f"{owner}.{child.name}" if named else owner, found)


def imported(node: ast.AST) -> set[str]:
    """The top-level packages that an import statement outside the package names."""
    if isinstance(node, ast.Import):
        modules = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and not node.level:
        modules = [node.module]
    else:
        modules = []
    return {m.split(".")[0] for m in modules}


def test_scipy_imported_only_at_its_sites():
    found = {site for path in sorted(PACKAGE.glob("*.py"))
             for site in sites(parse(path), path.stem, lambda node: "scipy" in imported(node))}
    assert found - SCIPY_SITES == set()


def test_only_seeding_hashes():
    # models were matched to corpora by a hash of their words alone
    found = {site for path in sorted(PACKAGE.glob("*.py"))
             for site in sites(parse(path), path.stem, lambda node: "hashlib" in imported(node))}
    assert found == {"seeding"}


def names_a_vocabulary_key(node: ast.AST) -> bool:
    """A dict display, a subscript or a ``get`` that names a file's key of a
    vocabulary."""
    if isinstance(node, ast.Dict):
        keys = node.keys
    elif isinstance(node, ast.Subscript):
        keys = [node.slice]
    elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "get":
        keys = node.args[:1]
    else:
        keys = []
    return any(isinstance(k, ast.Constant) and k.value in ("words", "bin_edges") for k in keys)


def test_one_pair_writes_and_reads_a_vocabulary():
    # a corpus file and a model file hold a vocabulary in one form, so a
    # model is matched to a corpus by comparing the two vocabularies
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = parse(path)
        # _CORPUS_KEYS types every key of a corpus file, these two among them
        tree.body = [node for node in tree.body
                     if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                             and getattr(node.targets[0], "id", None) == "_CORPUS_KEYS")]
        found |= set(sites(tree, path.stem, names_a_vocabulary_key))
    assert found == {"corpus.vocabulary_fields", "corpus.read_vocabulary"}


# the file readers of ingest, which only its one entry calls
INGEST_READERS = {"load_events", "load_labels"}


def names_an_ingest_reader(node: ast.AST) -> bool:
    return (isinstance(node, ast.Name) and node.id in INGEST_READERS
            or isinstance(node, ast.Attribute) and node.attr in INGEST_READERS)


def test_ingest_readers_used_only_by_build_corpus():
    found = {site for path in sorted(PACKAGE.glob("*.py"))
             for site in sites(parse(path), path.stem, names_an_ingest_reader)}
    assert found == {"corpus.build_corpus"}


def test_corpus_holds_no_count_matrix():
    c = Corpus((np.array([1, 2]), np.array([0, 1]), np.array([0, 1, 2])), Vocabulary(("a", "b")),
               SurvivalLabels(np.ones(2), np.ones(2, dtype=bool)), ("p1", "p2"))
    assert not hasattr(Corpus, "counts") and not hasattr(c, "counts")


def test_every_exported_name_is_bound():
    # a stale entry in __all__ makes ``from sawtopics import *`` raise
    assert [name for name in sawtopics.__all__ if not hasattr(sawtopics, name)] == []
    namespace: dict = {}
    exec("from sawtopics import *", namespace)
    assert set(sawtopics.__all__) <= namespace.keys()


def test_readme_python_examples_run(tmp_path, monkeypatch):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"),
                        re.DOTALL)
    assert len(blocks) == 3
    monkeypatch.chdir(tmp_path)  # an example writes a model file
    namespace: dict = {}
    for block in blocks:  # in order: later examples use the earlier ones' names
        exec(compile(block, "README.md", "exec"), namespace)
    assert (tmp_path / "encox.json").is_file()
