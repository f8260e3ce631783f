"""Every library module other than the package ``__init__`` uses every name
it imports, every library module imports from the package and the standard
library only, every private module-level name the package defines is read
somewhere in the package, the command line writes stdout from ``main``
only, no function rebuilds a structure's by-source index that the
structure keeps, only the memoised getter calls the path-layer builder, and
the oracles that generation is compared with take none
of its normalisation from the library; the checks read the source with
``ast`` only."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "opetokit"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements and never read, in source order."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((name for name in imported if name not in used), key=imported.get)


def test_the_check_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path\nimport json as js\n"
        "from .core import PastingPath, path, empty_path as ep\n"
        "def f(x: PastingPath) -> None:\n    return js.dumps(path(x))\n"
    )
    assert unused_imports(source) == ["os", "ep"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == [], module


def foreign_imports(source: str) -> list[str]:
    """The top-level module of each absolute import outside the standard
    library, in source order; relative imports are the package's own."""
    found: list[tuple[int, str]] = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.append((node.lineno, node.module.split(".")[0]))
    return [name for _, name in sorted(found) if name not in sys.stdlib_module_names]


def test_the_check_finds_foreign_imports():
    source = (
        "from __future__ import annotations\n"
        "import os, numpy as np\nimport xml.etree.ElementTree\n"
        "from . import core\nfrom .core import path\nfrom scipy.sparse import csr_matrix\n"
        "def f():\n    import yaml\n"
    )
    assert foreign_imports(source) == ["numpy", "scipy", "yaml"]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_module_imports_only_the_standard_library(module):
    # the package declares no dependencies, and importing one costs memory on
    # every run (numpy alone adds about 14 MB of resident memory)
    assert foreign_imports((SRC / module).read_text(encoding="utf-8")) == [], module


def dead_private_definitions(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each private module-level definition (dunders
    excepted) that no other top-level statement of any module reads."""
    defined: list[tuple[str, str, ast.stmt]] = []
    statements: list[tuple[ast.stmt, set[str]]] = []
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            for name in names:
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                    defined.append((module, name, stmt))
            reads = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    reads.add(node.id)
                elif isinstance(node, ast.Attribute):
                    reads.add(node.attr)
            statements.append((stmt, reads))
    return [
        f"{module}.{name}"
        for module, name, own in defined
        if not any(name in reads for stmt, reads in statements if stmt is not own)
    ]


def test_the_check_finds_dead_definitions():
    sources = {
        "a": "_LIVE = 1\n_DEAD = 2\ndef _recursive(n):\n    return _recursive(n - 1)\n"
             "def __dunder__():\n    pass\nclass _Used:\n    pass\n",
        "b": "from . import a\nfrom .a import _Used\nx = _Used(a._LIVE)\n",
    }
    assert dead_private_definitions(sources) == ["a._DEAD", "a._recursive"]


def test_every_private_definition_is_read():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert dead_private_definitions(sources) == []


def stdout_writes_outside(source: str, function: str) -> list[int]:
    """Line numbers of the writes to stdout (a ``print`` not given
    ``file=sys.stderr``, or any use of ``sys.stdout``) outside the top-level
    function ``function``."""
    tree = ast.parse(source)
    inside = {
        id(node)
        for stmt in tree.body
        if isinstance(stmt, ast.FunctionDef) and stmt.name == function
        for node in ast.walk(stmt)
    }
    lines = []
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print":
            target = next((k.value for k in node.keywords if k.arg == "file"), None)
            if target is None or ast.unparse(target) != "sys.stderr":
                lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and ast.unparse(node) == "sys.stdout":
            lines.append(node.lineno)
    return sorted(set(lines))


def test_the_check_finds_stdout_writes():
    source = (
        "import sys\n"
        "def helper():\n    print('x')\n    print('y', file=sys.stderr)\n"
        "    sys.stdout.write('z')\n    print('w', file=sys.stdout)\n"
        "def main():\n    print('ok')\n    sys.stdout.write('ok')\n"
    )
    assert stdout_writes_outside(source, "main") == [3, 5, 6]


def test_the_command_line_writes_stdout_from_main_only():
    source = (SRC / "cli.py").read_text(encoding="utf-8")
    assert stdout_writes_outside(source, "main") == []


def by_source_rebuilds(source: str) -> list[int]:
    """Line numbers of the calls ``_by_source(p.table)``, with ``p`` a
    parameter of an enclosing function, outside the ``cached_property``
    getters that build a structure's indexes."""
    lines: list[int] = []

    def visit(node: ast.AST, params: frozenset[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            decorators = getattr(node, "decorator_list", ())
            if any(ast.unparse(d) == "cached_property" for d in decorators):
                return
            params = params | {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "_by_source" and node.args
                and isinstance(node.args[0], ast.Attribute)
                and isinstance(node.args[0].value, ast.Name)
                and node.args[0].value.id in params):
            lines.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, params)

    visit(ast.parse(source), frozenset())
    return lines


def test_the_check_finds_by_source_rebuilds():
    source = (
        "class B:\n"
        "    @cached_property\n"
        "    def after(self):\n        return _by_source(self.one_cells)\n"
        "def f(B, cells):\n"
        "    _by_source(cells)\n"
        "    _by_source({x: (t, s) for x, (s, t) in B.two_cells.items()})\n"
        "    return _by_source(B.one_cells)\n"
        "def g(X):\n    def inner():\n        return _by_source(X.cells1)\n    return inner\n"
        "h = lambda X: _by_source(X.cells1)\n"
        "TABLE = _by_source(CELLS.cells1)\n"
    )
    assert by_source_rebuilds(source) == [8, 11, 13]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_function_rebuilds_a_structure_index(module):
    # a structure keeps its by-source indexes (``out_edges``, ``after``,
    # ``out_of``), built once; ``_by_source`` of a derived dict is allowed
    assert by_source_rebuilds((SRC / module).read_text(encoding="utf-8")) == [], module


def reads_outside(source: str, name: str, function: str) -> list[int]:
    """Line numbers of the reads of ``name``, bare or as an attribute,
    outside the top-level function ``function``."""
    tree = ast.parse(source)
    inside = {
        id(node)
        for stmt in tree.body
        if isinstance(stmt, ast.FunctionDef) and stmt.name == function
        for node in ast.walk(stmt)
    }
    return sorted({
        node.lineno
        for node in ast.walk(tree)
        if id(node) not in inside
        and (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id == name
             or isinstance(node, ast.Attribute) and node.attr == name)
    })


def test_the_check_finds_builder_calls():
    source = (
        "@lru_cache\n"
        "def _skeleton_paths(objects, frames, bound):\n"
        "    return _path_layers(objects, frames, bound)\n"
        "def _path_layers(objects, frames, bound):\n    return ()\n"
        "def f(X):\n    return _path_layers(X.objects, X.cells1, 4)\n"
        "build = core._path_layers\n"
        "layers = list(map(_path_layers, [()], [{}], [4]))\n"
    )
    assert reads_outside(source, "_path_layers", "_skeleton_paths") == [7, 8, 9]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_only_the_memo_calls_the_path_layer_builder(module):
    # ``paths`` is built once per 1-skeleton through ``_skeleton_paths``; a
    # direct call would be a second, unshared way to build it
    source = (SRC / module).read_text(encoding="utf-8")
    assert reads_outside(source, "_path_layers", "_skeleton_paths") == [], module


def library_names(source: str) -> list[str]:
    """The names a module takes from the ``opetokit`` package, sorted: each
    name of a ``from opetokit... import``, and each attribute read off a
    module bound by ``import opetokit...`` or ``from opetokit import``."""
    tree = ast.parse(source)
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "opetokit":
            names.update(alias.name for alias in node.names)
            if node.module == "opetokit":
                modules.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            modules.update(
                alias.asname or alias.name.split(".")[0]
                for alias in node.names
                if alias.name.split(".")[0] == "opetokit"
            )
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                names.add(node.attr)
    return sorted(names)


def test_the_check_finds_library_names():
    source = (
        "import opetokit.bicat as b\nimport opetokit.equivalences\n"
        "from opetokit import equivalences as eq\n"
        "from opetokit.bicat import _join, chain_value\nfrom classical_oracles import _normalize\n"
        "x = b._merge, opetokit.equivalences._generate, eq._normalize, other._whisk\n"
    )
    assert library_names(source) == [
        "_generate", "_join", "_merge", "_normalize", "chain_value", "equivalences",
    ]


GENERATION = {"_join", "_merge", "_normalize", "_generate"}


@pytest.mark.parametrize("oracle", ("path_oracles.py", "classical_oracles.py"))
def test_the_generation_oracles_take_no_normalisation_from_the_library(oracle):
    # the oracles keep their own tree walk, merge, whiskering and comb trees,
    # so a fault in the library's cannot reach both sides of a comparison
    names = library_names((TESTS / oracle).read_text(encoding="utf-8"))
    assert GENERATION.isdisjoint(names), oracle
