"""Checks on the package source itself rather than on its behaviour."""

import ast
import importlib
import io
import tokenize
from pathlib import Path

import pytest

import hanoiseq

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACER = BENCH / "tracer.py"
WORKLOADS = BENCH / "workloads.py"
MAKE_REFERENCE = BENCH / "make_reference.py"
# names the benchmark tracer still lists whose code is gone
STALE = {"words.Coding.apply", "nonuniform.validate_construction"}
MODULES = sorted(p for p in Path(hanoiseq.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")  # __init__ imports only to re-export


def unused_imports(source: str) -> list[str]:
    """Names an import binds that the rest of the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = "import sys\nfrom .words import Word, DomainError\nprint(Word)\n"
    assert unused_imports(source) == ["sys (line 1)", "DomainError (line 2)"]


def unread_private_functions(sources: dict[str, str]) -> list[str]:
    """Private module-level functions and methods, as "module:name", that
    no source reads: called only from tests, or not at all."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            body = node.body if isinstance(node, ast.ClassDef) else [node]
            defined += [(module, f.name) for f in body if isinstance(f, ast.FunctionDef)
                        and f.name.startswith("_") and not f.name.endswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [f"{module}:{name}" for module, name in defined if name not in read]


def test_every_private_function_is_read_in_the_package():
    package = Path(hanoiseq.__file__).parent
    sources = {p.name: p.read_text() for p in sorted(package.glob("*.py"))}
    assert unread_private_functions(sources) == []


def test_the_check_sees_an_unread_private_function():
    sources = {"a.py": "def _used():\n    pass\n\n"
                       "def _orphan():\n    _used()\n\n"
                       "class K:\n    def _method(self):\n        pass\n"
                       "    def __init__(self):\n        pass\n",
               "b.py": "K()._method\n"}
    assert unread_private_functions(sources) == ["a.py:_orphan"]


def traced_names(source: str) -> set[str]:
    """Dotted names of package code that the benchmark tracer hooks, times
    inclusively or looks up by span name."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            target, value = node.targets[0].id, node.value
            if target == "HOOKS":
                names.update(ast.literal_eval(key) for key in value.keys)
            elif target == "INCLUSIVE":
                names.update(n for spans in value.values for n in ast.literal_eval(spans))
            elif target == "CLI_HELPERS":
                names.update(f"cli.{n}" for n in ast.literal_eval(value))
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ids"
              and isinstance(node.args[0], ast.Tuple)):
            names.update(ast.literal_eval(node.args[0]))
    return names


def resolves(dotted: str) -> bool:
    """True when "layer.attr[.attr]" names a callable in hanoiseq.layer."""
    layer, *attrs = dotted.split(".")
    obj = importlib.import_module(f"hanoiseq.{layer}")
    for attr in attrs:
        obj = getattr(obj, attr, None)
    return callable(obj)


def test_the_benchmark_traces_names_that_exist():
    # a renamed function would silently zero the tracer's per-layer counters
    names = traced_names(TRACER.read_text())
    assert {"automaton.Dfao.eval", "cli._sequence_solution",
            "words.Word.text"} <= names
    assert sorted(n for n in names - STALE if not resolves(n)) == []
    # the stale names are still listed and still gone, so this list is current
    assert STALE <= names
    assert sorted(n for n in STALE if resolves(n)) == []


def module_attributes(source: str) -> set[str]:
    """"module.name" for every attribute the source reads on a module it
    imports with ``from hanoiseq import ...``."""
    tree = ast.parse(source)
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "hanoiseq"
               for alias in node.names}
    return {f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}


def missing_attributes(names: set[str]) -> list[str]:
    """The "module.name" entries that hanoiseq.module does not define."""
    missing = []
    for name in sorted(names):
        module, _, attr = name.partition(".")
        if not hasattr(importlib.import_module(f"hanoiseq.{module}"), attr):
            missing.append(name)
    return missing


def test_the_benchmark_workloads_read_names_that_exist():
    # a deleted name would fail every benchmark operation that calls it
    names = module_attributes(WORKLOADS.read_text())
    assert {"automaton.dfao_from_uniform_morphism",
            "hanoi.verify_classical_prefix"} <= names
    assert missing_attributes(names) == []


def test_the_benchmark_reference_script_reads_names_that_exist():
    # a deleted name would stop the reference from being rebuilt
    names = module_attributes(MAKE_REFERENCE.read_text())
    assert {"hanoi.simulate", "hanoi.factor_census", "hanoi.CYCLIC",
            "catalog.catalog_prefix"} <= names
    assert missing_attributes(names) == []


# how words.py stores and writes sequences; _tokens and Word._of are shared
WORDS_INTERNALS = {"_CHUNK", "_SEPARATORS", "_padded", "_concat_rows", "_pieces",
                   "_byte_rows", "_decimal_cells", "_table", "_pad", "_cells",
                   "_objects", "_index"}


def internals_named(source: str) -> list[str]:
    """The words.py internals that the source's code names, in order of first
    use: as a name, an attribute, an import or a definition."""
    names = (tok.string for tok in tokenize.generate_tokens(io.StringIO(source).readline)
             if tok.type == tokenize.NAME)
    return list(dict.fromkeys(n for n in names if n in WORDS_INTERNALS))


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "words.py"],
                         ids=lambda p: p.name)
def test_only_words_names_its_internals(path):
    assert internals_named(path.read_text()) == []


def test_the_check_sees_a_named_internal():
    source = ('"""Mentions _CHUNK in prose only."""\n'
              "from .words import _SEPARATORS, Word, _tokens\n"
              "rows = spec.morphism._table.tolist()  # not _pad\n"
              "def _decimal_cells(values, separator):\n    pass\n")
    assert internals_named(source) == ["_SEPARATORS", "_table", "_decimal_cells"]
