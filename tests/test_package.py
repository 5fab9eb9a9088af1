"""Tests for the package's public surface."""

import ast
import contextlib
import importlib
import inspect
import io
import re
import shlex
from pathlib import Path

import pytest

import pairabs
from pairabs import algebra, cli, oracle, rates, scenarios

LAYERS = (algebra, scenarios, rates, oracle)


@pytest.mark.parametrize("module", LAYERS, ids=lambda module: module.__name__)
def test_every_layer_export_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_package_exports_exactly_the_layer_names():
    layer_names = set().union(*(module.__all__ for module in LAYERS))
    assert len(pairabs.__all__) == len(set(pairabs.__all__))
    assert set(pairabs.__all__) == layer_names | {"__version__"}
    for module in LAYERS:
        for name in module.__all__:
            assert getattr(pairabs, name) is getattr(module, name), (module.__name__, name)


def test_package_exports_are_pinned():
    # a name added to or dropped from a layer's __all__ changes the public API
    assert sorted(pairabs.__all__) == [
        "ALL_PAIRS", "CHI", "CHOICES", "CmLabel", "Coefficients", "E",
        "EXCLUSION_EPS", "ExcludedStateError", "ExclusionFamily", "FormalState", "G",
        "Internal", "MissingOverlapError", "OverlapTable", "PHI", "PSI", "RateResult",
        "RecoilModel", "Statistics", "Term", "VARPHI", "__version__", "apply_absorption",
        "bracket_sum", "build_final", "build_initial", "build_table", "choice_overlaps",
        "closed_form_deviations", "combine",
        "exclusion_mask", "family_exclusion_coefficient", "final_norm_sq",
        "formal_quantities", "initial_norm_sq", "inner_product", "matching_term_pairs",
        "random_realizable_overlaps", "realizable_overlaps", "relative_rate_grid",
        "require_not_null", "symmetrize",
    ]


def test_cli_exports_are_pinned():
    # one entry point per job, main; the parser and the CSV headers are the rest
    assert cli.__all__ == ["SCAN_HEADER", "SWEEP_HEADER", "build_parser", "main"]
    assert [name for name in cli.__all__ if not hasattr(cli, name)] == []


def private_names_read_from_other_modules(source: str) -> list[str]:
    """``module._name`` reads and ``from .module import _name`` imports of package modules."""
    tree = ast.parse(source)
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level and node.module is None
               for alias in node.names}
    found = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level
             for alias in node.names if alias.name.startswith("_")]
    found += [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr.startswith("_")
              and isinstance(node.value, ast.Name) and node.value.id in modules]
    return found


def test_cli_reads_no_private_name_of_another_module():
    assert private_names_read_from_other_modules(Path(cli.__file__).read_text()) == []


def test_the_private_name_check_sees_both_forms():
    source = "from . import algebra\nfrom .oracle import _plan\nalgebra._abs_sq(1j)\n"
    assert private_names_read_from_other_modules(source) == ["oracle._plan", "algebra._abs_sq"]


def names_read(statement: ast.stmt) -> set[str]:
    """Every name ``statement`` reads, as a name, an attribute or an import."""
    found = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each module-level private function, class or constant that
    no other top-level statement of ``sources`` (module name -> source) reads.

    A helper that only calls itself, or a constant that is only assigned, counts
    as unreferenced.
    """
    definitions, reads = [], []
    for module, source in sources.items():
        for statement in ast.parse(source).body:
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                defined = [statement.name]
            else:
                targets = (statement.targets if isinstance(statement, ast.Assign) else
                           [statement.target] if isinstance(statement, ast.AnnAssign) else [])
                defined = [target.id for target in targets if isinstance(target, ast.Name)]
            definitions += [(module, name, len(reads)) for name in defined
                            if name.startswith("_") and not name.startswith("__")]
            reads.append(names_read(statement))
    return [f"{module}.{name}" for module, name, index in definitions
            if not any(name in read for other, read in enumerate(reads) if other != index)]


def test_every_private_helper_is_referenced():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(Path(pairabs.__file__).parent.glob("*.py"))}
    assert unreferenced_private_names(sources) == []


def test_the_unreferenced_name_check_sees_an_orphan():
    sources = {
        "a": "_USED = 1\n_ORPHAN: int = 2\ndef _recursive(n):\n    return _recursive(n - 1)\n"
             "class _Kept:\n    pass\n",
        "b": "from .a import _Kept\nfrom . import a\nprint(a._USED)\n",
    }
    assert unreferenced_private_names(sources) == ["a._ORPHAN", "a._recursive"]


README = Path(__file__).resolve().parents[1] / "README.md"


def library_examples() -> list[str]:
    """The ```python blocks of README's Library section, in order."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n")[1].split("\n## ")[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_readme_library_examples_print_their_comments():
    # the blocks share one namespace, as in a session that runs them in turn
    namespace: dict = {}
    printed_per_block = []
    for block in library_examples():
        lines = block.splitlines()
        printed = []
        for statement in ast.parse(block).body:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                exec(compile(ast.Module([statement], []), str(README), "exec"), namespace)
            if (isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Call)
                    and getattr(statement.value.func, "id", None) == "print"):
                code, _, comment = lines[statement.end_lineno - 1].rpartition("# ")
                assert out.getvalue() == comment.strip() + "\n", code
                printed.append(comment.strip())
        printed_per_block.append(printed)
    assert printed_per_block and all(printed_per_block), printed_per_block


def command_line_examples() -> list[list[str]]:
    """The ``pairabs`` lines of the first block of README's Command line section, as argvs."""
    section = README.read_text(encoding="utf-8").split("\n## Command line\n")[1].split("\n## ")[0]
    block = re.findall(r"```\n(.*?)```", section, re.S)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("pairabs ")]


def test_readme_command_line_examples_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the examples write sweep.csv, data/ and scan.csv
    examples = command_line_examples()
    assert {argv[0] for argv in examples} == {"rate", "sweep", "figures", "exclusion-scan",
                                              "verify"}
    assert [(argv, cli.main(argv)) for argv in examples] == [(argv, 0) for argv in examples]


#: A Sphinx cross-reference: its role and its target, ``~`` (short title) dropped.
CROSS_REFERENCE = re.compile(r":(func|class|meth|data|mod):`~?([\w.]+)`")


def docstring_cross_references() -> list[tuple[str, str, str]]:
    """``(module, role, target)`` of every cross-reference in the package's docstrings."""
    found = []
    for path in sorted(Path(pairabs.__file__).parent.glob("*.py")):
        module = "pairabs" if path.stem == "__init__" else f"pairabs.{path.stem}"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                found += [(module, role, target)
                          for role, target in CROSS_REFERENCE.findall(ast.get_docstring(node) or "")]
    return found


def resolve_cross_reference(module: str, target: str):
    """The object ``target`` names, relative to ``module`` or as an absolute ``pairabs.`` path."""
    root, *attrs = target.split(".")
    obj = pairabs if root == "pairabs" else getattr(importlib.import_module(module), root)
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


_ROLE_KINDS = {"func": inspect.isfunction, "meth": inspect.isroutine, "class": inspect.isclass,
               "mod": inspect.ismodule, "data": lambda obj: not callable(obj)}


def test_every_docstring_cross_reference_resolves():
    references = docstring_cross_references()
    assert len(references) >= 50
    unresolved = []
    for module, role, target in references:
        try:
            obj = resolve_cross_reference(module, target)
        except AttributeError:
            obj = None
        if obj is None or not _ROLE_KINDS[role](obj):
            unresolved.append(f"{module}: :{role}:`{target}`")
    assert unresolved == []


def test_the_cross_reference_check_sees_a_stale_name():
    text = "see :func:`matrix_element` and :class:`~pairabs.rates.RateResult`"
    assert CROSS_REFERENCE.findall(text) == [("func", "matrix_element"),
                                             ("class", "pairabs.rates.RateResult")]
    with pytest.raises(AttributeError):
        resolve_cross_reference("pairabs.rates", "matrix_element")
    assert resolve_cross_reference("pairabs.rates", "pairabs.rates.RateResult") is rates.RateResult
    assert (resolve_cross_reference("pairabs.cli", "ExclusionFamily.equal_weight")
            == scenarios.ExclusionFamily.equal_weight)
