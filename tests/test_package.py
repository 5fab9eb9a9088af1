"""Tests for the package's public surface."""

import ast
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
        "ALL_PAIRS", "BASE_PAIRS", "CHI", "CHOICES", "CmLabel", "Coefficients", "E",
        "EXCLUSION_EPS", "ExcludedStateError", "ExclusionFamily", "FormalState", "G",
        "GRAM_EIGENVALUE_FLOOR", "GramReport", "Internal", "MissingOverlapError",
        "OverlapTable", "PHI", "PSI", "RateResult", "RecoilModel", "Statistics", "Term",
        "VARPHI", "__version__", "alpha_pair", "apply_absorption", "bracket_sum",
        "build_choice_table", "build_family_table", "build_final", "build_initial",
        "build_table", "closed_form_deviations", "combine", "exclusion_mask",
        "family_exclusion_coefficient", "final_norm_sq", "formal_quantities",
        "initial_norm_sq", "inner_product", "matching_term_pairs", "matrix_element",
        "matrix_element_product", "random_realizable_overlaps", "relative_rate",
        "relative_rate_grid", "require_not_null", "symmetrize", "validate_gram",
    ]


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
    source = "from . import rates\nfrom .oracle import _plan\nrates._cmul(1, 2, 3, 4)\n"
    assert private_names_read_from_other_modules(source) == ["oracle._plan", "rates._cmul"]
