"""Tests for the package's public surface."""

import pytest

import pairabs
from pairabs import algebra, oracle, rates, scenarios

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
