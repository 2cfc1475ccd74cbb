"""Run the docstring examples of every csplab module."""

import doctest
import importlib
import pkgutil

import pytest

import csplab

MODULES = sorted(m.name for m in pkgutil.iter_modules(csplab.__path__, "csplab."))


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, f"{result.failed} of {result.attempted} examples failed"


def test_doctests_are_found():
    total = sum(doctest.testmod(importlib.import_module(n)).attempted for n in MODULES)
    assert total >= 10
