import doctest
import importlib
import pkgutil

import pytest

import degcert

MODULES = sorted(m.name for m in pkgutil.iter_modules(degcert.__path__, "degcert."))


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests_pass(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
