"""The examples in the library's docstrings run and pass."""

import doctest
import importlib
import pkgutil

import coxcells


def test_docstring_examples_pass():
    attempted = {}
    for info in pkgutil.iter_modules(coxcells.__path__, "coxcells."):
        module = importlib.import_module(info.name)
        result = doctest.testmod(module)
        assert result.failed == 0, info.name
        attempted[info.name] = result.attempted
    # the exact arithmetic documents itself by example
    assert attempted["coxcells.exactnum"] > 0
