"""The public API is what each library module's `__all__` says it is."""

import importlib
import inspect

import pytest

import otfdm

# `cli` is the command-line entry point, not a library module.
MODULES = ("channel", "harness", "numerics", "receiver", "sequences",
           "transmitter")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"otfdm.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_public_definitions_are_listed(name):
    module = importlib.import_module(f"otfdm.{name}")
    unlisted = [n for n, obj in vars(module).items()
                if not n.startswith("_")
                and (inspect.isfunction(obj) or inspect.isclass(obj))
                and obj.__module__ == module.__name__
                and n not in module.__all__]
    assert unlisted == []


def test_star_import():
    namespace = {}
    exec("from otfdm import *", namespace)
    assert namespace["hard_bits"] is otfdm.hard_bits
    assert namespace["run_ber"] is otfdm.run_ber
