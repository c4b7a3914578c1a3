"""Every name a module lists in __all__ resolves on that module.

A stale entry breaks `from entsense.<module> import *` and anything that
walks __all__ with getattr, such as a tracer wrapping each public call.
"""

import importlib

import pytest

MODULES = ("entsense", "entsense.model", "entsense.simulator", "entsense.estimation",
           "entsense.resources", "entsense.randomphase", "entsense.events",
           "entsense.config", "entsense.cli")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
