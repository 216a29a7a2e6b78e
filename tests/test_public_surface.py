"""The package's public names are exactly those its modules list."""

import types

import coiso
from coiso import config, errors, grassmann, hypergeo, maslov, symplin

MODULES = (config, errors, symplin, grassmann, maslov, hypergeo)


def test_public_names_are_the_union_of_the_modules_all():
    exported = {name for name, value in vars(coiso).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    listed = set().union(*(module.__all__ for module in MODULES))
    assert exported == listed
    for module in MODULES:
        assert len(set(module.__all__)) == len(module.__all__), module.__name__
        for name in module.__all__:
            assert getattr(coiso, name) is getattr(module, name), name
