"""The package's public surface, ``strongedge.__all__``."""

import types

import strongedge


def test_all_lists_the_public_names_once_and_sorted():
    names = strongedge.__all__
    assert names == sorted(set(names))
    for name in names:
        assert hasattr(strongedge, name), name
    public = {
        name
        for name, value in vars(strongedge).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(names) == public
    scope: dict = {}
    exec("from strongedge import *", scope)
    assert scope.keys() - {"__builtins__"} == public
