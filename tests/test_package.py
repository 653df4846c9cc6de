"""The package's public names."""

import types

import aqldb


def test_all_names_resolve():
    assert len(aqldb.__all__) == len(set(aqldb.__all__))
    for name in aqldb.__all__:
        assert getattr(aqldb, name) is not None, name


def test_all_lists_every_public_import():
    # Every public, non-module name the package imports is exported, and
    # nothing else is.
    public = {
        name
        for name, obj in vars(aqldb).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert set(aqldb.__all__) == public
