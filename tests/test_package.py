"""The package's public namespace."""

import types

import projquant


def test_all_names_resolve_and_none_is_a_module():
    assert len(set(projquant.__all__)) == len(projquant.__all__)
    for name in projquant.__all__:
        value = getattr(projquant, name)
        assert not isinstance(value, types.ModuleType), name
