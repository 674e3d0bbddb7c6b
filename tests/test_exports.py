"""The package's export list against what it binds."""

import types

import regmatch


def test_all_lists_every_public_name():
    # a name deleted from the package, or imported and not exported, fails
    # here instead of lingering in one of the two lists
    bound = {name for name, obj in vars(regmatch).items()
             if not name.startswith("_") and not isinstance(obj, types.ModuleType)}
    assert sorted(regmatch.__all__) == sorted(bound)
