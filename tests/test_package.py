"""The package's export list."""

import ncreal


def test_every_exported_name_resolves():
    # a stale entry breaks only `from ncreal import *`, so check each name
    missing = [name for name in ncreal.__all__ if not hasattr(ncreal, name)]
    assert not missing
    assert len(set(ncreal.__all__)) == len(ncreal.__all__)
