"""Checks on the package's public namespace."""

import collections

import cavityflux


def test_all_exports_resolve_once():
    missing = [name for name in cavityflux.__all__
               if not hasattr(cavityflux, name)]
    assert missing == []
    counts = collections.Counter(cavityflux.__all__)
    assert [name for name, n in counts.items() if n > 1] == []
