"""Helpers shared by the test modules."""

import sys

import pytest


def memoized_maps() -> set:
    """Every functools cache bound at the top level of a bphz module."""
    return {
        value
        for name, module in sys.modules.items()
        if name == "bphz" or name.startswith("bphz.")
        for value in vars(module).values()
        if hasattr(value, "cache_clear")
    }


@pytest.fixture
def cold_memos():
    """Every bphz memo empty when the test starts and again when it ends.

    A test that patches a map under a memo requests this before
    ``monkeypatch``, so that its patches are undone before the memos that
    were filled from them are cleared.
    """
    for fn in memoized_maps():
        fn.cache_clear()
    yield
    for fn in memoized_maps():
        fn.cache_clear()
