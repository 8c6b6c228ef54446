"""Helpers shared by the test modules."""

import sys


def memoized_maps() -> set:
    """Every functools cache bound at the top level of a bphz module."""
    return {
        value
        for name, module in sys.modules.items()
        if name == "bphz" or name.startswith("bphz.")
        for value in vars(module).values()
        if hasattr(value, "cache_clear")
    }
