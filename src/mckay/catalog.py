"""Cached bundles for the verification corpus.

A :class:`mckay.correspondence.Bundle` builds its table, graph, rings and
map on first read, so one bundle per ADE label and one per stock group hold
everything the CLI, the corpus runner and the test suite share.
"""

from __future__ import annotations

from functools import lru_cache

from .chartab import mckay_graph  # noqa: F401 (re-exported)
from .correspondence import Bundle
from .groups import (
    alternating_group,
    build_binary_polyhedral,
    cyclic_group,
    dihedral_group,
    symmetric_group,
)

__all__ = [
    "Bundle",
    "ade_bundle",
    "extra_bundle",
    "EXTRA_GROUPS",
    "clear_caches",
]

# one builder per stock group, in corpus order
_EXTRA_BUILDERS = {
    "S3": lambda: Bundle(symmetric_group(3)),
    "S4": lambda: Bundle(symmetric_group(4)),
    "A4": lambda: Bundle(alternating_group(4)),
    "Dih8": lambda: Bundle(dihedral_group(4)),
    # the quaternion group is the binary dihedral group of type D4
    "Q8": lambda: ade_bundle("D4"),
    "Z6": lambda: Bundle(cyclic_group(6)),
}

#: non-ADE groups exercising the character-minor nondegeneracy statement
EXTRA_GROUPS = tuple(_EXTRA_BUILDERS)


@lru_cache(maxsize=None)
def ade_bundle(label: str) -> Bundle:
    """The bundle of a canonical ADE label (``A3``, not ``a_3``)."""
    return Bundle(build_binary_polyhedral(label))


@lru_cache(maxsize=None)
def extra_bundle(name: str) -> Bundle:
    if name not in _EXTRA_BUILDERS:
        raise KeyError(f"unknown corpus group {name!r}")
    return _EXTRA_BUILDERS[name]()


def clear_caches() -> None:
    for fn in (ade_bundle, extra_bundle):
        fn.cache_clear()
