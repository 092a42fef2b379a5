"""Cached construction pipelines for the verification corpus.

Groups, tables and correspondence data are immutable, so they are built
once per label by :func:`mckay.correspondence.build_local` and
shared by the CLI, the corpus runner and the test suite.
"""

from __future__ import annotations

from functools import lru_cache

from .chartab import CharacterTable, character_table, mckay_graph  # noqa: F401 (re-exported)
from .correspondence import Bundle, build_local
from .groups import (
    FiniteGroup,
    alternating_group,
    build_binary_polyhedral,
    cyclic_group,
    dihedral_group,
    symmetric_group,
)

__all__ = [
    "Bundle",
    "ade_group",
    "ade_table",
    "ade_bundle",
    "extra_group",
    "extra_table",
    "EXTRA_GROUPS",
    "clear_caches",
]

# one builder per stock group, in corpus order
_EXTRA_BUILDERS = {
    "S3": lambda: symmetric_group(3),
    "S4": lambda: symmetric_group(4),
    "A4": lambda: alternating_group(4),
    "Dih8": lambda: dihedral_group(4),
    "Q8": lambda: build_binary_polyhedral("D4"),
    "Z6": lambda: cyclic_group(6),
}

#: non-ADE groups exercising the character-minor nondegeneracy statement
EXTRA_GROUPS = tuple(_EXTRA_BUILDERS)


@lru_cache(maxsize=None)
def ade_group(label: str) -> FiniteGroup:
    return build_binary_polyhedral(label)


@lru_cache(maxsize=None)
def ade_table(label: str) -> CharacterTable:
    return character_table(ade_group(label))


@lru_cache(maxsize=None)
def ade_bundle(label: str) -> Bundle:
    return build_local(ade_group(label), ade_table(label))


@lru_cache(maxsize=None)
def extra_group(name: str) -> FiniteGroup:
    if name not in _EXTRA_BUILDERS:
        raise KeyError(f"unknown corpus group {name!r}")
    return _EXTRA_BUILDERS[name]()


@lru_cache(maxsize=None)
def extra_table(name: str) -> CharacterTable:
    return character_table(extra_group(name))


def clear_caches() -> None:
    for fn in (ade_group, ade_table, ade_bundle, extra_group, extra_table):
        fn.cache_clear()
