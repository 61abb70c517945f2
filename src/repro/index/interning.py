"""Interning of node ids and labels to dense integers.

Every structure in :mod:`repro.index` works on dense integer ids: node ids
become positions into degree arrays and CSR index pointers, and labels become
indices into per-label CSR blocks and bit positions in neighbourhood
signatures.  :class:`Interner` is the single place that mapping lives; a
:class:`~repro.index.snapshot.GraphIndex` carries three of them (nodes, node
labels, edge labels) and every query converts at the boundary, so the hot
loops only ever touch ``int``s.

Interners are append-only: once a value has been assigned an id, the id never
changes.  The snapshot layer never mutates an interner after the build, which
is what makes an index safely shareable across threads.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Set

__all__ = ["Interner"]

MISSING = -1


class Interner:
    """A bijective mapping ``value <-> dense int id`` (ids start at 0).

    Example
    -------
    >>> interner = Interner(["follow", "recom"])
    >>> interner.intern("follow")
    0
    >>> interner.intern("bad_rating")
    2
    >>> interner.value_of(2)
    'bad_rating'
    >>> interner.get("missing")
    -1
    """

    __slots__ = ("_ids", "_values")

    def __init__(self, values: Optional[Iterable[Hashable]] = None) -> None:
        self._ids: Dict[Hashable, int] = {}
        self._values: List[Hashable] = []
        if values is not None:
            for value in values:
                self.intern(value)

    def intern(self, value: Hashable) -> int:
        """The id of *value*, allocating the next dense id on first sight."""
        existing = self._ids.get(value, MISSING)
        if existing != MISSING:
            return existing
        new_id = len(self._values)
        self._ids[value] = new_id
        self._values.append(value)
        return new_id

    def get(self, value: Hashable, default: int = MISSING) -> int:
        """The id of *value*, or *default* (-1) when it was never interned."""
        return self._ids.get(value, default)

    def id_of(self, value: Hashable) -> int:
        """The id of *value*; raises :class:`KeyError` when absent."""
        return self._ids[value]

    def value_of(self, index: int) -> Hashable:
        """The original value for a dense id."""
        return self._values[index]

    @property
    def encode(self):
        """C-level ``value -> id`` lookup (``dict.get``) for hot loops.

        Unlike :meth:`get` it returns ``None`` — not -1 — for unknown values;
        callers on hot paths bind this once and test ``is None``.
        """
        return self._ids.get

    @property
    def decode(self):
        """C-level ``id -> value`` lookup (``list.__getitem__``) for hot loops.

        Combined with ``map`` the whole decode of an id batch stays in C:
        ``set(map(interner.decode, ids))``.
        """
        return self._values.__getitem__

    def missing(self, values: Set[Hashable]) -> Set[Hashable]:
        """The members of the set *values* that were never interned.

        One C-level ``set.difference`` against the id map, so checking a
        whole candidate pool costs no per-member Python call.
        """
        return values.difference(self._ids)

    def values(self) -> List[Hashable]:
        """All interned values, ordered by id (a fresh list)."""
        return list(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, value: Hashable) -> bool:
        return value in self._ids

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._values)

    def __repr__(self) -> str:
        return f"Interner(size={len(self._values)})"
