"""Small special-purpose containers used by the prefetch machinery."""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import Any, Callable, List, Optional


class BoundedRecentSet:
    """A fixed-capacity set of the most recently added keys.

    This backs the paper's prefetch filter, which "keeps track of the most
    recent demand fetches and checks each prefetch prediction against this
    list" (§4.1).  Adding an existing key refreshes its recency; when the
    capacity is exceeded the least recently added key is evicted.
    """

    __slots__ = ("_capacity", "_entries")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._entries: OrderedDict[int, None] = OrderedDict()

    def add(self, key: int) -> None:
        """Insert *key*, refreshing recency if already present."""
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
            return
        entries[key] = None
        if len(entries) > self._capacity:
            entries.popitem(last=False)

    def __contains__(self, key: int) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def capacity(self) -> int:
        return self._capacity

    def clear(self) -> None:
        self._entries.clear()

    def keys(self) -> List[int]:
        """Return the keys from least to most recently added."""
        return list(self._entries)


class LazyTable:
    """Stand-in for a table attribute (a list) of *owner* until its first
    read: builds the table — its initial contents ``initial()``, or
    ``build()`` — and puts it in the attribute, so later reads index the
    table directly.

    A stand-in whose ``build`` is None was never read, so its table still
    holds the initial contents.  The jit kernel binds such a table as a C
    array it fills in one call (``repro.core.jitted``), with no Python loop
    or list copy.  The owner is held weakly: a strong reference would form
    an owner -> stand-in -> owner cycle, keeping every dropped owner alive
    until the cyclic garbage collector runs.
    """

    __slots__ = ("_owner", "_name", "_initial", "build")

    def __init__(
        self,
        owner: Any,
        name: str,
        initial: Callable[[], list],
        build: Optional[Callable[[], list]] = None,
    ) -> None:
        self._owner = weakref.ref(owner)
        self._name = name
        self._initial = initial
        #: None: the table holds its initial contents.
        self.build = build

    def _built(self) -> list:
        build = self.build
        table = self._initial() if build is None else build()
        owner = self._owner()
        if owner is not None:
            setattr(owner, self._name, table)
        return table

    def __getitem__(self, index):
        return self._built()[index]

    def __setitem__(self, index, value) -> None:
        self._built()[index] = value

    def __iter__(self):
        return iter(self._built())


def pristine(table: Any) -> bool:
    """True when *table* is a :class:`LazyTable` that was never read."""
    return isinstance(table, LazyTable) and table.build is None
