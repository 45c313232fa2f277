"""Set-associative LRU caches for the GPU simulator's memory hierarchy."""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict

from .config import CacheConfig


class Cache:
    """A set-associative LRU cache with allocate-on-miss.

    Timing is handled by the caller; the cache tracks contents and
    hit/miss statistics only (the standard trace-driven split).  A set
    is allocated on its first access: a projection builds dozens of
    caches of thousands of sets and touches few of them.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._line_bytes = config.line_bytes
        self._n_sets = config.n_sets
        self._assoc = config.assoc
        #: Set index -> the set's lines, least recently used first.
        self._sets: Dict[int, OrderedDict] = {}
        self.hits = 0
        self.misses = 0

    def access(self, addr: int, is_write: bool = False) -> bool:
        """Access one 32B transaction; returns True on hit."""
        line = addr // self._line_bytes
        index = line % self._n_sets
        cset = self._sets.get(index)
        if cset is None:
            cset = self._sets[index] = OrderedDict()
        if line in cset:
            cset.move_to_end(line)
            self.hits += 1
            return True
        self.misses += 1
        cset[line] = True
        if len(cset) > self._assoc:
            cset.popitem(last=False)
        return False

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        total = self.accesses
        return self.hits / total if total else 0.0
