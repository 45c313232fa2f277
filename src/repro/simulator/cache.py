"""Set-associative LRU caches for the GPU simulator's memory hierarchy."""

from __future__ import annotations

from collections import OrderedDict
from typing import List

from .config import CacheConfig


class Cache:
    """A set-associative LRU cache with allocate-on-miss.

    Timing is handled by the caller; the cache tracks contents and
    hit/miss statistics only (the standard trace-driven split).
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._sets: List[OrderedDict] = [
            OrderedDict() for _ in range(config.n_sets)
        ]
        self.hits = 0
        self.misses = 0

    def _locate(self, addr: int):
        line = addr // self.config.line_bytes
        return self._sets[line % self.config.n_sets], line

    def access(self, addr: int, is_write: bool = False) -> bool:
        """Access one 32B transaction; returns True on hit."""
        cset, line = self._locate(addr)
        if line in cset:
            cset.move_to_end(line)
            self.hits += 1
            return True
        self.misses += 1
        cset[line] = True
        if len(cset) > self.config.assoc:
            cset.popitem(last=False)
        return False

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        total = self.accesses
        return self.hits / total if total else 0.0
