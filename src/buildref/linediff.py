"""The line diff behind `mining.extract_diff`: ``difflib.SequenceMatcher(None,
a, b, autojunk=False)`` with the same blocks and opcodes, found without
difflib's quadratic search on repeated lines.

difflib finds the longest block common to the two sequences, then recurses on
the ranges before and after it. Its longest-match search pairs every line of
one range with every equal line of the other, so a build file with a thousand
``}`` lines costs a million steps per query. `LineMatcher` keeps difflib's
recursion and answers each longest-match query on large ranges, with the
same tie rule, in time near-linear in the ranges.
"""

from __future__ import annotations

import difflib
import itertools
from typing import Optional, Sequence

_SMALL_QUERY = 4096  # a query over at most this many (line, line) pairs is difflib's own
_HASH_MOD = (1 << 61) - 1  # a prime; windows of lines are hashed as polynomials modulo it
_HASH_BASE = 0x5DEECE66D


def _common_prefix(xs: Sequence[int], ys: Sequence[int]) -> int:
    return next((n for n, (x, y) in enumerate(zip(xs, ys)) if x != y), min(len(xs), len(ys)))


def _prefix_hashes(ids: Sequence[int]) -> list[int]:
    """``h[n]`` is the hash of ``ids[:n]``, so ``h[i + k] - h[i] * BASE**k`` is that of ``ids[i:i + k]``."""
    return list(itertools.accumulate(ids, lambda h, x: (h * _HASH_BASE + x) % _HASH_MOD, initial=0))


class LineMatcher(difflib.SequenceMatcher):
    """``difflib.SequenceMatcher(None, a, b, autojunk=False)`` whose
    `find_longest_match` answers by length: the longest block
    ``a[i:i + k] == b[j:j + k]`` inside the ranges, the smallest ``i`` among
    the longest, then the smallest ``j``, as difflib's does without junk.

    A query over at most `_SMALL_QUERY` line pairs goes to difflib's search,
    which is quicker on them; a larger one is answered by length. The common
    prefix and suffix of the ranges are blocks, so the longest is at least as
    long. Whether a block of ``k`` lines exists is decided by hashing every
    window of ``k`` lines of both ranges, each hash hit compared line by line;
    the first window found is extended as far as it matches. The length
    gallops up from the anchors, then is bisected."""

    def __init__(self, a: Sequence[str], b: Sequence[str]):
        super().__init__(None, a, b, autojunk=False)

    def set_seq1(self, a: Sequence[str]) -> None:
        super().set_seq1(a)
        self._tables = None

    def set_seq2(self, b: Sequence[str]) -> None:
        super().set_seq2(b)
        self._tables = None

    def _lines_and_hashes(self) -> tuple[list[int], list[int], list[int], list[int]]:
        """Both sequences with each line as a small int, and their prefix hashes."""
        if self._tables is None:
            ids: dict[str, int] = {}
            a = [ids.setdefault(line, len(ids)) for line in self.a]
            b = [ids.setdefault(line, len(ids)) for line in self.b]
            self._tables = a, b, _prefix_hashes(a), _prefix_hashes(b)
        return self._tables

    def find_longest_match(self, alo: int = 0, ahi: Optional[int] = None, blo: int = 0, bhi: Optional[int] = None):
        if ahi is None:
            ahi = len(self.a)
        if bhi is None:
            bhi = len(self.b)
        if (ahi - alo) * (bhi - blo) <= _SMALL_QUERY:
            return super().find_longest_match(alo, ahi, blo, bhi)
        ids_a, ids_b, _, _ = self._lines_and_hashes()
        a, b = ids_a[alo:ahi], ids_b[blo:bhi]
        prefix = _common_prefix(a, b)
        size = max(prefix, _common_prefix(a[::-1], b[::-1]))
        found = (alo, blo) if size == prefix else None  # the prefix wins every tie
        longest = min(len(a), len(b))  # no block is longer
        k, step = size + 1, 1
        while size < longest:  # gallop up from the anchors, then bisect
            window = self._first_window(alo, ahi, blo, bhi, k)
            if window is None:
                longest = k - 1
            else:  # no block of k or more lines starts before it, so it wins at its full length
                i, j = found = window
                size = k + _common_prefix(ids_a[i + k : ahi], ids_b[j + k : bhi])
                step *= 2
            k = min(size + step, (size + longest + 1) // 2)
        if found is None:  # the suffix is longest, but a block as long may start before it
            found = self._first_window(alo, ahi, blo, bhi, size)
        return difflib.Match(*found, size) if size else difflib.Match(alo, blo, 0)

    def _first_window(self, alo: int, ahi: int, blo: int, bhi: int, k: int) -> Optional[tuple[int, int]]:
        """The smallest ``i``, then ``j``, with ``a[i:i + k] == b[j:j + k]`` inside the ranges, or None."""
        a, b, ha, hb = self._lines_and_hashes()
        shift = pow(_HASH_BASE, k, _HASH_MOD)
        b_windows = [(y - x * shift) % _HASH_MOD for x, y in zip(hb[blo : bhi - k + 1], hb[blo + k : bhi + 1])]
        first = dict(zip(reversed(b_windows), range(bhi - k, blo - 1, -1)))  # each hash's smallest j
        a_windows = [(y - x * shift) % _HASH_MOD for x, y in zip(ha[alo : ahi - k + 1], ha[alo + k : ahi + 1])]
        for i, j in enumerate(map(first.get, a_windows), alo):
            if j is None:
                continue
            if a[i : i + k] != b[j : j + k]:  # two windows share a hash: try every window with it
                h = a_windows[i - alo]
                j = next((j for j, g in enumerate(b_windows, blo) if g == h and a[i : i + k] == b[j : j + k]), None)
            if j is not None:
                return i, j
        return None
