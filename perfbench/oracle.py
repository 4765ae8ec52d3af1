"""Reference answers computed without the library.

Words are plain '0'/'1' strings.  Two equal-length words are confusable
under s deletions exactly when their sets of length-(n-s) subsequences
meet, so a word set is a code (an independent set of L(s, n)) exactly when
those sets are pairwise disjoint.  That test costs one pass over the
subsequence sets, far less than the pairwise scan the library runs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import FrozenSet, Iterable, List, Optional

# Independence numbers of the full single-deletion graphs L(1, n).
ALPHA_L1 = {1: 1, 2: 2, 3: 2, 4: 4, 5: 6, 6: 10, 7: 16}


class CheckFailed(Exception):
    """A job's output disagrees with the reference."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def deletions(word: str, s: int) -> FrozenSet[str]:
    level = {word}
    for _ in range(s):
        level = {w[:i] + w[i + 1:] for w in level for i in range(len(w))}
    return frozenset(level)


def insertions(word: str, s: int) -> FrozenSet[str]:
    level = {word}
    for _ in range(s):
        level = {w[:i] + b + w[i:] for w in level for i in range(len(w) + 1)
                 for b in "01"}
    return frozenset(level)


def is_code(words: Iterable[str], s: int) -> bool:
    seen: set = set()
    for w in words:
        d = deletions(w, s)
        if not seen.isdisjoint(d):
            return False
        seen |= d
    return True


def confusable(x: str, y: str, s: int) -> bool:
    return not deletions(x, s).isdisjoint(deletions(y, s))


@lru_cache(maxsize=512)
def confusable_set(x: str, s: int) -> FrozenSet[str]:
    out = set()
    for z in deletions(x, s):
        out |= insertions(z, s)
    out.discard(x)
    return frozenset(out)


def vt_residue(word: str) -> int:
    return sum(i + 1 for i, b in enumerate(word) if b == "1") % (len(word) + 1)


@lru_cache(maxsize=None)
def vt_sizes(n: int) -> List[int]:
    sizes = [0] * (n + 1)
    for v in range(1 << n):
        sizes[vt_residue(format(v, "b").zfill(n) if n else "")] += 1
    return sizes


def _words(n: int, k: Optional[int] = None) -> List[str]:
    words = (format(v, "b").zfill(n) for v in range(1 << n))
    return [w for w in words if k is None or w.count("1") == k]


@lru_cache(maxsize=None)
def alpha(s: int, n: int, k: Optional[int] = None) -> int:
    """Independence number of L(s, n), or of its weight-k layer.

    Maximum clique of the complement graph by branch and bound with a
    greedy-colouring bound; fast enough for the few hundred vertices the
    benchmark solves exactly.
    """
    words = _words(n, k)
    dels = [deletions(w, s) for w in words]
    size = len(words)
    full = (1 << size) - 1
    apart = [full & ~(1 << i) for i in range(size)]  # non-neighbours
    for i in range(size):
        for j in range(i + 1, size):
            if not dels[i].isdisjoint(dels[j]):
                apart[i] &= ~(1 << j)
                apart[j] &= ~(1 << i)
    best = 0

    def expand(cand: int, chosen: int) -> None:
        nonlocal best
        if not cand:
            best = max(best, chosen)
            return
        order, colours, rest, colour = [], [], cand, 0
        while rest:
            colour += 1
            free = rest
            while free:
                low = free & -free
                v = low.bit_length() - 1
                free &= ~low & ~apart[v]
                rest &= ~low
                order.append(v)
                colours.append(colour)
        for v, bound in zip(reversed(order), reversed(colours)):
            if chosen + bound <= best:
                return
            expand(cand & apart[v], chosen + 1)
            cand &= ~(1 << v)

    expand(full, 0)
    return best


@lru_cache(maxsize=None)
def edge_count(s: int, n: int) -> int:
    """Edges of L(s, n): word pairs sharing a length-(n-s) subsequence."""
    words = _words(n)
    neighbours = {w: set() for w in words}
    holders: dict = {}
    for w in words:
        for z in deletions(w, s):
            holders.setdefault(z, []).append(w)
    for group in holders.values():
        for w in group:
            neighbours[w].update(group)
    return sum(len(nb) - 1 for nb in neighbours.values()) // 2


def insertion_count(s: int, n: int) -> int:
    return sum(math.comb(n, i) for i in range(s + 1))


def levenshtein_lower_bound(n: int, s: int) -> Fraction:
    ins = insertion_count(s, n)
    return Fraction(2 ** (n + s), ins * (ins - 1) + 2 ** s)


def penalty_ratio(s: int) -> Fraction:
    return Fraction((s + 1) * math.comb(2 * s, s), 4 ** s)
