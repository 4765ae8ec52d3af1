"""Superstring counting formulas and the insertion-pattern codec.

The closed forms here count supersequences exactly (arbitrary-precision
integers throughout).  ``encode``/``decode`` realize the bijection between
a supersequence of a word and the triple describing where the inserted
symbols went: ones placed before existing zeros (z0), zeros placed before
existing ones (z1), and arbitrary symbols appended at the end (z2).
"""

from __future__ import annotations

import math
import numbers
from typing import NamedTuple

from .bitstring import (BitString, _check_int, _check_size, _insertion_count,
                        _weighted_insertion_count, weight)


class EncodingError(ValueError):
    """Raised when an insertion encoding is structurally invalid for a base word."""


def insertion_count(s: int, n: int) -> int:
    """Number of distinct supersequences of length n of any length-(n-s) word."""
    _check_size(n, s)
    return _insertion_count(s, n)


def weighted_insertion_count(s: int, r: int, n: int, k: int) -> int:
    """Number of length-n weight-k supersequences of a length-(n-s), weight-(k-r) word.

    Counts the supersequences produced by inserting r ones and s-r zeros.
    """
    _check_int("n", n, 0)
    _check_int("s", s, 0, n)
    _check_int("r", r, 0, s)
    _check_int("k", k, r, n - s + r)
    return _weighted_insertion_count(s, r, n, k)


class InsertionEncoding(NamedTuple):
    """Where the inserted symbols of a supersequence went.

    z0 lists, per zero of the base word, how many ones were inserted before
    it (unary, terminated by a 0); z1 does the same for zeros inserted
    before ones; z2 holds the symbols appended after the base word.
    """

    z0: BitString
    z1: BitString
    z2: BitString

    def to_text(self) -> str:
        """Render as ``z0|z1|z2`` with '-' standing for an empty component."""
        return "|".join(str(c) if len(c) else "-" for c in (self.z0, self.z1, self.z2))

    @classmethod
    def from_text(cls, text: str) -> "InsertionEncoding":
        parts = text.split("|")
        if len(parts) != 3:
            raise EncodingError(f"expected 3 '|'-separated components, got {len(parts)}")
        comps = [BitString("" if p == "-" else p) for p in parts]
        return cls(*comps)


def encode(x: BitString, y: BitString) -> InsertionEncoding:
    """Encode a supersequence y of x as an insertion pattern.

    Scans x symbol by symbol, consuming y until a match is found; each
    mismatch appends a 1 and each match a 0 to the track selected by the
    current x symbol.  Leftover y symbols become z2.
    """
    if len(y) < len(x):
        raise ValueError("y is shorter than x, so x cannot be a subsequence of y")
    rest = iter(y)
    tracks = ([], [])  # indexed by the symbol of x
    for u in x:
        for v in rest:
            tracks[u].append(v ^ u)  # 0 for the match, 1 for a symbol inserted before it
            if v == u:
                break
        else:
            raise ValueError(f"{x} is not a subsequence of {y}")
    return InsertionEncoding(BitString(tracks[0]), BitString(tracks[1]), BitString(rest))


def decode(x: BitString, z: InsertionEncoding) -> BitString:
    """Reconstruct the supersequence of x described by an insertion pattern."""
    n = len(x)
    k = weight(x)
    zeros_z0 = len(z.z0) - weight(z.z0)
    zeros_z1 = len(z.z1) - weight(z.z1)
    if zeros_z0 != n - k:
        raise EncodingError(
            f"z0 has {zeros_z0} zeros but the base word has {n - k} zeros"
        )
    if zeros_z1 != k:
        raise EncodingError(f"z1 has {zeros_z1} zeros but the base word has {k} ones")
    tracks = (iter(z.z0), iter(z.z1))
    out = []
    for u in x:
        for w in tracks[u]:  # never runs out: the track has one zero per symbol u of x
            out.append(u ^ w)
            if w == 0:
                break
    if any(next(it, None) is not None for it in tracks):
        raise EncodingError("insertion track has symbols after its final zero")
    out.extend(z.z2)
    return BitString(out)


def _check_s_and_p(s: int, p: float = 0.0) -> None:
    """Raise TypeError unless s is an integer and p a real number (a bool is
    neither), and ValueError unless s >= 0 and 0 <= p <= 1, for f_s and its
    constants."""
    _check_int("s", s, 0)
    if isinstance(p, bool) or not isinstance(p, numbers.Real):
        raise TypeError(f"p must be a real number, got {p!r}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")


def f_s_value(s: int, p: float) -> float:
    """Value of sum_r C(s,r)^2 p^(s-r) (1-p)^r on [0, 1]."""
    _check_s_and_p(s, p)
    return math.fsum(
        math.comb(s, r) ** 2 * p ** (s - r) * (1.0 - p) ** r for r in range(s + 1)
    )


def f_s_value_multinomial(s: int, p: float) -> float:
    """Same polynomial in the basis sum_i multinomial(s; i, i, s-2i) (p(1-p))^i."""
    _check_s_and_p(s, p)
    q = p * (1.0 - p)
    return math.fsum(
        math.factorial(s)
        // (math.factorial(i) ** 2 * math.factorial(s - 2 * i))
        * q**i
        for i in range(s // 2 + 1)
    )


def f_s_bound(s: int) -> float:
    """Supremum of the polynomial over [0, 1], attained at p = 1/2."""
    _check_s_and_p(s)
    return math.comb(2 * s, s) / 2**s
