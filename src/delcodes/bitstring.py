"""Fixed-length binary strings and subsequence/supersequence operations.

A :class:`BitString` is an immutable binary word of at most 63 symbols,
packed into a single machine word.  Index 0 is the leftmost symbol of the
textual rendering.  All operations in this module are pure functions, so
values are safe to share across threads.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, List, Optional, Sequence, Set, Union

MAX_LENGTH = 63
# Largest n whose words are enumerated all at once (2^22 of them); 2^22 also
# caps the words insert_all and insert_all_weighted return, the deletion
# balls that delete_all, confusable_set and code verification may list, and
# the balls the exact solver lists to check a graph's rows (Levenshtein's
# bound, summed over the words).
MAX_LAYER_N = 22

BitsLike = Union[str, Iterable[int], "BitString"]


class CapacityError(ValueError):
    """Raised when a request exceeds the resource guardrails."""


class BitString:
    """Immutable fixed-length binary word.

    Equality is by (length, symbol sequence): ``"0" != "00"``.  Ordering is
    by length first, then by the value of the word read as a binary numeral;
    ``>`` and ``>=`` are Python's reflections of ``<`` and ``<=``.
    """

    __slots__ = ("_n", "_v")

    def __init__(self, bits: BitsLike = ""):
        if isinstance(bits, BitString):
            self._n = bits._n
            self._v = bits._v
            return
        if isinstance(bits, str):
            _check_length(len(bits))
            # checked first: int() also takes " 01", "0_1" and "+1"
            bad = bits.strip("01")
            if bad:
                raise ValueError(f"invalid symbol {bad[0]!r} in bit string")
            self._n = len(bits)
            self._v = int(bits or "0", 2)
            return
        sym = list(bits)
        _check_length(len(sym))
        v = 0
        for b in sym:
            if type(b) is not int or b not in (0, 1):  # refuses 1.0 and True alike
                raise ValueError(f"invalid symbol {b!r} in bit sequence")
            v = (v << 1) | b
        self._n = len(sym)
        self._v = v

    @classmethod
    def from_value(cls, value: int, length: int) -> "BitString":
        """Build from a packed integer whose bit length-1-i holds symbol i."""
        if not (type(value) is int and type(length) is int):  # a bool is not an integer
            raise TypeError(f"value and length must be integers, got {value!r} and {length!r}")
        if not 0 <= length <= MAX_LENGTH:
            raise ValueError(f"length {length} out of range 0..{MAX_LENGTH}")
        if not 0 <= value < (1 << length):
            raise ValueError(f"value {value} does not fit in {length} bits")
        out = cls.__new__(cls)
        out._n = length
        out._v = value
        return out

    @property
    def value(self) -> int:
        """The word read as a binary numeral (index 0 most significant)."""
        return self._v

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i: int) -> int:
        if not -self._n <= i < self._n:
            raise IndexError("bit index out of range")
        if i < 0:
            i += self._n
        return (self._v >> (self._n - 1 - i)) & 1

    def __iter__(self) -> Iterator[int]:
        v, n = self._v, self._n
        for i in range(n):
            yield (v >> (n - 1 - i)) & 1

    def __add__(self, other: "BitString") -> "BitString":
        if not isinstance(other, BitString):
            return NotImplemented
        return BitString.from_value((self._v << other._n) | other._v, self._n + other._n)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BitString)
            and self._n == other._n
            and self._v == other._v
        )

    def __lt__(self, other: "BitString") -> bool:
        if not isinstance(other, BitString):
            return NotImplemented
        return (self._n, self._v) < (other._n, other._v)

    def __le__(self, other: "BitString") -> bool:
        if not isinstance(other, BitString):
            return NotImplemented
        return (self._n, self._v) <= (other._n, other._v)

    def __hash__(self) -> int:
        return hash((self._n, self._v))

    def __str__(self) -> str:
        return format(self._v, "b").zfill(self._n) if self._n else ""

    def __repr__(self) -> str:
        return f"BitString({str(self)!r})"


def weight(x: BitString) -> int:
    """Number of 1 symbols (Hamming weight)."""
    return x.value.bit_count()


# -- packed-integer helpers (index 0 maps to the most significant bit) --


def _word_values(n: int, k: Optional[int] = None) -> Sequence[int]:
    """Packed values of all n-symbol words, or of the weight-k ones, ascending.

    A layer is listed from the k-subsets of its bit positions, not filtered
    from all 2^n words: combinations of the bits taken highest first come out
    in descending value order, so the reversed list ascends."""
    if n > MAX_LAYER_N:
        raise CapacityError(f"word enumeration limited to n <= {MAX_LAYER_N}, got n={n}")
    if k is None:
        return range(1 << n)
    values = list(map(sum, itertools.combinations([1 << i for i in reversed(range(n))], k)))
    values.reverse()
    return values


def _vt_modulus(n: int, k: Optional[int] = None) -> int:
    """Colors of the weighted-sum coloring of L(1, n), or of its layer k."""
    return n + 1 if k is None else max(k, n - k) + 1


def _vt_color(v: int, n: int, k: Optional[int] = None) -> int:
    """Sum of the 1-based positions of the ones of packed word v, mod _vt_modulus: the
    coloring of :mod:`delcodes.codes`'s VT and layer codes.  Only :mod:`delcodes.codes`
    and :mod:`delcodes.cli` read it: both through :func:`_vt_classes`, and codes also
    per word, for ``vt_weight`` and ``modified_vt_weight``."""
    return sum(n - j for j in range(n) if v >> j & 1) % _vt_modulus(n, k)


def _vt_classes(n: int, k: Optional[int] = None) -> List[List[int]]:
    """The color classes of the weighted-sum coloring of L(1, n), or of its
    layer k, indexed by color: each the ascending packed values of its words,
    empty classes kept.  One pass over :func:`_word_values`, one
    :func:`_vt_color` per word; n and k are checked here."""
    _check_layer(n, k)
    words = _word_values(n, k)  # refuses n > MAX_LAYER_N before the classes are made
    classes: List[List[int]] = [[] for _ in range(_vt_modulus(n, k))]
    for v in words:
        classes[_vt_color(v, n, k)].append(v)
    return classes


def _single_deletions(v: int, n: int) -> List[int]:
    """The distinct words left by deleting one symbol of an n-symbol word.

    Deleting any symbol of a run leaves the same word, and deletions from
    different runs leave different words, so there is one result per run:
    the word without the run's last symbol.
    """
    out = []
    high = v >> 1
    # bit p is set where a run ends: at the last symbol, or before a change
    ends = (v ^ v << 1 | 1) & ((1 << n) - 1)
    while ends:
        low = ends & -ends
        out.append(high & -low | v & (low - 1))
        ends ^= low
    return out


def _single_insertions(v: int, n: int) -> List[int]:
    """The n + 2 distinct words made by inserting one symbol into an n-symbol word.

    An inserted symbol can be moved left through the run it joins, so each
    result is one symbol inserted at the front, or the complement of a
    symbol inserted right after it.
    """
    out = [v, v | 1 << n]
    for k in range(n):
        low = 1 << k
        out.append((v & -low) << 1 | low & ~v | v & (low - 1))
    return out


def _deletion_ball(v: int, n: int, s: int) -> Set[int]:
    """The distinct length-(n-s) subsequences of an n-symbol word v, as
    packed values: one level of :func:`_single_deletions` per deletion.
    The graph's level pass (``delcodes.graph._deletion_masks``) lists the
    balls of many words at once, by the same single deletions except on the
    full graph, where whole-list slices stand in for them.  Nothing here
    is sized, so callers size their request first (:func:`_deletion_ball_bound`)."""
    level = {v}
    for m in range(n, n - s, -1):
        level = {z for u in level for z in _single_deletions(u, m)}
    return level


def _deletion_ball_bound(v: int, n: int, s: int) -> int:
    """Levenshtein's bound C(r + s - 1, s) on the distinct s-deletions of an
    n-symbol word v with r runs (1 for the empty word)."""
    # one set bit per run end, as in _single_deletions
    runs = ((v ^ v << 1 | 1) & ((1 << n) - 1)).bit_count()
    return math.comb(runs + s - 1, s) if runs else 1


def _check_length(n: int) -> None:
    """Raise CapacityError if a word of n symbols does not fit in a BitString."""
    if n > MAX_LENGTH:
        raise CapacityError(f"string length {n} exceeds {MAX_LENGTH}")


def _check_int(name: str, value: int, low: Optional[int] = None,
               high: Optional[int] = None) -> None:
    """Raise TypeError, naming the argument, unless value is an integer (a
    bool is not), and ValueError, naming it, unless low <= value (where low
    is given) and value <= high (where both are): ``{name} must be at least
    {low}, got {value}`` or ``{name} must be in {low}..{high}, got {value}``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if low is not None and (value < low or high is not None and value > high):
        bounds = f"at least {low}" if high is None else f"in {low}..{high}"
        raise ValueError(f"{name} must be {bounds}, got {value}")


def _check_layer(n: int, k: Optional[int] = None) -> None:
    """Raise TypeError unless n and k (where given) are integers, and
    ValueError, naming n or k, unless n >= 0 and, for a layer k,
    0 <= k <= n, the weights of n-symbol words."""
    _check_int("n", n)
    if n < 0:
        raise ValueError(f"require n >= 0, got n={n}")
    if k is not None:
        _check_int("k", k, 0, n)


def _check_size(n: int, s: int, *, s_up_to_n: bool = True) -> None:
    """Raise TypeError unless n and s are integers, and ValueError, naming
    n and s, unless n >= 0 and s >= 0 and, where ``s_up_to_n``, s <= n."""
    _check_int("n", n)
    _check_int("s", s)
    if s_up_to_n and not 0 <= s <= n:
        raise ValueError(f"require 0 <= s <= n, got s={s}, n={n}")
    if n < 0 or s < 0:
        raise ValueError(f"require n >= 0 and s >= 0, got n={n}, s={s}")


def _refuse_over_cap(size: int, what: str) -> None:
    """Raise CapacityError if a listing of `size` words (or at most that
    many) exceeds 2^22."""
    if size > 1 << MAX_LAYER_N:
        raise CapacityError(f"{what} limited to 2^{MAX_LAYER_N} words, got {size}")


def _insert_values(words: Iterable[int], n: int, s: int) -> Set[int]:
    """All distinct results of s insertions into n-symbol words, as packed values."""
    level = set(words)
    for m in range(n, n + s):
        level = {y for w in level for y in _single_insertions(w, m)}
    return level


def delete_all(x: BitString, s: int) -> Set[BitString]:
    """The set of distinct subsequences of x with s symbols removed."""
    n = len(x)
    _check_size(n, s)
    _refuse_over_cap(_deletion_ball_bound(x.value, n, s),
                     f"deletion balls (Levenshtein's bound, n={n}, s={s})")
    return {BitString.from_value(v, n - s) for v in _deletion_ball(x.value, n, s)}


def insert_all(x: BitString, s: int) -> Set[BitString]:
    """The set of distinct supersequences of x with s symbols inserted."""
    n = len(x)
    _check_size(n, s, s_up_to_n=False)
    _check_length(n + s)
    # Every length-n word has the same number of supersequences.
    _refuse_over_cap(_insertion_count(s, n + s), f"supersequences (n={n}, s={s})")
    return {BitString.from_value(v, n + s) for v in _insert_values((x.value,), n, s)}


def _insertion_count(s: int, n: int) -> int:
    """Number of length-n supersequences of a length-(n-s) word, unchecked."""
    return sum(math.comb(n, i) for i in range(s + 1))


def _weighted_insertion_count(s: int, r: int, n: int, k: int) -> int:
    """Number of length-n weight-k supersequences of a length-(n-s), weight-(k-r) word.

    The closed form of :func:`delcodes.counting.weighted_insertion_count`,
    kept here so that :func:`insert_all_weighted` can size its result
    before listing it.
    """
    return sum(
        math.comb(k + s - 2 * r, s - r - i) * math.comb(n - k - s + 2 * r, r - i)
        for i in range(min(r, s - r) + 1)
    )


def insert_all_weighted(x: BitString, s: int, r: int) -> Set[BitString]:
    """Supersequences of x produced by inserting r ones and s-r zeros.

    Built one insertion at a time, keeping at each step only the words
    with at most r inserted ones and at most s-r inserted zeros, so no
    supersequence of another weight is ever listed.
    """
    n, w = len(x), weight(x)
    _check_size(n, s, s_up_to_n=False)
    _check_int("r", r, 0, s)
    _check_length(n + s)
    _refuse_over_cap(_weighted_insertion_count(s, r, n + s, w + r),
                     f"supersequences (n={n}, s={s}, r={r})")
    level = {x.value}
    for m in range(n, n + s):
        # y has m + 1 - n inserted symbols, `ones` of them ones
        level = {y for u in level for y in _single_insertions(u, m)
                 if (ones := y.bit_count() - w) <= r and m + 1 - n - ones <= s - r}
    return {BitString.from_value(v, n + s) for v in level}


def lcs_length(x: BitString, y: BitString) -> int:
    """Length of a longest common subsequence, by the bit-vector recurrence of
    Crochemore, Iliopoulos, Pinzon and Reid ("A fast and practical bit-vector
    algorithm for the longest common subsequence problem", IPL 2001).

    The packed value of y is the bit vector: each symbol of x costs one
    and, add and or over all of y, and the zeros left in v count the LCS.
    """
    full = (1 << len(y)) - 1
    match = (full & ~y.value, y.value)
    v = full
    # Bit j holds symbol len - 1 - j, so reading x from bit 0 and carrying
    # upward through y computes the LCS of both words reversed: the same number.
    for i in range(len(x)):
        u = v & match[x.value >> i & 1]
        v = (v + u | v - u) & full
    return len(y) - v.bit_count()


def deletion_distance(x: BitString, y: BitString) -> int:
    """Deletion distance |x| + |y| - 2*lcs(x, y); a metric on binary words."""
    return len(x) + len(y) - 2 * lcs_length(x, y)


def common_substrings(x: BitString, y: BitString, s: int) -> Set[BitString]:
    """Common length-(n-s) subsequences of two equal-length words."""
    if len(x) != len(y):
        raise ValueError("common_substrings requires equal-length inputs")
    return delete_all(x, s) & delete_all(y, s)


def confusable_set(x: BitString, s: int) -> Set[BitString]:
    """Equal-length words sharing a length-(n-s) subsequence with x.

    One insertion pass over the deletion ball: each of its words has
    sum(C(n, i) for i <= s) supersequences, which with Levenshtein's
    bound on the ball sizes the request.
    """
    n = len(x)
    _check_size(n, s)
    _refuse_over_cap(_deletion_ball_bound(x.value, n, s) * _insertion_count(s, n),
                     f"confusable sets (n={n}, s={s})")
    out = _insert_values(_deletion_ball(x.value, n, s), n - s, s)
    out.discard(x.value)
    return {BitString.from_value(v, n) for v in out}
