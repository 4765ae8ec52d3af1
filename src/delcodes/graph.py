"""Deletion-distance graphs: construction, degree statistics, independent
sets, and explicit clique / chordless-cycle witnesses.

Vertices of the full graph for parameters (s, n) are all length-n binary
words; two words are adjacent when their deletion distance is at most 2s,
equivalently when they share a common length-(n-s) subsequence.  A layer
restricts the vertex set to a single Hamming weight.

A graph holds its words as packed values of one length, and every pass
reads those: a :class:`BitString` is made only for a word a pass
returns, or for all of them when ``vertices`` is first read.

Edges come from the deletion balls of the vertices: the vertices whose
balls contain one length-(n-s) word z form a clique, and every edge lies
in such a clique.  The balls are never built one vertex at a time: one
level pass (``_deletion_masks``), from the vertices down to their
length-(n-s) subsequences, lists each level's single deletions once, one
per run, and gives every length-(n-s) word the mask of its clique; the
pass back up ORs each word's listed deletions' masks into it, one
``reduce`` per word.  A word of at most 10 symbols reads its single
deletions as one row of a per-length table (:mod:`delcodes.bitstring`'s
``_deletion_table``), built by the run loop the first time its length is
asked for, not at import.  The rows are tuples shared by every caller,
so no caller can edit them.  The cap keeps all the tables to 2,047 rows
(about 0.25 MB; a cap of 12 would be 4x that) and covers the graphs the
exact solver finishes in well under a second; longer words keep the run
loop.  On the full graph the levels are lists indexed by word value
instead, and each level is a few ORs of whole slices of the level next
to it, with no Python step per word (``_full_deletion_masks``).
Layers and hand-built vertex sets keep the per-word pass: on lists by
value each missing word costs as much as a vertex, so the slice pass was
no faster on most layers and 1.8x slower on L(2,16) layer 8 (2-core
x86-64 host, CPython 3.11).  A layer within s of either end needs no
pass: it is one supersequence clique, of 0^(n-s) when its weight is at
most s and of 1^(n-s) when n minus its weight is, so :func:`build_graph`
gives it the complete adjacency directly.  The pass returns the adjacency
and the bottom level, whose cliques of two or more are the HiGHS model's
rows, read once the same pass over a graph's own words has given its
adjacency (``_highs_rows``).  Code verification and confusable sets list
one word's ball at a time by the same single deletions, without masks
(:mod:`delcodes.bitstring`'s ``_deletion_ball``).  The equivalence with
the pairwise-distance definition is exercised by the test suite.

One peel on bit-sliced live degrees (``_peel``) gives the greedy set by
minimum degree and the degeneracy order of the exact search by maximum
degree.  A greedy step sums the rows of its removed vertices with
carry-save adders, a few whole-mask operations per pair of rows, and
subtracts the sum from the degrees with one borrow ripple.  A degeneracy
step removes one vertex, so the ripple subtracts its live row, with no sum.
A coloring is checked with one mask per color class.  A graph built by
hand is checked for words of one length, each listed once, and for the
symmetric, loop-free adjacency all three assume, its masks equal to their
transpose (``_transpose``, three whole-int swaps on 8 x 8 bit tiles, which
also give the peel its first degree planes).

The exact solver has two engines, chosen by edge density and size in one
place (``_route``), which also names the search order and symmetries, as
the items ``delcodes alpha`` prints, and hands the chosen engine its
inputs: the engines read masks and rows, never the graph.  One driver
(``_solve``) runs that plan once per solve and checks its answer.  A
complete graph, such as every layer within s of either end, needs neither
engine: its route returns its last vertex, with no search node.  Dense
graphs, such as every layer for s = 2 up to n = 13, and sparse graphs of
at most 128 vertices are searched in pure Python as a maximum clique of the
complement: Tomita et al.'s MCS, with greedy clique-partition bounds and
the Re-NUMBER step where a node has cliques it can only prune, in the
degeneracy order of the complement below edge density 3/10 and by
ascending degree from it on.  At its root the search
branches on one vertex per orbit of the graph's symmetries among word
reversal and complement that carry the adjacency onto itself: both maps
are made from the whole word list at once, and each is still checked
against the adjacency on every solve.  Larger sparse graphs go to HiGHS
through scipy, with those rows, if they hold; scipy is imported only then.
The node budget counts the search nodes of whichever engine runs; when it
runs out, the incumbent is the larger of the engine's set and the greedy
set.  The engine's vertex positions are checked against the adjacency
before any word is made.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import struct
from fractions import Fraction
from types import MappingProxyType
from typing import (Callable, Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional,
                    Sequence, Set, Tuple)

from .bitstring import (
    MAX_LAYER_N,
    BitString,
    CapacityError,
    _check_int,
    _check_layer,
    _check_length,
    _check_size,
    _deletion_ball_bound,
    _refuse_over_cap,
    _single_deletions,
    _word_values,
    insert_all,
    insert_all_weighted,
    weight,
)
from .counting import weighted_insertion_count

# Adjacency masks take memory quadratic in the vertex count: L(1, 16), with
# 2^16 vertices, peaks near 1 GB.
MAX_VERTICES = 1 << 16
DEFAULT_NODE_BUDGET = 10**8
# Edge density (edges over vertex pairs) from which exact_mis runs the clique
# search on a graph of any size.  On sparser graphs the clique partition
# bound is weak and the LP over the supersequence cliques is strong, so they
# go to HiGHS once they have more than _CLIQUE_SEARCH_MAX_SPARSE_VERTICES
# vertices.  Up to that size the clique search, in degeneracy order, is
# faster than HiGHS on each sparse graph with s >= 1 and n <= 16.  The
# slowest, up to mirror layers, are L(1,7), L(1,9) layer 4 and L(1,10)
# layer 3: about 11, 33 and 12 ms against 1.0, 0.5 and 0.9 s (whole solves,
# best of 7, on a shared 2-core x86-64 Xeon host under CPython 3.11, whose
# speed drifts about 1.5x).  Above it, L(1,11) layer 3 (165 vertices) takes
# 1.0-1.4 s against 0.74 s, and L(1,8) passes 300k nodes against 3.2 s.
_CLIQUE_SEARCH_MIN_DENSITY = Fraction(1, 5)
_CLIQUE_SEARCH_MAX_SPARSE_VERTICES = 128
# Edge density below which the clique search numbers the vertices in the
# degeneracy order of the complement rather than by ascending degree.  Just
# above 1/5 the degeneracy order still wins: L(1,9) layer 3 (density 0.207)
# needs 444 nodes instead of 5,398.  L(2,11) layer 5 (0.39) stays ascending.
_DEGENERACY_ORDER_MAX_DENSITY = Fraction(3, 10)


def _byte_reversal() -> bytes:
    """The translation table whose byte b is b with its 8 bits reversed."""
    table = [0]
    for _ in range(8):
        table = [2 * b for b in table] + [2 * b + 1 for b in table]
    return bytes(table)


_BYTE_REVERSAL = _byte_reversal()


class BudgetExceededError(RuntimeError):
    """Search node budget exhausted; ``best`` holds the incumbent set."""

    def __init__(self, message: str, best: Set[BitString]):
        super().__init__(message)
        self.best = best


class GraphParams(NamedTuple):
    s: int
    n: int
    layer: Optional[int] = None


class ConfusabilityGraph:
    """Vertex words of one length plus per-vertex neighbor bitmasks.

    Immutable after construction.  :func:`build_graph` lists vertices
    ascending by their value as binary numerals; a hand-built graph keeps
    the order it was given.  Every deterministic tie-break follows the
    graph's own vertex order.

    The words are held as packed values (``BitString.value``) of one
    length; ``vertices``, their :class:`BitString` tuple, is made on first
    read and then kept.  A word is a vertex when it has that length and
    one of those values.  A hand-built graph is checked for distinct words
    of one length and a symmetric, loop-free adjacency; :func:`build_graph`'s
    are trusted.
    """

    def __init__(self, params: GraphParams, vertices: Sequence[BitString],
                 adjacency: Sequence[int]):
        vertices = tuple(vertices)
        odd = next((x for x in vertices if not isinstance(x, BitString)), None)
        if odd is not None:
            raise TypeError(f"vertex {odd!r} is not a BitString")
        lengths = sorted({len(x) for x in vertices})
        if len(lengths) > 1:
            raise ValueError(f"vertices have lengths {lengths}, not one length")
        self._trust(params, lengths[0] if lengths else params.n,
                    [x.value for x in vertices], adjacency)
        self.vertices = vertices
        if len(self._index) != len(vertices):
            twice = next(x for i, x in enumerate(vertices) if self._index[x.value] != i)
            raise ValueError(f"vertex {twice} appears more than once")
        _check_adjacency(len(vertices), self.adjacency)

    @classmethod
    def _of_values(cls, params: GraphParams, n: int, values: Sequence[int],
                   adjacency: Sequence[int]) -> "ConfusabilityGraph":
        """The graph on the n-symbol words with these distinct values and this
        symmetric, loop-free adjacency, taken unchecked: :func:`build_graph`'s."""
        g = cls.__new__(cls)
        g._trust(params, n, values, adjacency)
        return g

    def _trust(self, params: GraphParams, n: int, values: Sequence[int],
               adjacency: Sequence[int]) -> None:
        """Set every field; nothing is checked here."""
        self.params = params
        self._length = n  # of every word; params.n, unchecked, for no words
        self._values = values
        self.adjacency = tuple(adjacency)

    @functools.cached_property
    def vertices(self) -> Tuple[BitString, ...]:
        """The words in vertex order, made on first read and then kept."""
        return tuple(map(BitString.from_value, self._values, itertools.repeat(self._length)))

    @functools.cached_property
    def _index(self) -> Dict[int, int]:
        """Position of each word, by value."""
        return dict(zip(self._values, itertools.count()))

    def _words(self, positions: Iterable[int]) -> Set[BitString]:
        """The words at these positions, made without listing the others."""
        values, n = self._values, self._length
        return {BitString.from_value(values[i], n) for i in positions}

    def __len__(self) -> int:
        return len(self._values)

    def index_of(self, x: BitString) -> int:
        if isinstance(x, BitString) and len(x) == self._length:
            i = self._index.get(x.value)
            if i is not None:
                return i
        raise ValueError(f"{x} is not a vertex of this graph")

    def degree(self, x: BitString) -> int:
        return self.adjacency[self.index_of(x)].bit_count()

    def neighbors(self, x: BitString) -> Set[BitString]:
        return self._words(_iter_bits(self.adjacency[self.index_of(x)]))

    def has_edge(self, x: BitString, y: BitString) -> bool:
        return bool(self.adjacency[self.index_of(x)] >> self.index_of(y) & 1)

    def edges(self) -> Iterator[Tuple[BitString, BitString]]:
        for i, mask in enumerate(self.adjacency):
            for j in _iter_bits(mask):
                if j > i:
                    yield self.vertices[i], self.vertices[j]


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _check_adjacency(v: int, adjacency: Sequence[int]) -> None:
    """Raise ValueError unless adjacency is v symmetric, loop-free masks of 0..v-1."""
    if len(adjacency) != v:
        raise ValueError(f"adjacency has {len(adjacency)} masks for {v} vertices")
    for i, mask in enumerate(adjacency):
        if mask >> v or mask >> i & 1:  # a negative mask shifts to -1
            raise ValueError(f"mask of vertex {i} is not a set of other vertices 0..{v - 1}")
    for i, (mask, column) in enumerate(zip(adjacency, _transpose(adjacency, v))):
        if mask != column:
            raise ValueError(f"adjacency not symmetric at vertex {i}")


def _transpose(rows: Sequence[int], v: int) -> List[int]:
    """The v columns of the bit matrix with these rows (masks of 0..v-1): the
    rows packed at ceil(v/8) bytes each into one int, 8 rows to a tile row,
    whose 8 x 8 bit tiles three delta swaps transpose in place (Warren,
    *Hacker's Delight*, 2nd ed., 7-3).  Then row c & 7 of each tile row holds
    8 bits of column c at byte c >> 3, so a column is one extended slice."""
    wb, tiles = (max(v, 1) + 7) // 8, (len(rows) + 7) // 8  # bytes per row, tile rows
    packed = map(int.to_bytes, rows, itertools.repeat(wb), itertools.repeat("little"))
    x = int.from_bytes(b"".join(packed), "little")
    for j, byte in ((4, 0xF0), (2, 0xCC), (1, 0xAA)):
        # bits b & j set of the rows r with r & j clear: (r, b) swaps with (r + j, b - j)
        tile = (bytes([byte]) * (j * wb) + bytes(j * wb)) * (4 // j)
        shift = j * (8 * wb - 1)
        t = (x ^ x >> shift) & int.from_bytes(tile * tiles, "little")
        x ^= t | t << shift
    data = x.to_bytes(8 * wb * tiles, "little")
    return [int.from_bytes(data[(c & 7) * wb + (c >> 3)::8 * wb], "little") for c in range(v)]


def _relabel(adjacency: Sequence[int], order: Sequence[int]) -> List[int]:
    """Symmetric adjacency with vertex order[p] renamed p: rows reordered, transposed, reordered."""
    columns = _transpose([adjacency[i] for i in order], len(adjacency))
    return [columns[i] for i in order]


def _deletion_masks(values: Sequence[int], n: int, s: int
                    ) -> Tuple[Tuple[int, ...], Dict[int, int]]:
    """(adjacency masks, bottom level) of the graph on these distinct n-symbol words.

    Going down, each level lists its words' distinct single deletions once,
    one per run, and maps each to the OR of the masks of the words it came
    from, each word's own bit at the top; so the bottom level maps each
    length-(n-s) word to the mask of its supersequence clique.  Going back
    up, each word ORs the masks of its listed deletions, one ``reduce`` per
    word, so each vertex gets its neighbors and itself.  Unsized: callers
    size the request first (:func:`_deletion_ball_bound`).

    The full graph, whose values are exactly 0..2^n - 1 in order, takes
    :func:`_full_deletion_masks` instead, with the same adjacency and the
    same bottom level, keys in value order.  Every other vertex set keeps
    this pass, a layer or a hand-built set (all words in another order
    too): on lists by value each missing word would cost as much as a
    vertex."""
    if len(values) == 1 << n and all(map(operator.eq, values, range(1 << n))):
        return _full_deletion_masks(n, s)
    levels = []  # (words, each word's single deletions) of levels 0..s-1
    level = {v: 1 << i for i, v in enumerate(values)}
    for m in range(n, n - s, -1):
        rows = list(map(_single_deletions, level, itertools.repeat(m)))
        levels.append((list(level), rows))
        nxt: Dict[int, int] = {}
        get = nxt.get
        for mask, row in zip(level.values(), rows):
            for z in row:
                nxt[z] = get(z, 0) | mask
        level = nxt
    below = bottom = level
    masks = list(bottom.values())
    for words, rows in reversed(levels):
        get = below.__getitem__
        masks = [functools.reduce(operator.or_, map(get, row)) for row in rows]
        below = dict(zip(words, masks))
    return tuple(mask & ~(1 << i) for i, mask in enumerate(masks)), bottom


def _full_deletion_masks(n: int, s: int) -> Tuple[Tuple[int, ...], Dict[int, int]]:
    """:func:`_deletion_masks` of all n-symbol words, on lists indexed by value.

    An m-symbol word u has one distinct single deletion per run, made by
    deleting the run's first symbol: u's first symbol (its top bit), and
    bit r wherever bits r + 1 and r differ.  Both kinds pair whole slices
    of the m-symbol level with the (m-1)-symbol one: the first by halves,
    the second by :func:`_run_head_slices`.  So going down each word ORs
    the masks of its supersequences, and going up those of its deletions,
    a few ORs of whole slices per level, with no Python step per word."""
    level = list(map(operator.lshift, itertools.repeat(1), range(1 << n)))
    for m in range(n, n - s, -1):
        half = 1 << m - 1
        below = list(map(operator.or_, level[:half], level[half:]))
        for upper, lower in _run_head_slices(m):
            below[lower] = map(operator.or_, below[lower], level[upper])
        level = below
    bottom = dict(enumerate(level))
    for m in range(n - s + 1, n + 1):
        above = level * 2
        for upper, lower in _run_head_slices(m):
            above[upper] = map(operator.or_, above[upper], level[lower])
        level = above
    own = map(operator.lshift, itertools.repeat(1), range(1 << n))  # set in each top mask
    return tuple(map(operator.xor, level, own)), bottom


def _run_head_slices(m: int) -> Iterator[Tuple[slice, slice]]:
    """Pairs (upper, lower) of slices of the lists of the m- and
    (m-1)-symbol words by value, for each bit r < m - 1, lined up so that
    the word z opposite u is u with its bit r deleted, and u is z with the
    complement of its bit r inserted at bit r.

    These u are the words whose bits r + 1 and r differ: with R = 2^r, the
    values R..3R-1 of each period of 4R, in the order of their z.  They are
    taken as 2^(m-2-r) contiguous chunks or as 2R strided slices, whichever
    are fewer, so a level of 2^m words takes O(2^(m/2)) slices."""
    for r in range(m - 1):
        step = 1 << r
        chunks = 1 << m - 2 - r
        if chunks <= 2 * step:
            for p in range(chunks):
                yield (slice((4 * p + 1) * step, (4 * p + 3) * step),
                       slice(2 * p * step, (2 * p + 2) * step))
        else:
            for i in range(2 * step):
                yield slice(step + i, None, 4 * step), slice(i, None, 2 * step)


def build_graph(s: int, n: int, layer: Optional[int] = None) -> ConfusabilityGraph:
    """The deletion-distance graph for (s, n), optionally one weight layer,
    with edges from :func:`_deletion_masks`.

    A layer within s of either end, min(layer, n - layer) <= s, is one
    supersequence clique and takes its complete adjacency with no pass:
    each of its words holds 0^(n-s) when layer <= s, and 1^(n-s) when
    n - layer <= s."""
    _check_size(n, s)
    _check_layer(n, layer)
    _check_length(n)  # before comb(n, layer), which stalls on n = 10**6
    size = 1 << n if layer is None else math.comb(n, layer)
    if size > MAX_VERTICES:
        raise CapacityError(f"graph limited to {MAX_VERTICES} vertices, got {size}")
    values = _word_values(n, layer)
    if layer is not None and min(layer, n - layer) <= s:
        adjacency: Sequence[int] = _complete_masks(size)
    else:
        adjacency = _deletion_masks(values, n, s)[0]
    return ConfusabilityGraph._of_values(GraphParams(s, n, layer), n, values, adjacency)


def _complete_masks(v: int) -> List[int]:
    """The adjacency masks of the complete graph on v vertices."""
    full = (1 << v) - 1
    return list(map(operator.xor, itertools.repeat(full, v),
                    map(operator.lshift, itertools.repeat(1), range(v))))


def _automorphisms(g: ConfusabilityGraph) -> Dict[str, List[int]]:
    """Word reversal and complement, by name, as permutations of g's vertex
    indices (i maps to perm[i]), each kept only if it maps every vertex to a
    vertex and the adjacency onto itself (:func:`_relabel`).  Both commute
    with deleting symbols, so :func:`build_graph` graphs keep reversal, and
    complement on the full graph and the middle layer: a group of order <= 4.

    Each map's images are made from the whole word list at once: reversal
    by one pack, one byte translation (``_BYTE_REVERSAL``) and one unpack,
    complement by one XOR per word in a ``map``.
    """
    values, n, index = g._values, g._length, g._index
    v = len(values)
    # every word's 8 bytes (n <= 63), low first, each reversed, read high first
    reversed_bytes = struct.pack(f"<{v}Q", *values).translate(_BYTE_REVERSAL)
    images = {
        "reversal": map(operator.rshift, struct.unpack(f">{v}Q", reversed_bytes),
                        itertools.repeat(64 - n)),
        "complement": map(operator.xor, values, itertools.repeat((1 << n) - 1)),
    }
    maps = {}
    for name, image in images.items():
        perm = list(map(index.get, image, itertools.repeat(-1)))
        if -1 not in perm and tuple(_relabel(g.adjacency, perm)) == g.adjacency:
            maps[name] = perm
    return maps


def _highs_rows(g: ConfusabilityGraph) -> Optional[List[List[int]]]:
    """HiGHS's rows: the supersequence cliques of two or more of g's words,
    as vertex indices in bottom-level order, if :func:`_deletion_masks` on
    g's words gives g's adjacency, so that they are cliques of g covering
    every edge.  Else None, as when s is not in 0..n, a word is not n
    symbols long, or Levenshtein's bound passes 2^22."""
    s, n = g.params.s, g.params.n
    values = g._values
    if not (0 <= s <= n == g._length
            and sum(_deletion_ball_bound(v, n, s) for v in values) <= 1 << MAX_LAYER_N):
        return None
    adjacency, bottom = _deletion_masks(values, n, s)
    rows = [list(_iter_bits(mask)) for mask in bottom.values() if mask & (mask - 1)]
    return rows if adjacency == g.adjacency else None


def degree_stats(g: ConfusabilityGraph) -> Tuple[int, Fraction, int]:
    """(max degree, exact average degree, edge count)."""
    degrees = [mask.bit_count() for mask in g.adjacency]
    if not degrees:
        return 0, Fraction(0), 0
    edge_count = sum(degrees) // 2
    return max(degrees), Fraction(2 * edge_count, len(degrees)), edge_count


def layer_avg_degree_bound(s: int, n: int, k: int) -> Fraction:
    """Exact rational upper bound on the average degree of one weight layer."""
    _check_size(n, s)
    _check_layer(n, k)
    total = 0
    for r in range(s + 1):
        if not 0 <= k - r <= n - s:
            continue
        count = weighted_insertion_count(s, r, n, k)
        total += math.comb(n - s, k - r) * (count * (count - 1) // 2)
    return Fraction(2 * total, math.comb(n, k))


def verify_independent(g: ConfusabilityGraph, vs: Iterable[BitString]) -> bool:
    """True iff no edge of g joins two members of vs."""
    return _independent(g.adjacency, [g.index_of(v) for v in vs])


def _independent(adjacency: Sequence[int], positions: Sequence[int]) -> bool:
    """True iff no edge of this adjacency joins two of these vertex positions."""
    mask = functools.reduce(operator.or_, map(operator.lshift, itertools.repeat(1), positions), 0)
    return not any(map(operator.and_, map(adjacency.__getitem__, positions),
                       itertools.repeat(mask)))


def verify_coloring(g: ConfusabilityGraph, coloring: Mapping[BitString, int]) -> bool:
    """True iff the coloring is total on g's vertices and proper.

    The labels may be any hashable values, and a key that is not a vertex
    is ignored.  The mapping's items are read, so g's words need not be
    listed.  Each color class is kept as one vertex mask, grown in vertex
    order; since adjacency is symmetric, the coloring is proper iff no
    vertex is adjacent to an earlier member of its own class.
    """
    n, index, unset = g._length, g._index, object()
    colors: List[object] = [unset] * len(g)
    for x, c in coloring.items():
        if isinstance(x, BitString) and len(x) == n and (i := index.get(x.value)) is not None:
            colors[i] = c
    missing = next((i for i, c in enumerate(colors) if c is unset), None)
    if missing is not None:
        raise ValueError(f"coloring is missing vertex {BitString.from_value(g._values[missing], n)}")
    classes: Dict[object, int] = {}
    for i, (mask, c) in enumerate(zip(g.adjacency, colors)):
        members = classes.get(c, 0)
        if mask & members:
            return False
        classes[c] = members | 1 << i
    return True


def greedy_mis(g: ConfusabilityGraph) -> Set[BitString]:
    """Maximal independent set via the minimum-degree greedy heuristic.

    Each step takes the live vertex with the fewest live neighbors, the
    smallest index on a tie, and removes it with its live neighbors
    (:func:`_peel`).  The result meets the Turan guarantee
    |V| / (avg degree + 1).
    """
    return g._words(_peel(g.adjacency, fewest=True))


def _check_budget(node_budget: int) -> None:
    """Raise TypeError unless node_budget is an integer (a bool is not), and
    ValueError if it is negative."""
    _check_int("node budget", node_budget, 0)


def exact_mis(g: ConfusabilityGraph,
              node_budget: int = DEFAULT_NODE_BUDGET) -> Set[BitString]:
    """Maximum independent set by branch and bound.

    The engine is the one :func:`_route` names: the clique search of the
    complement (:func:`_clique_search_mis`), or HiGHS (:func:`_highs_mis`)
    for a large sparse graph whose rows hold.  A complete graph takes
    neither: its last vertex, if any, is returned with no search node.
    ``node_budget``, a nonnegative integer, bounds the search nodes of
    either engine.  One :func:`_solve` routes g, runs the engine and checks
    the answer against ``g.adjacency``: :class:`RuntimeError` is raised if
    it is not independent or if HiGHS fails.  If the budget runs out, :class:`BudgetExceededError` is raised
    carrying the incumbent: the larger of the engine's set and
    :func:`greedy_mis`, the engine's on a tie.
    """
    _, found, exhausted = _solve(g, node_budget)
    if exhausted:
        raise BudgetExceededError(
            f"node budget {node_budget} exhausted; incumbent has {len(found)} vertices",
            found,
        )
    return found


def _solve(g: ConfusabilityGraph,
           node_budget: int) -> Tuple[Dict[str, str], Set[BitString], bool]:
    """(route items, checked set, budget exhausted): g solved once by the
    engine its route (:func:`_route`) hands its inputs.

    The budget is checked before the graph is routed.  The engine's vertex
    positions are checked against ``g.adjacency`` before any word is made,
    and :class:`RuntimeError` is raised if they are not independent; then
    they become words once, with no lookup by word.  When the budget runs
    out, the set is the larger of the engine's and :func:`greedy_mis`, the
    engine's on a tie.
    """
    _check_budget(node_budget)  # before scipy, whose option check rejects a non-integer
    items, engine = _route(g)
    positions, exhausted = engine(node_budget)
    if not _independent(g.adjacency, positions):
        raise RuntimeError("exact solver returned a dependent set")
    found = g._words(positions)
    if exhausted:
        found = max(found, greedy_mis(g), key=len)
    return items, found, exhausted


def _route(g: ConfusabilityGraph
           ) -> Tuple[Dict[str, str], Callable[[int], Tuple[Sequence[int], bool]]]:
    """How :func:`_solve` solves g: the key=value items ``delcodes alpha``
    prints, and the engine they name, given its inputs, as a function of
    the node budget returning (vertex positions, budget exhausted).

    The items are ``{"engine": "complete"}``, ``{"engine": "highs"}``, or
    for the clique search its vertex order, "degeneracy" or "ascending", and
    the names of the symmetries it prunes by, comma-separated
    (:func:`_automorphisms`).  A complete graph's engine returns its last
    vertex, if any.  HiGHS is given the vertex count and the rows
    :func:`_highs_rows` checked; the clique search the adjacency, the
    vertex order its items name and the symmetries' permutations.

    The edge density is edges over vertex pairs, 1 below two vertices.  At
    density 1 the graph is complete, and neither an order nor its
    symmetries are computed.  HiGHS takes a graph of more than 128 vertices
    and density under 1/5 whose rows hold.  Every check reads g's words and
    adjacency alone, and runs once per call.
    """
    adj, v = g.adjacency, len(g)
    edges = sum(mask.bit_count() for mask in adj) // 2
    density = Fraction(2 * edges, v * (v - 1)) if v > 1 else Fraction(1)
    if density == 1:
        return {"engine": "complete"}, lambda node_budget: (range(v)[-1:], False)
    if (v > _CLIQUE_SEARCH_MAX_SPARSE_VERTICES and density < _CLIQUE_SEARCH_MIN_DENSITY
            and (rows := _highs_rows(g)) is not None):
        return {"engine": "highs"}, functools.partial(_highs_mis, v, rows)
    if density < _DEGENERACY_ORDER_MAX_DENSITY:
        name, order = "degeneracy", _degeneracy_order(adj)
    else:
        name, order = "ascending", sorted(range(v), key=lambda i: (adj[i].bit_count(), i))
    symmetries = _automorphisms(g)
    return ({"engine": "clique-search", "order": name, "symmetry": ",".join(symmetries)},
            functools.partial(_clique_search_mis, adj, order, list(symmetries.values())))


def _degeneracy_order(adjacency: Sequence[int]) -> List[int]:
    """Vertex indices in a degeneracy order of the complement.

    The complement is peeled one vertex per step, the one with the fewest
    non-neighbors left (the smallest index on a tie), and the order is
    reversed so the last one removed comes first.  Fewest non-neighbors
    left is most neighbors left, so the peel runs on g itself (:func:`_peel`).
    """
    return _peel(adjacency, fewest=False)[::-1]


def _peel(adjacency: Sequence[int], fewest: bool) -> List[int]:
    """The vertices a peel takes, in order.

    Each step takes the live vertex with the most live neighbors, or with
    ``fewest`` the fewest, the smallest index on a tie; with ``fewest`` its
    live neighbors leave with it.  Live degrees are bit-sliced: ``planes[t]``
    masks the vertices whose live degree has bit t set, at first a column of
    the degrees (:func:`_transpose`).  The vertex is found with one AND per
    plane, top down.  Without ``fewest`` it leaves alone: each live
    neighbor's degree drops by one, so its row, masked to the live vertices,
    is the borrow into plane 0 of one ripple, cut off once the borrow dies.
    With ``fewest`` the rows of the leavers are summed into a bit-sliced count
    one plane at a time: a lone row passes through, the others fold in pairs
    into the plane's running total, one 3:2 full adder per pair, and the
    adders' carries are the next plane's rows.  So a step costs a few mask
    operations per leaver and per plane, not one per vertex whose degree
    changes.  Each finished count plane is masked to the live vertices once,
    and the same ripple subtracts the count from the planes.  The step that
    leaves no vertex alive makes no sum.  Degrees count rows and the count
    columns, so adjacency must be symmetric.
    """
    degrees = [mask.bit_count() for mask in adjacency]
    planes = _transpose(degrees, max(degrees, default=0).bit_length())
    alive = (1 << len(adjacency)) - 1
    taken: List[int] = []
    while alive:
        pick = alive
        for plane in reversed(planes):
            narrowed = pick & ~plane if fewest else pick & plane
            if narrowed:
                pick = narrowed
        low = pick & -pick
        p = low.bit_length() - 1
        taken.append(p)
        if fewest:
            leavers = adjacency[p] & alive | low
            alive ^= leavers
            if not alive:
                break
            # the addends of count plane t; a count is at most a degree, so the planes hold it
            rows, borrow, t = [adjacency[j] for j in _iter_bits(leavers)], 0, 0
            while rows:
                it = iter(rows)
                total = next(it) if len(rows) & 1 else 0
                rows = []
                for a, b in zip(it, it):
                    x = a ^ b
                    carry = a & b | total & x
                    total ^= x
                    if carry:
                        rows.append(carry)
                c = total & alive
                if c | borrow:
                    plane = planes[t]
                    planes[t] = plane ^ c ^ borrow
                    borrow = ~plane & (c | borrow) | c & borrow
                t += 1
        else:
            alive ^= low
            # one row: each live neighbor's degree drops by one, a borrow into plane 0
            borrow, t = adjacency[p] & alive, 0
        while borrow:
            plane = planes[t]
            planes[t] = plane ^ borrow
            borrow &= ~plane
            t += 1
    return taken


def _clique_search_mis(adjacency: Sequence[int], order: Sequence[int],
                       symmetries: Iterable[Sequence[int]],
                       node_budget: int) -> Tuple[List[int], bool]:
    """(vertex positions of a maximum independent set, budget exhausted) by a
    bitmask clique search of g, the graph with this symmetric adjacency.

    A maximum clique of the complement of g, in the scheme of Tomita et
    al.'s MCS (2010): each node is bounded by a greedy partition of its
    candidates into cliques of g, which no independent set meets twice.
    The vertices are numbered in the given order, which :func:`_route`
    picks: the degeneracy order of the complement (:func:`_degeneracy_order`)
    on a sparse graph, ascending degree in g on a dense one.  The search
    starts from an empty incumbent.  With k = (incumbent size) - (set
    size), the first k cliques of a node can only be pruned.  MCS's
    Re-NUMBER step moves each later vertex into one of them where it can,
    directly or by moving its one non-neighbor there into a later one of
    the k, so fewer vertices are branched on.  Where k <= 0, at the root,
    down the first descent and wherever the set has reached the
    incumbent's size, there is no such clique, and the step is skipped.

    ``symmetries`` are permutations of the vertex positions (i maps to
    perm[i]) that carry the adjacency onto itself, commuting involutions
    (:func:`_automorphisms`).  At the root, the node of set size 0, whose
    subproblem every symmetry fixes, the branch on a vertex covers the sets
    through any of its images, so once it returns the whole orbit leaves
    the candidates and is not branched on (orbital branching, Ostrowski,
    Linderoth, Rossi and Smriglio, Math. Program. 2011).  What is left is a
    union of orbits, so every symmetry still fixes it.  The orbit of every
    vertex is listed once, before the search.  This takes L(1,7) to 736
    nodes and L(2,11) layer 5 to 104,790.

    Each node is a generator that yields its children in branching order.
    One loop keeps the path from the root on an explicit stack, so the
    depth is bounded by memory, not by Python's recursion limit.  The loop
    counts each child as one node against ``node_budget`` and stops once
    the count passes it.  The root is no node, nor is a vertex skipped with
    an orbit.
    """
    full = (1 << len(adjacency)) - 1
    near = _relabel(adjacency, order)  # the neighbors of order[p], by position
    apart = [full & ~(mask | 1 << p) for p, mask in enumerate(near)]
    position = sorted(range(len(order)), key=order.__getitem__)  # order's inverse
    # The orbit of each position under the symmetries: they are commuting
    # involutions, so one pass per symmetry closes every orbit.
    orbits = [1 << p for p in range(len(order))]
    for perm in symmetries:
        orbits = [found | orbits[position[perm[i]]] for found, i in zip(orbits, order)]
    best = best_size = 0

    def clique_from(free: int) -> int:
        """The clique of g taken greedily, in position order, from free."""
        clique = 0
        while free:
            low = free & -free
            free &= near[low.bit_length() - 1]
            clique |= low
        return clique

    def expand(cand: int, chosen: int, size: int) -> Iterator[Tuple[int, int, int]]:
        """The children of one node, in branching order, as (cand, chosen, size)."""
        nonlocal best, best_size
        if not cand:
            if size > best_size:
                best, best_size = chosen, size
            return
        # Greedy clique partition of the candidates: an independent set among
        # the vertices of the first c cliques has at most c members.  The
        # first k cliques are pruned whole, so only the later ones are branched on.
        k = best_size - size
        cliques, rest = [], cand
        while rest and len(cliques) < k:
            cliques.append(clique_from(rest))
            rest ^= cliques[-1]
        # Re-NUMBER: move each later vertex into one of the first k cliques,
        # if there are any
        for p in _iter_bits(rest if cliques else 0):
            for c1, clique in enumerate(cliques):
                clash = clique & apart[p]  # p's non-neighbors in clique c1
                if clash & (clash - 1):
                    continue
                if clash:  # the one non-neighbor must fit a later clique
                    q = apart[clash.bit_length() - 1]
                    for c2 in range(c1 + 1, len(cliques)):
                        if not cliques[c2] & q:
                            cliques[c2] |= clash
                            break
                    else:
                        continue
                cliques[c1] = clique ^ clash | 1 << p
                rest ^= 1 << p
                break
        later = []
        while rest:
            later.append(clique_from(rest))
            rest ^= later[-1]
        bound = len(cliques) + len(later)
        for clique in reversed(later):
            clique &= cand  # at the root, the orbits already branched on are gone
            while clique:
                if size + bound <= best_size:
                    return
                p = clique.bit_length() - 1
                yield cand & apart[p], chosen | 1 << p, size + 1
                # At the root, every set through an image of p maps back onto
                # one through p, which the branch has covered.
                done = orbits[p] if size == 0 else 1 << p
                cand &= ~done
                clique &= ~done
            bound -= 1

    # The path from the root to the current node, one generator per node.
    stack, nodes = [expand(full, 0, 0)], 0
    while stack:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
            continue
        nodes += 1
        if nodes > node_budget:
            break
        stack.append(expand(*child))
    # a frame is left on the stack only if the budget ran out
    return [order[p] for p in _iter_bits(best)], bool(stack)


def _highs_mis(v: int, cliques: Sequence[Sequence[int]],
               node_budget: int) -> Tuple[Sequence[int], bool]:
    """(vertex positions of a maximum independent set, budget exhausted) by
    the HiGHS branch and bound, on v vertices and these cliques.

    One binary variable per vertex, zero optimality gap.  Each clique is one
    constraint, at most one of its vertices; :func:`_route` gives the
    supersequence cliques, each the vertices whose deletion balls hold one
    length-(n-s) word (:func:`_highs_rows`), once it has checked that they
    cover every edge.  :class:`RuntimeError` is raised if HiGHS stops for a
    reason other than its node limit.
    """
    if not cliques:
        return range(v), False
    from scipy import sparse
    from scipy.optimize import Bounds, LinearConstraint, milp

    rows = [r for r, idxs in enumerate(cliques) for _ in idxs]
    cols = [i for idxs in cliques for i in idxs]
    matrix = sparse.csc_matrix(([1] * len(rows), (rows, cols)), shape=(len(cliques), v))
    result = milp(
        c=[-1] * v,
        constraints=LinearConstraint(matrix, -math.inf, 1),
        integrality=[1] * v,
        bounds=Bounds(0, 1),
        # HiGHS holds its node limit in a 32-bit int; a smaller limit is
        # still within the budget
        options={"node_limit": min(node_budget, 2**31 - 1), "mip_rel_gap": 0.0},
    )
    # scipy reports HiGHS's node limit (model status 16) as status 4.
    exhausted = result.status == 1 or "HiGHS Status 16:" in result.message
    if result.status != 0 and not exhausted:
        raise RuntimeError(f"exact solver failed: {result.message}")
    if result.x is None:
        return [], exhausted
    return [i for i, x in enumerate(result.x) if x > 0.5], exhausted


class CliqueWitness(NamedTuple):
    """An explicit pairwise-adjacent vertex set with its construction data."""

    kind: str  # "substring" | "layer-substring" | "segment"
    vertices: Tuple[BitString, ...]
    params: Mapping[str, object] = MappingProxyType({})  # shared, so read-only
    center: Optional[BitString] = None


def substring_clique(z: BitString, s: int,
                     layer: Optional[int] = None) -> CliqueWitness:
    """The clique of all supersequences of z (optionally restricted to a layer)."""
    _check_size(len(z), s, s_up_to_n=False)  # first: a negative s leaves r unreachable
    if layer is None:
        return CliqueWitness(
            kind="substring",
            vertices=tuple(sorted(insert_all(z, s))),
            params={"z": z, "s": s},
        )
    _check_int("layer", layer)
    r = layer - weight(z)
    if not 0 <= r <= s:
        raise ValueError(
            f"layer weight {layer} unreachable from a weight-{weight(z)} base with {s} insertions"
        )
    return CliqueWitness(
        kind="layer-substring",
        vertices=tuple(sorted(insert_all_weighted(z, s, r))),
        params={"z": z, "s": s, "layer": layer},
    )


def _segment_clique_size(l: int, k: int, b: int, c: int) -> int:
    """Members of segment_clique(l, k, b, c): C(k, b) C(k-b, c) l^b (l-2)^c."""
    return math.comb(k, b) * math.comb(k - b, c) * l**b * (l - 2) ** c


def segment_clique(l: int, k: int, b: int, c: int) -> CliqueWitness:
    """Clique built from run-length segments around an alternating center.

    The center word has k segments of l unit runs each, separated by runs
    of length 3.  Members replace b segments by the length-(l+1) variants
    (one doubled run) and c segments by the length-(l-1) variants, so each
    member is within deletion distance b+c of the center and the members
    form a clique for b+c deletions.  They are listed in one pass over the
    k slots, left to right, and returned sorted.  :class:`CapacityError` is
    raised, before any member is listed, above 2^22 members
    (:func:`_segment_clique_size`).
    """
    for name, value, low in (("l", l, 4), ("k", k, 1), ("b", b, 0), ("c", c, 0)):
        _check_int(name, value, low)
    if b + c > k:
        raise ValueError(f"require b + c <= k, got k={k}, b={b}, c={c}")
    m = k * (l + 3) - 3
    _check_length(max(m, m + b - c), f"l={l}, k={k}, b={b}, c={c}")
    _refuse_over_cap(_segment_clique_size(l, k, b, c), "segment cliques")

    def packed(runs: Iterable[int], symbol: int) -> int:
        """The value of the word with these run lengths, the first run of `symbol`."""
        value = 0
        for rl in runs:
            value = value << rl | -symbol & ((1 << rl) - 1)
            symbol ^= 1
        return value

    # Slot t is segment t, preceded by its separator when t > 0.  It starts
    # on run t(l+1) - 1 (run 0 for t = 0) whatever the variants before it, as
    # l and l - 2 have the same parity, so its first symbol is fixed.  A slot
    # keeps the center's l unit runs, or doubles one of them (a doubled
    # segment), or keeps l - 2 and doubles one of those (a shortened one);
    # a kind that (b, c) has no room for is left out.
    kinds = [(0, 0, [(1,) * l])] + [
        (di, dj, [(1,) * i + (2,) + (1,) * (r - i - 1) for i in range(r)])
        for di, dj, r in ((1, 0, l), (0, 1, l - 2)) if di <= b and dj <= c
    ]
    # groups[i, j]: the values of the first t slots, i of them doubled and j
    # shortened, kept only while the slots left can still reach (b, c)
    groups: Dict[Tuple[int, int], List[int]] = {(0, 0): [0]}
    for t in range(k):
        sep = (3,) if t else ()
        first = (t * (l + 1) - len(sep)) % 2
        grown: Dict[Tuple[int, int], List[int]] = {}
        for di, dj, segs in kinds:
            width = sum(sep + segs[0])
            ends = [packed(sep + seg, first) for seg in segs]
            for (i, j), prefixes in groups.items():
                if i + di <= b and j + dj <= c and b + c - i - j - di - dj < k - t:
                    grown.setdefault((i + di, j + dj), []).extend(
                        [p << width | e for p in prefixes for e in ends])
        groups = grown
    # all members have length m + b - c, so they sort by value
    members = [BitString.from_value(v, m + b - c) for v in sorted(groups[b, c])]
    center = BitString.from_value(packed((((3,) + (1,) * l) * k)[1:], 0), m)
    return CliqueWitness(
        kind="segment",
        vertices=tuple(members),
        params={"l": l, "k": k, "b": b, "c": c},
        center=center,
    )


def verify_clique(g: ConfusabilityGraph, vs: Iterable[BitString]) -> bool:
    """True iff vs is a set of pairwise-adjacent vertices of g."""
    idxs = [g.index_of(v) for v in vs]
    if len(set(idxs)) != len(idxs):
        return False
    mask = 0
    for i in idxs:
        mask |= 1 << i
    return all(g.adjacency[i] & mask == mask & ~(1 << i) for i in idxs)


def induced_cycle(s: int, cycle_len: int) -> List[BitString]:
    """A chordless cycle of the given length for s deletions.

    Vertices have length (cycle_len - 2) * s + 1; consecutive pairs are
    adjacent and no other pair is.
    """
    _check_int("s", s, 1)
    _check_int("cycle_len", cycle_len, 3)
    n = (cycle_len - 2) * s + 1
    _check_length(n, f"s={s}, cycle_len={cycle_len}")
    xs = [
        BitString("0" * (s * i) + "1" * (s + 1) + "0" * (s * (cycle_len - 3 - i)))
        for i in range(cycle_len - 2)
    ]
    tail_one = BitString("0" * ((cycle_len - 2) * s) + "1")
    head_one = BitString("1" + "0" * ((cycle_len - 2) * s))
    return xs + [tail_one, head_one]


def imperfectness_witness(s: int, n: int) -> List[BitString]:
    """Five length-n words, n >= 3s + 1, inducing a chordless 5-cycle for s deletions.

    n is checked before the cycle is made, so a cap error names n, not the
    cycle's own 3s + 1 symbols."""
    _check_int("s", s, 1)
    _check_int("n", n, 3 * s + 1)
    _check_length(n, f"n={n}")
    cycle = induced_cycle(s, 5)  # fits: 3s + 1 <= n
    return [BitString("0" * (n - 3 * s - 1)) + v for v in cycle]
