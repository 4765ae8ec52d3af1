"""Deletion-distance graphs: construction, degree statistics, independent
sets, and explicit clique / chordless-cycle witnesses.

Vertices of the full graph for parameters (s, n) are all length-n binary
words; two words are adjacent when their deletion distance is at most 2s,
equivalently when they share a common length-(n-s) subsequence.  A layer
restricts the vertex set to a single Hamming weight.

Edges come from the deletion balls of the vertices: the vertices whose
balls contain one length-(n-s) word z form a clique, and every edge lies
in such a clique.  The balls are never built one vertex at a time: the
level pass of :mod:`delcodes.bitstring` (``_deletion_levels``), from the
vertices down to their length-(n-s) subsequences, gives every such word
the mask of its clique, and a pass back ORs these into the vertices,
taking one single deletion per run at each step.  The same pass gives
the HiGHS model its rows; code verification and confusable sets list one
word's ball at a time by the same single deletions, without masks
(``_deletion_ball``).  The equivalence with the pairwise-distance
definition is exercised by the test suite.

A minimum-degree peel on a bucket queue gives the greedy independent set,
a maximum-degree peel in O(V + E) the degeneracy order of the exact
search, and a coloring is checked with one vertex mask per color class.

The exact solver has two engines, chosen by edge density and size in one
place (``_route``), which also names the search order and symmetries and
whose choices ``delcodes alpha`` prints.  Dense graphs, such as every
layer for s = 2 up to n = 13, and sparse graphs of at most 128 vertices
are searched in pure Python as a maximum clique of
the complement: Tomita et al.'s MCS, with greedy clique-partition bounds
and the Re-NUMBER step, in the degeneracy order of the complement below
edge density 3/10 and by ascending degree from it on.  At its root the
search branches on one vertex per orbit of the graph's symmetries: word
reversal on every graph of :func:`build_graph`, and complement on the
full graph and the middle layer.  Larger sparse graphs go to HiGHS
through scipy, with the supersequence cliques as constraint rows; scipy
is imported only then.  The node budget counts the search nodes of
whichever engine runs; when it runs out, the incumbent is the larger of
the engine's set and the greedy set.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import (Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set,
                    Tuple)

from .bitstring import (
    MAX_LENGTH,
    BitString,
    CapacityError,
    _check_size,
    _deletion_levels,
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
# faster than HiGHS on each sparse graph with s >= 1 and n <= 16 (up to
# mirror layers, L(1,7), L(1,9) layer 4 and L(1,10) layer 3: 40-65 ms each
# against 0.2-0.9 s).  Above it, L(1,11) layer 3 (165 vertices) takes 2.4 s
# against 0.8 s, and L(1,8) passes 300k nodes against 3.2 s.
_CLIQUE_SEARCH_MIN_DENSITY = Fraction(1, 5)
_CLIQUE_SEARCH_MAX_SPARSE_VERTICES = 128
# Edge density below which the clique search numbers the vertices in the
# degeneracy order of the complement rather than by ascending degree.  Just
# above 1/5 the degeneracy order still wins: L(1,9) layer 3 (density 0.207)
# needs 444 nodes instead of 5,398.  L(2,11) layer 5 (0.39) stays ascending.
_DEGENERACY_ORDER_MAX_DENSITY = Fraction(3, 10)


class BudgetExceededError(RuntimeError):
    """Search node budget exhausted; ``best`` holds the incumbent set."""

    def __init__(self, message: str, best: Set[BitString]):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class GraphParams:
    s: int
    n: int
    layer: Optional[int] = None


class ConfusabilityGraph:
    """Explicit vertex list plus per-vertex neighbor bitmasks.

    Immutable after construction.  Vertices are sorted ascending by their
    value as binary numerals; all deterministic tie-breaks derive from
    this ordering.
    """

    def __init__(self, params: GraphParams, vertices: Tuple[BitString, ...],
                 adjacency: Tuple[int, ...]):
        self.params = params
        self.vertices = vertices
        self.adjacency = adjacency
        self._index: Dict[BitString, int] = {v: i for i, v in enumerate(vertices)}
        # Set by build_graph, whose graphs have the symmetries of
        # _automorphisms; a graph built by hand is searched without them.
        self._from_params = False

    def __len__(self) -> int:
        return len(self.vertices)

    def index_of(self, x: BitString) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise ValueError(f"{x} is not a vertex of this graph") from None

    def degree(self, x: BitString) -> int:
        return self.adjacency[self.index_of(x)].bit_count()

    def neighbors(self, x: BitString) -> Set[BitString]:
        mask = self.adjacency[self.index_of(x)]
        return {self.vertices[i] for i in _iter_bits(mask)}

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


def build_graph(s: int, n: int, layer: Optional[int] = None) -> ConfusabilityGraph:
    """Build the deletion-distance graph for (s, n), optionally one weight layer.

    Two passes over the deletion levels, each costing one OR per (word,
    single deletion) pair and level.  The up pass
    (:func:`_deletion_levels`) gives every length-(n-s) word the mask of
    its supersequence clique.  The down pass carries them back: for
    j = s-1 down to 0, a length-(n-j) word gets the OR of the masks of its
    single deletions, so at level 0 each vertex holds every vertex that
    shares a length-(n-s) subsequence with it, itself included.
    """
    _check_size(n, s)
    if layer is not None and not 0 <= layer <= n:
        raise ValueError(f"layer weight {layer} out of range 0..{n}")
    if n > MAX_LENGTH:
        raise CapacityError(f"string length {n} exceeds {MAX_LENGTH}")
    size = 1 << n if layer is None else math.comb(n, layer)
    if size > MAX_VERTICES:
        raise CapacityError(f"graph limited to {MAX_VERTICES} vertices, got {size}")
    vert_values = _word_values(n, layer)

    keys, level = _deletion_levels(vert_values, n, s)
    for m in range(n - s + 1, n + 1):
        below, level = level, {}
        for u in keys.pop():
            mask = 0
            for z in _single_deletions(u, m):
                mask |= below[z]
            level[u] = mask
        del below
    adj = tuple(level[v] & ~(1 << i) for i, v in enumerate(vert_values))

    vertices = tuple(BitString.from_value(v, n) for v in vert_values)
    g = ConfusabilityGraph(GraphParams(s, n, layer), vertices, adj)
    g._from_params = True
    return g


def _automorphisms(g: ConfusabilityGraph) -> Dict[str, Callable[[int], int]]:
    """Generators of the symmetries of a :func:`build_graph` graph, by name,
    as maps of vertex indices; none for a graph built by hand.

    Deleting symbols commutes with reversing a word and with complementing
    it, so both preserve shared subsequences.  Reversal keeps the weight
    and maps every graph onto itself; complement maps layer k onto layer
    n - k, so it is given for the full graph and the middle layer only.
    The two commute and are involutions, so with reversal-with-complement
    they make a group of order at most 4.  The maps are evaluated one
    vertex at a time, so asking for an image costs O(n).
    """
    if not g._from_params:
        return {}
    n, layer = g.params.n, g.params.layer
    vertices, index = g.vertices, g._index

    def reverse(i: int) -> int:
        word = format(vertices[i].value, "b").zfill(n)[::-1]
        return index[BitString.from_value(int(word, 2), n)]

    maps = {"reversal": reverse}
    if layer is None or 2 * layer == n:
        full = (1 << n) - 1
        maps["complement"] = lambda i: index[BitString.from_value(vertices[i].value ^ full, n)]
    return maps


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
    if not 0 <= k <= n:
        raise ValueError(f"require 0 <= k <= n, got k={k}, n={n}")
    total = 0
    for r in range(s + 1):
        if not 0 <= k - r <= n - s:
            continue
        count = weighted_insertion_count(s, r, n, k)
        total += math.comb(n - s, k - r) * (count * (count - 1) // 2)
    return Fraction(2 * total, math.comb(n, k))


def verify_independent(g: ConfusabilityGraph, vs: Iterable[BitString]) -> bool:
    """True iff no edge of g joins two members of vs."""
    idxs = [g.index_of(v) for v in vs]
    mask = 0
    for i in idxs:
        mask |= 1 << i
    return all(g.adjacency[i] & mask == 0 for i in idxs)


def verify_coloring(g: ConfusabilityGraph, coloring: Mapping[BitString, int]) -> bool:
    """True iff the coloring is total on g's vertices and proper.

    The labels may be any hashable values.  Each color class is kept as
    one vertex mask, grown in vertex order; since adjacency is symmetric,
    the coloring is proper iff no vertex is adjacent to an earlier member
    of its own class.
    """
    try:
        colors = [coloring[v] for v in g.vertices]
    except KeyError as missing:
        raise ValueError(f"coloring is missing vertex {missing.args[0]}") from None
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
    smallest index on a tie, and removes it with its live neighbors.  The
    vertices are kept in a bucket queue: bucket d is the bitmask of those
    with d live neighbors, and only the neighbors of removed vertices have
    their count redone.  The result meets the Turan guarantee
    |V| / (avg degree + 1).
    """
    adj = g.adjacency
    alive = (1 << len(adj)) - 1
    left = [mask.bit_count() for mask in adj]
    buckets = [0] * (max(left, default=0) + 1)
    for i, d in enumerate(left):
        buckets[d] |= 1 << i
    taken: Set[BitString] = set()
    d = 0
    while alive:
        while not buckets[d]:
            d += 1
        low = buckets[d] & -buckets[d]
        i = low.bit_length() - 1
        taken.add(g.vertices[i])
        removed = adj[i] & alive | low
        alive ^= removed
        touched = 0
        for j in _iter_bits(removed):
            buckets[left[j]] ^= 1 << j
            touched |= adj[j]
        for j in _iter_bits(touched & alive):
            now = (adj[j] & alive).bit_count()
            if now != left[j]:
                bit = 1 << j
                buckets[left[j]] ^= bit
                buckets[now] |= bit
                left[j] = now
                d = min(d, now)
    return taken


def exact_mis(g: ConfusabilityGraph,
              node_budget: int = DEFAULT_NODE_BUDGET) -> Set[BitString]:
    """Maximum independent set by branch and bound.

    The engine is the one :func:`_route` names.  A graph with at least one
    fifth of all vertex pairs joined, or with at most 128 vertices, is
    solved in pure Python as a maximum clique of its complement
    (:func:`_clique_search_mis`); a larger sparse one goes to HiGHS through
    scipy (:func:`_highs_mis`), which is imported only then.
    ``node_budget`` (nonnegative) bounds the search nodes of whichever
    engine runs.  HiGHS builds its constraints from ``g.params``, so ``g``
    must come from :func:`build_graph`; either answer is checked against
    ``g.adjacency``, and :class:`RuntimeError` is raised if it is not
    independent or if HiGHS fails.  If the budget runs out,
    :class:`BudgetExceededError` is raised carrying the incumbent: the
    larger of the engine's set and :func:`greedy_mis`, the engine's on a tie.
    """
    if node_budget < 0:
        raise ValueError(f"node budget must be nonnegative, got {node_budget}")
    engine = _highs_mis if _route(g)["engine"] == "highs" else _clique_search_mis
    found, exhausted = engine(g, node_budget)
    if not verify_independent(g, found):
        raise RuntimeError("solver returned a dependent set; the graph does not "
                           f"match its parameters {g.params}")
    if exhausted:
        found = max(found, greedy_mis(g), key=len)
        raise BudgetExceededError(
            f"node budget {node_budget} exhausted; incumbent has {len(found)} vertices",
            found,
        )
    return found


def _route(g: ConfusabilityGraph) -> Dict[str, str]:
    """How :func:`exact_mis` solves g, as the key=value items ``delcodes
    alpha`` prints: ``{"engine": "highs"}``, or for the clique search its
    vertex order, "degeneracy" or "ascending", and the names of the
    symmetries it prunes by, comma-separated (:func:`_automorphisms`).

    Decided by the edge density (edges over vertex pairs, 1 below two
    vertices) and the vertex count alone.
    """
    v = len(g)
    edges = sum(mask.bit_count() for mask in g.adjacency) // 2
    density = Fraction(2 * edges, v * (v - 1)) if v > 1 else Fraction(1)
    if v > _CLIQUE_SEARCH_MAX_SPARSE_VERTICES and density < _CLIQUE_SEARCH_MIN_DENSITY:
        return {"engine": "highs"}
    return {
        "engine": "clique-search",
        "order": "degeneracy" if density < _DEGENERACY_ORDER_MAX_DENSITY else "ascending",
        "symmetry": ",".join(_automorphisms(g)),
    }


def _degeneracy_order(adjacency: Sequence[int]) -> List[int]:
    """Vertex indices in a degeneracy order of the complement.

    The complement is peeled one vertex per step, the one with the fewest
    non-neighbors left (the smallest index on a tie), and the order is
    reversed so the last one removed comes first.  Fewest non-neighbors
    left is most neighbors left, so the peel runs on g itself in O(V + E):
    a bucket queue of live degrees, highest first, where each removed
    vertex moves its live neighbors one bucket down.
    """
    alive = (1 << len(adjacency)) - 1
    left = [mask.bit_count() for mask in adjacency]
    buckets = [0] * (max(left, default=0) + 1)
    for i, d in enumerate(left):
        buckets[d] |= 1 << i
    removed: List[int] = []
    d = len(buckets) - 1
    while alive:
        while not buckets[d]:
            d -= 1
        low = buckets[d] & -buckets[d]
        i = low.bit_length() - 1
        removed.append(i)
        alive ^= low
        buckets[d] ^= low
        for j in _iter_bits(adjacency[i] & alive):
            bit = 1 << j
            buckets[left[j]] ^= bit
            left[j] -= 1
            buckets[left[j]] |= bit
    return removed[::-1]


def _clique_search_mis(g: ConfusabilityGraph,
                       node_budget: int) -> Tuple[Set[BitString], bool]:
    """(maximum independent set, budget exhausted) by a bitmask clique search.

    A maximum clique of the complement of g, in the scheme of Tomita et
    al.'s MCS (2010): each node is bounded by a greedy partition of its
    candidates into cliques of g, which no independent set meets twice.
    The vertices are numbered in the order :func:`_route` names: the
    degeneracy order of the complement (:func:`_degeneracy_order`) on a
    sparse graph, ascending degree in g on a dense one.  The search starts
    from an empty incumbent.  With k = (incumbent size) - (set size), the
    first k cliques of a node can only be pruned.  MCS's Re-NUMBER step
    moves each later vertex into one of them where it can, directly or by
    moving its one non-neighbor there into a later one of the k, so fewer
    vertices are branched on: L(1,7) takes 1,808 nodes instead of 2,729,
    L(2,11) layer 5 196,321 instead of 275,163.

    At the root, whose subproblem every symmetry of g fixes
    (:func:`_automorphisms`), the branch on a vertex covers the sets through
    any of its images, so once it returns the whole orbit leaves the
    candidates and is not branched on (orbital branching, Ostrowski,
    Linderoth, Rossi and Smriglio, Math. Program. 2011).  What is left is a
    union of orbits, so every symmetry still fixes it.  The orbit of each
    vertex branched on is found from its three images at most.  This takes
    L(1,7) to 736 nodes and L(2,11) layer 5 to 104,790.  Every branch below
    the root counts as one node against ``node_budget``; a vertex skipped
    with an orbit does not.
    """
    adj = g.adjacency
    # a graph routed to HiGHS gets no order, and is sparse
    if _route(g).get("order", "degeneracy") == "degeneracy":
        order = _degeneracy_order(adj)
    else:
        order = sorted(range(len(adj)), key=lambda i: (adj[i].bit_count(), i))
    position = {i: p for p, i in enumerate(order)}
    full = (1 << len(adj)) - 1
    near, apart = [], []  # the neighbors and non-neighbors of order[p], by position
    for p, i in enumerate(order):
        mask = 0
        for j in _iter_bits(adj[i]):
            mask |= 1 << position[j]
        near.append(mask)
        apart.append(full & ~(mask | 1 << p))

    best = best_size = nodes = 0
    symmetries = _automorphisms(g).values()

    def orbit(p: int) -> int:
        """The positions of order[p]'s images under the symmetries of g."""
        found = 1 << p
        for image in symmetries:
            for q in _iter_bits(found):
                found |= 1 << position[image(order[q])]
        return found

    def clique_from(free: int) -> int:
        """The clique of g taken greedily, in position order, from free."""
        clique = 0
        while free:
            low = free & -free
            free &= near[low.bit_length() - 1]
            clique |= low
        return clique

    def expand(cand: int, chosen: int, size: int, root: bool = False) -> bool:
        """Search below one node; False once the budget is exhausted."""
        nonlocal best, best_size, nodes
        if not cand:
            if size > best_size:
                best, best_size = chosen, size
            return True
        # Greedy clique partition of the candidates: an independent set among
        # the vertices of the first c cliques has at most c members.  The
        # first k cliques are pruned whole, so only the later ones are branched on.
        k = best_size - size
        cliques, rest = [], cand
        while rest and len(cliques) < k:
            cliques.append(clique_from(rest))
            rest ^= cliques[-1]
        # Re-NUMBER: move each later vertex into one of the first k cliques.
        for p in _iter_bits(rest):
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
                    return True
                p = clique.bit_length() - 1
                nodes += 1
                if nodes > node_budget:
                    return False
                if not expand(cand & apart[p], chosen | 1 << p, size + 1):
                    return False
                # At the root, every set through an image of p maps back onto
                # one through p, which the branch has covered.
                done = orbit(p) if root else 1 << p
                cand &= ~done
                clique &= ~done
            bound -= 1
        return True

    exhausted = not expand(full, 0, 0, root=True)
    return {g.vertices[order[p]] for p in _iter_bits(best)}, exhausted


def _shared_subsequences(values: Sequence[int], n: int, s: int) -> Dict[int, int]:
    """Each length-(n-s) word in the deletion balls of two or more of the
    given distinct n-symbol words, with the mask of those words: the
    supersequence cliques, as the bottom level of :func:`_deletion_levels`."""
    _, bottom = _deletion_levels(values, n, s)
    return {z: mask for z, mask in bottom.items() if mask & (mask - 1)}


def _highs_mis(g: ConfusabilityGraph,
               node_budget: int) -> Tuple[Set[BitString], bool]:
    """(maximum independent set, budget exhausted) by the HiGHS branch and bound.

    One binary variable per vertex, zero optimality gap.  Each
    supersequence clique is one constraint: at most one vertex whose
    deletion ball holds a given length-(n-s) word.  :class:`RuntimeError`
    is raised if HiGHS stops for a reason other than its node limit.
    """
    shared = _shared_subsequences([v.value for v in g.vertices], g.params.n, g.params.s)
    cliques = [list(_iter_bits(mask)) for mask in shared.values()]
    if not cliques:
        return set(g.vertices), False
    import numpy as np
    from scipy import sparse
    from scipy.optimize import Bounds, LinearConstraint, milp

    rows = [r for r, idxs in enumerate(cliques) for _ in idxs]
    cols = [i for idxs in cliques for i in idxs]
    matrix = sparse.csc_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(len(cliques), len(g))
    )
    result = milp(
        c=-np.ones(len(g)),
        constraints=LinearConstraint(matrix, -np.inf, 1),
        integrality=np.ones(len(g)),
        bounds=Bounds(0, 1),
        options={"node_limit": node_budget, "mip_rel_gap": 0.0},
    )
    # scipy reports HiGHS's node limit (model status 16) as status 4.
    exhausted = result.status == 1 or "HiGHS Status 16:" in result.message
    if result.status != 0 and not exhausted:
        raise RuntimeError(f"exact solver failed: {result.message}")
    if result.x is None:
        return set(), exhausted
    return {v for v, x in zip(g.vertices, result.x) if x > 0.5}, exhausted


@dataclass(frozen=True)
class CliqueWitness:
    """An explicit pairwise-adjacent vertex set with its construction data."""

    kind: str  # "substring" | "layer-substring" | "segment"
    vertices: Tuple[BitString, ...]
    params: Mapping[str, object] = field(default_factory=dict)
    center: Optional[BitString] = None


def substring_clique(z: BitString, s: int,
                     layer: Optional[int] = None) -> CliqueWitness:
    """The clique of all supersequences of z (optionally restricted to a layer)."""
    n = len(z) + s
    _check_size(n, s)
    if n > MAX_LENGTH:
        raise ValueError(f"length {n} exceeds maximum {MAX_LENGTH}")
    if layer is None:
        return CliqueWitness(
            kind="substring",
            vertices=tuple(sorted(insert_all(z, s))),
            params={"z": z, "s": s},
        )
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
    form a clique for b+c deletions.  :class:`CapacityError` is raised,
    before any member is listed, above 2^22 members
    (:func:`_segment_clique_size`).
    """
    if l < 4:
        raise ValueError(f"segment length l must be at least 4, got {l}")
    if b < 0 or c < 0:
        raise ValueError("segment counts b and c must be nonnegative")
    if k < 1 or b + c > k:
        raise ValueError(f"require 1 <= k and b + c <= k, got k={k}, b={b}, c={c}")
    m = k * (l + 3) - 3
    if max(m, m + b - c) > MAX_LENGTH:
        raise CapacityError(f"string length {max(m, m + b - c)} exceeds {MAX_LENGTH}")
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
    # l and l - 2 have the same parity, so its first symbol is fixed.
    variants = [
        [(1,) * l],
        [tuple(2 if j == i else 1 for j in range(l)) for i in range(l)],
        [tuple(2 if j == i else 1 for j in range(l - 2)) for i in range(l - 2)],
    ]

    def words(kinds: Sequence[int]) -> List[int]:
        """The values of the members whose slot t takes a variant of kind
        kinds[t]: 0 the center's segment, 1 one run doubled, 2 two runs fewer."""
        out, at = [0], 0
        for t in reversed(range(k)):
            sep = (3,) if t else ()
            first = (t * (l + 1) - len(sep)) % 2
            shifted = [packed(sep + seg, first) << at for seg in variants[kinds[t]]]
            out = [x | y for x in out for y in shifted]
            at += sum(sep + variants[kinds[t]][0])
        return out

    values = []
    for pos_b in itertools.combinations(range(k), b):
        remaining = [i for i in range(k) if i not in pos_b]
        for pos_c in itertools.combinations(remaining, c):
            kinds = [0] * k
            for t in pos_b:
                kinds[t] = 1
            for t in pos_c:
                kinds[t] = 2
            values += words(kinds)
    # all members have length m + b - c, so they sort by value
    members = [BitString.from_value(v, m + b - c) for v in sorted(values)]
    center = BitString.from_value(words([0] * k)[0], m)
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
    if s < 1:
        raise ValueError(f"s must be at least 1, got {s}")
    if cycle_len < 3:
        raise ValueError(f"cycle length must be at least 3, got {cycle_len}")
    n = (cycle_len - 2) * s + 1
    if n > MAX_LENGTH:
        raise CapacityError(f"string length {n} exceeds {MAX_LENGTH}")
    xs = [
        BitString("0" * (s * i) + "1" * (s + 1) + "0" * (s * (cycle_len - 3 - i)))
        for i in range(cycle_len - 2)
    ]
    tail_one = BitString("0" * ((cycle_len - 2) * s) + "1")
    head_one = BitString("1" + "0" * ((cycle_len - 2) * s))
    return xs + [tail_one, head_one]


def imperfectness_witness(s: int, n: int) -> List[BitString]:
    """Five length-n words inducing a chordless 5-cycle for s deletions."""
    if s < 1:
        raise ValueError(f"s must be at least 1, got {s}")
    if n < 3 * s + 1:
        raise ValueError(f"require n >= 3s + 1 = {3 * s + 1}, got n={n}")
    if n > MAX_LENGTH:
        raise CapacityError(f"string length {n} exceeds {MAX_LENGTH}")
    pad = BitString("0" * (n - (3 * s + 1)))
    return [pad + v for v in induced_cycle(s, 5)]
