"""Tests for graph construction, degree bounds, independent sets, and witnesses."""

import hashlib
import itertools
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
import scipy.optimize
from hypothesis import example, given, strategies as st

from delcodes import (
    BitString,
    BudgetExceededError,
    CapacityError,
    ConfusabilityGraph,
    GraphParams,
    build_graph,
    confusable_set,
    degree_stats,
    deletion_distance,
    exact_mis,
    greedy_mis,
    imperfectness_witness,
    induced_cycle,
    insertion_count,
    layer_avg_degree_bound,
    segment_clique,
    substring_clique,
    verify_clique,
    verify_coloring,
    verify_independent,
    vt_weight,
    weight,
)
from delcodes import graph as graph_module
from delcodes.bitstring import MAX_LENGTH
from delcodes.graph import (
    DEFAULT_NODE_BUDGET,
    _automorphisms,
    _clique_search_mis,
    _degeneracy_order,
    _deletion_masks,
    _highs_mis,
    _highs_rows,
    _iter_bits,
    _relabel,
    _route,
    _segment_clique_size,
    _transpose,
)

from conftest import (
    _graph as G,
    grouped_adjacency,
    grouped_cliques,
    reference_degeneracy_order,
    reference_greedy,
    string_segment_clique,
    string_words,
)

B = BitString


def clique_search_inputs(g):
    """The clique search's inputs as g's route hands them; a graph routed to
    another engine gets the degeneracy order and its symmetries."""
    items, engine = _route(g)
    if items["engine"] == "clique-search":
        return engine.args
    return g.adjacency, _degeneracy_order(g.adjacency), list(_automorphisms(g).values())


def words_at(g, positions):
    return {g.vertices[i] for i in positions}


def brute_force_mis_size(g):
    # exhaustive bitmask recursion; fine up to a few dozen vertices
    adj = g.adjacency

    def rec(alive):
        if not alive:
            return 0
        low = alive & -alive
        i = low.bit_length() - 1
        without = rec(alive ^ low)
        with_i = 1 + rec(alive & ~(adj[i] | low))
        return max(without, with_i)

    return rec((1 << len(adj)) - 1)


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


# Graph-scan-sized graphs: (s, n, layer), (max degree, edges, greedy size) and
# sha256 prefixes of the adjacency masks and of the greedy set.
SCAN_GRAPHS = [
    ((2, 12, None), (1143, 1460525, 32), "7e37d446dc373d85", "c905c516f764c1fc"),
    ((3, 11, None), (1721, 1318893, 8), "c8ee856137f87c0d", "12f944766570be0d"),
    ((1, 14, 7), (68, 80505, 285), "839090d9be8c93eb", "e15e6d1e7692eb51"),
    ((2, 13, 6), (550, 316634, 23), "39b1e84fc6b47733", "286a05c4c815ac90"),
    ((1, 10, None), (70, 24063, 74), "d0d85dfbfebb39e7", "6854466e0f48ab31"),
    ((1, 11, None), (85, 58367, 131), "16c2c5b74378e9a0", "76c1ef5ff6ae5d6c"),
    ((2, 11, None), (758, 504451, 21), "2c6184049dc16009", "d1b8827b067eb0c1"),
    ((1, 13, 6), (58, 34422, 156), "989dd28b2da6bae9", "edf629ed937a47eb"),
    # a layer listed from its bit positions, far below the 2^22 words
    ((1, 22, 2), (42, 4601, 16), "04236161ce89c892", "1d1745322500b8cf"),
]


def hand_built(adjacency):
    """A hand-built graph on the first len(adjacency) words of length 6, or
    of the length that holds them past 64 vertices."""
    length = max(6, (len(adjacency) - 1).bit_length())
    vertices = tuple(B.from_value(i, length) for i in range(len(adjacency)))
    return ConfusabilityGraph(GraphParams(0, 6), vertices, tuple(adjacency))


@st.composite
def symmetric_adjacency(draw):
    """Symmetric, loop-free masks of 0-40 vertices: edgeless, complete, or
    each pair joined with one of a few probabilities."""
    v = draw(st.integers(0, 40))
    kind = draw(st.sampled_from(["random", "edgeless", "complete"]))
    density = draw(st.sampled_from([0.1, 0.3, 0.5, 0.8, 0.95]))
    rng = draw(st.randoms(use_true_random=False))
    adjacency = [0] * v
    for i, j in itertools.combinations(range(v), 2):
        if kind == "complete" or kind == "random" and rng.random() < density:
            adjacency[i] |= 1 << j
            adjacency[j] |= 1 << i
    return adjacency


def rescan_peel(adjacency, fewest):
    """Reference peel: each step rescans the vertices left and takes the one
    with the fewest (or most) neighbors left, the lowest index on a tie;
    with fewest its neighbors leave with it.  Returns the vertices taken."""
    left, taken = set(range(len(adjacency))), []
    while left:
        live = {u: sum(1 for w in left if adjacency[u] >> w & 1) for u in left}
        i = min(left, key=lambda u: (live[u] if fewest else -live[u], u))
        taken.append(i)
        left -= {i} | ({w for w in left if adjacency[i] >> w & 1} if fewest else set())
    return taken


def reference_automorphisms(g):
    """Reversal and complement made on str words: each kept, as positions,
    if it maps every word to a word and every edge to an edge."""
    words = [str(x) for x in g.vertices]
    position = {w: i for i, w in enumerate(words)}
    maps = {}
    for name, op in (("reversal", lambda w: w[::-1]),
                     ("complement", lambda w: w.translate(str.maketrans("01", "10")))):
        if all(op(w) in position for w in words):
            perm = [position[op(w)] for w in words]
            if all(g.adjacency[perm[i]] == sum(1 << perm[j] for j in _iter_bits(mask))
                   for i, mask in enumerate(g.adjacency)):
                maps[name] = perm
    return maps


class TestBuildGraph:
    def test_full_graph_shape(self):
        g = G(1, 4)
        assert len(g) == 16
        assert g.has_edge(B("0101"), B("0110"))
        assert not g.has_edge(B("0000"), B("1111"))

    def test_complete_when_s_equals_n(self):
        g = G(3, 3)
        _, _, edges = degree_stats(g)
        assert edges == 8 * 7 // 2
        # all 64 words share the empty word
        assert degree_stats(G(6, 6))[2] == 64 * 63 // 2

    def test_layer_shape(self):
        g = G(1, 4, 2)
        assert len(g) == 6
        assert all(weight(v) == 2 for v in g.vertices)
        assert g.neighbors(B("0101")) == {B("0110"), B("0011"), B("1001"), B("1010")}
        assert not g.has_edge(B("0101"), B("1100"))

    def test_adjacency_symmetric_irreflexive(self):
        for g in (G(1, 5), G(2, 6, 3)):
            for i, mask in enumerate(g.adjacency):
                assert not (mask >> i) & 1
                for j in range(len(g)):
                    assert ((mask >> j) & 1) == ((g.adjacency[j] >> i) & 1)

    def test_guardrails(self):
        with pytest.raises(CapacityError):
            build_graph(1, 17)
        with pytest.raises(CapacityError):
            build_graph(1, 23, 11)
        with pytest.raises(ValueError):
            build_graph(3, 2)
        with pytest.raises(ValueError):
            build_graph(1, 4, 5)

    @pytest.mark.parametrize("s, n, layer, message", [
        (1, 19, 9, "65536 vertices"),  # C(19, 9) = 92,378
        (2, 20, 10, "65536 vertices"),  # C(20, 10) = 184,756
        (1, 10**6, 5 * 10**5, "exceeds 63"),  # too long to count the vertices
    ])
    def test_vertex_cap_refuses_before_enumerating(self, s, n, layer, message):
        start = time.perf_counter()
        with pytest.raises(CapacityError, match=message):
            build_graph(s, n, layer)
        assert time.perf_counter() - start < 1

    def test_hand_built_adjacency_checked(self):
        # asymmetric: the greedy set would take all three words, which
        # verify_independent rejects
        with pytest.raises(ValueError, match="not symmetric"):
            hand_built([0b010, 0, 0])
        with pytest.raises(ValueError, match="0..1"):  # a vertex past the last
            hand_built([0b1000, 0])
        with pytest.raises(ValueError, match="0..1"):  # a self-loop
            hand_built([0b11, 0b01])
        with pytest.raises(ValueError, match="0..1"):
            hand_built([-2, 0b01])
        with pytest.raises(ValueError, match="3 masks for 2 vertices"):
            ConfusabilityGraph(GraphParams(0, 1), (B("0"), B("1")), (0, 0, 0))
        # a repeated word: the greedy and exact sets would hold one copy
        with pytest.raises(ValueError, match="vertex 0 appears more than once"):
            ConfusabilityGraph(GraphParams(0, 1), (B("0"), B("0")), (0, 0))
        # words of two lengths: a vertex is looked up by its value at one length
        with pytest.raises(ValueError, match=r"lengths \[1, 2\]"):
            ConfusabilityGraph(GraphParams(0, 1), (B("0"), B("01")), (0, 0))
        with pytest.raises(TypeError, match="'01' is not a BitString"):
            ConfusabilityGraph(GraphParams(0, 2), ("01", "10"), (0, 0))
        assert greedy_mis(hand_built([0b110, 0b001, 0b001])) == {B("000001"), B("000010")}

    @pytest.mark.parametrize("v", [0, 1, 2, 7, 8, 9, 11, 16, 17, 65, 130, 257])
    def test_transpose_and_relabel_match_bitwise_references(self, v):
        rng = random.Random(v)
        counts = {0, 1, v // 2, v, v + 3}  # square and rectangular
        if v in (0, 1, 11, 16):  # the peel's degree planes: many short rows
            counts |= {7, 9, 462, 3432}
        for count in sorted(counts):
            rows = [rng.getrandbits(v) if v else 0 for _ in range(count)]
            expected = [sum((rows[i] >> j & 1) << i for i in range(count)) for j in range(v)]
            assert _transpose(rows, v) == expected, (v, count)
        # a random symmetric adjacency, relabelled by a random order
        adjacency = [0] * v
        for i, j in itertools.combinations(range(v), 2):
            if rng.random() < 0.4:
                adjacency[i] |= 1 << j
                adjacency[j] |= 1 << i
        order = rng.sample(range(v), v)
        expected = [sum((adjacency[order[p]] >> order[q] & 1) << q for q in range(v))
                    for p in range(v)]
        assert _relabel(adjacency, order) == expected

    def test_transpose_memory_stays_near_the_packed_matrix(self):
        # 8 x 8 tiles need no power-of-two square: 4097 rows cost about what 4096 do
        v = 4097
        rng = random.Random(v)
        rows = [rng.getrandbits(v) for _ in range(v)]
        tracemalloc.start()
        try:
            columns = _transpose(rows, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * v * ((v + 7) // 8), peak
        for j in (0, 7, 8, 4095, 4096):
            assert columns[j] == sum((row >> j & 1) << i for i, row in enumerate(rows))

    def test_index_of_unknown_vertex(self):
        with pytest.raises(ValueError):
            G(1, 4).index_of(B("01"))
        # the value of vertex 0001 one symbol short, and its text
        for x in (B("001"), "0001"):
            with pytest.raises(ValueError, match="is not a vertex"):
                G(1, 4).index_of(x)

    def test_words_made_only_for_returned_sets(self, monkeypatch):
        # the graph holds packed words: building it and its degree statistics
        # make no BitString, and the greedy set makes one per member
        made = []
        real = B.from_value

        def spy(value, length):
            made.append(value)
            return real(value, length)

        monkeypatch.setattr(B, "from_value", spy)
        g = build_graph(2, 12)
        degree_stats(g)
        assert made == []
        chosen = greedy_mis(g)
        assert len(made) == len(chosen) == 32

    def test_edge_generation_matches_pairwise_distance(self):
        # clique expansion versus the distance definition of adjacency
        for n in range(2, 11):
            graphs = [(s, G(s, n)) for s in (1, 2) if s <= n]
            words = graphs[0][1].vertices
            for i in range(len(words)):
                for j in range(i + 1, len(words)):
                    d = deletion_distance(words[i], words[j])
                    for s, g in graphs:
                        assert g.has_edge(words[i], words[j]) == (d <= 2 * s)

    @given(st.integers(0, 9).flatmap(lambda n: st.tuples(
        st.integers(0, n), st.just(n), st.none() | st.integers(0, n))))
    def test_matches_shared_subsequences(self, params):
        # plain-string reference: the words of the right length and weight,
        # adjacent iff their length-(n-s) subsequence sets intersect
        s, n, layer = params
        g = G(s, n, layer)
        words = ["".join(p) for p in itertools.product("01", repeat=n)
                 if layer is None or p.count("1") == layer]
        assert [str(v) for v in g.vertices] == words
        balls = [
            {"".join(w[i] for i in pos) for pos in itertools.combinations(range(n), n - s)}
            for w in words
        ]
        for i, ball in enumerate(balls):
            expected = sum(1 << j for j, other in enumerate(balls)
                           if j != i and not ball.isdisjoint(other))
            assert g.adjacency[i] == expected

    def test_matches_deletion_ball_grouping(self):
        # every graph with n <= 10 against the per-vertex grouping by ball members
        for n in range(11):
            for s in range(n + 1):
                for layer in [None, *range(n + 1)]:
                    g = build_graph(s, n, layer)
                    values = [v.value for v in g.vertices]
                    assert list(g.adjacency) == grouped_adjacency(values, n, s), (s, n, layer)

    def test_complete_layers_match_the_level_pass(self):
        # a layer within s of either end is one supersequence clique, of
        # 0^(n-s) or 1^(n-s): the complete adjacency it gets with no pass is
        # the pass's, for every such layer with n <= 12
        checked = 0
        for n in range(13):
            for s in range(n + 1):
                for k in range(n + 1):
                    if min(k, n - k) <= s:
                        g = build_graph(s, n, k)
                        assert g.adjacency == _deletion_masks(g._values, n, s)[0], (s, n, k)
                        checked += 1
        assert checked == 658

    @pytest.mark.parametrize("params, stats, adjacency, greedy", SCAN_GRAPHS,
                             ids=[str(p[0]) for p in SCAN_GRAPHS])
    def test_graph_scan_sized_graphs(self, params, stats, adjacency, greedy):
        g = build_graph(*params)
        max_deg, _, edges = degree_stats(g)
        chosen = greedy_mis(g)
        assert (max_deg, edges, len(chosen)) == stats
        assert digest(format(mask, "x") for mask in g.adjacency) == adjacency
        assert digest(sorted(str(v) for v in chosen)) == greedy

    @pytest.mark.parametrize("s, n, layer", [(1, 8, None), (1, 10, 4)])
    def test_supersequence_cliques_match_grouping(self, s, n, layer):
        # HiGHS's rows are the groups of two or more, as sets
        g = G(s, n, layer)
        values = [v.value for v in g.vertices]
        rows = _highs_rows(g)
        expected = grouped_cliques(values, n, s)
        assert len(rows) == len(expected)
        assert {frozenset(r) for r in rows} == {frozenset(r) for r in expected}

    def test_layer_edges_induced_from_full_graph(self):
        for n in (4, 6):
            full = G(1, n)
            for k in range(n + 1):
                layer = G(1, n, k)
                for x, y in layer.edges():
                    assert full.has_edge(x, y)


class TestDegreeStats:
    def test_edgeless(self):
        assert degree_stats(G(0, 3)) == (0, Fraction(0), 0)

    def test_no_vertices(self):
        assert degree_stats(ConfusabilityGraph(GraphParams(0, 0), (), ())) == (0, 0, 0)

    def test_small_full_graph(self):
        max_deg, avg_deg, edges = degree_stats(G(1, 2))
        assert (max_deg, edges) == (3, 5)
        assert avg_deg == Fraction(10, 4)

    def test_degree_equals_confusable_set_size(self):
        for n in (3, 5):
            for s in (1, 2):
                g = G(s, n)
                for v in g.vertices:
                    assert g.degree(v) == len(confusable_set(v, s))

    def test_max_and_average_degree_bounds(self):
        # the maximum-degree bound needs n >= 2s for its inner count
        for s in (1, 2):
            for n in range(2 * s, 13):
                g = G(s, n)
                max_deg, avg_deg, _ = degree_stats(g)
                ins = insertion_count(s, n)
                assert max_deg <= insertion_count(s, n - s) * (ins - 1)
                assert avg_deg <= Fraction(ins * (ins - 1), 2**s)


class TestLayerAvgDegreeBound:
    def test_zero_insertions(self):
        assert layer_avg_degree_bound(0, 6, 3) == 0

    def test_dominates_true_average(self):
        for s in (1, 2):
            for n in range(s, 13):
                for k in range(n + 1):
                    _, avg_deg, _ = degree_stats(G(s, n, k))
                    assert layer_avg_degree_bound(s, n, k) >= avg_deg

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            layer_avg_degree_bound(3, 2, 1)
        with pytest.raises(ValueError):
            layer_avg_degree_bound(1, 4, 5)


class TestVerifyIndependent:
    def test_examples(self):
        g = G(1, 4)
        assert verify_independent(g, {B("0000"), B("0101"), B("1100"), B("1111")})
        assert verify_independent(g, set())
        assert not verify_independent(g, {B("0101"), B("0110")})

    def test_unknown_vertex(self):
        with pytest.raises(ValueError):
            verify_independent(G(1, 4), {B("01")})


class TestVerifyColoring:
    def test_vt_weight_is_proper(self):
        for n in range(1, 9):
            g = G(1, n)
            assert verify_coloring(g, {x: vt_weight(x) for x in g.vertices})
            # keys that are not vertices, read last: longer words, whose values
            # cover every vertex's, and the vertices' text
            extra = {x: -1 for x in G(1, n + 1).vertices} | {str(x): -1 for x in g.vertices}
            assert verify_coloring(g, {**{x: vt_weight(x) for x in g.vertices}, **extra})

    def test_constant_map(self):
        edgeless = G(0, 3)
        assert verify_coloring(edgeless, {x: 0 for x in edgeless.vertices})
        g = G(1, 4)
        assert not verify_coloring(g, {x: 0 for x in g.vertices})

    def test_partial_coloring_rejected(self):
        g = G(1, 4)
        partial = {x: vt_weight(x) for x in g.vertices[:-1]}
        with pytest.raises(ValueError, match="missing vertex 1111"):
            verify_coloring(g, partial)

    def test_only_conflict_between_two_highest_vertices(self):
        g = G(1, 10, 3)  # sparse: 120 vertices, average degree under 18
        *_, x, y = g.vertices
        assert g.has_edge(x, y)
        distinct = {v: i for i, v in enumerate(g.vertices)}
        assert verify_coloring(g, distinct)
        assert not verify_coloring(g, {**distinct, y: distinct[x]})
        assert not verify_coloring(g, {v: f"c{i}" for v, i in {**distinct, y: distinct[x]}.items()})

    def test_any_hashable_labels(self):
        # the VT coloring relabeled: spread out, negative, and as strings
        g = G(1, 8)
        for label in (lambda c: 10 * c + 3, lambda c: -c - 1, lambda c: f"class-{c}"):
            assert verify_coloring(g, {x: label(vt_weight(x)) for x in g.vertices})
        assert not verify_coloring(g, {x: f"class-{vt_weight(x) % 3}" for x in g.vertices})


class TestGreedyMis:
    def test_edgeless(self):
        g = G(0, 4)
        assert greedy_mis(g) == set(g.vertices)

    def test_turan_guarantee(self):
        for s, n, k in [(1, 8, None), (1, 4, 2), (2, 7, None), (2, 10, 5)]:
            g = G(s, n, k)
            out = greedy_mis(g)
            assert verify_independent(g, out)
            _, avg_deg, _ = degree_stats(g)
            assert len(out) >= len(g) / (avg_deg + 1)

    def test_examples(self):
        assert len(greedy_mis(G(1, 8))) >= 7
        assert len(greedy_mis(G(1, 4, 2))) >= 2

    def test_matches_reference_greedy(self):
        # the same set as the plain rescan, so the same tie-break, on every
        # graph with n <= 8
        for n in range(9):
            for s in range(n + 1):
                for layer in [None, *range(n + 1)]:
                    words = string_words(n, layer)
                    chosen = {str(v) for v in greedy_mis(G(s, n, layer))}
                    assert chosen == reference_greedy(words, s), (s, n, layer)

    def test_maximal(self):
        g = G(1, 6)
        out = greedy_mis(g)
        chosen = {g.index_of(v) for v in out}
        for i, v in enumerate(g.vertices):
            if i in chosen:
                continue
            assert any(g.adjacency[i] >> j & 1 for j in chosen)


class TestPeel:
    @given(symmetric_adjacency())
    @example([(1 << 33) - 2] + [1] * 32)  # a star, degree 32 in the middle
    @example([((1 << 33) - 1) ^ 1 << i for i in range(33)])  # K_33: degrees cross 32
    # K_66 minus a perfect matching: the first step takes 65 vertices, and
    # the survivor's count of leaving neighbors reaches 2^6
    @example([((1 << 66) - 1) ^ 1 << i ^ 1 << (i ^ 1) for i in range(66)])
    @example([(1 << 65) - 2] + [1] * 64)  # a star, degree 64 in the middle
    @example([0] * 9)  # edgeless: one vertex per step, each row summed empty
    def test_peels_match_rescanning_references(self, adjacency):
        g = hand_built(adjacency)
        assert {g.index_of(x) for x in greedy_mis(g)} == set(rescan_peel(adjacency, True))
        assert _degeneracy_order(g.adjacency) == rescan_peel(adjacency, False)[::-1]

    @pytest.mark.parametrize("params, order", [
        ((2, 12, None), "d885249a938ba64f"),
        ((3, 11, None), "4a1e322ba941343c"),
        ((1, 14, 7), "8f2f1db71683a503"),
        ((2, 13, 6), "b92eca664a045e83"),
    ], ids=str)
    def test_peel_orders_pinned(self, params, order):
        # sha256 prefixes of the degeneracy order of graph-scan-sized graphs;
        # SCAN_GRAPHS pins the greedy sets of the same graphs
        assert digest(map(str, _degeneracy_order(build_graph(*params).adjacency))) == order


class TestExactMis:
    def test_edgeless(self):
        g = G(0, 3)
        assert exact_mis(g) == set(g.vertices)

    def test_small_full_graph(self):
        g = G(1, 4)
        out = exact_mis(g)
        assert len(out) == 4
        assert verify_independent(g, out)

    def test_matches_brute_force(self):
        for s, n, k in [(1, 4, None), (1, 5, None), (2, 5, None), (1, 6, 3), (2, 6, 3),
                        (3, 7, 3), (0, 4, None), (3, 3, None)]:
            g = G(s, n, k)
            out = exact_mis(g)
            assert verify_independent(g, out)
            assert len(out) == brute_force_mis_size(g)

    def test_budget_exhaustion_carries_incumbent(self):
        # L(1, 8) goes to HiGHS, its dense layer L(2, 9) weight 4 and the small
        # sparse L(1, 7) to the clique search
        for g in (G(1, 8), G(2, 9, 4), G(1, 7)):
            for budget in (0, 1):
                with pytest.raises(BudgetExceededError) as info:
                    exact_mis(g, node_budget=budget)
                assert verify_independent(g, info.value.best)
                assert len(info.value.best) >= 1

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            exact_mis(G(1, 4), node_budget=-1)

    def test_non_integer_budget_rejected_before_routing(self, monkeypatch):
        # one error on both engines, before either runs or the route is read
        assert _route(G(1, 5))[0]["engine"] == "clique-search"
        assert _route(G(1, 8))[0]["engine"] == "highs"

        def route(g):
            raise AssertionError("routed")

        monkeypatch.setattr(graph_module, "_route", route)
        for g in (G(1, 5), G(1, 8)):
            for budget in (2.5, 10.0, "10", None):
                with pytest.raises(TypeError, match="node budget must be an integer"):
                    exact_mis(g, budget)

    def test_bool_budget_rejected(self):
        # True is an int, and would run as a budget of 1
        for budget in (True, False):
            with pytest.raises(TypeError, match="node budget must be an integer"):
                exact_mis(G(1, 4), budget)

    def test_one_level_pass_per_graph(self, monkeypatch):
        # build_graph lists the levels once; each solve routed to HiGHS lists
        # them once more over the graph's own words, to check the rows the
        # route gives HiGHS
        passes = []
        real = graph_module._deletion_masks

        def spy(values, n, s):
            passes.append((len(values), n, s))
            return real(values, n, s)

        monkeypatch.setattr(graph_module, "_deletion_masks", spy)
        g = build_graph(1, 8)
        assert passes == [(256, 8, 1)]
        passes.clear()
        for _ in range(2):
            with pytest.raises(BudgetExceededError):
                exact_mis(g, 0)
        assert passes == [(256, 8, 1)] * 2
        passes.clear()
        assert list(_route(g)[0].items()) == [("engine", "highs")]
        assert passes == [(256, 8, 1)]
        # a layer within s of either end is complete: built and solved with no pass
        passes.clear()
        g = build_graph(3, 8, 2)
        assert 2 * degree_stats(g)[2] == len(g) * (len(g) - 1) == 28 * 27
        assert exact_mis(g) == {B("11000000")}
        assert passes == []

    def test_highs_refuses_rows_that_do_not_hold(self):
        # L(2, 4) labelled as L(1, 4): the supersequence cliques of s = 1
        # miss most of its edges, so HiGHS is not handed them
        wide = build_graph(2, 4)
        g = ConfusabilityGraph(GraphParams(1, 4), wide.vertices, wide.adjacency)
        assert _highs_rows(g) is None
        assert _route(g)[0]["engine"] == "clique-search"
        assert _highs_rows(G(1, 4)) is not None

    def test_graph_not_matching_its_parameters_rejected(self, monkeypatch):
        # HiGHS's set is checked against the adjacency: all ones is dependent
        g = G(1, 8)  # sparse enough to reach HiGHS
        monkeypatch.setattr(scipy.optimize, "milp", lambda *args, **kwargs: SimpleNamespace(
            status=0, message="Optimization terminated successfully.", x=[1.0] * len(g)))
        with pytest.raises(RuntimeError, match="dependent"):
            exact_mis(g)

    @pytest.mark.parametrize("s, n", [(5, 4), (-1, 8), (0, 9)])
    def test_rows_refused_for_parameters_that_do_not_fit(self, s, n):
        # L(0, 8) labelled with s above n, a negative s, or a length its
        # words do not have: no rows, so the edgeless graph is searched
        g = G(0, 8)
        h = ConfusabilityGraph(GraphParams(s, n), g.vertices, g.adjacency)
        assert _highs_rows(h) is None
        assert _route(h)[0]["engine"] == "clique-search"
        assert exact_mis(h) == set(g.vertices)

    def test_hand_built_sparse_graph_takes_the_clique_search(self):
        # L(1, 8) keeping only the edges among its first 16 vertices: the
        # other 240 are isolated, and the first 16 have alpha 4.  HiGHS
        # would build its rows from the parameters, which no longer hold.
        g = G(1, 8)
        keep = (1 << 16) - 1
        adj = tuple(mask & keep if i < 16 else 0 for i, mask in enumerate(g.adjacency))
        h = ConfusabilityGraph(g.params, g.vertices, adj)
        assert _route(h)[0]["engine"] == "clique-search"
        out = exact_mis(h)
        assert verify_independent(h, out) and len(out) == 244

    @pytest.mark.parametrize("exhausted", [False, True])
    def test_dependent_clique_search_set_rejected(self, monkeypatch, exhausted):
        # the engine's positions are checked against the adjacency, before
        # any word is made, whether or not its budget ran out
        g = build_graph(2, 8, 4)
        pair = [0, next(_iter_bits(g.adjacency[0]))]
        monkeypatch.setattr(graph_module, "_clique_search_mis",
                            lambda *args: (pair, exhausted))
        made = []
        real = B.from_value
        monkeypatch.setattr(B, "from_value", lambda value, length: made.append(value)
                            or real(value, length))
        with pytest.raises(RuntimeError, match="dependent") as info:
            exact_mis(g)
        assert not isinstance(info.value, BudgetExceededError)
        assert made == []

    def test_complete_solve_builds_no_word_index(self):
        # a solve looks no word up: the positions it checked become its words
        g = build_graph(3, 8, 2)
        assert exact_mis(g, 0) == {B("11000000")}
        assert "_index" not in vars(g) and "vertices" not in vars(g)

    @pytest.mark.parametrize("status", [2, 3, 4])
    def test_solver_failure_is_not_budget_exhaustion(self, monkeypatch, status):
        # only a limit (status 1, or HiGHS model status 16) means the budget ran out
        monkeypatch.setattr(scipy.optimize, "milp", lambda *args, **kwargs: SimpleNamespace(
            status=status, message="simulated HiGHS failure (HiGHS Status 8: x)", x=None))
        with pytest.raises(RuntimeError, match="simulated HiGHS failure") as info:
            exact_mis(G(1, 8))  # sparse enough to reach HiGHS
        assert not isinstance(info.value, BudgetExceededError)

    @pytest.mark.parametrize("status, message", [
        (1, "Iteration limit reached. (HiGHS Status 14: x)"),
        (4, "not recognized. (HiGHS Status 16: Solution limit reached)"),
    ], ids=["limit", "node-limit"])
    def test_limit_statuses_are_budget_exhaustion(self, monkeypatch, status, message):
        monkeypatch.setattr(scipy.optimize, "milp", lambda *args, **kwargs: SimpleNamespace(
            status=status, message=message, x=None))
        g = G(1, 8)  # sparse enough to reach HiGHS
        with pytest.raises(BudgetExceededError) as info:
            exact_mis(g)
        assert info.value.best == greedy_mis(g)

    @pytest.mark.parametrize("budget, node_limit", [
        (5, 5), (2**31 - 1, 2**31 - 1), (2**31, 2**31 - 1), (2**40, 2**31 - 1),
    ], ids=str)
    def test_node_limit_fits_highs(self, monkeypatch, budget, node_limit):
        # HiGHS holds mip_max_nodes in a 32-bit int: a larger budget is
        # passed as the largest limit it takes, not as a TypeError
        seen = []

        def capture(*args, options, **kwargs):
            seen.append(options["node_limit"])
            return SimpleNamespace(status=0, message="captured", x=None)

        monkeypatch.setattr(scipy.optimize, "milp", capture)
        g = G(1, 8)
        _highs_mis(len(g), _highs_rows(g), budget)
        assert seen == [node_limit]

    def test_highs_incumbent_is_at_least_greedy(self, monkeypatch):
        # HiGHS stops at its limit holding one vertex of L(1, 8)
        g = G(1, 8)
        x = [1.0] + [0.0] * (len(g) - 1)
        monkeypatch.setattr(scipy.optimize, "milp", lambda *args, **kwargs: SimpleNamespace(
            status=1, message="Iteration limit reached. (HiGHS Status 14: x)", x=x))
        with pytest.raises(BudgetExceededError) as info:
            exact_mis(g)
        assert len(info.value.best) == len(greedy_mis(g)) == 25

    @pytest.mark.parametrize("budget", [0, 1, 3, 10, 30])
    def test_clique_search_incumbent_is_at_least_greedy(self, budget):
        # the proof for L(2, 10) layer 5 takes hundreds of nodes
        g = G(2, 10, 5)
        with pytest.raises(BudgetExceededError) as info:
            exact_mis(g, budget)
        assert verify_independent(g, info.value.best)
        assert len(info.value.best) >= len(greedy_mis(g)) == 7

    @pytest.mark.parametrize("params, count, rows_digest", [
        ((1, 8, None), 128, "7bda41c9424128f2"),
        ((1, 9, None), 256, "448627eb65e42629"),
        ((1, 10, 4), 210, "d6799f1d6787fdb9"),
        ((2, 10, 5), 182, "f95daae0a948f6ae"),
        ((1, 11, 3), 165, "e483c9dfb42edafd"),
    ], ids=str)
    def test_highs_rows_pinned(self, monkeypatch, params, count, rows_digest):
        # one row per supersequence clique, in the order of the level pass;
        # the row order decides which maximum set HiGHS returns
        seen = []

        def capture(*args, constraints, **kwargs):
            seen.append(constraints.A.tocsr())
            return SimpleNamespace(status=0, message="captured", x=None)

        monkeypatch.setattr(scipy.optimize, "milp", capture)
        g = G(*params)
        _highs_mis(len(g), _highs_rows(g), 0)
        (matrix,) = seen
        rows = [sorted(int(i) for i in matrix.indices[a:b])
                for a, b in zip(matrix.indptr, matrix.indptr[1:])]
        assert len(rows) == count
        assert hashlib.sha256(repr(rows).encode()).hexdigest()[:16] == rows_digest

    def test_deterministic(self):
        for g in (G(1, 6), G(2, 8, 4), G(1, 7)):
            assert exact_mis(g) == exact_mis(g)

    def test_engines_agree(self):
        params = [(s, n, k) for n in range(9) for s in range(min(n, 3) + 1)
                  for k in range(n + 1)]
        params += [(1, n, None) for n in range(1, 7)] + [(2, n, None) for n in range(2, 8)]
        # the sparse graphs of at most 128 vertices, and L(1, 9) layer 3 just
        # above the engine cut, searched in degeneracy order
        params += [(1, 7, None), (1, 9, 4), (1, 10, 3), (1, 9, 3)]
        for s, n, k in params:
            g = G(s, n, k)
            by_clique, exhausted = _clique_search_mis(*clique_search_inputs(g),
                                                      DEFAULT_NODE_BUDGET)
            assert not exhausted and verify_independent(g, words_at(g, by_clique))
            by_highs, exhausted = _highs_mis(len(g), _highs_rows(g), DEFAULT_NODE_BUDGET)
            assert not exhausted and verify_independent(g, words_at(g, by_highs))
            assert len(by_clique) == len(by_highs), (s, n, k)

    def test_clique_search_matches_brute_force(self):
        for s, n, k in [(1, 4, None), (2, 5, None), (1, 6, 3), (2, 6, 3), (3, 7, 3),
                        (2, 7, 2), (3, 3, None), (1, 1, None), (0, 0, None)]:
            g = G(s, n, k)
            v, edges = len(g), degree_stats(g)[2]
            assert 10 * edges >= v * (v - 1), (s, n, k)  # dense: exact_mis runs this engine
            out, exhausted = _clique_search_mis(*clique_search_inputs(g), DEFAULT_NODE_BUDGET)
            assert not exhausted and verify_independent(g, words_at(g, out))
            assert len(out) == brute_force_mis_size(g), (s, n, k)

    def test_dense_and_edgeless_graphs_leave_scipy_unimported(self):
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
        )
        script = (
            "import sys\n"
            "from delcodes import (build_graph, exact_mis, greedy_mis, verify_coloring,\n"
            "                      verify_independent, vt_weight)\n"
            "assert len(exact_mis(build_graph(2, 8, 4))) == 4\n"
            "assert len(exact_mis(build_graph(0, 10))) == 1024\n"
            "assert len(exact_mis(build_graph(1, 7))) == 16\n"
            "assert len(exact_mis(build_graph(1, 10, 3))) == 16\n"
            "g = build_graph(1, 12, 5)\n"
            "assert verify_independent(g, greedy_mis(g))\n"
            "assert verify_coloring(g, {x: vt_weight(x) for x in g.vertices})\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))\n"
        )
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_engine_routing(self):
        # HiGHS only for a sparse graph (density below 1/5) of more than 128
        # vertices; the edgeless L(0, 10) returns before scipy is imported
        assert _route(G(2, 8, 4))[0]["engine"] == "clique-search"  # dense
        assert _route(G(1, 7))[0]["engine"] == "clique-search"  # sparse, 128 vertices
        assert _route(G(1, 10, 3))[0]["engine"] == "clique-search"  # sparse, 120 vertices
        # a HiGHS route names no order and no symmetry
        assert list(_route(G(1, 8))[0].items()) == [("engine", "highs")]  # 0.118, 256 vertices
        assert list(_route(G(0, 10))[0].items()) == [("engine", "highs")]

    def test_complete_graphs_answered_by_their_route(self, monkeypatch):
        # every complete graph with n <= 10 (full graphs n <= 9), of 0, 1 or
        # more vertices, is answered by its last vertex, the clique search's
        # answer before the route named them, with no search node: neither
        # the symmetries nor the clique search are reached, and a budget of
        # 0 is enough
        def fail(g, *args):
            raise AssertionError("searched")

        complete = []
        for n in range(11):
            for s in range(n + 1):
                for k in [None] * (n <= 9) + list(range(n + 1)):
                    g = G(s, n, k)
                    if 2 * degree_stats(g)[2] == len(g) * (len(g) - 1):
                        complete.append(ConfusabilityGraph(g.params, g.vertices, g.adjacency))
        assert len(complete) == 421
        monkeypatch.setattr(graph_module, "_automorphisms", fail)
        monkeypatch.setattr(graph_module, "_clique_search_mis", fail)
        for g in complete:
            assert list(_route(g)[0].items()) == [("engine", "complete")], g.params
            assert exact_mis(g, 0) == {g.vertices[-1]}, g.params
        edgeless = ConfusabilityGraph(GraphParams(0, 0), (), ())
        assert _route(edgeless)[0] == {"engine": "complete"}
        assert exact_mis(edgeless, 0) == set()

    def test_route_runs_once_per_solve(self, monkeypatch):
        # _solve is the route's one caller: each exact_mis call routes the
        # graph once, whichever engine the route names, and a second solve
        # of the same graph routes it again
        routed = []
        real = graph_module._route

        def spy(g):
            items, engine = real(g)
            routed.append(items["engine"])
            return items, engine

        monkeypatch.setattr(graph_module, "_route", spy)
        for params, engine in [((1, 7, None), "clique-search"), ((2, 8, 4), "clique-search"),
                               ((2, 8, 1), "complete"), ((1, 8, None), "highs")]:
            g = build_graph(*params)
            for _ in range(2):
                try:
                    exact_mis(g, 0)
                except BudgetExceededError:
                    pass
                assert routed == [engine], params
                routed.clear()

    def test_clique_order_routing(self):
        # degeneracy order below density 3/10, ascending degree from it on
        for params, order, symmetry in [
            ((1, 7, None), "degeneracy", "reversal,complement"),  # 0.181
            ((1, 10, 3), "degeneracy", "reversal"),  # 0.170
            ((1, 9, 3), "degeneracy", "reversal"),  # 0.207
            ((1, 6, None), "degeneracy", "reversal,complement"),  # 0.269
            ((2, 12, 6), "degeneracy", "reversal,complement"),  # 0.287
            ((2, 11, 5), "ascending", "reversal"),  # 0.390
            ((2, 8, 4), "ascending", "reversal,complement"),  # 0.722
        ]:
            assert list(_route(G(*params))[0].items()) == [
                ("engine", "clique-search"), ("order", order), ("symmetry", symmetry)], params

    def test_small_sparse_graph_skips_highs(self, monkeypatch):
        def milp(*args, **kwargs):
            raise AssertionError("HiGHS reached")

        monkeypatch.setattr(scipy.optimize, "milp", milp)
        g = G(1, 7)
        out = exact_mis(g)
        assert len(out) == 16 and verify_independent(g, out)
        with pytest.raises(AssertionError, match="HiGHS reached"):
            exact_mis(G(1, 8))

    @pytest.mark.parametrize("s, n, k, budget, size", [
        (1, 9, 3, 212, 13), (1, 9, 6, 215, 13), (1, 8, 3, 55, 10), (1, 7, None, 736, 16),
        (2, 10, 5, 433, 8), (2, 8, 4, 5, 4), (3, 9, 4, 8, 3), (2, 9, None, 1848, 11),
    ])
    def test_proof_fits_node_budget(self, s, n, k, budget, size):
        # each budget is the exact node count of the proof, so one fewer
        # runs out; the first four take the degeneracy order, the rest the
        # ascending one.  Degeneracy order below density 3/10 and Re-NUMBER
        # shrink the proofs (ascending degree without Re-NUMBER takes 5398,
        # 5173, 594 and 2723 nodes on the first four), and orbit pruning at
        # the root shrinks them again: 286, 267, 141, 1797 and 1156 nodes
        # without it on the first five
        g = G(s, n, k)
        out = exact_mis(g, budget)
        assert len(out) == size and verify_independent(g, out)
        with pytest.raises(BudgetExceededError):
            exact_mis(g, budget - 1)

    # Every graph the alpha-exact benchmark deck (perfbench/workloads.py)
    # hands the clique search, with the exact node count of its proof and α:
    # the full L(1, n) for n <= 7, both choices of each layer slot, and the
    # partition codes' layers, each solved as min(k, n - k), warm-up jobs
    # included.  The deck's other graphs are complete and take no search node.
    DECK_LAYERS = ((1, 7, (3, 4)), (1, 8, (3, 5)), (1, 8, (4,)), (1, 9, (3, 6)),
                   (2, 6, (3,)), (2, 7, (3, 4)), (2, 8, (3, 5)), (2, 8, (4,)), (2, 9, (3, 6)),
                   (3, 8, (4,)), (3, 9, (3, 6)), (3, 9, (4, 5)))
    DECK_PARTITIONS = ((1, 5), (1, 6), (1, 7), (1, 8), (2, 6), (2, 7), (2, 8), (3, 7), (3, 8))
    DECK_PROOFS = {
        (1, 2, None): (2, 2), (1, 3, None): (2, 2), (1, 4, None): (4, 4),
        (1, 5, None): (6, 6), (1, 6, None): (15, 10), (1, 7, None): (736, 16),
        (1, 5, 2): (5, 3), (1, 6, 2): (4, 4), (1, 6, 3): (5, 5), (1, 7, 2): (10, 4),
        (1, 7, 3): (29, 7), (1, 7, 4): (28, 7), (1, 8, 2): (9, 5), (1, 8, 3): (55, 10),
        (1, 8, 4): (37, 14), (1, 8, 5): (101, 10), (1, 9, 3): (212, 13), (1, 9, 6): (215, 13),
        (2, 6, 3): (2, 2), (2, 7, 3): (4, 3), (2, 7, 4): (4, 3), (2, 8, 3): (11, 3),
        (2, 8, 4): (5, 4), (2, 8, 5): (11, 3), (2, 9, 3): (12, 4), (2, 9, 6): (12, 4),
        (3, 8, 4): (2, 2), (3, 9, 4): (8, 3), (3, 9, 5): (8, 3),
    }

    def test_deck_proofs_pinned(self):
        # each count is exact: the solve finishes within it and runs out one below
        deck = {(1, n, None) for n in range(1, 8)}
        deck |= {(s, n, k) for s, n, ks in self.DECK_LAYERS for k in ks}
        deck |= {(s, n, min(k, n - k)) for s, n in self.DECK_PARTITIONS for k in range(n + 1)}
        searched = {key for key in deck if _route(G(*key))[0]["engine"] == "clique-search"}
        assert searched == set(self.DECK_PROOFS)
        for key, (nodes, size) in self.DECK_PROOFS.items():
            g = G(*key)
            out = exact_mis(g, nodes)
            assert len(out) == size and verify_independent(g, out), key
            with pytest.raises(BudgetExceededError):
                exact_mis(g, nodes - 1)

    def test_large_alpha_needs_no_deep_stack(self):
        # the search keeps its path on a list, not in nested calls, so an
        # alpha far past Python's recursion limit is solved
        words = tuple(B.from_value(v, 11) for v in range(1100))
        g = ConfusabilityGraph(GraphParams(1, 11), words, (0,) * len(words))
        assert exact_mis(g) == set(words)
        words = tuple(B.from_value(v, 12) for v in range(2100))
        g = ConfusabilityGraph(GraphParams(1, 12), words, tuple(1 << (i ^ 1) for i in range(2100)))
        out = exact_mis(g)
        assert len(out) == 1050 and verify_independent(g, out)

    def test_automorphisms(self):
        # each permutation, and reversal with complement, carries every
        # adjacency mask onto the mask of the image, checked bit by bit
        for n in range(9):
            for s in range(n + 1):
                for k in [None] + list(range(n + 1)):
                    g = G(s, n, k)
                    maps = dict(_automorphisms(g))
                    assert list(maps) == (["reversal", "complement"]
                                          if k is None or 2 * k == n else ["reversal"])
                    if len(maps) == 2:
                        maps["reversal,complement"] = [maps["complement"][i]
                                                       for i in maps["reversal"]]
                    for name, perm in maps.items():
                        assert sorted(perm) == list(range(len(g))), (s, n, k, name)
                        for i, mask in enumerate(g.adjacency):
                            moved = sum(1 << perm[j] for j in _iter_bits(mask))
                            assert g.adjacency[perm[i]] == moved, (s, n, k, name)

    def test_automorphisms_match_string_reference(self):
        # every graph with n <= 9, and three hand-built copies of each: its
        # words shuffled with the adjacency relabelled to match, which keeps
        # both maps; the words of one weight dropped from a full graph or one
        # word dropped from a layer, which breaks what maps onto them; and
        # each vertex's edges moved to the next vertex, which keeps the words
        # but not always the edges
        rng = random.Random(9)
        kept = dict.fromkeys(["built", "shuffled", "cut", "rewired"], 0)
        for n in range(10):
            for s in range(n + 1):
                for k in [None] + list(range(n + 1)):
                    g = G(s, n, k)
                    order = rng.sample(range(len(g)), len(g))
                    shuffled = ConfusabilityGraph(g.params, [g.vertices[i] for i in order],
                                                  _relabel(g.adjacency, order))
                    keep = [i for i, x in enumerate(g.vertices)
                            if (weight(x) != n // 2 if k is None else i != len(g) // 3)]
                    mask = sum(1 << i for i in keep)
                    position = {i: p for p, i in enumerate(keep)}
                    cut = ConfusabilityGraph(g.params, [g.vertices[i] for i in keep], [
                        sum(1 << position[j] for j in _iter_bits(g.adjacency[i] & mask))
                        for i in keep])
                    v = len(g)
                    rewired = ConfusabilityGraph(g.params, g.vertices, [
                        sum(1 << (j + 1) % v for j in _iter_bits(g.adjacency[(i - 1) % v]))
                        for i in range(v)])
                    for name, h in (("built", g), ("shuffled", shuffled), ("cut", cut),
                                    ("rewired", rewired)):
                        maps = _automorphisms(h)
                        assert maps == reference_automorphisms(h), (s, n, k, name)
                        kept[name] += len(maps)
        # 440 reversals and 80 complements; shuffling keeps them all, cutting
        # breaks 150 and rewiring 112
        assert kept == {"built": 520, "shuffled": 520, "cut": 370, "rewired": 408}

    def test_automorphisms_map_words(self):
        g = G(2, 6, 3)
        maps = _automorphisms(g)
        i = g.index_of(B("000111"))
        assert g.vertices[maps["reversal"][i]] == B("111000")
        assert g.vertices[maps["complement"][i]] == B("111000")
        assert g.vertices[maps["reversal"][g.index_of(B("001011"))]] == B("110100")
        assert _automorphisms(G(1, 6, 2)).keys() == {"reversal"}

    def test_orbit_pruning_keeps_alpha(self, monkeypatch):
        # every clique-search graph with n <= 10 (full graphs n <= 9): alpha
        # with orbit pruning equals alpha without it, which a copy of the
        # graph gets when no symmetry is found
        params = [(s, n, k) for n in range(11) for s in range(n + 1)
                  for k in [None] * (n <= 9) + list(range(n + 1))]
        searched = 0
        for s, n, k in params:
            g = G(s, n, k)
            if _route(g)[0]["engine"] != "clique-search":
                continue
            searched += 1
            out = exact_mis(g)
            plain = ConfusabilityGraph(g.params, g.vertices, g.adjacency)
            with monkeypatch.context() as patch:
                patch.setattr(graph_module, "_automorphisms", lambda g: {})
                assert _route(plain)[0]["symmetry"] == ""
                by_plain, exhausted = _clique_search_mis(*clique_search_inputs(plain),
                                                         DEFAULT_NODE_BUDGET)
            assert not exhausted and len(out) == len(by_plain), (s, n, k)
        assert searched == 130  # the 421 complete graphs take their own route

    def test_hand_built_copies_route_as_the_original(self):
        # the checks read the words and the adjacency, not who built the graph
        for n in range(9):
            for s in range(n + 1):
                for k in [None] + list(range(n + 1)):
                    g = G(s, n, k)
                    copy = ConfusabilityGraph(g.params, g.vertices, g.adjacency)
                    assert _route(copy)[0] == _route(g)[0], (s, n, k)

    def test_hand_built_copy_of_sparse_graph_takes_highs(self):
        # L(1, 8) rebuilt by hand: its rows hold, so HiGHS proves alpha 30
        g = G(1, 8)
        copy = ConfusabilityGraph(g.params, g.vertices, g.adjacency)
        assert list(_route(copy)[0].items()) == [("engine", "highs")]
        out = exact_mis(copy, node_budget=10**5)
        assert verify_independent(copy, out) and len(out) == 30

    def test_reversed_copy_of_full_graph_takes_highs(self):
        # L(1, 8) with its words in reversed order holds all 256 words, but
        # not by value, so its rows come from the pass over its own words
        g = G(1, 8)
        order = list(reversed(range(len(g))))
        copy = ConfusabilityGraph(g.params, g.vertices[::-1], tuple(_relabel(g.adjacency, order)))
        assert list(_route(copy)[0].items()) == [("engine", "highs")]
        assert len(_highs_rows(copy)) == 128

    def test_hand_built_graph_gets_no_symmetry(self):
        # L(1, 5) with the edges of the non-palindromic 00001 dropped
        g = G(1, 5)
        cut = g.index_of(B("00001"))
        adj = tuple(0 if i == cut else mask & ~(1 << cut) for i, mask in enumerate(g.adjacency))
        h = ConfusabilityGraph(g.params, g.vertices, adj)
        out = exact_mis(h)
        assert verify_independent(h, out) and len(out) == brute_force_mis_size(h) == 7
        # L(1, 9) layer 3 with each vertex's edges moved to the next vertex:
        # isomorphic, so alpha is 13, but reversal is no longer a symmetry,
        # and pruning by it would stop at 12
        g = G(1, 9, 3)
        v = len(g)
        adj = [0] * v
        for i, mask in enumerate(g.adjacency):
            adj[(i + 1) % v] = sum(1 << (j + 1) % v for j in _iter_bits(mask))
        h = ConfusabilityGraph(g.params, g.vertices, tuple(adj))
        out = exact_mis(h)
        assert verify_independent(h, out) and len(out) == 13

    def test_degeneracy_order_matches_reference(self):
        params = [(s, n, k) for n in range(9) for s in range(n + 1)
                  for k in [None] * (n < 8) + list(range(n + 1))]
        params += [(1, 7, None), (1, 9, 3), (2, 10, 5)]
        for s, n, k in params:
            expected = reference_degeneracy_order(string_words(n, k), s)
            assert _degeneracy_order(G(s, n, k).adjacency) == expected, (s, n, k)

    @pytest.mark.parametrize("s, n, k", [(1, 6, None), (2, 7, 3), (1, 9, 4)])
    def test_degeneracy_order(self, s, n, k):
        # removed last-to-first, each vertex has the fewest non-neighbors left
        g = G(s, n, k)
        order = _degeneracy_order(g.adjacency)
        assert sorted(order) == list(range(len(g)))
        left = set(range(len(g)))
        for i in reversed(order):
            apart = {u: sum(1 for w in left if w != u and not g.adjacency[u] >> w & 1)
                     for u in left}
            assert apart[i] == min(apart.values()), (s, n, k, i)
            left.remove(i)


class TestSubstringClique:
    def test_full_graph_clique(self):
        w = substring_clique(B("000"), 1)
        assert w.kind == "substring"
        assert len(w.vertices) == 5
        assert verify_clique(G(1, 4), w.vertices)

    def test_zero_insertions(self):
        w = substring_clique(B("0"), 0)
        assert w.vertices == (B("0"),)

    def test_layer_clique(self):
        w = substring_clique(B("010"), 1, layer=2)
        assert w.kind == "layer-substring"
        assert len(w.vertices) == 3
        assert verify_clique(G(1, 4, 2), w.vertices)

        # plain-string reference: the layer words that hold z as a subsequence
        def holds(w, z):
            it = iter(w)
            return all(c in it for c in z)

        for z in ("", "0", "01", "110", "0101"):
            for s in range(0, 4):
                n = len(z) + s
                for layer in range(z.count("1"), z.count("1") + s + 1):
                    w = substring_clique(B(z), s, layer=layer)
                    expected = [y for y in string_words(n, layer) if holds(y, z)]
                    assert [str(v) for v in w.vertices] == expected

    def test_sizes_match_counting(self):
        for z in (B("0101"), B("1100")):
            for s in (1, 2):
                assert len(substring_clique(z, s).vertices) == (
                    insertion_count(s, len(z) + s)
                )

    def test_unreachable_layer(self):
        with pytest.raises(ValueError, match="unreachable"):
            substring_clique(B("000"), 1, layer=2)
        with pytest.raises(ValueError, match="unreachable"):
            substring_clique(B("110"), 1, layer=1)


class TestSegmentClique:
    def test_trivial(self):
        w = segment_clique(6, 3, 0, 0)
        assert len(w.vertices) == 1
        assert w.vertices[0] == w.center

    def test_counting_formula(self):
        import math

        for l, k, b, c in [(4, 2, 1, 0), (4, 2, 0, 1), (5, 3, 1, 1), (6, 2, 2, 0)]:
            w = segment_clique(l, k, b, c)
            expected = (
                math.comb(k, b) * math.comb(k - b, c) * l**b * (l - 2) ** c
            )
            assert len(w.vertices) == expected
            assert len(set(w.vertices)) == expected
            assert _segment_clique_size(l, k, b, c) == expected

    def test_matches_run_length_reference(self):
        # every family of at most 2,000 members, against the words assembled
        # from their run lengths
        for l in range(4, MAX_LENGTH + 1):
            for k in range(1, (MAX_LENGTH + 3) // (l + 3) + 1):
                for b, c in itertools.product(range(k + 1), repeat=2):
                    m = k * (l + 3) - 3
                    if (b + c > k or m + b - c > MAX_LENGTH
                            or _segment_clique_size(l, k, b, c) > 2000):
                        continue
                    w = segment_clique(l, k, b, c)
                    members, center = string_segment_clique(l, k, b, c)
                    assert [str(x) for x in w.vertices] == members, (l, k, b, c)
                    assert str(w.center) == center, (l, k, b, c)

    def test_pinned_large_family(self):
        # beyond the reference test's 2,000 members: (5, 6, 3, 3), pinned by
        # its member count, center and a digest of its sorted members
        w = segment_clique(5, 6, 3, 3)
        assert len(w.vertices) == 67500
        assert str(w.center) == "010101110101011101010111010101110101011101010"
        digest = hashlib.sha256(repr([str(x) for x in w.vertices]).encode()).hexdigest()
        assert digest.startswith("a4e1c7e471904896")
        assert w.params == {"l": 5, "k": 6, "b": 3, "c": 3}

    def test_distances_to_center(self):
        w = segment_clique(4, 2, 1, 1)
        for y in w.vertices:
            assert deletion_distance(w.center, y) <= 2 * 2

    def test_is_clique(self):
        # members of the (4, 2, 1, 0) family have length 12 and pair up
        # within distance 2, so they form a clique for one deletion
        w = segment_clique(4, 2, 1, 0)
        g = G(1, 12)
        assert verify_clique(g, w.vertices)

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            segment_clique(3, 2, 1, 0)
        with pytest.raises(ValueError):
            segment_clique(4, 2, 2, 1)
        with pytest.raises(ValueError):
            segment_clique(4, 2, -1, 0)
        with pytest.raises(CapacityError):
            segment_clique(8, 7, 0, 0)
        with pytest.raises(CapacityError, match="2\\^22"):
            segment_clique(5, 8, 5, 3)  # 4,725,000 members


class TestVerifyClique:
    def test_rejects_nonadjacent_pair(self):
        g = G(1, 4)
        assert not verify_clique(g, [B("0000"), B("1111")])

    def test_rejects_duplicates(self):
        g = G(1, 4)
        assert not verify_clique(g, [B("0000"), B("0000")])


def assert_chordless_cycle(vertices, s):
    n = len(vertices[0])
    L = len(vertices)
    assert len(set(vertices)) == L
    for i in range(L):
        for j in range(i + 1, L):
            d = deletion_distance(vertices[i], vertices[j])
            consecutive = j - i == 1 or (i == 0 and j == L - 1)
            assert (d <= 2 * s) == consecutive, (i, j, d)
    assert all(len(v) == n for v in vertices)


class TestInducedCycle:
    def test_worked_example(self):
        assert induced_cycle(1, 5) == [
            B("1100"), B("0110"), B("0011"), B("0001"), B("1000")
        ]

    def test_triangle(self):
        assert induced_cycle(1, 3) == [B("11"), B("01"), B("10")]
        assert_chordless_cycle(induced_cycle(1, 3), 1)

    def test_chordless(self):
        for s, length in [(1, 4), (1, 5), (1, 8), (2, 5), (2, 6), (3, 5)]:
            assert_chordless_cycle(induced_cycle(s, length), s)

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            induced_cycle(0, 5)
        with pytest.raises(ValueError):
            induced_cycle(1, 2)


class TestImperfectnessWitness:
    def test_minimum_length_is_cycle_itself(self):
        assert imperfectness_witness(1, 4) == induced_cycle(1, 5)

    def test_padded_example(self):
        assert imperfectness_witness(1, 5) == [
            B("01100"), B("00110"), B("00011"), B("00001"), B("01000")
        ]

    def test_chordless_after_padding(self):
        for s, n in [(1, 4), (1, 5), (1, 9), (2, 7), (2, 10)]:
            vs = imperfectness_witness(s, n)
            assert len(vs) == 5
            assert all(len(v) == n for v in vs)
            assert_chordless_cycle(vs, s)

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            imperfectness_witness(1, 3)
        with pytest.raises(ValueError):
            imperfectness_witness(0, 5)


def test_confusable_sets_are_cliques_in_doubled_graph():
    # one step in the square of the single-deletion graph stays within
    # the two-deletion graph
    for n in range(2, 11):
        g2 = G(2, n)
        for v in g2.vertices:
            members = confusable_set(v, 1) | {v}
            assert verify_clique(g2, members)
