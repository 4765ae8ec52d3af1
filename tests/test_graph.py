"""Tests for graph construction, degree bounds, independent sets, and witnesses."""

import hashlib
import itertools
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
import scipy.optimize
from hypothesis import given, strategies as st

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
from delcodes.bitstring import MAX_LENGTH
from delcodes.graph import (
    DEFAULT_NODE_BUDGET,
    _automorphisms,
    _clique_search_mis,
    _degeneracy_order,
    _highs_mis,
    _iter_bits,
    _route,
    _segment_clique_size,
    _shared_subsequences,
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
]


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

    def test_index_of_unknown_vertex(self):
        with pytest.raises(ValueError):
            G(1, 4).index_of(B("01"))

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
        # the shared subsequences are the groups of two or more, as sets
        values = [v.value for v in G(s, n, layer).vertices]
        rows = [list(_iter_bits(mask)) for mask in _shared_subsequences(values, n, s).values()]
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

    def test_graph_not_matching_its_parameters_rejected(self):
        # the constraints come from the parameters (s = 0: no clique rows),
        # the check from the sparse s = 1 adjacency, so the set fails the check
        sparse = G(1, 8)
        g = ConfusabilityGraph(GraphParams(0, 8), sparse.vertices, sparse.adjacency)
        with pytest.raises(RuntimeError, match="dependent"):
            exact_mis(g)

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
        _highs_mis(G(*params), 0)
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
            by_clique, exhausted = _clique_search_mis(g, DEFAULT_NODE_BUDGET)
            assert not exhausted and verify_independent(g, by_clique)
            by_highs, exhausted = _highs_mis(g, DEFAULT_NODE_BUDGET)
            assert not exhausted and verify_independent(g, by_highs)
            assert len(by_clique) == len(by_highs), (s, n, k)

    def test_clique_search_matches_brute_force(self):
        for s, n, k in [(1, 4, None), (2, 5, None), (1, 6, 3), (2, 6, 3), (3, 7, 3),
                        (2, 7, 2), (3, 3, None), (1, 1, None), (0, 0, None)]:
            g = G(s, n, k)
            v, edges = len(g), degree_stats(g)[2]
            assert 10 * edges >= v * (v - 1), (s, n, k)  # dense: exact_mis runs this engine
            out, exhausted = _clique_search_mis(g, DEFAULT_NODE_BUDGET)
            assert not exhausted and verify_independent(g, out)
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
        assert _route(G(2, 8, 4))["engine"] == "clique-search"  # dense
        assert _route(G(1, 7))["engine"] == "clique-search"  # sparse, 128 vertices
        assert _route(G(1, 10, 3))["engine"] == "clique-search"  # sparse, 120 vertices
        # a HiGHS route names no order and no symmetry
        assert list(_route(G(1, 8)).items()) == [("engine", "highs")]  # 0.118, 256 vertices
        assert list(_route(G(0, 10)).items()) == [("engine", "highs")]

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
            assert list(_route(G(*params)).items()) == [
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
        (1, 9, 3, 1000, 13), (1, 9, 6, 1000, 13), (1, 8, 3, 300, 10), (1, 7, None, 1000, 16),
        (2, 10, 5, 600, 8),
    ])
    def test_proof_fits_node_budget(self, s, n, k, budget, size):
        # degeneracy order below density 3/10 and Re-NUMBER shrink the proofs
        # (ascending degree without Re-NUMBER takes 5398, 5173, 594 and 2723
        # nodes on the first four), and orbit pruning at the root shrinks them
        # again: 286, 267, 141, 1797 and 1156 nodes without it, 203, 202,
        # 108, 725 and 428 with it
        g = G(s, n, k)
        out = exact_mis(g, budget)
        assert len(out) == size and verify_independent(g, out)

    def test_automorphisms(self):
        # each map, and reversal with complement, permutes the vertices and
        # carries every adjacency mask onto the mask of the image
        for n in range(9):
            for s in range(n + 1):
                for k in [None] + list(range(n + 1)):
                    g = G(s, n, k)
                    maps = _automorphisms(g)
                    assert list(maps) == (["reversal", "complement"]
                                          if k is None or 2 * k == n else ["reversal"])
                    if len(maps) == 2:
                        maps["reversal,complement"] = (
                            lambda i: maps["complement"](maps["reversal"](i)))
                    for name, image in maps.items():
                        perm = [image(i) for i in range(len(g))]
                        assert sorted(perm) == list(range(len(g))), (s, n, k, name)
                        for i, mask in enumerate(g.adjacency):
                            moved = sum(1 << perm[j] for j in _iter_bits(mask))
                            assert g.adjacency[perm[i]] == moved, (s, n, k, name)

    def test_automorphisms_map_words(self):
        g = G(2, 6, 3)
        maps = _automorphisms(g)
        i = g.index_of(B("000111"))
        assert g.vertices[maps["reversal"](i)] == B("111000")
        assert g.vertices[maps["complement"](i)] == B("111000")
        assert g.vertices[maps["reversal"](g.index_of(B("001011")))] == B("110100")
        assert _automorphisms(G(1, 6, 2)).keys() == {"reversal"}

    def test_orbit_pruning_keeps_alpha(self):
        # every clique-search graph with n <= 10 (full graphs n <= 9): alpha
        # with orbit pruning equals alpha without it, which a hand-built copy
        # of the graph gets
        params = [(s, n, k) for n in range(11) for s in range(n + 1)
                  for k in [None] * (n <= 9) + list(range(n + 1))]
        searched = 0
        for s, n, k in params:
            g = G(s, n, k)
            if _route(g)["engine"] != "clique-search":
                continue
            searched += 1
            out = exact_mis(g)
            plain = ConfusabilityGraph(g.params, g.vertices, g.adjacency)
            assert _automorphisms(plain) == {}
            by_plain, exhausted = _clique_search_mis(plain, DEFAULT_NODE_BUDGET)
            assert not exhausted and len(out) == len(by_plain), (s, n, k)
        assert searched == 551

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
