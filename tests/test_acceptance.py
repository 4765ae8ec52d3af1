"""Acceptance suite: one test per release criterion.

Each test is exhaustive over its stated parameter range and uses exact
arithmetic unless a tolerance is stated inline.  A summary block listing
one PASS/FAIL line per criterion is printed at the end of the run (see
conftest).
"""

import math
from fractions import Fraction

from delcodes import (
    BitString,
    InsertionEncoding,
    chromatic_certificate,
    constant_weight_guarantee,
    decode,
    degree_stats,
    delete_all,
    deletion_distance,
    encode,
    exact_mis,
    f_s_bound,
    f_s_value,
    f_s_value_multinomial,
    greedy_mis,
    insert_all,
    insert_all_weighted,
    insertion_count,
    layer_avg_degree_bound,
    layer_color_solver,
    levenshtein_lower_bound,
    make_exact_layer_solver,
    penalty_ratio,
    segment_clique,
    substring_clique,
    verify_clique,
    verify_code,
    verify_coloring,
    vt_code,
    weight,
    weight_partition_code,
    weight_partition_size_bound,
    weighted_insertion_count,
    imperfectness_witness,
)

from conftest import _graph as G, all_words

B = BitString


def test_criterion_01_vt_validity():
    """Every residue class of every length up to 12 is a valid 1-deletion code."""
    for n in range(1, 13):
        for a in range(n + 1):
            assert verify_code(vt_code(n, a)), (n, a)


def test_criterion_02_desk_scale_optimality():
    """The best residue class is a maximum independent set for 2 <= n <= 8."""
    for n in range(2, 9):
        alpha = len(exact_mis(G(1, n)))
        best_vt = max(len(vt_code(n, a).words) for a in range(n + 1))
        assert alpha == best_vt, (n, alpha, best_vt)


def test_criterion_03_chromatic_certificates():
    """Proper colorings meet equal-size cliques on full graphs and layers, n <= 12."""
    for n in range(1, 13):
        g = G(1, n)
        coloring, clique, chi = chromatic_certificate(n)
        assert chi == n + 1
        assert verify_coloring(g, coloring.assignment)
        assert len(set(clique.vertices)) == chi
        assert verify_clique(g, clique.vertices)
        for k in range(1, n):
            layer = G(1, n, k)
            coloring, clique, chi = chromatic_certificate(n, k)
            assert chi == max(k, n - k) + 1
            assert verify_coloring(layer, coloring.assignment)
            assert len(set(clique.vertices)) == chi
            assert verify_clique(layer, clique.vertices)


def test_criterion_04_counting():
    """Enumerated insertion sets match the closed-form counts, length <= 8, s <= 3."""
    for n in range(0, 9):
        for x in all_words(n):
            k = weight(x)
            for s in range(0, 4):
                assert len(insert_all(x, s)) == insertion_count(s, n + s)
                for r in range(s + 1):
                    assert len(insert_all_weighted(x, s, r)) == (
                        weighted_insertion_count(s, r, n + s, k + r)
                    )


def test_criterion_05_bijection():
    """The insertion codec is a bijection for length <= 7, s <= 3; worked instance exact."""
    enc = encode(B("0110001"), B("001001010101101"))
    assert enc == InsertionEncoding(B("001010"), B("101100"), B("101"))
    assert decode(B("0110001"), enc) == B("001001010101101")
    for n in range(0, 8):
        for x in all_words(n):
            for s in range(0, 4):
                seen = set()
                for y in insert_all(x, s):
                    z = encode(x, y)
                    assert z not in seen  # injective
                    seen.add(z)
                    assert decode(x, z) == y  # left inverse
                    assert encode(x, decode(x, z)) == z  # right inverse


def test_criterion_06_deletion_set_bound():
    """Deletion-set sizes meet the counting bound, with the known equality sets.

    Tightness holds exactly on the two alternating strings except in the
    degenerate case n = 2s (s = 2, n = 4), where four strings reach the
    bound; that counterexample is pinned explicitly here.
    """
    for s in (1, 2):
        for n in range(2 * s, 13):
            bound = insertion_count(s, n - s)
            tight = set()
            for x in all_words(n):
                size = len(delete_all(x, s))
                assert size <= bound, (s, n, x)
                if size == bound:
                    tight.add(x)
            alternating = {
                B("01" * (n // 2) + "0" * (n % 2)),
                B("10" * (n // 2) + "1" * (n % 2)),
            }
            if (s, n) == (2, 4):
                assert tight == {B("0101"), B("0110"), B("1001"), B("1010")}
            else:
                assert tight == alternating, (s, n, tight)


def test_criterion_07_degree_bounds():
    """Exact degree statistics respect the closed-form bounds, n <= 12, s <= 2."""
    for s in (1, 2):
        for n in range(s, 13):
            g = G(s, n)
            max_deg, avg_deg, _ = degree_stats(g)
            ins = insertion_count(s, n)
            assert avg_deg <= Fraction(ins * (ins - 1), 2**s)
            if n >= 2 * s:  # the max-degree form counts insertions into n-s symbols
                assert max_deg <= insertion_count(s, n - s) * (ins - 1)
            for k in range(n + 1):
                _, layer_avg, _ = degree_stats(G(s, n, k))
                assert layer_avg <= layer_avg_degree_bound(s, n, k)


def test_criterion_08_turan_guarantee():
    """Greedy independent sets reach the average-degree floor on every graph."""
    for s in (1, 2):
        for n in range(s, 13):
            params = [None] + list(range(n + 1))
            for k in params:
                g = G(s, n, k)
                _, avg_deg, _ = degree_stats(g)
                assert len(greedy_mis(g)) >= len(g) / (avg_deg + 1), (s, n, k)
    assert len(greedy_mis(G(1, 8))) >= math.ceil(levenshtein_lower_bound(8, 1))


def test_criterion_09_weight_partition_code():
    """The union-over-layers construction meets its size floor, n <= 14."""
    for n in range(1, 15):
        for a in (0, 1):
            code = weight_partition_code(n, 1, a, layer_color_solver)
            assert len(code.words) >= weight_partition_size_bound(n, a), (n, a)
            assert verify_code(code), (n, a)


def test_criterion_10_segment_clique():
    """The (6,3,1,1) segment family is a 144-string clique for two deletions."""
    w = segment_clique(6, 3, 1, 1)
    assert len(w.vertices) == 144
    assert len(set(w.vertices)) == 144
    assert all(len(v) == 24 for v in w.vertices)
    for i, x in enumerate(w.vertices):
        for y in w.vertices[i + 1:]:
            assert deletion_distance(x, y) <= 4
    # the worked center/member pair, read off the construction diagram
    x = B("010101000101010111010101")
    y = B("010010001010101110100101")
    assert w.center == x
    assert y in w.vertices
    assert deletion_distance(x, y) <= 2


def test_criterion_11_imperfectness_witness():
    """Generated 5-cycles are chordless; the length-5 instance is the known list."""
    for s, n in [(1, 4), (1, 5), (2, 7)]:
        vs = imperfectness_witness(s, n)
        assert len(vs) == 5 and len(set(vs)) == 5
        assert all(len(v) == n for v in vs)
        for i in range(5):
            for j in range(i + 1, 5):
                d = deletion_distance(vs[i], vs[j])
                consecutive = j - i == 1 or (i, j) == (0, 4)
                assert (d <= 2 * s) == consecutive, (s, n, i, j)
    assert imperfectness_witness(1, 5) == [
        B("01100"), B("00110"), B("00011"), B("00001"), B("01000")
    ]


def test_criterion_12_polynomial_bound():
    """The weighting polynomial stays under its closed-form supremum, s <= 6."""
    for s in range(0, 7):
        bound = f_s_bound(s)
        for i in range(0, 101):
            p = i / 100
            value = f_s_value(s, p)
            assert value <= bound + 1e-12
            assert abs(value - f_s_value_multinomial(s, p)) < 1e-12
    assert penalty_ratio(1) == 1
    assert penalty_ratio(2) == Fraction(9, 8)
    assert penalty_ratio(3) == Fraction(5, 4)


def test_criterion_13_end_to_end():
    """Exact per-layer solves beat the analytic floor for n <= 10, s <= 2."""
    solver = make_exact_layer_solver()
    for s in (1, 2):
        for n in range(s, 11):
            floor = constant_weight_guarantee(n, s)
            sizes = []
            for a in range(s + 1):
                code = weight_partition_code(n, s, a, solver)
                assert verify_code(code), (n, s, a)
                sizes.append(len(code.words))
            assert max(sizes) >= floor, (n, s, max(sizes), floor)
            if (s, n) == (1, 10):  # layer 6 is mapped from layer 4 by complement
                assert sizes[0] == 76
