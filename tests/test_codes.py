"""Tests for code constructions, colorings, bounds, and file persistence."""

import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from delcodes import (
    BitString,
    CapacityError,
    Code,
    best_segment_clique,
    build_graph,
    chromatic_certificate,
    chromatic_lower_bound,
    confusable_set,
    constant_weight_guarantee,
    constant_weight_guarantee_asymptotic,
    delete_all,
    deletion_distance,
    find_conflict,
    greedy_layer_solver,
    greedy_mis,
    insert_all,
    insert_all_weighted,
    insertion_count,
    layer_code,
    layer_color_solver,
    levenshtein_lower_bound,
    make_code,
    modified_vt_weight,
    penalty_ratio,
    read_code_file,
    substring_clique,
    two_stage_coloring,
    verify_clique,
    verify_code,
    verify_coloring,
    verify_independent,
    vt_code,
    vt_weight,
    weight,
    weight_partition_code,
    weight_partition_size_bound,
    write_code_file,
)

from conftest import _graph as G, string_color, string_words

B = BitString


def string_coloring(n, k=None):
    """Plain-string weighted-sum coloring of L(1, n) or of layer k: (modulus, {word: color})."""
    m = n + 1 if k is None else max(k, n - k) + 1
    return m, {w: string_color(w, m) for w in string_words(n, k)}


def string_classes(n, k=None):
    """The color classes of :func:`string_coloring`, each in ascending word order."""
    classes = {}
    for w, color in string_coloring(n, k)[1].items():
        classes.setdefault(color, []).append(w)
    return classes


class TestVtWeight:
    def test_examples(self):
        assert vt_weight(B("0000")) == 0
        assert vt_weight(B("1111")) == 0
        assert vt_weight(B("0110")) == 0
        assert vt_weight(B("0101")) == (2 + 4) % 5


class TestVtCode:
    def test_examples(self):
        assert set(vt_code(4, 0).words) == {B("0000"), B("0110"), B("1001"), B("1111")}
        assert vt_code(1, 0).words == (B("0"),)

    def test_best_residue_size_at_n8(self):
        best = max(len(vt_code(8, a).words) for a in range(9))
        assert best >= 29

    def test_partition_of_all_words(self):
        for n in range(1, 15):
            total = sum(len(vt_code(n, a).words) for a in range(n + 1))
            assert total == 2**n
        # pigeonhole floor on the largest class
        for n in (6, 10, 14):
            assert max(len(vt_code(n, a).words) for a in range(n + 1)) >= 2**n / (n + 1)

    def test_all_residues_verify_small(self):
        for n in range(1, 9):
            for a in range(n + 1):
                assert verify_code(vt_code(n, a))

    def test_residue_out_of_range(self):
        with pytest.raises(ValueError):
            vt_code(4, 5)

    def test_matches_string_reference(self):
        for n in range(0, 11):
            classes = string_classes(n)
            for a in range(n + 1):
                assert [str(w) for w in vt_code(n, a).words] == classes.get(a, [])


def test_word_enumeration_capacity():
    # every construction that lists all 2^n words refuses n above the cap
    # before enumerating any of them
    for build in (lambda: vt_code(23, 0), lambda: layer_code(23, 11),
                  lambda: chromatic_certificate(23), lambda: two_stage_coloring(23, 1)):
        with pytest.raises(CapacityError, match="n <= 22"):
            build()


@pytest.mark.parametrize("call, bad", [
    (lambda: chromatic_lower_bound(1, -1), "n=-1"),
    (lambda: two_stage_coloring(-1, 1), "n=-1"),
    (lambda: vt_code(-1, 0), "n=-1"),
    (lambda: weight_partition_code(5, -1, 0, greedy_layer_solver), "s=-1"),
    (lambda: insert_all_weighted(B("0101"), -1, 0), "s=-1"),
    (lambda: substring_clique(B("0101"), -1, layer=2), "s=-1"),
    (lambda: insert_all(B("0101"), -1), "s=-1"),
    (lambda: delete_all(B("0101"), 5), "s=5"),
    (lambda: confusable_set(B("0101"), -1), "s=-1"),
    (lambda: insertion_count(4, 3), "s=4"),
    (lambda: levenshtein_lower_bound(3, 4), "s=4"),
    (lambda: build_graph(-1, 3), "s=-1"),
    (lambda: Code(n=-1, s=1, words=(), provenance="vt"), "n=-1"),
], ids=["chromatic_lower_bound", "two_stage_coloring", "vt_code", "weight_partition_code",
        "insert_all_weighted", "substring_clique", "insert_all", "delete_all",
        "confusable_set", "insertion_count", "levenshtein_lower_bound", "build_graph", "Code"])
def test_size_out_of_range_named(call, bad):
    # one check for every entry point, naming the bad n or s
    with pytest.raises(ValueError, match=rf"\b{bad}\b"):
        call()


class TestModifiedVtWeight:
    def test_examples(self):
        assert modified_vt_weight(B("0101")) == 0
        assert modified_vt_weight(B("0110")) == 2
        assert modified_vt_weight(B("00000")) == 0

    def test_proper_layer_coloring(self):
        for n in range(1, 9):
            for k in range(n + 1):
                g = G(1, n, k)
                assert verify_coloring(g, {x: modified_vt_weight(x) for x in g.vertices})


class TestLayerCode:
    def test_degenerate_layer(self):
        assert layer_code(4, 0).words == (B("0000"),)

    def test_pigeonhole_sizes(self):
        assert len(layer_code(4, 2).words) >= 2
        assert len(layer_code(6, 3).words) >= 5

    def test_valid_and_inside_layer(self):
        for n in range(1, 13):
            for k in range(n + 1):
                code = layer_code(n, k)
                assert all(weight(x) == k for x in code.words)
                assert len(code.words) >= math.comb(n, k) / (max(k, n - k) + 1)
                assert verify_code(code)

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            layer_code(4, 5)

    def test_matches_string_reference(self):
        # the largest class wins; a tie goes to the smallest color
        ties = 0
        for n in range(0, 11):
            for k in range(n + 1):
                classes = string_classes(n, k)
                largest = max(len(ws) for ws in classes.values())
                winners = sorted(c for c, ws in classes.items() if len(ws) == largest)
                ties += len(winners) > 1
                assert [str(w) for w in layer_code(n, k).words] == classes[winners[0]]
        assert ties


class TestWeightPartitionCode:
    def test_small_example(self):
        code = weight_partition_code(4, 1, 0, layer_color_solver)
        assert verify_code(code)
        assert len(code.words) >= 3
        assert all(weight(x) % 2 == 0 for x in code.words)

    def test_greedy_solver_valid(self):
        for n in range(2, 13):
            for s in (1, 2):
                if s > n:
                    continue
                for a in range(s + 1):
                    code = weight_partition_code(n, s, a, greedy_layer_solver)
                    assert verify_code(code)

    def test_size_floor(self):
        for n in range(1, 15):
            for a in (0, 1):
                code = weight_partition_code(n, 1, a, layer_color_solver)
                assert len(code.words) >= weight_partition_size_bound(n, a)
                assert verify_code(code)

    def test_residue_out_of_range(self):
        with pytest.raises(ValueError):
            weight_partition_code(4, 1, 2, layer_color_solver)
        with pytest.raises(ValueError):
            weight_partition_size_bound(6, 2)


@st.composite
def small_codes(draw):
    # Random words thinned to a code by the pairwise reference, plus a few
    # arbitrary words, so that both verdicts are drawn for every s.
    n = draw(st.integers(0, 10))
    s = draw(st.integers(0, n + 2))
    word = st.integers(0, (1 << n) - 1).map(lambda v: B.from_value(v, n))
    words = []
    for w in draw(st.lists(word, max_size=10)):
        if all(deletion_distance(w, x) > 2 * s for x in words):
            words.append(w)
    words += draw(st.lists(word, max_size=2))
    return make_code(n, s, words, "search")


# The constructions and lengths the construct-verify benchmark verifies, with
# the free parameter's values.
BUILT_CODE_SHAPES = [
    ("vt", 9, range(10)), ("vt", 10, range(11)), ("vt", 11, range(12)),
    ("layer", 10, (4, 6)), ("layer", 11, (5, 6)), ("layer", 12, (4, 8)),
    ("wp-layer", 9, (0, 1)), ("wp-layer", 10, (0, 1)), ("wp-layer", 11, (0, 1)),
    ("wp-greedy", 9, (0, 1, 2)), ("wp-greedy", 10, (0, 1, 2)), ("wp-greedy", 11, (0, 1, 2)),
]


def assert_matches_pairwise(code):
    """find_conflict agrees with the plain all-pairs distance check: it names
    the pair with the earliest later word, then the earliest earlier one,
    and their smallest shared subsequence."""
    s, words = code.s, code.words
    confusable = [
        (x, y) for j, y in enumerate(words) for x in words[:j]
        if deletion_distance(x, y) <= 2 * s
    ]
    conflict = find_conflict(code)
    assert verify_code(code) == (conflict is None) == (not confusable)
    if conflict is not None:
        x, y, z = conflict
        assert (x, y) == confusable[0]
        m = min(s, code.n)
        assert z == min(delete_all(x, m) & delete_all(y, m))


class TestVerifyCode:
    def test_rejects_confusable_pair(self):
        code = make_code(4, 1, [B("0101"), B("0110")], "search")
        assert not verify_code(code)
        assert find_conflict(code) == (B("0101"), B("0110"), B("010"))
        # 101 meets both earlier words; the earliest one is named
        code = make_code(3, 1, [B("011"), B("100"), B("101")], "search")
        assert find_conflict(code) == (B("011"), B("101"), B("01"))

    def test_singleton(self):
        assert verify_code(make_code(5, 2, [B("01010")], "search"))

    def test_more_deletions_than_symbols(self):
        # every pair is confusable once all symbols can be deleted
        assert verify_code(make_code(2, 5, [B("00")], "search"))
        code = make_code(2, 5, [B("00"), B("11")], "search")
        assert find_conflict(code) == (B("00"), B("11"), B(""))

    def test_repeated_word(self):
        # a Code built directly keeps a repeated word, which conflicts with itself
        w = B("0101")
        code = Code(4, 1, (w, w), "search")
        assert find_conflict(code) == (w, w, B("001"))
        assert not verify_code(code)

    @given(small_codes())
    def test_matches_brute_force(self, code):
        # the ball scan agrees with the plain all-pairs distance check, and
        # names the pair with the earliest later word, then earliest earlier
        assert_matches_pairwise(code)

    @pytest.mark.parametrize("kind, n, params", BUILT_CODE_SHAPES,
                             ids=[f"{kind}-{n}" for kind, n, _ in BUILT_CODE_SHAPES])
    def test_matches_pairwise_on_built_codes(self, kind, n, params):
        # each code as built, and with one confusable word added
        for param in params:
            if kind == "vt":
                code = vt_code(n, param)
            elif kind == "layer":
                code = layer_code(n, param)
            elif kind == "wp-layer":
                code = weight_partition_code(n, 1, param, layer_color_solver)
            else:
                code = weight_partition_code(n, 2, param, greedy_layer_solver)
            assert_matches_pairwise(code)
            words = code.words
            near = sorted(confusable_set(words[len(words) // 2], code.s) - set(words))
            corrupted = make_code(n, code.s, words + (near[len(near) // 2],), "corrupted")
            assert find_conflict(corrupted) is not None
            assert_matches_pairwise(corrupted)

    def test_ball_size_cap(self):
        # 60 runs and 20 deletions: C(79, 20) words on Levenshtein's bound
        big = [B("01" * 30), B("10" * 30)]
        with pytest.raises(CapacityError, match="2\\^22"):
            find_conflict(make_code(60, 20, big, "search"))
        # one word has no pair to check, so nothing is listed
        assert find_conflict(make_code(60, 20, big[:1], "search")) is None

    def test_memory_tracks_ball_sizes(self):
        # one entry per subsequence seen: vt_code(16, 0) has 3,856 words and
        # about 30,000 ball entries, held in a few MiB; a mask of codewords
        # per length-15 word would take about 12 MiB
        code = vt_code(16, 0)
        tracemalloc.start()
        try:
            assert find_conflict(code) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 << 20

    def test_make_code_length_check(self):
        with pytest.raises(ValueError):
            make_code(4, 1, [B("01")], "search")

    def test_make_code_rejects_negative_parameters(self):
        with pytest.raises(ValueError):
            make_code(4, -1, [B("0101")], "search")
        with pytest.raises(ValueError):
            make_code(-1, 1, [], "search")


class TestTwoStageColoring:
    def test_proper_on_small_graphs(self):
        for n in range(1, 11):
            coloring = two_stage_coloring(n, 1)
            g = G(1, n)
            assert verify_coloring(g, coloring.assignment)
            assert max(coloring.assignment.values()) < coloring.num_colors

    def test_adjacent_pair_colored_differently(self):
        coloring = two_stage_coloring(4, 1)
        assert coloring.assignment[B("0101")] != coloring.assignment[B("0110")]

    def test_parity_always_separates(self):
        coloring = two_stage_coloring(6, 1)
        for x, cx in coloring.assignment.items():
            for y, cy in coloring.assignment.items():
                if weight(x) % 2 != weight(y) % 2:
                    assert cx != cy

    def test_matches_string_reference(self):
        # color = weight parity * width + layer color, width = widest layer
        for n in range(0, 11):
            layers = [string_coloring(n, k) for k in range(n + 1)]
            width = max(m for m, _ in layers)
            expected = {w: (k % 2) * width + color
                        for k, (_, colors) in enumerate(layers) for w, color in colors.items()}
            coloring = two_stage_coloring(n, 1)
            assert {str(x): c for x, c in coloring.assignment.items()} == expected
            assert coloring.num_colors == 2 * width

    def test_general_s_needs_provider(self):
        with pytest.raises(ValueError):
            two_stage_coloring(6, 2)

    def test_custom_provider(self):
        def provider(s, n, k):
            g = G(s, n, k)
            # one color per vertex is trivially proper
            return {x: i for i, x in enumerate(g.vertices)}, len(g)

        coloring = two_stage_coloring(6, 2, provider)
        assert verify_coloring(G(2, 6), coloring.assignment)


class TestBounds:
    def test_levenshtein_examples(self):
        assert levenshtein_lower_bound(8, 1) == Fraction(512, 74)
        assert levenshtein_lower_bound(6, 0) == 64
        ins = insertion_count(2, 10)
        assert ins == 56
        assert levenshtein_lower_bound(10, 2) == Fraction(2**12, ins * (ins - 1) + 4)

    def test_levenshtein_achieved_by_greedy(self):
        assert len(greedy_mis(G(2, 10))) >= math.ceil(levenshtein_lower_bound(10, 2))

    def test_constant_weight_zero_deletions(self):
        assert constant_weight_guarantee(6, 0) == 64

    def test_constant_weight_achieved_greedy(self):
        for n, s in [(4, 1), (10, 1), (8, 2)]:
            value = constant_weight_guarantee(n, s)
            best = max(
                len(weight_partition_code(n, s, a, greedy_layer_solver).words)
                for a in range(s + 1)
            )
            assert best >= value

    def test_asymptotic_form(self):
        assert constant_weight_guarantee_asymptotic(10, 1) == Fraction(
            2**13, 2 * 2 * 10**2
        )

    def test_penalty_ratio(self):
        assert penalty_ratio(1) == 1
        assert penalty_ratio(2) == Fraction(9, 8)
        assert penalty_ratio(3) == Fraction(5, 4)

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            levenshtein_lower_bound(2, 3)
        with pytest.raises(ValueError):
            penalty_ratio(-1)


class TestChromaticCertificate:
    def test_full_graph(self):
        coloring, clique, chi = chromatic_certificate(4)
        assert chi == 5
        g = G(1, 4)
        assert verify_coloring(g, coloring.assignment)
        assert len(clique.vertices) == 5
        assert verify_clique(g, clique.vertices)

    def test_layer(self):
        coloring, clique, chi = chromatic_certificate(4, 2)
        assert chi == 3
        g = G(1, 4, 2)
        assert verify_coloring(g, coloring.assignment)
        assert len(clique.vertices) == 3
        assert verify_clique(g, clique.vertices)

    def test_balanced_layer(self):
        _, _, chi = chromatic_certificate(6, 3)
        assert chi == 4

    def test_all_layers_small(self):
        for n in range(2, 9):
            for k in range(1, n):
                coloring, clique, chi = chromatic_certificate(n, k)
                assert chi == max(k, n - k) + 1
                g = G(1, n, k)
                assert verify_coloring(g, coloring.assignment)
                assert len(clique.vertices) == chi
                assert verify_clique(g, clique.vertices)

    def test_matches_string_reference(self):
        for n in range(1, 11):
            for k in [None, *range(1, n)]:
                m, expected = string_coloring(n, k)
                coloring, clique, chi = chromatic_certificate(n, k)
                assert {str(x): c for x, c in coloring.assignment.items()} == expected
                assert coloring.num_colors == chi == len(clique.vertices) == m

    def test_degenerate_layer_rejected(self):
        with pytest.raises(ValueError):
            chromatic_certificate(4, 0)
        with pytest.raises(ValueError):
            chromatic_certificate(4, 4)


class TestChromaticLowerBound:
    def test_single_deletion(self):
        for n in range(1, 13):
            assert chromatic_lower_bound(1, n) == n + 1

    def test_always_at_least_insertion_count(self):
        for s in (1, 2, 3):
            for n in range(s, 26):
                assert chromatic_lower_bound(s, n) >= insertion_count(s, n)

    def test_two_deletions_n24(self):
        # the best segment clique (144) loses to the supersequence clique here
        assert chromatic_lower_bound(2, 24) == 301

    def test_strictly_better_when_segment_clique_wins(self):
        for n in range(2, 13):
            base = insertion_count(2, n)
            witness = best_segment_clique(2, n)
            lb = chromatic_lower_bound(2, n)
            if witness is not None and len(witness.vertices) > base:
                assert lb > base
            else:
                assert lb == base

    def test_complete_graph_regime(self):
        assert chromatic_lower_bound(3, 2) == 4

    def test_best_segment_clique_members_have_requested_length(self):
        w = best_segment_clique(2, 24)
        assert w is not None
        assert all(len(v) == 24 for v in w.vertices)

    def test_best_segment_clique_tie_goes_to_first_found(self):
        # (l, k, b, c) = (6, 1, 0, 1) and (4, 1, 1, 0) both give 4 members
        w = best_segment_clique(1, 5)
        assert w.params == {"l": 6, "k": 1, "b": 0, "c": 1}
        assert chromatic_lower_bound(1, 5) == 6


class TestCodeFiles:
    def test_round_trip(self, tmp_path):
        code = vt_code(6, 2)
        path = tmp_path / "c.txt"
        write_code_file(code, str(path))
        back = read_code_file(str(path))
        assert back.n == code.n and back.s == code.s
        assert back.words == code.words
        assert back.provenance == code.provenance

    def test_exact_format(self, tmp_path):
        code = make_code(3, 1, [B("101"), B("010")], "search")
        path = tmp_path / "c.txt"
        write_code_file(code, str(path))
        data = path.read_bytes()
        assert data == b"# delcode v1\n# n=3 s=1 kind=search\n010\n101\n"

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_code_file(vt_code(7, 3), str(a))
        write_code_file(vt_code(7, 3), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_read_errors(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("nonsense\n")
        with pytest.raises(ValueError):
            read_code_file(str(path))
        path.write_text("# delcode v1\n# n=two s=1 kind=x\n")
        with pytest.raises(ValueError):
            read_code_file(str(path))
        path.write_text("# delcode v1\n# n=3 s=1 kind=x\n0120\n")
        with pytest.raises(ValueError):
            read_code_file(str(path))
        path.write_text("# delcode v1\n# n=3 s=1 kind=x\n01\n")
        with pytest.raises(ValueError):
            read_code_file(str(path))
