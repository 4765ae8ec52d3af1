"""Tests for code constructions, colorings, bounds, and file persistence."""

import math
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from delcodes import (
    BitString,
    BudgetExceededError,
    CapacityError,
    CliqueWitness,
    Code,
    GraphParams,
    InsertionEncoding,
    best_segment_clique,
    build_graph,
    chromatic_certificate,
    chromatic_lower_bound,
    confusable_set,
    constant_weight_guarantee,
    constant_weight_guarantee_asymptotic,
    delete_all,
    deletion_distance,
    encode,
    f_s_bound,
    f_s_value,
    f_s_value_multinomial,
    find_conflict,
    greedy_layer_solver,
    imperfectness_witness,
    induced_cycle,
    greedy_mis,
    insert_all,
    insert_all_weighted,
    insertion_count,
    layer_code,
    layer_color_solver,
    levenshtein_lower_bound,
    make_code,
    make_exact_layer_solver,
    modified_vt_weight,
    penalty_ratio,
    read_code_file,
    segment_clique,
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
    weighted_insertion_count,
    write_code_file,
)
from delcodes import bitstring as bitstring_module, cli as cli_module, codes as codes_module
from delcodes.graph import exact_mis

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
    (lambda: layer_code(-3, 0), "n=-3"),
    (lambda: chromatic_certificate(-3, 0), "n=-3"),
    (lambda: best_segment_clique(1, -5), "n=-5"),
    (lambda: vt_code(4, 5), "residue must be in 0..4, got 5"),
    (lambda: weight_partition_code(6, 1, 2, greedy_layer_solver),
     "residue_a must be in 0..1, got 2"),
    (lambda: weight_partition_size_bound(6, 2), "a must be in 0..1, got 2"),
    (lambda: build_graph(1, 4, 5), "k must be in 0..4, got 5"),
    (lambda: insert_all_weighted(B("01"), 2, 3), "r must be in 0..2, got 3"),
    (lambda: weighted_insertion_count(5, 0, 4, 2), "s must be in 0..4, got 5"),
    (lambda: weighted_insertion_count(2, 1, 6, 6), "k must be in 1..5, got 6"),
    (lambda: penalty_ratio(-1), "s must be at least 0, got -1"),
    (lambda: segment_clique(3, 1, 0, 0), "^l must be at least 4, got 3"),
    (lambda: segment_clique(4, 0, 0, 0), "k must be at least 1, got 0"),
    (lambda: segment_clique(4, 1, -1, 0), "b must be at least 0, got -1"),
    (lambda: segment_clique(4, 1, 0, -1), "c must be at least 0, got -1"),
    (lambda: segment_clique(4, 1, 1, 1), "require b \\+ c <= k, got k=1, b=1, c=1"),
    (lambda: induced_cycle(1, 2), "cycle_len must be at least 3, got 2"),
    (lambda: imperfectness_witness(1, 3), "n must be at least 4, got 3"),
    (lambda: exact_mis(G(1, 3), node_budget=-1), "node budget must be at least 0, got -1"),
], ids=["chromatic_lower_bound", "two_stage_coloring", "vt_code", "weight_partition_code",
        "insert_all_weighted", "substring_clique", "insert_all", "delete_all",
        "confusable_set", "insertion_count", "levenshtein_lower_bound", "build_graph", "Code",
        "layer_code", "chromatic_certificate", "best_segment_clique", "vt_code-residue",
        "weight_partition_code-residue", "weight_partition_size_bound-a", "build_graph-k",
        "insert_all_weighted-r", "weighted_insertion_count-s", "weighted_insertion_count-k",
        "penalty_ratio-s", "segment_clique-l", "segment_clique-k", "segment_clique-b",
        "segment_clique-c", "segment_clique-b-plus-c", "induced_cycle-cycle_len",
        "imperfectness_witness-n", "exact_mis-budget"])
def test_size_out_of_range_named(call, bad):
    # one check for every entry point, naming the bad argument and its bounds
    with pytest.raises(ValueError, match=rf"\b{bad}\b"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: build_graph(True, 4), "s must be an integer, got True"),
    (lambda: build_graph(1, 4.0), "n must be an integer, got 4.0"),
    (lambda: build_graph(1, 4, True), "k must be an integer, got True"),
    (lambda: make_code(2, 1, ["01", "10"], "vt"), "codeword '01' is not a BitString"),
    (lambda: make_code(True, 1, [B("1")], "vt"), "n must be an integer, got True"),
    (lambda: make_code(1, 1.0, [B("1")], "vt"), "s must be an integer, got 1.0"),
    (lambda: vt_code(True, 0), "n must be an integer, got True"),
    (lambda: layer_code(4, 2.0), "k must be an integer, got 2.0"),
    (lambda: layer_code(False, 0), "n must be an integer, got False"),
], ids=["build_graph-bool-s", "build_graph-float-n", "build_graph-bool-k",
        "make_code-str-word", "make_code-bool-n", "make_code-float-s", "vt_code-bool-n",
        "layer_code-float-k", "layer_code-bool-n"])
def test_non_integer_size_or_word_is_type_error(call, message):
    # a bool passes for 0 or 1 and a float for its value, so both are refused
    with pytest.raises(TypeError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("call, name", [
    (lambda: induced_cycle(True, 5), "s"),
    (lambda: induced_cycle(1, 5.0), "cycle_len"),
    (lambda: imperfectness_witness(True, 5), "s"),
    (lambda: imperfectness_witness(1, 5.0), "n"),
    (lambda: segment_clique(4.0, 2, 1, 0), "l"),
    (lambda: segment_clique(4, 2, True, 0), "b"),
    (lambda: chromatic_certificate(4.0), "n"),
    (lambda: substring_clique(B("01"), 1, True), "layer"),
    (lambda: substring_clique(B("01"), 1, 1.0), "layer"),
    (lambda: weighted_insertion_count(True, 0, 4, 2), "s"),
    (lambda: weighted_insertion_count(1, 0, 4.0, 2), "n"),
    (lambda: weight_partition_size_bound(6, True), "a"),
    (lambda: penalty_ratio(True), "s"),
    (lambda: f_s_value(True, 0.5), "s"),
    (lambda: f_s_value_multinomial(1.5, 0.5), "s"),
    (lambda: f_s_bound(2.0), "s"),
    (lambda: insert_all_weighted(B("01"), 2, 1.0), "r"),
    (lambda: insert_all_weighted(B("01"), 2, True), "r"),
    (lambda: vt_code(5, True), "residue"),
    (lambda: vt_code(5, 1.0), "residue"),
    (lambda: weight_partition_code(6, 1, True, layer_color_solver), "residue_a"),
    (lambda: weight_partition_code(6, 1, 1.0, layer_color_solver), "residue_a"),
    (lambda: layer_color_solver(True, 5, 2), "s"),
], ids=["induced_cycle-bool-s", "induced_cycle-float-cycle_len",
        "imperfectness_witness-bool-s", "imperfectness_witness-float-n",
        "segment_clique-float-l", "segment_clique-bool-b", "chromatic_certificate-float-n",
        "substring_clique-bool-layer", "substring_clique-float-layer",
        "weighted_insertion_count-bool-s", "weighted_insertion_count-float-n",
        "weight_partition_size_bound-bool-a", "penalty_ratio-bool-s", "f_s_value-bool-s",
        "f_s_value_multinomial-float-s", "f_s_bound-float-s", "insert_all_weighted-float-r",
        "insert_all_weighted-bool-r", "vt_code-bool-residue", "vt_code-float-residue",
        "weight_partition_code-bool-residue", "weight_partition_code-float-residue",
        "layer_color_solver-bool-s"])
def test_non_integer_argument_named(call, name):
    # the witness builders, the counts and the residue codes run the same
    # integer check, where a bool returned a result and a float failed deep
    # inside without a name
    with pytest.raises(TypeError, match=f"^{name} must be an integer"):
        call()


def spy_on_classes(monkeypatch):
    """Record each _vt_classes listing, and fail any _vt_color evaluated outside one."""
    listings, inside = [], []
    list_classes, color = bitstring_module._vt_classes, bitstring_module._vt_color

    def classes_spy(n, k=None):
        listings.append((n, k))
        inside.append(True)
        try:
            return list_classes(n, k)
        finally:
            inside.pop()

    def color_spy(v, n, k=None):
        assert inside, "_vt_color evaluated outside _vt_classes"
        return color(v, n, k)

    for name, module in list(sys.modules.items()):
        if name == "delcodes" or name.startswith("delcodes."):
            for attr, spy in (("_vt_classes", classes_spy), ("_vt_color", color_spy)):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, spy)
    return listings


class TestVtClasses:
    def test_matches_string_reference(self):
        # every class in ascending order, one class per color, the words partitioned
        for n in range(0, 11):
            for k in [None, *range(n + 1)]:
                modulus = string_coloring(n, k)[0]
                reference = string_classes(n, k)
                classes = bitstring_module._vt_classes(n, k)
                assert len(classes) == modulus
                assert [[str(BitString.from_value(v, n)) for v in values] for values in classes] \
                    == [reference.get(col, []) for col in range(modulus)]
                assert all(a < b for values in classes for a, b in zip(values, values[1:]))
                assert sorted(v for values in classes for v in values) \
                    == list(bitstring_module._word_values(n, k))

    @pytest.mark.parametrize("call", [
        lambda: vt_code(8, 3),
        lambda: layer_code(9, 4),
        lambda: chromatic_certificate(8, 3),
        lambda: cli_module.main(["bounds", "--s", "1", "--n", "8"]),
    ], ids=["vt_code", "layer_code", "chromatic_certificate", "bounds"])
    def test_one_listing_per_call(self, monkeypatch, capsys, call):
        # each consumer lists the classes once, and no word is colored elsewhere
        listings = spy_on_classes(monkeypatch)
        assert call() not in (1, 2)  # the CLI's failure exits
        assert len(listings) == 1

    def test_selftest_colors_only_through_classes(self, monkeypatch, capsys):
        spy_on_classes(monkeypatch)
        assert cli_module.main(["selftest", "--max-n", "8"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "failures=0"


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
        assert len(layer_code(12, 4).words) == 55

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

    def test_color_solver_single_deletion_only(self):
        with pytest.raises(ValueError, match="handles s = 1 only"):
            layer_color_solver(2, 6, 3)

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
        # at n = 0 the residue-0 code is the empty word alone, and no
        # opposite-parity layer is subtracted from its floor of 1
        assert weight_partition_size_bound(0, 0) == 1
        for n in range(0, 15):
            for a in (0, 1):
                code = weight_partition_code(n, 1, a, layer_color_solver)
                assert len(code.words) >= weight_partition_size_bound(n, a)
                assert verify_code(code)

    def test_word_outside_its_layer_rejected(self):
        # without the check the union would hold 1000 beside 0000, which verify_code rejects
        def solver(s, n, k):
            return layer_color_solver(s, n, k) | ({B("1000")} if k == 0 else set())

        with pytest.raises(ValueError, match="returned 1000, outside layer 0"):
            weight_partition_code(4, 1, 0, solver)

    def test_non_bitstring_from_layer_solver_rejected(self):
        # a str has no .value, so the weight check alone raised AttributeError
        def solver(s, n, k):
            return [str(x) for x in layer_color_solver(s, n, k)]

        with pytest.raises(ValueError, match="returned '0000' for layer 0, not a BitString"):
            weight_partition_code(4, 1, 0, solver)

    def test_residue_out_of_range(self):
        with pytest.raises(ValueError):
            weight_partition_code(4, 1, 2, layer_color_solver)
        with pytest.raises(ValueError):
            weight_partition_size_bound(6, 2)

    def test_negative_n_named(self):
        # by the size check every entry point shares, not as a missing weight
        with pytest.raises(ValueError, match=r"require n >= 0 and s >= 0, got n=-3\b"):
            weight_partition_size_bound(-3, 0)


def complement(words, n):
    return {B.from_value(x.value ^ ((1 << n) - 1), n) for x in words}


class TestExactLayerSolver:
    def test_mirror_layers_are_complement_images(self):
        # complement maps layer k of L(s, n) onto layer n - k
        for n in range(10):
            for s in range(min(n, 3) + 1):
                solver = make_exact_layer_solver()
                for k in range(n + 1):
                    out = solver(s, n, k)
                    g = G(s, n, k)
                    assert verify_independent(g, out), (s, n, k)
                    assert len(out) == len(exact_mis(g)), (s, n, k)
                    if 2 * k != n:  # a middle layer is solved as it is
                        assert out == complement(solver(s, n, n - k), n), (s, n, k)

    def test_mirror_pair_builds_one_graph(self, monkeypatch):
        built = []
        real = codes_module.build_graph

        def spy(s, n, k=None):
            built.append((s, n, k))
            return real(s, n, k)

        monkeypatch.setattr(codes_module, "build_graph", spy)
        solver = make_exact_layer_solver()
        high = solver(1, 9, 6)
        low = solver(1, 9, 3)
        assert built == [(1, 9, 3)]
        assert high == complement(low, 9) and len(low) == 13
        # each call returns a fresh set: changing one leaves the next intact
        low.clear()
        assert solver(1, 9, 3) == complement(high, 9)
        assert built == [(1, 9, 3)]
        # residue 1 of n = 9 takes layers 1, 3, 5, 7 and 9 from layers 1, 3,
        # 4, 2 and 0, of which 3 is known; residue 0 then builds no graph
        code = weight_partition_code(9, 1, 1, solver)
        assert built == [(1, 9, 3), (1, 9, 1), (1, 9, 4), (1, 9, 2), (1, 9, 0)]
        assert verify_code(code)
        twin = weight_partition_code(9, 1, 0, solver)
        assert len(built) == 5 and verify_code(twin)

    def test_exhausted_incumbent_is_mapped(self):
        # layer 6 is solved as layer 3, whose incumbent comes back mapped
        solver = make_exact_layer_solver(0)
        with pytest.raises(BudgetExceededError) as info:
            solver(1, 9, 6)
        assert info.value.best and all(weight(x) == 6 for x in info.value.best)
        assert verify_independent(G(1, 9, 6), info.value.best)

    @pytest.mark.parametrize("budget, error", [
        (-1, ValueError), (2.5, TypeError), ("10", TypeError), (True, TypeError),
    ], ids=repr)
    def test_budget_checked_where_given(self, budget, error):
        # rejected when the solver is made, not at its first layer
        with pytest.raises(error, match="node budget must be"):
            make_exact_layer_solver(budget)


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

    def test_code_length_check(self):
        # a Code built directly is checked too: verification lists the
        # length-(n-s) subsequences, which a word of another length lacks
        with pytest.raises(ValueError, match="does not have length 5"):
            Code(n=5, s=1, words=(B("011"), B("110")), provenance="x")
        with pytest.raises(ValueError, match="does not have length 3"):
            Code(n=3, s=1, words=(B("0000"), B("0111")), provenance="x")

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
        # three weight residues of the 20-word middle layer's width
        assert coloring.num_colors == 3 * math.comb(6, 3)

    def test_provider_colorings_checked(self):
        def provider(s, n, k):
            return {x: i for i, x in enumerate(G(s, n, k).vertices)}, math.comb(n, k)

        def changed(layer, edit):
            def changed_provider(s, n, k):
                colors, nc = provider(s, n, k)
                return edit(colors, nc) if k == layer else (colors, nc)
            return changed_provider

        # nothing colored, today's empty "proper coloring"
        with pytest.raises(ValueError, match="layer 0 coloring does not color exactly"):
            two_stage_coloring(4, 2, lambda s, n, k: ({}, 0))
        bad = [
            (lambda colors, nc: ({**colors, B("1111"): 0}, nc), "does not color exactly"),
            (lambda colors, nc: (dict(list(colors.items())[1:]), nc), "does not color exactly"),
            (lambda colors, nc: ({x: c + 1 for x, c in colors.items()}, nc), "color 6, outside 0..5"),
            (lambda colors, nc: ({x: -c for x, c in colors.items()}, nc), "color -1"),
            (lambda colors, nc: ({x: str(c) for x, c in colors.items()}, nc), "color '0'"),
            # a color count that is not an integer of at least 1
            (lambda colors, nc: (colors, str(nc)), "color count '6'"),
            (lambda colors, nc: (colors, float(nc)), "color count 6.0,"),
            (lambda colors, nc: (colors, True), "color count True"),
        ]
        for edit, message in bad:
            with pytest.raises(ValueError, match=f"layer 2 coloring.*{message}"):
                two_stage_coloring(4, 2, changed(2, edit))
        coloring = two_stage_coloring(4, 2, provider)
        assert verify_coloring(G(2, 4), coloring.assignment)

    def test_provider_keys_checked(self):
        # right count, wrong keys: a string, a word one symbol too long, a
        # weight-3 word in place of a weight-2 one
        def provider(s, n, k):
            return {x: i for i, x in enumerate(G(s, n, k).vertices)}, math.comb(n, k)

        def swap(key):
            def changed(s, n, k):
                colors, nc = provider(s, n, k)
                if k == 2:
                    colors[key] = colors.pop(B("0011"))
                return colors, nc
            return changed

        for key in ("0101", B("00110"), B("0111")):
            with pytest.raises(ValueError, match="layer 2 coloring does not color exactly"):
                two_stage_coloring(4, 2, swap(key))

    @pytest.mark.parametrize("s", [1, 2])
    def test_every_layer_checked(self, monkeypatch, s):
        # a fault in any one layer is caught, on the default s = 1 path as on
        # a provider's, and the first faulty layer is the one named
        n = 5

        def provider(s, n, k):
            c = codes_module._vt_coloring(n, k)
            return c.assignment, c.num_colors

        def faulty(layers, edit):
            def changed(s, n, k):
                colors, nc = provider(s, n, k)
                return edit(colors, nc) if k in layers else (colors, nc)
            return changed

        edits = [
            (lambda colors, nc: (dict(list(colors.items())[1:]), nc), "does not color exactly"),
            (lambda colors, nc: ({x: c + nc for x, c in colors.items()}, nc), "outside"),
        ]
        for k in range(n + 1):
            for edit, message in edits:
                for layers in ({k}, {k, n}):
                    given = faulty(layers, edit)
                    if s == 1:  # the default provider, replaced
                        monkeypatch.setattr(codes_module, "_vt_layer_coloring", given)
                        given = None
                    with pytest.raises(ValueError, match=f"layer {k} coloring.*{message}"):
                        two_stage_coloring(n, s, given)

    def test_provider_path_lists_no_words(self, monkeypatch):
        # the check reads the provider's keys: with layer colorings made
        # beforehand, no word list is built
        n = 8
        layers = [(c.assignment, c.num_colors)
                  for c in (codes_module._vt_coloring(n, k) for k in range(n + 1))]
        expected = two_stage_coloring(n, 1).assignment
        listings = []
        word_values = bitstring_module._word_values

        def spy(*args):
            listings.append(args)
            return word_values(*args)

        for name, module in list(sys.modules.items()):
            if (name == "delcodes" or name.startswith("delcodes.")) \
                    and hasattr(module, "_word_values"):
                monkeypatch.setattr(module, "_word_values", spy)
        coloring = two_stage_coloring(n, 1, lambda s, n, k: layers[k])
        assert listings == []
        assert coloring.assignment == expected

    def test_default_path_lists_each_layer_once(self, monkeypatch):
        listings = []
        list_classes = codes_module._vt_classes

        def spy(n, k=None):
            listings.append((n, k))
            return list_classes(n, k)

        monkeypatch.setattr(codes_module, "_vt_classes", spy)
        for n in (0, 1, 6):
            listings.clear()
            two_stage_coloring(n, 1)
            assert listings == [(n, k) for k in range(n + 1)]


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
    def test_full_graph_needs_a_symbol(self):
        with pytest.raises(ValueError, match="n must be at least 1, got 0"):
            chromatic_certificate(0)

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

    @pytest.mark.parametrize("call", [
        lambda: best_segment_clique(-1, 5),
        lambda: best_segment_clique(0, 5),
        lambda: chromatic_lower_bound(0, 5),
    ], ids=["best_segment_clique-negative", "best_segment_clique-zero", "chromatic_lower_bound"])
    def test_s_below_one_rejected(self, call):
        # one check for both: s = 0 has no segment clique to report
        with pytest.raises(ValueError, match="s must be at least 1, got"):
            call()

    def test_best_segment_clique_tie_goes_to_first_found(self):
        # (l, k, b, c) = (6, 1, 0, 1) and (4, 1, 1, 0) both give 4 members
        w = best_segment_clique(1, 5)
        assert w.params == {"l": 6, "k": 1, "b": 0, "c": 1}
        assert chromatic_lower_bound(1, 5) == 6


class _HashableParams(dict):
    def __hash__(self):
        return hash(frozenset(self.items()))


class TestRecords:
    """The five result records are immutable named tuples, compared by value."""

    def test_fields_cannot_be_assigned(self):
        coloring, clique, _ = chromatic_certificate(4)
        records = [GraphParams(1, 4), clique, encode(B("01"), B("0110")), coloring,
                   vt_code(4, 0)]
        for record in records:
            for name in record._fields:
                with pytest.raises(AttributeError):
                    setattr(record, name, None)

    def test_equal_and_hash_equal_by_value(self):
        z = B("01")
        pairs = [
            (GraphParams(1, 5, 2), GraphParams(s=1, n=5, layer=2)),
            (CliqueWitness("substring", (B("011"),), _HashableParams(z=z, s=1)),
             CliqueWitness("substring", (B("011"),), _HashableParams(s=1, z=z))),
            (encode(z, B("0110")), InsertionEncoding.from_text(encode(z, B("0110")).to_text())),
            (vt_code(5, 1), make_code(5, 1, list(vt_code(5, 1).words), "vt")),
        ]
        for a, b in pairs:
            assert a is not b and a == b and hash(a) == hash(b)
        assert GraphParams(1, 5) != GraphParams(1, 5, 0)

    def test_default_clique_params_are_empty_and_read_only(self):
        witness = CliqueWitness("substring", ())
        assert witness.params == {} and len(witness.params) == 0
        with pytest.raises(TypeError):
            witness.params["z"] = B("0")

    def test_replace_runs_the_code_checks(self):
        code = vt_code(4, 0)
        assert code._replace(provenance="x") == make_code(4, 1, code.words, "x")
        assert code._asdict()["words"] == code.words
        with pytest.raises(ValueError, match="does not have length 5"):
            code._replace(n=5)


class TestCodeFiles:
    def test_round_trip(self, tmp_path):
        code = vt_code(6, 2)
        path = tmp_path / "c.txt"
        write_code_file(code, str(path))
        back = read_code_file(str(path))
        assert back.n == code.n and back.s == code.s
        assert back.words == code.words
        assert back.provenance == code.provenance
        # an empty kind reads back too
        write_code_file(make_code(3, 1, [B("010")], ""), str(path))
        assert read_code_file(str(path)).provenance == ""

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

    @pytest.mark.parametrize("kind", ["has space", "two\nlines", "tab\tin", " lead"], ids=repr)
    def test_kind_with_whitespace_refused(self, tmp_path, kind):
        # the header would not read back, so no file is written
        path = tmp_path / "c.txt"
        with pytest.raises(ValueError, match="one token"):
            write_code_file(make_code(3, 1, [B("010")], kind), str(path))
        assert not path.exists()

    @pytest.mark.parametrize("n", [64, 70])
    def test_length_over_63_refused(self, tmp_path, n):
        # no BitString has more than 63 symbols, so no such code is valid
        with pytest.raises(CapacityError, match=f"string length {n} exceeds 63"):
            make_code(n, 1, [], "vt")
        path = tmp_path / "c.txt"
        path.write_text(f"# delcode v1\n# n={n} s=1 kind=vt\n")
        with pytest.raises(CapacityError, match=f"c.txt: string length {n} exceeds 63"):
            read_code_file(str(path))

    def test_magic_line_alone(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# delcode v1\n")
        with pytest.raises(ValueError, match="missing parameter header line"):
            read_code_file(str(path))
