"""Unit and property tests for the bit-string algebra."""

import random
import re
import time
from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

from delcodes import (
    BitString,
    CapacityError,
    MAX_LENGTH,
    common_substrings,
    confusable_set,
    delete_all,
    deletion_distance,
    insert_all,
    insert_all_weighted,
    insertion_count,
    lcs_length,
    weight,
)
from delcodes.bitstring import (
    _deletion_ball,
    _deletion_ball_bound,
    _deletion_levels,
    _single_insertions,
)

from conftest import string_lcs, string_subsequences, string_supersequences, string_words

B = BitString


def bset(*texts):
    return {B(t) for t in texts}


def all_words(n):
    return [B.from_value(v, n) for v in range(1 << n)]


@lru_cache(maxsize=None)
def cached_insert_all(x, s):
    return insert_all(x, s)


class TestBitString:
    def test_parse_render_round_trip(self):
        for text in ["", "0", "1", "0110001", "0" * 63]:
            assert str(B(text)) == text

    def test_equality_distinguishes_lengths(self):
        assert B("0") != B("00")
        assert B("") != B("0")
        assert B("0101") == B([0, 1, 0, 1])

    def test_invalid_symbols_rejected(self):
        with pytest.raises(ValueError, match="invalid symbol '2'"):
            B("012")
        with pytest.raises(ValueError):
            B([0, 2])
        # each of these is a valid base-2 numeral for int()
        for text, symbol in [(" 01", " "), ("0_1", "_"), ("+1", "+"), ("01\n", "\n")]:
            with pytest.raises(ValueError, match=re.escape(f"invalid symbol {symbol!r}")):
                B(text)

    def test_length_cap(self):
        B("0" * MAX_LENGTH)
        with pytest.raises(ValueError):
            B("0" * (MAX_LENGTH + 1))

    def test_indexing_leftmost_first(self):
        x = B("0110001")
        assert [x[i] for i in range(len(x))] == [0, 1, 1, 0, 0, 0, 1]
        assert x[-1] == 1
        with pytest.raises(IndexError):
            x[7]

    def test_ordering_by_length_then_value(self):
        assert B("1") < B("00")
        assert B("01") < B("10")
        assert sorted([B("10"), B("01"), B("1")]) == [B("1"), B("01"), B("10")]

    def test_all_four_comparisons(self):
        # > and >= come from reflecting < and <=
        words = [B(""), B("1"), B("00"), B("01"), B("10"), B("000")]
        for i, x in enumerate(words):
            for j, y in enumerate(words):
                assert (x < y, x <= y, x > y, x >= y) == (i < j, i <= j, i > j, i >= j)
        assert max(words[::-1]) == B("000")
        assert sorted(words, reverse=True) == words[::-1]

    @pytest.mark.parametrize("compare", [
        lambda x, y: x < y, lambda x, y: x <= y, lambda x, y: x > y, lambda x, y: x >= y,
    ], ids=["lt", "le", "gt", "ge"])
    def test_comparison_with_int_raises(self, compare):
        with pytest.raises(TypeError):
            compare(B("01"), 1)
        with pytest.raises(TypeError):
            compare(1, B("01"))

    def test_concatenation(self):
        assert B("01") + B("10") == B("0110")
        assert B("") + B("1") == B("1")

    def test_from_value_range_checks(self):
        assert B.from_value(5, 4) == B("0101")
        with pytest.raises(ValueError):
            B.from_value(16, 4)
        with pytest.raises(ValueError):
            B.from_value(0, 64)

    def test_hashable_and_usable_in_sets(self):
        assert len({B("01"), B("01"), B("10")}) == 2


class TestWeight:
    def test_examples(self):
        assert weight(B("0000")) == 0
        assert weight(B("1111")) == 4
        assert weight(B("0110001")) == 3


class TestDeleteAll:
    def test_single_run(self):
        assert delete_all(B("000"), 1) == bset("00")

    def test_alternating_examples(self):
        assert delete_all(B("0101"), 1) == bset("101", "001", "011", "010")
        assert delete_all(B("0101"), 2) == bset("01", "00", "10", "11")

    def test_zero_deletions_identity(self):
        assert delete_all(B("0110"), 0) == {B("0110")}

    def test_s_out_of_range(self):
        with pytest.raises(ValueError):
            delete_all(B("01"), 3)
        with pytest.raises(ValueError):
            delete_all(B("01"), -1)

    def test_bottom_level_matches_string_reference(self):
        # one word's level pass ends in its deletion ball, each entry
        # holding that word's bit, and the mask-free pass lists the same ball
        for n in range(9):
            for w in string_words(n):
                for s in range(n + 1):
                    _, bottom = _deletion_levels([B(w).value], n, s)
                    assert set(bottom.values()) == {1}
                    assert ({str(B.from_value(z, n - s)) for z in bottom}
                            == string_subsequences(w, n - s))
                    assert _deletion_ball(B(w).value, n, s) == bottom.keys()

    def test_levenshtein_bound(self):
        # a word with r runs has at most C(r + s - 1, s) distinct s-deletions
        for n in range(11):
            for x in all_words(n):
                for s in range(n + 1):
                    assert len(delete_all(x, s)) <= _deletion_ball_bound(x.value, n, s)

    def test_ball_size_cap(self):
        # 34 runs and 8 deletions: up to C(41, 8) = 95,548,245 words
        x = B("01" * 17)
        for call in (lambda: delete_all(x, 8), lambda: common_substrings(x, x, 8)):
            start = time.perf_counter()
            with pytest.raises(CapacityError, match="2\\^22"):
                call()
            assert time.perf_counter() - start < 1
        # C(18, 4) = 3,060 on the bound; the listing itself is smaller
        assert len(delete_all(B("01" * 8), 4)) <= 3060


class TestInsertAll:
    def test_example(self):
        assert insert_all(B("000"), 1) == bset("0000", "1000", "0100", "0010", "0001")

    def test_zero_insertions_identity(self):
        assert insert_all(B("0110"), 0) == {B("0110")}

    def test_size_independent_of_base_string(self):
        # every length-3 base gives exactly 5 supersequences
        assert all(len(insert_all(x, 1)) == 5 for x in all_words(3))

    def test_single_insertions_match_string_reference(self):
        for n in range(9):
            for w in string_words(n):
                out = _single_insertions(B(w).value, n)
                assert len(set(out)) == len(out) == n + 2
                assert {str(B.from_value(v, n + 1)) for v in out} == string_supersequences(w, 1)

    def test_top_length(self):
        # both insertions land on the 63rd symbol, the top bit of the packing
        out = insert_all(B("01" * 30 + "0"), 2)
        assert len(out) == insertion_count(2, 63)
        assert all(len(y) == MAX_LENGTH for y in out)

    def test_length_overflow(self):
        with pytest.raises(ValueError):
            insert_all(B("0" * 62), 2)
        with pytest.raises(ValueError):
            insert_all(B("0"), -1)

    def test_result_size_cap(self):
        # sum(C(n + s, i) for i <= s) words: 2^23 - 1, and about 1.1e14
        for x, s in ((B("0"), 22), (B("0" * 30), 20)):
            start = time.perf_counter()
            with pytest.raises(CapacityError, match="2\\^22"):
                insert_all(x, s)
            assert time.perf_counter() - start < 1
        assert len(insert_all(B("0"), 10)) == 2**11 - 1


class TestInsertAllWeighted:
    def test_examples(self):
        assert insert_all_weighted(B("0"), 1, 0) == bset("00")
        assert insert_all_weighted(B("0"), 1, 1) == bset("10", "01")

    def test_fixed_weight_count(self):
        out = insert_all_weighted(B("0101"), 2, 1)
        assert len(out) == 10
        assert all(len(y) == 6 and weight(y) == 3 for y in out)

    def test_r_out_of_range(self):
        with pytest.raises(ValueError):
            insert_all_weighted(B("0"), 1, 2)

    def test_matches_filtered_insert_all(self):
        for n in range(7):
            for v in range(1 << n):
                x = B.from_value(v, n)
                for s in range(4):
                    full = insert_all(x, s)
                    for r in range(s + 1):
                        expected = {y for y in full if weight(y) == weight(x) + r}
                        assert insert_all_weighted(x, s, r) == expected, (x, s, r)

    def test_result_size_cap(self):
        # C(40, 10) = 847,660,528 weighted supersequences; the cap counts these,
        # not the whole insert_all set
        start = time.perf_counter()
        with pytest.raises(CapacityError, match="2\\^22"):
            insert_all_weighted(B("0" * 20), 20, 10)
        assert time.perf_counter() - start < 1
        assert insert_all_weighted(B("0" * 20), 20, 0) == {B("0" * 40)}

    def test_partition_of_insert_all(self):
        # the weighted sets partition the full insertion set
        for n in range(0, 9):
            for v in range(1 << n):
                x = B.from_value(v, n)
                for s in range(0, 4):
                    full = insert_all(x, s)
                    parts = [insert_all_weighted(x, s, r) for r in range(s + 1)]
                    assert sum(len(p) for p in parts) == len(full)
                    assert set().union(*parts) == full


class TestLcsAndDistance:
    def test_lcs_examples(self):
        assert lcs_length(B("01"), B("10")) == 1
        assert lcs_length(B("0110"), B("0110")) == 4
        assert lcs_length(B("0000"), B("1111")) == 0

    def test_lcs_matches_string_reference_exhaustive(self):
        words = [w for n in range(8) for w in string_words(n)]
        assert len(words) ** 2 == 65_025
        for x in words:
            bx = B(x)
            for y in words:
                assert lcs_length(bx, B(y)) == string_lcs(x, y), (x, y)

    def test_lcs_matches_string_reference_long(self):
        rng = random.Random(17)
        pairs = [("0" * 63, "1" * 63), ("01" * 31 + "0", "10" * 31 + "1")]
        for w in ("0" * 63, "1" * 63, "01" * 31 + "0", "10" * 31 + "1"):
            pairs += [(w, w), (w, w[:-1]), (w, "")]
        for _ in range(10_000):
            pairs.append(tuple(
                "".join(rng.choice("01") for _ in range(rng.randrange(64)))
                for _ in range(2)
            ))
        for x, y in pairs:
            expected = string_lcs(x, y)
            assert lcs_length(B(x), B(y)) == lcs_length(B(y), B(x)) == expected, (x, y)

    def test_distance_examples(self):
        assert deletion_distance(B("01"), B("10")) == 2
        assert deletion_distance(B("0110"), B("0110")) == 0
        assert deletion_distance(B("0110001"), B("001001010101101")) == 8

    def test_distance_even_for_equal_lengths(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randrange(1, 12)
            x = B.from_value(rng.randrange(1 << n), n)
            y = B.from_value(rng.randrange(1 << n), n)
            assert deletion_distance(x, y) % 2 == 0

    def test_triangle_inequality_exhaustive_small(self):
        for n in range(1, 5):
            words = all_words(n)
            for x in words:
                for y in words:
                    dxy = deletion_distance(x, y)
                    for z in words:
                        assert deletion_distance(x, z) <= dxy + deletion_distance(y, z)

    def test_triangle_inequality_sampled(self):
        rng = random.Random(11)
        for _ in range(10_000):
            n = rng.randrange(1, 11)
            x, y, z = (B.from_value(rng.randrange(1 << n), n) for _ in range(3))
            assert deletion_distance(x, z) <= (
                deletion_distance(x, y) + deletion_distance(y, z)
            )

    def test_weight_gap(self):
        rng = random.Random(13)
        for _ in range(10_000):
            n = rng.randrange(1, 11)
            x = B.from_value(rng.randrange(1 << n), n)
            y = B.from_value(rng.randrange(1 << n), n)
            assert deletion_distance(x, y) >= 2 * abs(weight(x) - weight(y))

    def test_concatenation_subadditivity(self):
        rng = random.Random(17)
        for _ in range(10_000):
            parts = []
            for _ in range(4):
                m = rng.randrange(0, 13)
                parts.append(B.from_value(rng.randrange(1 << m) if m else 0, m))
            x, xp, y, yp = parts
            assert deletion_distance(x + xp, y + yp) <= (
                deletion_distance(x, y) + deletion_distance(xp, yp)
            )


class TestCommonSubstrings:
    def test_examples(self):
        out = common_substrings(B("0101"), B("0110"), 1)
        assert B("011") in out and B("010") in out
        assert common_substrings(B("0000"), B("1111"), 1) == set()
        x = B("0110")
        assert common_substrings(x, x, 2) == delete_all(x, 2)

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError):
            common_substrings(B("01"), B("010"), 1)

    def test_nonempty_iff_distance_small(self):
        for n in range(1, 7):
            words = all_words(n)
            for s in range(0, n + 1):
                for x in words:
                    for y in words:
                        shared = bool(common_substrings(x, y, s))
                        assert shared == (deletion_distance(x, y) <= 2 * s)


class TestConfusableSet:
    def test_examples(self):
        assert confusable_set(B("00"), 1) == bset("01", "10")
        assert confusable_set(B("0110"), 0) == set()
        assert len(confusable_set(B("0101"), 1)) <= 16

    def test_matches_definition(self):
        for n in range(1, 7):
            words = all_words(n)
            for s in range(0, 3):
                if s > n:
                    continue
                for x in words:
                    expected = {
                        y
                        for y in words
                        if y != x and common_substrings(x, y, s)
                    }
                    assert confusable_set(x, s) == expected

    def test_size_cap(self):
        # C(33, 4) = 40,920 ball words on the bound, each with
        # sum(C(30, i) for i <= 4) = 31,931 supersequences
        start = time.perf_counter()
        with pytest.raises(CapacityError, match="2\\^22"):
            confusable_set(B("01" * 15), 4)
        assert time.perf_counter() - start < 1
        # 15 runs and 2 deletions: 120 * 121 = 14,520, under the cap
        assert len(confusable_set(B("01" * 7 + "0"), 2)) < 14520

    @given(st.integers(0, 9).flatmap(lambda n: st.tuples(
        st.text("01", min_size=n, max_size=n), st.integers(0, n))))
    def test_matches_string_reference(self, params):
        # plain strings: the other words of the same length that share a
        # length-(n-s) subsequence with x
        x, s = params
        m = len(x) - s
        ball = string_subsequences(x, m)
        expected = {w for w in string_words(len(x))
                    if w != x and not ball.isdisjoint(string_subsequences(w, m))}
        assert {str(y) for y in confusable_set(B(x), s)} == expected


def test_deletion_insertion_duality():
    # y is an s-deletion of x exactly when x is an s-insertion of y
    for n in range(1, 9):
        for v in range(1 << n):
            x = B.from_value(v, n)
            for s in range(0, min(3, n) + 1):
                for y in delete_all(x, s):
                    assert x in cached_insert_all(y, s)
    # reverse direction, on a smaller range
    for m in range(0, 6):
        for v in range(1 << m):
            y = B.from_value(v, m)
            for s in range(0, 4):
                for x in insert_all(y, s):
                    assert y in delete_all(x, s)
