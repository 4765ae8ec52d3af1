"""Tests for superstring counting, the insertion codec, and the polynomial bound."""

import itertools
import math
from fractions import Fraction

import pytest

from delcodes import (
    BitString,
    EncodingError,
    InsertionEncoding,
    decode,
    encode,
    f_s_bound,
    f_s_value,
    f_s_value_multinomial,
    insert_all,
    insert_all_weighted,
    insertion_count,
    weight,
    weighted_insertion_count,
)

from conftest import all_words, string_supersequences, string_words

B = BitString


def binom(n, k):
    # out-of-range k gives 0, matching the conventions of the closed forms
    return math.comb(n, k) if 0 <= k <= n else 0


class TestInsertionCount:
    def test_examples(self):
        assert insertion_count(0, 5) == 1
        assert insertion_count(1, 4) == 5
        assert insertion_count(2, 16) == 137

    def test_matches_enumeration(self):
        for n in range(0, 7):
            for x in all_words(n):
                for s in range(0, 4):
                    assert len(insert_all(x, s)) == insertion_count(s, n + s)

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            insertion_count(3, 2)
        with pytest.raises(ValueError):
            insertion_count(-1, 2)


class TestWeightedInsertionCount:
    def test_single_insertion_closed_forms(self):
        for n in range(1, 12):
            for k in range(0, n + 1):
                if k <= n - 1:
                    assert weighted_insertion_count(1, 0, n, k) == k + 1
                if k >= 1:
                    assert weighted_insertion_count(1, 1, n, k) == n - k + 1

    def test_example(self):
        assert weighted_insertion_count(2, 1, 6, 3) == 10
        assert weighted_insertion_count(2, 1, 6, 3) == len(
            insert_all_weighted(B("0101"), 2, 1)
        )

    def test_matches_enumeration(self):
        for m in range(0, 7):
            for x in all_words(m):
                for s in range(0, 4):
                    for r in range(s + 1):
                        assert len(insert_all_weighted(x, s, r)) == (
                            weighted_insertion_count(s, r, m + s, weight(x) + r)
                        )

    def test_row_sum(self):
        # weighted counts over r recover the unweighted count
        for s in range(0, 4):
            for m in range(0, 11):
                n = m + s
                for j in range(0, m + 1):
                    total = sum(
                        weighted_insertion_count(s, r, n, j + r) for r in range(s + 1)
                    )
                    assert total == insertion_count(s, n)

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            weighted_insertion_count(1, 2, 4, 2)
        with pytest.raises(ValueError):
            weighted_insertion_count(2, 1, 6, 0)
        with pytest.raises(ValueError):
            weighted_insertion_count(2, 1, 6, 6)


class TestVandermondeIdentities:
    def test_classic(self):
        for a in range(13):
            for b in range(13):
                for c in range(13):
                    assert binom(a + b, c) == sum(
                        binom(a, i) * binom(b, c - i) for i in range(c + 1)
                    )

    def test_multiset_variant(self):
        # positive numbers of element types on each side of the split
        for a in range(1, 13):
            for b in range(1, 13):
                for c in range(13):
                    assert binom(a + b + c - 1, c) == sum(
                        binom(a + i - 1, i) * binom(b + c - i - 1, c - i)
                        for i in range(c + 1)
                    )


class TestEncodingText:
    def test_round_trip(self):
        enc = InsertionEncoding(B("001010"), B("101100"), B("101"))
        assert enc.to_text() == "001010|101100|101"
        assert InsertionEncoding.from_text(enc.to_text()) == enc

    def test_empty_components(self):
        enc = InsertionEncoding(B("10"), B(""), B(""))
        assert enc.to_text() == "10|-|-"
        assert InsertionEncoding.from_text("10|-|-") == enc

    def test_malformed_text(self):
        with pytest.raises(EncodingError):
            InsertionEncoding.from_text("10|01")


class TestEncode:
    def test_worked_example(self):
        enc = encode(B("0110001"), B("001001010101101"))
        assert enc == InsertionEncoding(B("001010"), B("101100"), B("101"))

    def test_identity_insertion(self):
        x = B("0110001")
        enc = encode(x, x)
        assert enc.z0 == B("0000")
        assert enc.z1 == B("000")
        assert enc.z2 == B("")

    def test_single_mismatch(self):
        assert encode(B("0"), B("10")) == InsertionEncoding(B("10"), B(""), B(""))

    def test_not_a_subsequence(self):
        with pytest.raises(ValueError):
            encode(B("11"), B("10"))
        with pytest.raises(ValueError):
            encode(B("01"), B("0"))


class TestDecode:
    def test_worked_example(self):
        enc = InsertionEncoding(B("001010"), B("101100"), B("101"))
        assert decode(B("0110001"), enc) == B("001001010101101")

    def test_identity_insertion(self):
        x = B("0110001")
        enc = InsertionEncoding(B("0000"), B("000"), B(""))
        assert decode(x, enc) == x

    def test_single_mismatch(self):
        enc = InsertionEncoding(B("10"), B(""), B(""))
        assert decode(B("0"), enc) == B("10")

    def test_zero_count_mismatch(self):
        with pytest.raises(EncodingError):
            decode(B("00"), InsertionEncoding(B("0"), B(""), B("")))
        with pytest.raises(EncodingError):
            decode(B("1"), InsertionEncoding(B(""), B("00"), B("")))

    def test_track_with_trailing_symbols(self):
        # z0 must end with the zero matching the last 0 of the base word
        with pytest.raises(EncodingError):
            decode(B("0"), InsertionEncoding(B("01"), B(""), B("")))

    def test_small_inputs_decode_or_are_rejected(self):
        # each track is read only after its zeros are counted, so every
        # pattern either decodes to a word that encodes back to it or
        # raises EncodingError
        tracks = [z for m in range(5) for z in all_words(m)]
        for x in (x for m in range(4) for x in all_words(m)):
            for z0, z1 in itertools.product(tracks, repeat=2):
                z = InsertionEncoding(z0, z1, B(""))
                try:
                    y = decode(x, z)
                except EncodingError:
                    continue
                assert encode(x, y) == z


class TestCodecBijection:
    def test_round_trip_small(self):
        for n in range(0, 6):
            for x in all_words(n):
                for s in range(0, 3):
                    for y in insert_all(x, s):
                        assert decode(x, encode(x, y)) == y

    def test_injective(self):
        for n in range(0, 6):
            for x in all_words(n):
                for s in range(0, 3):
                    seen = {}
                    for y in insert_all(x, s):
                        enc = encode(x, y)
                        assert enc not in seen
                        seen[enc] = y

    def test_matches_string_reference(self):
        # supersequences by plain-string insertion, independent of insert_all
        for n in range(7):
            for x in string_words(n):
                for t in range(3):
                    ys = string_supersequences(x, t)
                    assert len(ys) == insertion_count(t, n + t)
                    encodings = set()
                    for y in ys:
                        z = encode(B(x), B(y))
                        assert decode(B(x), z) == B(y)
                        encodings.add(z)
                    assert len(encodings) == len(ys), (x, t)

    def test_structural_invariants(self):
        # inserted ones land in z0/z2, inserted zeros in z1/z2, and the
        # tracks carry one terminating zero per base symbol
        for n in range(0, 7):
            for x in all_words(n):
                k = weight(x)
                for s in range(0, 4):
                    for r in range(s + 1):
                        for y in insert_all_weighted(x, s, r):
                            z = encode(x, y)
                            assert len(z.z0) - weight(z.z0) == n - k
                            assert len(z.z1) - weight(z.z1) == k
                            if len(z.z0):
                                assert z.z0[-1] == 0
                            if len(z.z1):
                                assert z.z1[-1] == 0
                            assert weight(z.z0) + weight(z.z2) == r
                            zeros_z2 = len(z.z2) - weight(z.z2)
                            assert weight(z.z1) + zeros_z2 == s - r


class TestPolynomialBound:
    def test_examples(self):
        for p in (0.0, 0.3, 1.0):
            assert f_s_value(1, p) == pytest.approx(1.0)
        assert f_s_value(2, 0.5) == pytest.approx(1.5)
        assert f_s_value(2, 0.0) == pytest.approx(1.0)

    def test_bound_examples(self):
        assert f_s_bound(0) == pytest.approx(1.0)
        assert f_s_bound(1) == pytest.approx(1.0)
        assert f_s_bound(2) == pytest.approx(1.5)

    def test_bases_agree(self):
        for s in range(0, 7):
            for i in range(0, 101):
                p = i / 100
                assert abs(f_s_value(s, p) - f_s_value_multinomial(s, p)) < 1e-12

    def test_bounded_on_unit_interval(self):
        for s in range(0, 7):
            bound = f_s_bound(s)
            for i in range(0, 101):
                assert f_s_value(s, i / 100) <= bound + 1e-12

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            f_s_value(2, 1.5)
        with pytest.raises(ValueError):
            f_s_value(-1, 0.5)
        with pytest.raises(ValueError):
            f_s_bound(-1)

    def test_p_must_be_a_real_number(self):
        # True would run as p = 1, and a string or None would fail in the comparison
        for p in (True, False, "0.5", None, 0.5j):
            for f in (f_s_value, f_s_value_multinomial):
                with pytest.raises(TypeError, match="p must be a real number"):
                    f(1, p)

    def test_p_of_each_real_kind(self):
        for p in (0, 1, 0.5, Fraction(1, 2)):
            assert f_s_value(2, p) == pytest.approx(f_s_value_multinomial(2, p))
        assert f_s_value(2, Fraction(1, 2)) == pytest.approx(1.5)
        with pytest.raises(ValueError, match=r"p must lie in \[0, 1\]"):
            f_s_value(1, Fraction(3, 2))
