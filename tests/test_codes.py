import dataclasses
import itertools

import pytest
from hypothesis import given, strategies as st

from flipguard.codes import (
    _PRIMITIVE_POLY,
    BinaryCode,
    BitWord,
    CODE_IDS,
    build_code,
    code_shape,
    construct_hamming,
    extend_code,
    hamming_distance,
    linear_subcode,
    pairwise_min_distance,
    shorten_code,
)
from flipguard.encoding import canonical_map
from reference_tables import EXPECTED_SHAPES, HAMMING7_WORDS


def words(*strings):
    return [BitWord(int(s, 2), len(s)) for s in strings]


def word_set(code):
    return {str(w) for w in code.codewords}


class TestBitWord:
    def test_hex_renders_msb_first(self):
        assert BitWord(0b1111111, 7).hex() == "7F"
        assert BitWord(0b000011111, 9).hex() == "01F"
        assert BitWord(0, 9).hex() == "000"

    def test_str_round_trip(self):
        w = BitWord(0b1001011, 7)
        assert str(w) == "1001011"
        assert w.weight == 4

    def test_length_bounds(self):
        with pytest.raises(ValueError):
            BitWord(0, 0)
        with pytest.raises(ValueError):
            BitWord(0, 65)
        BitWord(2**64 - 1, 64)

    def test_bits_must_fit(self):
        with pytest.raises(ValueError):
            BitWord(8, 3)
        with pytest.raises(ValueError):
            BitWord(-1, 3)


class TestHammingDistance:
    def test_examples(self):
        u, v = words("01", "10")
        assert hamming_distance(u, v) == 2
        u, v = words("010101", "101010")
        assert hamming_distance(u, v) == 6
        assert hamming_distance(u, u) == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            hamming_distance(BitWord(0, 3), BitWord(0, 4))

    @given(st.integers(0, 2**9 - 1), st.integers(0, 2**9 - 1))
    def test_equals_weight_of_xor(self, a, b):
        u, v = BitWord(a, 9), BitWord(b, 9)
        assert hamming_distance(u, v) == (a ^ b).bit_count()
        assert hamming_distance(u, v) == hamming_distance(v, u)

    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
    def test_triangle_inequality(self, a, b, c):
        u, v, w = BitWord(a, 8), BitWord(b, 8), BitWord(c, 8)
        assert hamming_distance(u, w) <= hamming_distance(u, v) + hamming_distance(v, w)


class TestConstructHamming:
    def test_r3_is_the_canonical_16_word_code(self):
        assert word_set(construct_hamming(3)) == HAMMING7_WORDS

    def test_r2_code(self):
        assert word_set(construct_hamming(2)) == {"000", "111"}

    def test_r2_is_the_only_such_code(self):
        # every 1-dimensional length-3 code with distance 3
        found = [g for g in range(1, 8) if bin(g).count("1") >= 3]
        assert found == [0b111]

    def test_r4_shape(self):
        c = construct_hamming(4)
        assert (c.n, len(c.codewords), c.min_distance) == (15, 2048, 3)

    def test_r_out_of_range(self):
        for r in (0, 1, 7):
            with pytest.raises(ValueError):
                construct_hamming(r)

    @pytest.mark.parametrize("r", [2, 3])
    def test_radius_one_balls_tile_the_space(self, r):
        c = construct_hamming(r)
        n = c.n
        seen = set()
        for w in c.codewords:
            ball = {w.bits} | {w.bits ^ (1 << i) for i in range(n)}
            assert len(ball) == n + 1
            assert not (ball & seen)
            seen |= ball
        assert len(seen) == 1 << n

    @pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
    def test_generator_is_the_null_space_of_the_parity_check(self, r):
        # Parity-check columns alpha^(n-1) .. alpha^0, coordinate 1 first,
        # computed here independently of the construction.
        n = (1 << r) - 1
        powers = [1]
        for _ in range(n - 1):
            a = powers[-1] << 1
            powers.append(a ^ _PRIMITIVE_POLY[r] if a >> r else a)
        cols = powers[::-1]

        def syndrome(bits):
            s = 0
            for i, col in enumerate(cols):
                if (bits >> (n - 1 - i)) & 1:
                    s ^= col
            return s

        c = construct_hamming(r)
        assert (c.n, c.dimension) == (n, n - r)
        assert all(syndrome(g.bits) == 0 for g in c.generator)
        if r <= 4:
            null_space = {w for w in range(1 << n) if syndrome(w) == 0}
            assert {w.bits for w in c.codewords} == null_space

    def test_large_r_refuses_enumeration(self):
        c = construct_hamming(5)
        assert (c.n, c.dimension) == (31, 26)
        with pytest.raises(ValueError):
            c.codewords
        assert c.generator[0] in c
        assert BitWord(1 << 30, 31) not in c  # weight 1, below distance 3


class TestExtendCode:
    def test_extended_hamming_shape(self):
        c = extend_code(construct_hamming(3))
        assert (c.n, len(c.codewords), c.min_distance) == (8, 16, 4)

    def test_every_codeword_has_even_weight(self):
        c = extend_code(construct_hamming(3))
        assert all(w.weight % 2 == 0 for w in c.codewords)

    def test_repetition_code_example(self):
        c = BinaryCode(tuple(words("111")))
        assert word_set(extend_code(c)) == {"0000", "1111"}

    def test_extension_matches_wordwise_parity(self):
        base = construct_hamming(3)
        ext = extend_code(base)
        expect = {((w.weight & 1) << 7) | w.bits for w in base.codewords}
        assert {w.bits for w in ext.codewords} == expect


def reference_shorten(c, positions):
    """Filter-and-delete over the listed span: keep the codewords with 0 at
    every position, then delete those coordinates, highest index first so
    that positions stay original coordinates."""
    words = [w.bits for w in c.codewords]
    width = c.n
    for p in sorted(positions, reverse=True):
        shift = width - p  # bit position of coordinate p
        words = [((w >> (shift + 1)) << shift) | (w & ((1 << shift) - 1))
                 for w in words if not (w >> shift) & 1]
        width -= 1
    return set(words)


def position_lists(n, most):
    """Every list of 1..most distinct coordinates of 1..n, in every order."""
    for k in range(1, most + 1):
        yield from (list(p) for p in itertools.permutations(range(1, n + 1), k))


class TestShorten:
    @pytest.mark.parametrize("code,most", [
        (construct_hamming(2), 2),
        (BinaryCode(tuple(words("1100", "0011"))), 3),
        (construct_hamming(3), 3),
        (extend_code(construct_hamming(3)), 3),
        (construct_hamming(4), 2),
    ], ids=["H2", "1100-0011", "H3", "ext-H3", "H4"])
    def test_span_matches_filter_and_delete(self, code, most):
        for positions in position_lists(code.n, most):
            expect = reference_shorten(code, positions)
            if expect == {0}:
                with pytest.raises(ValueError, match="only the zero word"):
                    shorten_code(code, positions)
                continue
            got = shorten_code(code, positions)
            assert got.n == code.n - len(positions)
            assert {w.bits for w in got.codewords} == expect, positions

    @pytest.mark.parametrize("extended,positions", [
        (True, range(10, 17)),
        (False, range(13, 16)),
        (True, range(14, 17)),
        (True, range(15, 17)),
    ], ids=["C9_4", "C12_3", "C13_4", "C14_4-parent"])
    def test_build_code_spans_match_filter_and_delete(self, extended, positions):
        parent = construct_hamming(4)
        if extended:
            parent = extend_code(parent)
        got = shorten_code(parent, positions)
        assert {w.bits for w in got.codewords} == reference_shorten(parent, positions)

    def test_position_validation(self):
        c = construct_hamming(3)
        for positions in ([1, 1], [0], [c.n + 1], range(1, c.n + 1)):
            with pytest.raises(ValueError):
                shorten_code(c, positions)

    def test_shortened_extended_hamming(self):
        c = shorten_code(extend_code(construct_hamming(4)), range(10, 17))
        assert (c.n, len(c.codewords), c.min_distance) == (9, 16, 4)

    def test_parent_span_is_never_listed(self):
        # the r=5 Hamming code has 2^26 codewords, too many to enumerate
        c = shorten_code(construct_hamming(5), range(17, 32))
        assert (c.n, c.dimension, c.min_distance) == (16, 11, 3)

    @given(st.sets(st.integers(1, 7), min_size=1, max_size=3))
    def test_distance_never_decreases(self, positions):
        base = construct_hamming(3)
        c = shorten_code(base, sorted(positions))
        assert c.min_distance >= base.min_distance
        assert c.dimension >= base.dimension - len(positions)
        assert c.n == base.n - len(positions)

    def test_shortening_everything_away_fails(self):
        c = BinaryCode(tuple(words("111")))
        with pytest.raises(ValueError):
            shorten_code(c, [1])  # only the zero word survives


class TestMinDistance:
    def test_two_word_code(self):
        c = BinaryCode(tuple(words("11")))
        assert c.min_distance == 2

    def test_nonlinear_pairwise_example(self):
        assert pairwise_min_distance(words("0000", "1111", "1110")) == 1

    def test_pairwise_needs_two_words(self):
        with pytest.raises(ValueError):
            pairwise_min_distance(words("0000"))

    @pytest.mark.parametrize("code_id", CODE_IDS)
    def test_pairwise_oracle_agrees_on_linear_codes(self, code_id):
        c = build_code(code_id)
        assert c.min_distance == pairwise_min_distance(c.codewords)


class TestLinearSubcode:
    def parent(self):
        return shorten_code(extend_code(construct_hamming(4)), [15, 16])

    def test_deterministic_per_seed(self):
        p = self.parent()
        a = linear_subcode(p, 8, seed=7)
        b = linear_subcode(p, 8, seed=7)
        assert a.generator == b.generator
        assert linear_subcode(p, 8, seed=8).generator != a.generator

    def test_subcode_lives_inside_parent(self):
        p = self.parent()
        sub = linear_subcode(p, 8, seed=3)
        parent_bits = {w.bits for w in p.codewords}
        assert {w.bits for w in sub.codewords} <= parent_bits
        assert len(sub.codewords) == 256
        assert sub.min_distance >= p.min_distance

    def test_dimension_validation(self):
        p = self.parent()
        for dim in (0, 10):
            with pytest.raises(ValueError):
                linear_subcode(p, dim)

    def test_full_dimension_returns_whole_code(self):
        c = construct_hamming(3)
        sub = linear_subcode(c, 4, seed=1)
        assert {w.bits for w in sub.codewords} == {w.bits for w in c.codewords}


class TestRegistry:
    @pytest.mark.parametrize("code_id,b,n,size,dist", EXPECTED_SHAPES)
    def test_frozen_shapes(self, code_id, b, n, size, dist):
        c = build_code(code_id)
        assert (c.n, len(c.codewords), c.min_distance) == (n, size, dist)
        assert code_shape(code_id) == (b, n)

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            build_code("C10_5")
        with pytest.raises(ValueError):
            code_shape("")

    def test_builds_are_cached(self):
        assert build_code("C7_3") is build_code("C7_3")


class TestBinaryCodeValidation:
    def test_fields_are_the_generator_alone(self):
        # n is read off the rows
        assert [f.name for f in dataclasses.fields(BinaryCode)] == ["generator"]

    def test_dependent_rows_rejected(self):
        with pytest.raises(ValueError):
            BinaryCode(tuple(words("110", "011", "101")))

    def test_row_length_mismatch(self):
        with pytest.raises(ValueError):
            BinaryCode(tuple(words("110", "0110")))

    def test_empty_generator(self):
        with pytest.raises(ValueError):
            BinaryCode(())

    def test_generator_is_stored_as_a_tuple(self):
        rows = [BitWord(7, 3)]
        c = BinaryCode(rows)
        assert type(c.generator) is tuple
        assert hash(c) == hash(BinaryCode((BitWord(7, 3),)))
        assert c == BinaryCode((BitWord(7, 3),))
        rows.append(BitWord(7, 3))  # the caller's list, changed after the checks
        assert c.generator == (BitWord(7, 3),)
        assert c.dimension == 1 and len(c.codewords) == 2
        for it in (iter(rows[:1]), (r for r in rows[:1])):
            assert BinaryCode(it) == c

    @given(st.lists(st.integers(1, 255), min_size=1, max_size=6, unique=True))
    def test_span_is_closed_under_xor(self, rows):
        try:
            c = BinaryCode(tuple(BitWord(r, 8) for r in rows))
        except ValueError:
            return  # dependent draw
        bits = {w.bits for w in c.codewords}
        assert 0 in bits
        assert all(a ^ b in bits for a in bits for b in bits)
        assert len(bits) == 1 << c.dimension


PARITY_CODES = {
    **{f"map-{cid}": canonical_map(cid).code for cid in CODE_IDS},
    **{f"build-{cid}": build_code(cid) for cid in CODE_IDS},
    **{f"hamming-{r}": construct_hamming(r) for r in range(2, 7)},
}


class TestParityChecks:
    @pytest.mark.parametrize("code", PARITY_CODES.values(), ids=PARITY_CODES.keys())
    def test_rows_are_independent_and_orthogonal_to_the_generator(self, code):
        rows = code.parity_checks
        assert len(rows) == code.n - code.dimension
        assert all(0 < h < 1 << code.n for h in rows)
        for g in code.generator:
            assert all((g.bits & h).bit_count() % 2 == 0 for h in rows)
        # independent: no nonempty subset of the rows XORs to zero
        for k in range(1, len(rows) + 1):
            for subset in itertools.combinations(rows, k):
                acc = 0
                for h in subset:
                    acc ^= h
                assert acc


@pytest.mark.parametrize("code", [
    build_code("C7_3"),
    build_code("C9_4"),
    BinaryCode(tuple(BitWord.from_hex(h, 9) for h in ("1EF", "0BA", "07C", "01F"))),
], ids=["C7_3", "C9_4", "C9_4-published"])
def test_membership_agrees_with_codewords(code):
    members = {w.bits for w in code.codewords}
    for bits in range(1 << code.n):
        assert (BitWord(bits, code.n) in code) == (bits in members)
