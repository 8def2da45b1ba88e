import dataclasses
import hashlib

import pytest
from hypothesis import given, strategies as st

from flipguard.blob import decode_tensor, encode_tensor
from flipguard.codes import BitWord, build_code
from flipguard.encoding import (
    EncodingMap,
    _plain,
    canonical_map,
    codebook_lines,
    distance_matrix,
    encode_value,
    twos_complement_matrix,
)
from derivation import construct_hamming, derive_code, greedy_basis
from reference_tables import (
    BASIS_IMAGES_8BIT,
    CODEBOOK_C7_3,
    CODEBOOK_C8_4,
    CODEBOOK_C9_4,
    EXPECTED_FLIPS_4BIT,
    EXPECTED_MATRIX_C7_3,
    EXPECTED_MATRIX_C8_4,
    EXPECTED_MATRIX_C9_4,
)

ALL_IDS = ("C7_3", "C8_4", "C9_4", "C12_3", "C13_4", "C14_4")
EIGHT_BIT_IDS = ("C12_3", "C13_4", "C14_4")


def full_range(b):
    return range(-(1 << (b - 1)), 1 << (b - 1))


def flat_tables(outputs):
    """An engine's tables as sorted (input byte, output byte, table) triples."""
    return sorted((i, o, t) for o, sources in enumerate(outputs) for i, t in sources)


def cost(dm, u, v):
    """The matrix entry for changing signed value u into v."""
    half = 1 << (dm.b - 1)
    return dm.entries[u + half][v + half]


class TestBuildFromBasis:
    IMAGES = tuple(
        BitWord(int(s, 2), 7)
        for s in ("1111111", "1100101", "0010111", "1001011")
    )

    def test_unit_patterns_map_to_their_images(self):
        m = EncodingMap(list(self.IMAGES))
        assert m.basis_images == self.IMAGES  # stored as a tuple
        assert m.b == 4
        assert m.code.codewords == construct_hamming(3).codewords

    def test_xor_of_set_bits(self):
        # pattern 1101 combines images 1, 2 and 4
        m = EncodingMap(self.IMAGES)
        assert str(m.table[0b1101]) == "1010001"
        assert m.table[0].bits == 0
        assert str(m.table[0b1000]) == "1111111"

    def test_dependent_images(self):
        dep = (*self.IMAGES[:3], BitWord(self.IMAGES[0].bits ^ self.IMAGES[1].bits, 7))
        with pytest.raises(ValueError, match="generator rows are linearly dependent"):
            EncodingMap(dep)

    def test_no_images(self):
        with pytest.raises(ValueError, match="generator must have at least one row"):
            EncodingMap(())


class TestGreedyBasis:
    def test_first_image_is_the_heaviest_codeword(self):
        assert greedy_basis(construct_hamming(3))[0].hex() == "7F"
        assert greedy_basis(build_code("C8_4"))[0].hex() == "FF"

    @pytest.mark.parametrize("code_id", EIGHT_BIT_IDS)
    def test_first_image_weight_is_the_code_maximum(self, code_id):
        code = build_code(code_id)
        images = greedy_basis(code)
        assert images[0].weight == max(w.weight for w in code.codewords)

    def test_greedy_map_matches_the_frozen_c7_3_distances(self):
        # greedy picks a different basis than the frozen table, but the
        # resulting distance profile is identical
        m = EncodingMap(greedy_basis(construct_hamming(3)))
        assert distance_matrix(m).entries == EXPECTED_MATRIX_C7_3

    def test_ties_break_to_smallest_value(self):
        images = greedy_basis(construct_hamming(3))
        # after 7F, the smallest weight-4 codeword independent so far
        assert images[1].hex() == "17"


class TestCanonicalMaps:
    @pytest.mark.parametrize("code_id,expected", [
        ("C7_3", CODEBOOK_C7_3),
        ("C8_4", CODEBOOK_C8_4),
        ("C9_4", CODEBOOK_C9_4),
    ])
    def test_pinned_codebooks(self, code_id, expected):
        assert codebook_lines(canonical_map(code_id)) == expected

    def test_minus_five_encodes_as_23(self):
        assert encode_value(canonical_map("C7_3"), -5).hex() == "23"

    def test_plus_seven_under_c8_4(self):
        assert encode_value(canonical_map("C8_4"), 7).hex() == "39"

    @pytest.mark.parametrize("code_id", ALL_IDS)
    def test_round_trip_over_the_full_range(self, code_id):
        m = canonical_map(code_id)
        values = list(full_range(m.b))
        assert decode_tensor(m, encode_tensor(m, values)) == values

    @pytest.mark.parametrize("code_id", ALL_IDS)
    def test_bijection_onto_the_attached_code(self, code_id):
        m = canonical_map(code_id)
        assert {w.bits for w in m.table} == {w.bits for w in m.code.codewords}

    @pytest.mark.parametrize("code_id, images", [
        ("C7_3", "7F 65 17 4B"),
        ("C8_4", "FF 65 17 4B"),
    ])
    def test_frozen_images_span_the_construction(self, code_id, images):
        m = canonical_map(code_id)
        assert " ".join(w.hex() for w in m.basis_images) == images
        assert m.code.codewords == build_code(code_id).codewords

    def test_published_9_bit_code_is_not_even_weight(self):
        # contains weight-5 words, so it spans its own (9,16,4) code rather
        # than a shortened extended Hamming subset
        m = canonical_map("C9_4")
        assert any(w.weight % 2 for w in m.table)
        assert (m.code.n, len(m.code.codewords), m.code.min_distance) == (9, 16, 4)
        construction = build_code("C9_4")
        assert all(w.weight % 2 == 0 for w in construction.codewords)

    def test_maps_are_cached(self):
        assert canonical_map("C13_4") is canonical_map("C13_4")

    def test_codebook_lines_are_zero_padded(self):
        assert all(len(line) == 3 for line in codebook_lines(canonical_map("C9_4")))
        assert all(len(line) == 2 for line in codebook_lines(canonical_map("C7_3")))

    @pytest.mark.parametrize("code_id", EIGHT_BIT_IDS)
    def test_eight_bit_maps_come_from_greedy(self, code_id):
        m = canonical_map(code_id)
        assert m.basis_images == greedy_basis(derive_code(code_id))

    @pytest.mark.parametrize("code_id", EIGHT_BIT_IDS)
    def test_pinned_eight_bit_basis_images(self, code_id):
        m = canonical_map(code_id)
        assert [w.hex() for w in m.basis_images] == BASIS_IMAGES_8BIT[code_id]


class TestEncodeDecode:
    def test_out_of_range_values(self):
        m = canonical_map("C7_3")
        for v in (-9, 8):
            with pytest.raises(ValueError):
                encode_value(m, v)
        m8 = canonical_map("C12_3")
        for v in (-129, 128):
            with pytest.raises(ValueError):
                encode_value(m8, v)

    def test_zero_maps_to_zero_word(self):
        for code_id in ALL_IDS:
            m = canonical_map(code_id)
            assert encode_value(m, 0).bits == 0
            assert decode_tensor(m, encode_tensor(m, [0])) == [0]

    @given(st.integers(-8, 7), st.integers(-8, 7))
    def test_linearity_exhaustive_4bit(self, u, v):
        for code_id in ("C7_3", "C8_4", "C9_4"):
            m = canonical_map(code_id)
            fu = encode_value(m, u).bits
            fv = encode_value(m, v).bits
            fx = m.table[(u ^ v) & 0xF].bits
            assert fx == fu ^ fv

    @given(st.integers(-128, 127), st.integers(-128, 127))
    def test_linearity_sampled_8bit(self, u, v):
        m = canonical_map("C13_4")
        fu = encode_value(m, u).bits
        fv = encode_value(m, v).bits
        assert m.table[(u ^ v) & 0xFF].bits == fu ^ fv


class TestDistanceMatrix:
    def test_canonical_4bit_matrices(self):
        assert distance_matrix(canonical_map("C7_3")).entries == EXPECTED_MATRIX_C7_3
        assert distance_matrix(canonical_map("C8_4")).entries == EXPECTED_MATRIX_C8_4
        assert distance_matrix(canonical_map("C9_4")).entries == EXPECTED_MATRIX_C9_4

    def test_twos_complement_baseline(self):
        assert twos_complement_matrix(4).entries == EXPECTED_FLIPS_4BIT

    @pytest.mark.parametrize("b", [3, 5, 4.0, 8.0, True])
    def test_twos_complement_rejects_other_widths(self, b):
        with pytest.raises(ValueError, match="bit width must be one of"):
            twos_complement_matrix(b)

    @pytest.mark.parametrize("int_first", [False, True])
    def test_float_width_is_refused_whatever_was_cached(self, int_first):
        # 4.0 == 4 and hash(4.0) == hash(4): the cached 4-bit map must not answer for 4.0
        _plain.cache_clear()
        for b in (4, 4.0, 4) if int_first else (4.0, 4, 4.0):
            if type(b) is int:
                assert twos_complement_matrix(b).entries == EXPECTED_FLIPS_4BIT
            else:
                with pytest.raises(ValueError, match="got 4.0$"):
                    twos_complement_matrix(b)

    def test_accessor_uses_signed_values(self):
        dm = distance_matrix(canonical_map("C7_3"))
        assert cost(dm, 0, -8) == 7
        assert cost(dm, -8, 0) == 7
        assert cost(dm, -5, 3) == 7
        assert cost(dm, -8, -8) == 0

    @pytest.mark.parametrize("code_id", ALL_IDS)
    def test_matrix_shape_and_symmetry(self, code_id):
        m = canonical_map(code_id)
        dm = distance_matrix(m)
        size = 1 << m.b
        assert len(dm.entries) == size
        d = m.code.min_distance
        for i in range(size):
            assert dm.entries[i][i] == 0
            for j in range(size):
                assert dm.entries[i][j] == dm.entries[j][i]
                if i != j:
                    assert dm.entries[i][j] >= d

    @pytest.mark.parametrize("code_id,offdiag", [
        ("C7_3", {3, 4, 7}),
        ("C8_4", {4, 8}),
        ("C9_4", {4, 5, 8}),
    ])
    def test_off_diagonal_value_sets(self, code_id, offdiag):
        dm = distance_matrix(canonical_map(code_id))
        seen = {dm.entries[i][j] for i in range(16) for j in range(16) if i != j}
        assert seen == offdiag

    @pytest.mark.parametrize("code_id", ALL_IDS)
    def test_msb_pairs_cost_the_first_image_weight(self, code_id):
        m = canonical_map(code_id)
        dm = distance_matrix(m)
        half = 1 << (m.b - 1)
        msb_weight = m.basis_images[0].weight
        for v in range(0, half):
            assert cost(dm, v, v - half) == msb_weight

    def test_single_coordinate_changes_cost_the_matching_image(self):
        # values whose patterns differ in exactly coordinate i are separated
        # by the weight of basis image i
        for code_id in ("C7_3", "C8_4", "C9_4"):
            m = canonical_map(code_id)
            dm = distance_matrix(m)
            for v in full_range(4):
                for i in range(4):
                    u = (v & 0xF) ^ (1 << (3 - i))
                    su = u - 16 if u >= 8 else u
                    assert cost(dm, v, su) == m.basis_images[i].weight


class TestMapValidation:
    def test_fields_are_the_basis_alone(self):
        # code, table and b are derived, so a non-linear map cannot be built
        names = [f.name for f in dataclasses.fields(EncodingMap)]
        assert names == ["basis_images", "code_id"]

    def test_wrong_length_image_is_not_a_codeword(self):
        images = canonical_map("C7_3").basis_images
        wide = (BitWord(images[0].bits, 8), *images[1:])
        with pytest.raises(ValueError, match="generator rows differ in length"):
            EncodingMap(wide)

    @pytest.mark.parametrize("images, kind", [
        ([0x7F, 0x65, 0x17, 0x4B], "int"),
        ([BitWord(0x7F, 7), 0x65, 0x17, 0x4B], "int"),
        (["7F", "65", "17", "4B"], "str"),
    ], ids=["ints", "mixed", "str"])
    def test_images_must_be_bitwords(self, images, kind):
        with pytest.raises(TypeError, match=f"^generator: expected BitWord, got {kind}$"):
            EncodingMap(images)

    def test_registered_id_names_only_its_frozen_images(self):
        # reversed C7_3 images under the C7_3 id wrote a blob that the
        # canonical map read back clean as other values
        images = canonical_map("C7_3").basis_images
        for bad, code_id in ((images[::-1], "C7_3"), (images, "C8_4"), (images, "C9_4"),
                             (canonical_map("C13_4").basis_images, "C14_4")):
            with pytest.raises(ValueError, match=f"^images are not the frozen map of code id "
                                                 f"'{code_id}'$"):
                EncodingMap(bad, code_id)
        for code_id in ALL_IDS:
            m = canonical_map(code_id)
            assert EncodingMap(list(m.basis_images), code_id) == m
        # an id outside the registry names any map
        assert EncodingMap(images[::-1], "mine").code_id == "mine"
        assert EncodingMap(images[::-1]).code_id == "custom"

    @pytest.mark.parametrize("code_id", [5, None, b"C7_3", ("C7_3",)],
                             ids=["int", "None", "bytes", "tuple"])
    def test_code_id_must_be_str(self, code_id):
        images = canonical_map("C7_3").basis_images
        with pytest.raises(TypeError, match=f"^code_id: expected str, got {type(code_id).__name__}$"):
            EncodingMap(images, code_id)

    def test_engine_tables_match_the_frozen_digest(self):
        # sha256 of every canonical map's engine tables, as sorted (input
        # byte, output byte, table) triples, with its cost table, codebook
        # and distance matrix: any change to a map or its tables shows here,
        # and a regrouping of the same tables does not. Every canonical code
        # has at most 8 parity-check rows, one set of syndrome tests.
        h = hashlib.sha256()
        for code_id in ALL_IDS:
            m = canonical_map(code_id)
            checks = sorted((i, o, t) for o, sources, _ in m._checks for i, t in sources)
            h.update(repr((flat_tables(m._encoder), checks, flat_tables(m._decoder), m._costs,
                           codebook_lines(m), distance_matrix(m).entries)).encode())
        assert h.hexdigest() == "e08b4c3d99e500420c3e06cb86c98115e20801d5dfb9167a432059c218a61cff"
