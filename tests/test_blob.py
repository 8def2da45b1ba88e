import dataclasses
import random

import pytest
from fractions import Fraction
from hypothesis import given, strategies as st

from flipguard.blob import (
    CorruptBlobError,
    EncodedBlob,
    MAGIC,
    OverheadReport,
    decode_tensor,
    encode_tensor,
    overhead_report,
    pack_words,
    unpack_words,
    verify_blob,
)
from flipguard.codes import CODE_IDS, code_shape
from flipguard.encoding import EncodingMap, canonical_map


def reference_pack(wordlist, n):
    """Independent route: go through an explicit bit string."""
    bits = "".join(f"{w:0{n}b}" for w in wordlist)
    bits += "0" * (-len(bits) % 8)
    return bytes(int(bits[i:i + 8], 2) for i in range(0, len(bits), 8)) if bits else b""


class TestPacking:
    @given(
        st.integers(1, 16).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.integers(0, (1 << n) - 1), max_size=60),
            )
        )
    )
    def test_matches_bit_string_route(self, n_and_words):
        n, wordlist = n_and_words
        assert pack_words(wordlist, n) == reference_pack(wordlist, n)

    @given(
        st.integers(1, 16).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.integers(0, (1 << n) - 1), max_size=60),
            )
        )
    )
    def test_unpack_inverts_pack(self, n_and_words):
        n, wordlist = n_and_words
        payload = pack_words(wordlist, n)
        assert unpack_words(payload, n, len(wordlist)) == wordlist

    def test_sixteen_7bit_words_need_14_bytes(self):
        payload = pack_words([0] * 16, 7)
        assert len(payload) == 14

    def test_first_coordinate_lands_in_the_top_bit(self):
        # a single 7-bit word of all ones, one trailing pad bit
        assert pack_words([0b1111111], 7) == b"\xfe"

    def test_empty(self):
        assert pack_words([], 7) == b""
        assert unpack_words(b"", 7, 0) == []

    def test_truncated_payload(self):
        with pytest.raises(CorruptBlobError):
            unpack_words(b"\x00", 7, 2)

    def test_trailing_bytes(self):
        with pytest.raises(CorruptBlobError):
            unpack_words(b"\x00\x00\x00", 7, 2)

    def test_nonzero_padding(self):
        with pytest.raises(CorruptBlobError):
            unpack_words(b"\xff", 7, 1)

    @pytest.mark.parametrize("word", [0xFF, 0x80, -1, 1 << 20])
    def test_word_wider_than_n_is_rejected(self, word):
        with pytest.raises(ValueError, match="does not fit in 7 bits"):
            pack_words([0, word, 1], 7)

    @pytest.mark.parametrize("n", [0, -1])
    def test_width_below_one_is_rejected(self, n):
        with pytest.raises(ValueError, match="at least 1"):
            pack_words([0], n)
        with pytest.raises(ValueError, match="at least 1"):
            unpack_words(b"", n, 1)

    @pytest.mark.parametrize("n", [1, 7, 8])
    def test_negative_count_is_bad_input_not_damage(self, n):
        with pytest.raises(ValueError, match=r"^count must be nonnegative, got -1$") as info:
            unpack_words(b"", n, -1)
        assert not isinstance(info.value, CorruptBlobError)


class TestUnpackDifferential:
    """unpack_words reads back what the independent bit-string packer wrote."""

    @given(
        st.integers(1, 40).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.integers(0, (1 << n) - 1), max_size=80),
            )
        )
    )
    def test_reads_reference_pack(self, n_and_words):
        n, wordlist = n_and_words
        assert unpack_words(reference_pack(wordlist, n), n, len(wordlist)) == wordlist

    # counts around the 1024-word cutting chunk; random words, so nearly
    # every word is distinct
    @pytest.mark.parametrize("n", [1, 7, 8, 13, 14, 33])
    @pytest.mark.parametrize("count", [0, 1, 1023, 1024, 1025, 2049])
    def test_chunk_boundaries(self, n, count):
        rng = random.Random(n * 10_000 + count)
        wordlist = [rng.getrandbits(n) for _ in range(count)]
        assert unpack_words(reference_pack(wordlist, n), n, count) == wordlist


def raw_blob(cid, bits, n, count, lid, payload):
    """The bytes that follow the magic, from raw field values."""
    return (bytes([len(cid)]) + cid + bytes([bits, n]) + count.to_bytes(8, "big")
            + len(lid).to_bytes(2, "big") + lid + payload)


@st.composite
def registered_blob(draw):
    """A registered code's header, any layer id, a payload of the right size."""
    cid = draw(st.sampled_from(CODE_IDS))
    bits, n = code_shape(cid)
    count = draw(st.integers(0, 40))
    size = (count * n + 7) // 8
    return raw_blob(cid.encode(), bits, n, count, draw(st.binary(max_size=6)),
                    draw(st.binary(min_size=size, max_size=size)))


class TestBlobFormat:
    def blob(self, values=(-8, 0, 7), layer="conv1/weight"):
        return encode_tensor(canonical_map("C7_3"), list(values), layer)

    def test_header_fields(self):
        blob = self.blob()
        assert (blob.code_id, blob.bits, blob.n, blob.count) == ("C7_3", 4, 7, 3)
        assert blob.layer_id == "conv1/weight"

    def test_byte_round_trip(self):
        blob = self.blob()
        assert EncodedBlob.from_bytes(blob.to_bytes()) == blob

    def test_payload_is_immutable_bytes_from_any_buffer(self):
        blob = self.blob(layer="schicht/gewichte-é")
        for data in (bytearray(blob.to_bytes()), memoryview(blob.to_bytes())):
            read = EncodedBlob.from_bytes(data)
            assert type(read.payload) is bytes
            assert read == blob and hash(read) == hash(blob)
        payload = bytearray(blob.payload)
        built = dataclasses.replace(blob, payload=payload)
        payload[0] ^= 0x80  # a change after construction must not reach the blob
        assert type(built.payload) is bytes and built == blob
        assert dataclasses.replace(blob, payload=blob.payload).payload is blob.payload

    def test_unicode_layer_id(self):
        blob = self.blob(layer="schicht/gewichte-é")
        assert EncodedBlob.from_bytes(blob.to_bytes()).layer_id == blob.layer_id

    def test_serialization_starts_with_magic(self):
        assert self.blob().to_bytes()[:8] == MAGIC == b"DNCODE01"

    def test_bad_magic(self):
        data = bytearray(self.blob().to_bytes())
        data[0] ^= 0xFF
        with pytest.raises(CorruptBlobError):
            EncodedBlob.from_bytes(bytes(data))

    def test_truncation_anywhere_fails(self):
        data = self.blob().to_bytes()
        for cut in range(len(data)):
            with pytest.raises(CorruptBlobError):
                EncodedBlob.from_bytes(data[:cut])

    @pytest.mark.parametrize("field,text", [("code_id", b"C7_3"), ("layer_id", b"conv1")])
    def test_non_utf8_id_is_corruption(self, field, text):
        data = bytearray(self.blob(layer="conv1/weight").to_bytes())
        data[data.index(text)] ^= 0x80  # an ASCII byte becomes a lone continuation byte
        with pytest.raises(CorruptBlobError, match=f"{field} is not valid UTF-8"):
            EncodedBlob.from_bytes(bytes(data))

    def test_surplus_bytes_fail(self):
        with pytest.raises(CorruptBlobError):
            EncodedBlob.from_bytes(self.blob().to_bytes() + b"\x00")

    def test_empty_tensor(self):
        blob = encode_tensor(canonical_map("C13_4"), [], "empty")
        restored = EncodedBlob.from_bytes(blob.to_bytes())
        assert restored.count == 0
        assert decode_tensor(canonical_map("C13_4"), restored) == []

    def test_payload_size_must_match_count(self):
        with pytest.raises(ValueError):
            EncodedBlob("C7_3", 4, 7, 3, "x", b"\x00")

    @pytest.mark.parametrize("bits, n, count", [
        (256, 7, 0), (-1, 7, 0), (4, -3, 0), (4, 0, 1 << 64), (4, 7, -1),
    ])
    def test_header_fields_must_fit_the_wire_format(self, bits, n, count):
        with pytest.raises(ValueError, match=r"must lie in 0\.\."):
            EncodedBlob("C7_3", bits, n, count, "", b"").to_bytes()

    @pytest.mark.parametrize("field, value, kind", [
        ("bits", 4.0, "float"), ("bits", True, "bool"), ("n", 7.0, "float"),
        ("count", False, "bool"), ("count", 0.0, "float"), ("code_id", 5, "int"),
        ("code_id", b"C7_3", "bytes"), ("layer_id", None, "NoneType"),
        ("layer_id", b"l", "bytes"),
    ])
    def test_header_fields_must_have_the_wire_formats_types(self, field, value, kind):
        # each would construct, and then to_bytes would fail or write another value
        fields = dict(code_id="C7_3", bits=4, n=7, count=0, layer_id="", payload=b"")
        fields[field] = value
        expected = "str" if field.endswith("_id") else "int"
        with pytest.raises(TypeError, match=f"^{field}: expected {expected}, got {kind}$"):
            EncodedBlob(**fields)

    @pytest.mark.parametrize("field, size", [("code_id", 256), ("layer_id", 65536)])
    def test_id_too_long_for_the_wire_format(self, field, size):
        fields = dict(code_id="C7_3", bits=4, n=7, count=0, layer_id="", payload=b"")
        fields[field] = "x" * size
        with pytest.raises(ValueError, match=f"{field} too long"):
            EncodedBlob(**fields)

    def test_unregistered_code_id_is_corruption(self):
        # a custom map's blob verifies in memory but cannot be read back
        m = canonical_map("C7_3")
        custom = EncodingMap(m.basis_images)
        blob = encode_tensor(custom, [-8, 0, 7], "l")
        assert verify_blob(custom, blob).clean
        with pytest.raises(CorruptBlobError, match="unknown code id 'custom'"):
            EncodedBlob.from_bytes(blob.to_bytes())

    def test_shape_not_the_codes_is_corruption(self):
        data = EncodedBlob("C7_3", 4, 8, 1, "l", b"\x00").to_bytes()
        with pytest.raises(CorruptBlobError, match=r"header \(b=4, n=8\) does not match C7_3"):
            EncodedBlob.from_bytes(data)

    def test_payload_size_mismatch_is_corruption(self):
        data = self.blob().to_bytes()
        with pytest.raises(CorruptBlobError, match="payload must be 3 bytes, got 2"):
            EncodedBlob.from_bytes(data[:-1])

    @given(
        st.one_of(
            st.binary(max_size=80),
            # a well-formed header with arbitrary fields, then any payload
            st.builds(
                raw_blob,
                st.binary(max_size=6), st.integers(0, 255), st.integers(0, 255),
                st.integers(0, 40), st.binary(max_size=6), st.binary(max_size=60),
            ),
            registered_blob(),
        ),
        st.booleans(),
    )
    def test_from_bytes_raises_only_corrupt_blob_error(self, data, magic):
        if magic:
            data = MAGIC + data
        try:
            blob = EncodedBlob.from_bytes(data)
        except CorruptBlobError:
            return
        assert blob.to_bytes() == data


class TestVerify:
    def test_clean_blob(self):
        m = canonical_map("C7_3")
        report = verify_blob(m, encode_tensor(m, list(range(-8, 8)), "l"))
        assert report.clean
        assert report.corrupted_indices == ()
        assert report.scanned == 16

    @pytest.mark.parametrize("index", [0, 1, 7, 15])
    def test_single_flip_names_the_index(self, index):
        m = canonical_map("C7_3")
        blob = encode_tensor(m, list(range(-8, 8)), "l")
        bit = index * 7 + 3  # third coordinate of that slice
        payload = bytearray(blob.payload)
        payload[bit // 8] ^= 0x80 >> (bit % 8)
        dirty = EncodedBlob("C7_3", 4, 7, 16, "l", bytes(payload))
        report = verify_blob(m, dirty)
        assert not report.clean
        assert report.corrupted_indices == (index,)

    def test_three_flips_in_one_word_detected(self):
        # distance 4 still catches weight-3 errors
        m = canonical_map("C8_4")
        blob = encode_tensor(m, [3], "l")
        payload = bytes([blob.payload[0] ^ 0b10110000])
        dirty = EncodedBlob("C8_4", 4, 8, 1, "l", payload)
        assert verify_blob(m, dirty).corrupted_indices == (0,)

    def test_flip_in_padding_is_structural(self):
        m = canonical_map("C7_3")
        blob = encode_tensor(m, [0], "l")  # 7 data bits, 1 pad bit
        dirty = EncodedBlob("C7_3", 4, 7, 1, "l", bytes([blob.payload[0] ^ 1]))
        with pytest.raises(CorruptBlobError):
            verify_blob(m, dirty)

    def test_header_map_mismatch(self):
        blob = encode_tensor(canonical_map("C7_3"), [0], "l")
        with pytest.raises(ValueError):
            verify_blob(canonical_map("C8_4"), blob)

    def test_clean_is_derived_from_the_indices(self):
        from flipguard.blob import VerifyReport
        assert VerifyReport((), 10).clean
        assert not VerifyReport((3,), 10).clean
        assert [f.name for f in dataclasses.fields(VerifyReport)] == [
            "corrupted_indices", "scanned"]


class TestDecode:
    @pytest.mark.parametrize("code_id", ["C7_3", "C9_4", "C12_3", "C14_4"])
    def test_round_trip(self, code_id):
        m = canonical_map(code_id)
        half = 1 << (m.b - 1)
        values = list(range(-half, half))
        assert decode_tensor(m, encode_tensor(m, values, "l")) == values

    def test_corruption_returns_report_and_no_values(self):
        m = canonical_map("C7_3")
        blob = encode_tensor(m, [1, 2, 3], "l")
        payload = bytearray(blob.payload)
        payload[0] ^= 0x80
        dirty = EncodedBlob("C7_3", 4, 7, 3, "l", bytes(payload))
        result = decode_tensor(m, dirty)
        assert not isinstance(result, list)
        assert result.corrupted_indices == (0,)

    def test_out_of_range_value_wont_encode(self):
        with pytest.raises(ValueError):
            encode_tensor(canonical_map("C7_3"), [8], "l")


class TestOverhead:
    @pytest.mark.parametrize("code_id,b,percent,n", [
        ("C7_3", 4, Fraction(75), 7),
        ("C8_4", 4, Fraction(100), 8),
        ("C9_4", 4, Fraction(125), 9),
        ("C12_3", 8, Fraction(50), 12),
        ("C13_4", 8, Fraction(125, 2), 13),
        ("C14_4", 8, Fraction(75), 14),
    ])
    def test_exact_values(self, code_id, b, percent, n):
        rep = overhead_report(code_id, b)
        assert rep == OverheadReport(percent, n)
        assert isinstance(rep.memory_overhead_percent, Fraction)

    def test_c13_4_is_not_a_whole_percent(self):
        rep = overhead_report("C13_4", 8)
        assert rep.memory_overhead_percent == Fraction(125, 2)
        assert float(rep.memory_overhead_percent) == 62.5

    def test_wrong_width_pairing(self):
        with pytest.raises(ValueError):
            overhead_report("C7_3", 8)
        with pytest.raises(ValueError):
            overhead_report("C12_3", 4)
        for code_id, b in (("C7_3", 4.0), ("C12_3", 8.0)):
            with pytest.raises(ValueError, match=f"protects {int(b)}-bit values, not {b}-bit"):
                overhead_report(code_id, b)
