import dataclasses
import random

import pytest
from fractions import Fraction
from hypothesis import given, strategies as st

import flipguard.blob as blob_module
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
from flipguard.codes import CODE_IDS, BitWord, code_shape
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

    @pytest.mark.parametrize("n, count, size, message", [
        (7, 2, 1, "payload truncated: 1 bytes, need 2"),
        (7, 2, 0, "payload truncated: 0 bytes, need 2"),
        (7, 2, 3, "payload has 1 trailing bytes"),
        (7, 2, 5, "payload has 3 trailing bytes"),
        (7, 1, 1, "nonzero padding bits"),
        (13, 3, 3, "payload truncated: 3 bytes, need 5"),
        (13, 3, 9, "payload has 4 trailing bytes"),
        (13, 3, 5, "nonzero padding bits"),
    ])
    def test_payload_faults_are_named_exactly(self, n, count, size, message):
        # all-ones bytes: a payload of the right length then fails on its padding
        with pytest.raises(CorruptBlobError) as info:
            unpack_words(b"\xff" * size, n, count)
        assert str(info.value) == message

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

    @pytest.mark.parametrize("layer", ["", "schicht/gewichte-é→"], ids=["empty", "non-ascii"])
    def test_truncation_names_the_missing_field(self, layer):
        # the header's fields in wire order, each with its width in bytes
        fields = [("magic", 8), ("code_id length", 1), ("code_id", 4), ("header", 10),
                  ("layer_id length", 2), ("layer_id", len(layer.encode()))]
        expected = [f"truncated blob: missing {what}" for what, width in fields for _ in range(width)]
        blob = self.blob(layer=layer)
        data = blob.to_bytes()
        assert len(data) == len(expected) + len(blob.payload)
        for cut, message in enumerate(expected):
            for head in (data[:cut], bytearray(data[:cut]), memoryview(data)[:cut]):
                with pytest.raises(CorruptBlobError) as caught:
                    EncodedBlob.from_bytes(head)
                assert str(caught.value) == message, cut
        # the whole header, no payload
        with pytest.raises(CorruptBlobError) as caught:
            EncodedBlob.from_bytes(data[: len(expected)])
        assert str(caught.value) == f"payload must be {len(blob.payload)} bytes, got 0"

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

    @pytest.mark.parametrize("field, top", [("code_id", 0xFF), ("layer_id", 0xFFFF)])
    def test_id_length_is_counted_in_utf8_bytes(self, field, top):
        # 4-byte characters: the limit falls at a quarter of the byte count
        fields = dict(code_id="C7_3", bits=4, n=7, count=0, layer_id="", payload=b"")
        for text, fits in (("\U0001F600" * (top // 4) + "abc", True),
                           ("\U0001F600" * (top // 4 + 1), False), ("é" * (top // 2), True),
                           ("é" * (top // 2) + "é", False), ("x" * top, True)):
            fields[field] = text
            if fits:
                blob = EncodedBlob(**fields)
                assert top - 1 <= len(getattr(blob, field).encode()) <= top and blob.to_bytes()
            else:
                with pytest.raises(ValueError, match=f"^{field} too long$"):
                    EncodedBlob(**fields)

    @pytest.mark.parametrize("field", ["code_id", "layer_id"])
    def test_id_utf8_cannot_encode_is_refused(self, field):
        # a lone surrogate would construct, and then to_bytes would raise
        fields = dict(code_id="C7_3", bits=4, n=7, count=0, layer_id="", payload=b"")
        for text in ("\ud800", "a\udcffb", "é\udfff", "\ud800" + "x" * 0x10000):
            fields[field] = text
            with pytest.raises(ValueError, match=f"^{field} is not valid UTF-8$"):
                EncodedBlob(**fields)
        # the fields in order: code_id is checked before layer_id
        with pytest.raises(ValueError, match="^code_id is not valid UTF-8$"):
            EncodedBlob("\ud800", 4, 7, 0, "x" * 0x10000, b"")

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


def flip_words(blob, indices, j=0):
    """The blob with bit j of each listed word flipped: every registered
    code has distance 3 or more, so each of those words is flagged."""
    payload = bytearray(blob.payload)
    for i in indices:
        bit = i * blob.n + j
        payload[bit // 8] ^= 0x80 >> bit % 8
    return dataclasses.replace(blob, payload=bytes(payload))


def brute_force_flagged(m, blob):
    members = {w.bits for w in m.table}
    return tuple(i for i, w in enumerate(unpack_words(blob.payload, blob.n, blob.count))
                 if w not in members)


def random_blob(m, count, seed=0):
    rng = random.Random(seed)
    half = 1 << (m.b - 1)
    return encode_tensor(m, [rng.randrange(-half, half) for _ in range(count)], "l")


def noise_blob(blob, seed=0):
    """The blob over random words, padding kept zero: nearly all flagged."""
    noise = bytearray(random.Random(seed).randbytes(len(blob.payload)))
    noise[-1] &= (0xFF << (8 * len(noise) - blob.n * blob.count)) & 0xFF
    return dataclasses.replace(blob, payload=bytes(noise))


def has_clean_run(flagged, count, run=32):
    """Whether the syndrome bytes, count rounded up to whole blocks of 8
    words, hold ``run`` zero bytes in a row."""
    gaps = [b - a - 1 for a, b in zip((-1, *flagged), (*flagged, -(-count // 8) * 8))]
    return max(gaps) >= run


class TestReadout:
    """The flagged-index readout against brute force on both sides of the
    sparse cutoff, count / 64 flagged words."""

    @pytest.mark.parametrize("count", [4096, 4100])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("layout", ["spread", "run"])
    def test_around_the_cutoff(self, count, offset, layout):
        m = canonical_map("C13_4")
        k = count // 64 + offset
        # spread: one flagged word in every count // k, the last of each stretch
        flagged = (tuple(range(count // k - 1, count, count // k)) if layout == "spread"
                   else tuple(range(k)))
        blob = flip_words(random_blob(m, count), flagged)
        assert len(flagged) == k and has_clean_run(flagged, count)
        assert verify_blob(m, blob).corrupted_indices == flagged == brute_force_flagged(m, blob)
        assert blob._flags == (m, flagged)  # kept on both sides of the cutoff

    @pytest.mark.parametrize("count, stride", [(4096, 32), (4100, 31), (80, 27), (20, 7), (1, 1)])
    def test_no_clean_run_is_dense(self, count, stride):
        # without 32 clean words in a row, at least count / 64 are flagged
        m = canonical_map("C13_4")
        flagged = tuple(range(stride - 1, count, stride)) or (0,)
        blob = flip_words(random_blob(m, count), flagged)
        assert not has_clean_run(flagged, count)
        assert len(flagged) * 64 >= count
        assert verify_blob(m, blob).corrupted_indices == flagged == brute_force_flagged(m, blob)
        assert blob._flags == (m, flagged)

    def test_random_payload(self):
        m = canonical_map("C7_3")
        blob = noise_blob(random_blob(m, 3000))
        assert verify_blob(m, blob).corrupted_indices == brute_force_flagged(m, blob)


class TestKeptScan:
    """A dirty scan result stays on the blob for its map object; a clean one
    is scanned afresh on every call."""

    def test_keyed_on_the_map_object(self):
        hamming = EncodingMap(canonical_map("C7_3").basis_images)  # both "custom", n=7, b=4
        top = EncodingMap([BitWord(0x40 >> i, 7) for i in range(4)])  # low 3 bits zero
        for m, other in ((hamming, top), (top, hamming)):
            clean = random_blob(m, 300)
            assert verify_blob(m, clean).clean and clean._flags is None
            assert verify_blob(other, clean) == verify_blob(other, dataclasses.replace(clean))
            blob = flip_words(clean, [5, 250], j=6)  # top's code is 0 there
            assert verify_blob(m, blob).corrupted_indices == (5, 250)
            assert blob._flags[0] is m
            cold = verify_blob(other, dataclasses.replace(blob))
            assert cold.corrupted_indices != (5, 250)
            assert verify_blob(other, blob) == cold
            assert decode_tensor(other, blob) == cold
        # an equal map that is another object scans again, to the same result
        blob = flip_words(random_blob(hamming, 300), [5, 250])
        twin = EncodingMap(hamming.basis_images)
        assert twin == hamming and twin is not hamming
        assert verify_blob(hamming, blob) == verify_blob(twin, blob)
        assert blob._flags[0] is twin

    def test_header_mismatch_still_raises(self):
        m = canonical_map("C7_3")
        blob = flip_words(random_blob(m, 100), [7])
        assert verify_blob(m, blob).corrupted_indices == (7,) and blob._flags is not None
        for other in (canonical_map("C8_4"), EncodingMap(m.basis_images)):
            for scan in (verify_blob, decode_tensor):
                with pytest.raises(ValueError, match="does not match map"):
                    scan(other, blob)

    def test_invisible_outside_the_scan(self):
        m = canonical_map("C13_4")
        blob = flip_words(random_blob(m, 200), [9])
        fresh = dataclasses.replace(blob)
        decode_tensor(m, blob)
        assert blob._flags is not None and fresh._flags is None
        assert blob == fresh and hash(blob) == hash(fresh) and repr(blob) == repr(fresh)
        assert blob.to_bytes() == fresh.to_bytes()
        assert [f.name for f in dataclasses.fields(blob)] == [
            "code_id", "bits", "n", "count", "layer_id", "payload"]
        assert dataclasses.replace(blob)._flags is None

    @pytest.mark.parametrize("code_id", CODE_IDS)
    def test_a_clean_read_checks_the_payload_again(self, code_id):
        # memory under a verified blob can still change: swap a flipped
        # payload in behind the frozen fields, and decode must flag it
        m = canonical_map(code_id)
        blob = random_blob(m, 200)
        dirty = flip_words(blob, [17])
        for first in (verify_blob, decode_tensor):
            read = dataclasses.replace(blob)
            first(m, read)
            assert read._flags is None
            object.__setattr__(read, "payload", dirty.payload)
            assert decode_tensor(m, read) == verify_blob(m, dirty)
            assert decode_tensor(m, read).corrupted_indices == (17,)

    def test_a_kept_dirty_result_lets_no_values_out(self):
        # the kept report answers even if the payload is swapped for a clean
        # one: the blob stays known dirty, and decode returns no values
        m = canonical_map("C9_4")
        blob = random_blob(m, 200)
        dirty = flip_words(blob, [3, 150])
        report = verify_blob(m, dirty)
        object.__setattr__(dirty, "payload", blob.payload)
        assert decode_tensor(m, dirty) == report == verify_blob(m, dirty)
        assert verify_blob(m, dataclasses.replace(dirty)).clean

    def test_a_kept_dense_result_lets_no_values_out(self):
        # the same over a random payload, nearly every word flagged
        m = canonical_map("C9_4")
        blob = random_blob(m, 200)
        dirty = noise_blob(blob)
        report = verify_blob(m, dirty)
        assert len(report.corrupted_indices) * 64 >= dirty.count
        object.__setattr__(dirty, "payload", blob.payload)
        assert decode_tensor(m, dirty) == report == verify_blob(m, dirty)
        assert verify_blob(m, dataclasses.replace(dirty)).clean

    @pytest.mark.parametrize("code_id", CODE_IDS)
    def test_the_kept_indices_are_the_reports(self, code_id):
        # the blob holds the report's own tuple, so it costs a caller that
        # keeps the report nothing more; a clean blob holds nothing
        m = canonical_map(code_id)
        clean = random_blob(m, 1000)
        for dirty in (flip_words(clean, [3, 999]), noise_blob(clean)):
            report = verify_blob(m, dirty)
            assert report.corrupted_indices is dirty._flags[1] and dirty._flags[0] is m
            again = decode_tensor(m, dirty)
            assert again == report and again.corrupted_indices is report.corrupted_indices
        assert verify_blob(m, clean).clean and decode_tensor(m, clean) and clean._flags is None

    @pytest.mark.parametrize("code_id", CODE_IDS)
    def test_either_order_matches_cold_calls(self, code_id):
        m = canonical_map(code_id)
        for count in (8, 100):  # one flagged word: dense of 8, sparse of 100
            clean = random_blob(m, count, seed=count)
            values = decode_tensor(m, dataclasses.replace(clean))
            assert (verify_blob(m, clean).clean, decode_tensor(m, clean)) == (True, values)
            for bit in range(count * m.code.n):
                payload = bytearray(clean.payload)
                payload[bit // 8] ^= 0x80 >> bit % 8
                dirty = dataclasses.replace(clean, payload=bytes(payload))
                cold = verify_blob(m, dataclasses.replace(dirty))
                assert cold.corrupted_indices == (bit // m.code.n,)
                assert decode_tensor(m, dataclasses.replace(dirty)) == cold
                first = dataclasses.replace(dirty)
                assert (verify_blob(m, first), decode_tensor(m, first)) == (cold, cold)
                assert (decode_tensor(m, dirty), verify_blob(m, dirty)) == (cold, cold)
        noise = noise_blob(random_blob(m, 500))
        cold = verify_blob(m, dataclasses.replace(noise))
        assert decode_tensor(m, dataclasses.replace(noise)) == cold
        assert (verify_blob(m, noise), decode_tensor(m, noise), verify_blob(m, noise)) == (cold,) * 3

    @pytest.mark.parametrize("kind, passes", [("clean", 2), ("sparse", 1), ("dense", 1)])
    def test_syndrome_passes_per_blob_and_map(self, monkeypatch, kind, passes):
        m = canonical_map("C12_3")
        blob = random_blob(m, 1000)
        blob = {"clean": blob, "sparse": flip_words(blob, [3, 999]), "dense": noise_blob(blob)}[kind]
        calls, scan = [], blob_module._scan
        monkeypatch.setattr(blob_module, "_scan", lambda *a: calls.append(a[0]) or scan(*a))
        for first, second in ((verify_blob, decode_tensor), (decode_tensor, verify_blob)):
            fresh = dataclasses.replace(blob)
            for each in (m, EncodingMap(m.basis_images, "C12_3")):  # equal maps, two objects
                calls.clear()
                first(each, fresh)
                second(each, fresh)
                assert calls == [each] * passes


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
