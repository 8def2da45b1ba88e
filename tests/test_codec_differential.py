"""The bulk codec against word-by-word references, for all six codes.

``reference_pack`` (from test_blob) packs through an explicit bit string one
byte at a time. ``reference_scan`` unpacks one word at a time and tests each
for membership in the map's table. Neither uses the map's cached strings.
"""
import random
import time

import pytest

from flipguard.blob import (
    _CHUNK,
    CorruptBlobError,
    EncodedBlob,
    VerifyReport,
    decode_tensor,
    encode_tensor,
    pack_words,
    unpack_words,
    verify_blob,
    _cutter,
)
from flipguard.codes import CODE_IDS
from flipguard.encoding import canonical_map, encode_value

from test_blob import reference_pack

SEEDS = range(4)
K = _CHUNK
# Payloads are cut in chunks of K words: counts on each side of a chunk edge.
BOUNDARY_COUNTS = (0, 1, K - 1, K, K + 1, 2 * K + 1)


def random_values(rng, m, count):
    half = 1 << (m.b - 1)
    return [rng.randrange(-half, half) for _ in range(count)]


def reference_words(m, values):
    return [m.table[v % (1 << m.b)].bits for v in values]


def reference_scan(m, payload, count):
    """(values, corrupted indices) by unpacking word by word; values is None
    when any word is not a codeword."""
    n, half = m.code.n, 1 << (m.b - 1)
    bits = "".join(f"{byte:08b}" for byte in payload)
    pattern = {w.bits: k for k, w in enumerate(m.table)}
    values, bad = [], []
    for i in range(count):
        word = int(bits[i * n:(i + 1) * n], 2)
        if word in pattern:
            k = pattern[word]
            values.append(k - 2 * half if k >= half else k)
        else:
            bad.append(i)
    return (None if bad else values), tuple(bad)


def scan_both(m, blob):
    """verify_blob's and decode_tensor's view of the same blob."""
    report = verify_blob(m, blob)
    decoded = decode_tensor(m, blob)
    if report.clean:
        assert isinstance(decoded, list)
        return decoded, report.corrupted_indices
    assert isinstance(decoded, VerifyReport)
    assert decoded.corrupted_indices == report.corrupted_indices
    assert decoded.scanned == report.scanned == blob.count
    return None, report.corrupted_indices


def with_payload(blob, payload):
    return EncodedBlob(blob.code_id, blob.bits, blob.n, blob.count, blob.layer_id,
                       bytes(payload))


def random_payload(rng, n, count):
    """count random n-bit words, packed with zero padding."""
    need = (count * n + 7) // 8
    payload = bytearray(rng.randbytes(need))
    if need:
        payload[-1] &= (0xFF << (8 * need - count * n)) & 0xFF
    return payload


@pytest.mark.parametrize("code_id", CODE_IDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_payload_bytes_match_reference(code_id, seed):
    m = canonical_map(code_id)
    rng = random.Random(f"{code_id}/{seed}")
    for count in (0, 1, 7, 8, 9, rng.randrange(10, 3000)):
        values = random_values(rng, m, count)
        words = reference_words(m, values)
        payload = encode_tensor(m, values, "l").payload
        assert payload == reference_pack(words, m.code.n)
        assert payload == pack_words(words, m.code.n)
        assert unpack_words(payload, m.code.n, count) == words


@pytest.mark.parametrize("code_id", CODE_IDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_planted_flips_are_flagged_at_their_indices(code_id, seed):
    m = canonical_map(code_id)
    n, d = m.code.n, m.code.min_distance
    rng = random.Random(f"{code_id}/{seed}/planted")
    count = rng.randrange(50, 2000)
    blob = encode_tensor(m, random_values(rng, m, count), "l")
    payload = bytearray(blob.payload)
    planted = sorted(rng.sample(range(count), rng.randint(1, 20)))
    for i in planted:
        for j in rng.sample(range(n), rng.randint(1, d - 1)):
            bit = i * n + j
            payload[bit // 8] ^= 0x80 >> (bit % 8)
    dirty = with_payload(blob, payload)
    got = scan_both(m, dirty)
    assert got == reference_scan(m, dirty.payload, count)
    assert got[1] == tuple(planted)


@pytest.mark.parametrize("code_id", CODE_IDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_random_payloads_match_reference(code_id, seed):
    m = canonical_map(code_id)
    rng = random.Random(f"{code_id}/{seed}/random")
    for count in (1, 2, 3, rng.randrange(10, 2000)):
        payload = random_payload(rng, m.code.n, count)
        blob = with_payload(encode_tensor(m, [0] * count, "l"), payload)
        assert scan_both(m, blob) == reference_scan(m, blob.payload, count)


@pytest.mark.parametrize("code_id", CODE_IDS)
@pytest.mark.parametrize("count", BOUNDARY_COUNTS)
def test_chunk_boundaries_match_reference(code_id, count):
    m = canonical_map(code_id)
    n = m.code.n
    rng = random.Random(f"{code_id}/{count}/chunks")
    values = random_values(rng, m, count)
    clean = encode_tensor(m, values, "l")
    assert scan_both(m, clean) == reference_scan(m, clean.payload, count) == (values, ())

    # one flip in the last word of a chunk, the first of the next, the last word
    planted = sorted({i for i in (K - 1, K, count - 1) if 0 <= i < count})
    payload = bytearray(clean.payload)
    for i in planted:
        bit = i * n + rng.randrange(n)
        payload[bit // 8] ^= 0x80 >> (bit % 8)
    dirty = with_payload(clean, payload)
    assert scan_both(m, dirty) == reference_scan(m, dirty.payload, count) == (
        None if planted else values, tuple(planted))

    noise = with_payload(clean, random_payload(rng, n, count))
    got = scan_both(m, noise)
    assert got == reference_scan(m, noise.payload, count)
    assert all(i < count for i in got[1])


@pytest.mark.parametrize("n", range(1, 17))
def test_unpack_random_payloads_match_reference(n):
    rng = random.Random(n)
    for count in (rng.randrange(1, 500), *BOUNDARY_COUNTS):
        payload = random_payload(rng, n, count)
        bits = "".join(f"{byte:08b}" for byte in payload)
        expected = [int(bits[i * n:(i + 1) * n], 2) for i in range(count)]
        assert unpack_words(bytes(payload), n, count) == expected
    if (K + 1) * n % 8:
        payload = random_payload(rng, n, K + 1)
        payload[-1] |= 1
        with pytest.raises(CorruptBlobError, match="nonzero padding bits"):
            unpack_words(bytes(payload), n, K + 1)


def test_cut_formats_depend_on_the_width_alone():
    # One cached format per word width; one per layer size would hold
    # memory in proportion to the largest layer ever read.
    _cutter.cache_clear()
    rng = random.Random("cutters")
    widths = set()
    for i, count in enumerate(rng.sample(range(1, 5 * K), 40)):
        m = canonical_map(CODE_IDS[i % len(CODE_IDS)])
        blob = encode_tensor(m, random_values(rng, m, count), "l")
        assert verify_blob(m, blob).clean
        widths.add(m.code.n)
    assert _cutter.cache_info().currsize <= len(widths)
    assert all(_cutter(n).size == n * K for n in widths)


@pytest.mark.parametrize("code_id", CODE_IDS)
def test_out_of_range_value_raises_like_encode_value(code_id):
    m = canonical_map(code_id)
    half = 1 << (m.b - 1)
    rng = random.Random(code_id)
    for bad in (half, -half - 1, 2 * half, -2 * half, 1 << 40):
        values = random_values(rng, m, 100)
        values.insert(rng.randrange(101), bad)
        with pytest.raises(ValueError) as expected:
            encode_value(m, bad)
        with pytest.raises(ValueError) as got:
            encode_tensor(m, values, "l")
        assert str(got.value) == str(expected.value)


def test_million_value_round_trip():
    # 2^20 values: about 1 s with a linear codec, minutes with a quadratic one
    m = canonical_map("C13_4")
    values = random_values(random.Random(20), m, 1 << 20)
    t0 = time.perf_counter()
    raw = encode_tensor(m, values, "big").to_bytes()
    blob = EncodedBlob.from_bytes(raw)
    assert len(blob.payload) == (13 << 20) // 8
    assert verify_blob(m, blob).clean
    assert decode_tensor(m, blob) == values
    assert time.perf_counter() - t0 < 60
