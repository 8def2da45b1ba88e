"""The bulk codec against word-by-word references, for all six codes and
random custom maps.

``reference_pack`` (from test_blob) packs through an explicit bit string one
byte at a time. ``reference_scan`` unpacks one word at a time and tests each
for membership in the map's table. Neither uses the map's cached byte tables.
"""
import random
import time
from enum import IntEnum
from functools import reduce
from itertools import chain
from operator import xor

import pytest

import flipguard.blob as blob_module
from flipguard.blob import (
    CorruptBlobError,
    EncodedBlob,
    VerifyReport,
    decode_tensor,
    encode_tensor,
    pack_words,
    unpack_words,
    verify_blob,
)
from flipguard.codes import CODE_IDS, BitWord
from flipguard.encoding import EncodingMap, canonical_map, encode_value

from test_blob import reference_pack

SEEDS = range(4)
K = 1024
# Counts on each side of a 1024-word edge, and around the empty payload.
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


@pytest.mark.parametrize("dirty", [False, True])
def test_verify_and_decode_read_the_payload_once(monkeypatch, dirty):
    m = canonical_map("C13_4")
    blob = encode_tensor(m, random_values(random.Random(3), m, 100), "l")
    if dirty:
        payload = bytearray(blob.payload)
        payload[5] ^= 1
        blob = with_payload(blob, payload)
    calls = []
    read = blob_module._payload_bits
    monkeypatch.setattr(blob_module, "_payload_bits", lambda *a: calls.append(a) or read(*a))
    for scan in (verify_blob, decode_tensor):
        calls.clear()
        scan(m, blob)
        assert len(calls) == 1


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


def random_map(rng, code_id):
    """A custom map over the code of ``code_id``: b random independent
    codewords as the basis images."""
    code = canonical_map(code_id).code
    rows = [g.bits for g in code.generator]
    while True:
        images = [BitWord(reduce(xor, (r for r in rows if rng.random() < 0.5), 0), code.n)
                  for _ in rows]
        try:
            return EncodingMap(images)
        except ValueError:  # dependent, or a zero image
            continue


def some_maps(seed):
    rng = random.Random(f"maps/{seed}")
    return [canonical_map(c) for c in CODE_IDS] + [random_map(rng, c) for c in CODE_IDS]


@pytest.mark.parametrize("seed", SEEDS)
def test_byte_lanes_match_reference_for_canonical_and_custom_maps(seed):
    rng = random.Random(f"lanes/{seed}")
    for m in some_maps(seed):
        for count in (0, 1, 7, 8, 9, 1023, 1025):
            values = random_values(rng, m, count)
            blob = encode_tensor(m, values, "l")
            assert blob.payload == reference_pack(reference_words(m, values), m.code.n)
            assert decode_tensor(m, blob) == values
        half = 1 << (m.b - 1)
        every = list(range(-half, half))
        assert decode_tensor(m, encode_tensor(m, every, "l")) == every
        # 2^b is a multiple of 8, so each rotation by one moves every value
        # to the next block slot: all values land in all 8 slots
        rotated = [v for r in range(9) for v in every[r:] + every[:r]]
        assert decode_tensor(m, encode_tensor(m, rotated, "l")) == rotated


@pytest.mark.parametrize("code_id", CODE_IDS)
def test_non_int_values_raise_type_error(code_id):
    m = canonical_map(code_id)
    for bad in (1.0, 1.5, "3", None):
        for values in ([bad], [0, 1, bad, -1]):
            with pytest.raises(TypeError):
                encode_tensor(m, values, "l")


@pytest.mark.parametrize("code_id", CODE_IDS)
def test_bools_encode_as_their_ints(code_id):
    m = canonical_map(code_id)
    blob = encode_tensor(m, [True, False, True], "l")
    assert blob.payload == encode_tensor(m, [1, 0, 1], "l").payload
    assert decode_tensor(m, blob) == [1, 0, 1]


@pytest.mark.parametrize("code_id", [c for c in CODE_IDS if canonical_map(c).b == 4])
def test_four_bit_values_that_fit_a_byte_raise_like_encode_value(code_id):
    # struct's "b" format takes these, so only the codec's own range check refuses them
    m = canonical_map(code_id)
    for bad in chain(range(8, 128), range(-128, -8)):
        with pytest.raises(ValueError) as expected:
            encode_value(m, bad)
        with pytest.raises(ValueError) as got:
            encode_tensor(m, [0, 7, -8, bad, 3], "l")
        assert str(got.value) == str(expected.value) == f"value {bad} out of range [-8, 7]"


@pytest.mark.parametrize("code_id", CODE_IDS)
def test_bytes_values_are_unsigned_ints(code_id):
    # bytes hold 0..255, which must not be read raw as the signed bytes -128..127
    m = canonical_map(code_id)
    half = 1 << (m.b - 1)
    assert encode_tensor(m, bytes([0, 1, half - 1]), "l").payload == \
        encode_tensor(m, [0, 1, half - 1], "l").payload
    for data in (bytes([0, 255]), bytearray([half])):
        with pytest.raises(ValueError, match=f"value {data[-1]} out of range"):
            encode_tensor(m, data, "l")


# Values the "b" struct format refuses, with the error encode_tensor raises for
# them: encode_value's, for the first refused value. {lo} and {hi} are the
# map's value range.
REFUSED = (
    (None, TypeError, "'<=' not supported between instances of 'int' and 'NoneType'"),
    (1.5, TypeError, "unsupported operand type(s) for &: 'float' and 'int'"),
    ("3", TypeError, "'<=' not supported between instances of 'int' and 'str'"),
    (1 << 70, ValueError, "value 1180591620717411303424 out of range [{lo}, {hi}]"),
    (128, ValueError, "value 128 out of range [{lo}, {hi}]"),
    (-129, ValueError, "value -129 out of range [{lo}, {hi}]"),
)


@pytest.mark.parametrize("code_id", CODE_IDS)
@pytest.mark.parametrize("bad, kind, message", REFUSED)
def test_refused_values_raise_encode_values_error(code_id, bad, kind, message):
    m = canonical_map(code_id)
    half = 1 << (m.b - 1)
    for values in ([bad], [0, 1, bad, -1], (0, bad, bad)):
        with pytest.raises(kind) as got:
            encode_tensor(m, values, "l")
        assert type(got.value) is kind
        assert str(got.value) == message.format(lo=-half, hi=half - 1)


class Level(IntEnum):
    LOW = -3
    HIGH = 5


class Index:
    """Not an int, but stands for one through __index__."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


@pytest.mark.parametrize("code_id", CODE_IDS)
def test_int_stand_ins_encode_as_their_ints(code_id):
    m = canonical_map(code_id)
    half = 1 << (m.b - 1)
    ints = [1, -3, 5, half - 1, -half, 0]
    stand_ins = [True, Level.LOW, Level.HIGH, Index(half - 1), Index(-half), False]
    blob = encode_tensor(m, stand_ins, "l")
    assert blob == encode_tensor(m, ints, "l")
    assert decode_tensor(m, blob) == ints


@pytest.mark.parametrize("code_id", CODE_IDS)
def test_one_shot_iterables_encode_and_raise_like_lists(code_id):
    m = canonical_map(code_id)
    half = 1 << (m.b - 1)
    good = [0, -half, half - 1, 1]
    assert encode_tensor(m, iter(good), "l") == encode_tensor(m, good, "l")
    for bad in (half, -half - 1, 1 << 40, 1.5, "3"):
        values = [0, 1, bad, -1]
        with pytest.raises((TypeError, ValueError)) as expected:
            encode_tensor(m, values, "l")
        for once in (iter(values), (v for v in values)):
            with pytest.raises(expected.type) as got:
                encode_tensor(m, once, "l")
            assert type(got.value) is expected.type
            assert str(got.value) == str(expected.value)


def test_maps_wider_than_a_byte_are_refused():
    units = tuple(BitWord(1 << i, 9) for i in reversed(range(9)))
    with pytest.raises(ValueError, match="code dimension must be at most 8, got 9"):
        EncodingMap(units)
