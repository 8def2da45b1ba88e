"""The bit-sliced syndrome kernel's verdicts against codeword membership.

Every n-bit word of every code goes through ``verify_blob`` alone and all
together; short counts and counts beside the field mask's 8-word byte period
are checked, with planted flips, against ``reference_scan``, and so are
blobs that shrink and grow past the shared tuple of word indices. The
flagged-word readout has a sparse and a dense branch; flag counts on both
sides of the switch and layouts that mix clean and random stretches are
checked against the reference too.
"""
import random

import pytest

import flipguard.blob
from flipguard.blob import EncodedBlob, decode_tensor, encode_tensor, pack_words, verify_blob
from flipguard.codes import CODE_IDS, BitWord
from flipguard.encoding import EncodingMap, canonical_map

from test_codec_differential import (
    random_payload, random_values, reference_scan, scan_both, with_payload)

# 1..17, then 8j - 1 and 8j + 1 further out
PERIOD_COUNTS = (*range(1, 18), *(8 * j + s for j in (3, 4, 7, 16, 128) for s in (-1, 1)))


def blob_of(m, words):
    n = m.code.n
    return EncodedBlob(m.code_id, m.b, n, len(words), "l", pack_words(words, n))


@pytest.mark.parametrize("code_id", CODE_IDS)
def test_every_word_alone_matches_membership(code_id):
    m = canonical_map(code_id)
    members = {w.bits for w in m.table}
    for word in range(1 << m.code.n):
        report = verify_blob(m, blob_of(m, [word]))
        assert report.clean == (word in members)
        assert report.corrupted_indices == (() if word in members else (0,))


@pytest.mark.parametrize("code_id", CODE_IDS)
def test_all_words_in_one_blob_match_membership(code_id):
    m = canonical_map(code_id)
    members = {w.bits for w in m.table}
    everything = list(range(1 << m.code.n))
    report = verify_blob(m, blob_of(m, everything))
    assert report.corrupted_indices == tuple(w for w in everything if w not in members)
    # reversed, so that each word sits at another offset in the payload
    report = verify_blob(m, blob_of(m, everything[::-1]))
    assert report.corrupted_indices == tuple(
        i for i, w in enumerate(everything[::-1]) if w not in members)


@pytest.mark.parametrize("code_id", CODE_IDS)
@pytest.mark.parametrize("count", PERIOD_COUNTS)
def test_period_counts_with_planted_flips_match_reference(code_id, count):
    m = canonical_map(code_id)
    n = m.code.n
    rng = random.Random(f"{code_id}/{count}/period")
    values = random_values(rng, m, count)
    clean = encode_tensor(m, values, "l")
    assert scan_both(m, clean) == reference_scan(m, clean.payload, count) == (values, ())
    for _ in range(3):
        payload = bytearray(clean.payload)
        # any number of flips per word, so some patterns are codewords and pass
        for i in rng.sample(range(count), rng.randint(1, min(count, 5))):
            for j in rng.sample(range(n), rng.randint(1, n)):
                bit = i * n + j
                payload[bit // 8] ^= 0x80 >> (bit % 8)
        dirty = with_payload(clean, payload)
        assert scan_both(m, dirty) == reference_scan(m, dirty.payload, count)


@pytest.mark.parametrize("code_id", CODE_IDS)
def test_shared_index_tuple_across_sizes_and_densities(code_id, monkeypatch):
    # down from 2^12 words, where the tuple outruns the syndrome bytes, then up
    monkeypatch.setattr(flipguard.blob, "_INDEX", ())
    m = canonical_map(code_id)
    n = m.code.n
    rng = random.Random(f"{code_id}/index")
    longest = 0
    for count in (1 << 12, 17, (1 << 13) + 1):
        values = random_values(rng, m, count)
        clean = encode_tensor(m, values, "l")
        before = flipguard.blob._INDEX
        assert scan_both(m, clean) == (values, ())
        assert flipguard.blob._INDEX is before
        sparse = bytearray(clean.payload)
        bit = (count - 1) * n
        sparse[bit // 8] ^= 0x80 >> (bit % 8)
        dense = random_payload(rng, n, count)
        for payload in (sparse, dense):
            dirty = with_payload(clean, payload)
            assert scan_both(m, dirty) == reference_scan(m, dirty.payload, count)
        longest = max(longest, count)
        assert len(flipguard.blob._INDEX) == longest


def test_full_dimension_code_flags_nothing():
    units = tuple(BitWord(1 << i, 4) for i in reversed(range(4)))
    m = EncodingMap(units)
    assert m.code.parity_checks == ()
    words = list(range(16)) * 3
    blob = EncodedBlob("custom", 4, 4, len(words), "l", pack_words(words, 4))
    assert verify_blob(m, blob).clean
    assert decode_tensor(m, blob) == [w - 16 if w >= 8 else w for w in words]


# not multiples of 8, so the last block holds padding words
READOUT_COUNTS = (17, 4095, 4097)


def flipped_words(clean, n, indices):
    """clean's payload with one bit flipped in each of the given words: a
    single flip is never a codeword, so exactly those words are flagged."""
    payload = bytearray(clean.payload)
    for i in indices:
        bit = i * n + i % n
        payload[bit // 8] ^= 0x80 >> (bit % 8)
    return with_payload(clean, payload)


@pytest.mark.parametrize("code_id", CODE_IDS)
@pytest.mark.parametrize("count", (*READOUT_COUNTS, 4096))  # 4096 = 64 * _SPARSE: a tie
def test_flag_counts_beside_the_sparse_cutoff_match_reference(code_id, count, monkeypatch):
    m = canonical_map(code_id)
    rng = random.Random(f"{code_id}/{count}/cutoff")
    clean = encode_tensor(m, random_values(rng, m, count), "l")
    cutoff = count // flipguard.blob._SPARSE
    for dirty in (cutoff - 1, cutoff, cutoff + 1):
        if dirty < 1:
            continue
        monkeypatch.setattr(flipguard.blob, "_INDEX", ())
        blob = flipped_words(clean, m.code.n, rng.sample(range(count), dirty))
        values, bad = scan_both(m, blob)
        assert (values, bad) == reference_scan(m, blob.payload, count)
        assert len(bad) == dirty
        # only the dense branch reads the shared index tuple
        assert (flipguard.blob._INDEX == ()) == (dirty * flipguard.blob._SPARSE < count)


@pytest.mark.parametrize("code_id", CODE_IDS)
@pytest.mark.parametrize("count", READOUT_COUNTS)
def test_readout_layouts_match_reference(code_id, count):
    m = canonical_map(code_id)
    n = m.code.n
    members = [w.bits for w in m.table]
    others = sorted(set(range(1 << n)) - set(members))
    rng = random.Random(f"{code_id}/{count}/layout")
    codewords = [rng.choice(members) for _ in range(count)]
    noise = [rng.randrange(1 << n) for _ in range(count)]
    half = count // 2
    layouts = (
        codewords[:half] + noise[half:],  # clean first half, random second half
        noise[:half] + codewords[half:],  # and the reverse
        codewords[:-1] + [rng.choice(others)],  # only the last word flagged
        [rng.choice(others) for _ in range(count)],  # every word flagged
    )
    for words in layouts:
        blob = blob_of(m, words)
        assert scan_both(m, blob) == reference_scan(m, blob.payload, count)
    assert verify_blob(m, blob_of(m, layouts[2])).corrupted_indices == (count - 1,)
    assert verify_blob(m, blob_of(m, layouts[3])).corrupted_indices == tuple(range(count))


def test_light_flips_leave_the_index_tuple_unbuilt(monkeypatch):
    monkeypatch.setattr(flipguard.blob, "_INDEX", ())
    m = canonical_map("C13_4")
    count = 1 << 14
    rng = random.Random("light")
    clean = encode_tensor(m, random_values(rng, m, count), "l")
    blob = flipped_words(clean, m.code.n, (5, 9000, count - 1))
    assert verify_blob(m, blob).corrupted_indices == (5, 9000, count - 1)
    assert decode_tensor(m, blob).corrupted_indices == (5, 9000, count - 1)
    assert flipguard.blob._INDEX == ()
