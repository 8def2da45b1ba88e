"""Every single-bit flip of small payloads, through the byte-block engine.

8 words of n bits fill one block of n bytes, and the engine keeps one table
per (word slot, block byte) pair. Flipping each payload bit in turn, at
counts that fill blocks partly and wholly, runs every pair of every map's
tables: a flip must flag exactly its own word, in verify and decode alike,
and a flip in the padding is damage to the blob.

The syndrome pass tests each word slot on its own, by a kernel test, a
comparison or an XOR as the slot has one, two or more sources. A flip in
each slot of the registered codes and of the custom codes of every width
must flag its own word, through both readouts.
"""
import random

import pytest

from flipguard.blob import CorruptBlobError, VerifyReport, decode_tensor, encode_tensor, verify_blob
from flipguard.codes import CODE_IDS, MAX_WORD_LEN
from flipguard.encoding import EncodingMap, canonical_map

from test_codec_differential import random_map, random_values, with_payload
from test_kernel_widths import COUNTS, codes_of_width


def maps():
    rng = random.Random("engine/maps")
    return [pytest.param(canonical_map(c), id=c) for c in CODE_IDS] + [
        pytest.param(random_map(rng, c), id=f"{c}-custom") for c in CODE_IDS]


@pytest.mark.parametrize("m", maps())
def test_every_single_bit_flip_flags_its_word(m):
    n = m.code.n
    rng = random.Random(f"engine/{[w.bits for w in m.basis_images]}")
    for count in COUNTS:
        values = random_values(rng, m, count)
        clean = encode_tensor(m, values, "l")
        assert verify_blob(m, clean) == VerifyReport((), count)
        assert decode_tensor(m, clean) == values
        payload = bytearray(clean.payload)
        for bit in range(8 * len(payload)):
            payload[bit // 8] ^= 0x80 >> bit % 8
            dirty = with_payload(clean, payload)
            payload[bit // 8] ^= 0x80 >> bit % 8
            if bit >= count * n:
                for scan in (verify_blob, decode_tensor):
                    with pytest.raises(CorruptBlobError, match="nonzero padding bits"):
                        scan(m, dirty)
                continue
            report = verify_blob(m, dirty)
            assert report == VerifyReport((bit // n,), count)
            assert decode_tensor(m, dirty) == report


def flip_bits(blob, bits):
    payload = bytearray(blob.payload)
    for bit in bits:
        payload[bit // 8] ^= 0x80 >> bit % 8
    return with_payload(blob, payload)


@pytest.mark.parametrize("code", [*CODE_IDS, *range(3, MAX_WORD_LEN + 1)])
def test_one_dirty_slot_flags_its_word(code):
    if code in CODE_IDS:
        ms = [canonical_map(code)]
    else:  # the custom codes of this width, as in test_kernel_widths
        ms = [EncodingMap(c.generator) for c in codes_of_width(code)]
    for m in ms:
        n = m.code.n
        rng = random.Random(f"slots/{code}/{n}")
        # one flagged word is a dense readout of 43 words, a sparse one of 131
        for count in (43, 131):
            values = random_values(rng, m, count)
            clean = encode_tensor(m, values, "l")
            # slots 0..7 of block 1, then the last word before the padding
            for i in (*range(8, 16), count - 1):
                for j in range(n):  # every bit, so every source of the slot
                    dirty = flip_bits(clean, [i * n + j])
                    report = verify_blob(m, dirty)
                    assert report == VerifyReport((i,), count)
                    assert dirty._flags == (m, (i,))  # kept, dense or sparse
                    assert decode_tensor(m, flip_bits(clean, [i * n + j])) == report
            # two slots at once, the higher index in the lower slot: the
            # readout merges them in ascending order
            words = (8 * 4 + 1, 8 * 2 + 6)
            assert verify_blob(m, flip_bits(clean, [i * n + rng.randrange(n) for i in words])) == (
                VerifyReport(tuple(sorted(words)), count))
        for count in range(18):
            values = random_values(rng, m, count)
            clean = encode_tensor(m, values, "l")
            assert verify_blob(m, clean) == VerifyReport((), count)
            assert decode_tensor(m, clean) == values
