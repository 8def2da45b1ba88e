"""Every single-bit flip of small payloads, through the byte-block engine.

8 words of n bits fill one block of n bytes, and the engine keeps one table
per (word slot, block byte) pair. Flipping each payload bit in turn, at
counts that fill blocks partly and wholly, runs every pair of every map's
tables: a flip must flag exactly its own word, in verify and decode alike,
and a flip in the padding is damage to the blob.
"""
import random

import pytest

from flipguard.blob import CorruptBlobError, VerifyReport, decode_tensor, encode_tensor, verify_blob
from flipguard.codes import CODE_IDS
from flipguard.encoding import canonical_map

from test_codec_differential import random_map, random_values, with_payload
from test_kernel_widths import COUNTS


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
