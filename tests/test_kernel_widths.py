"""The syndrome kernel at every word width from 3 to 64 bits.

The six registered codes have widths 7, 8, 9, 12, 13 and 14. Here codes of
every width n = 3 .. MAX_WORD_LEN and dimension at most 8 are built from
the Hamming codes of redundancy 2..6: shortened to n (or to n - 1 and
extended), then cut down to a random linear subcode. Clean, planted-flip and
random payloads of each go through ``verify_blob`` and ``decode_tensor`` and
are checked against ``reference_scan`` and code membership.
"""
import random

import pytest

from flipguard.blob import encode_tensor
from flipguard.codes import (_ENUM_DIM_LIMIT, MAX_WORD_LEN, BinaryCode, BitWord, construct_hamming,
                             extend_code, linear_subcode, shorten_code)
from flipguard.encoding import EncodingMap

from test_codec_differential import random_payload, random_values, reference_scan, scan_both, with_payload

# 1..17, then 8j - 1 and 8j + 1 further out
COUNTS = (*range(1, 18), *(8 * j + s for j in (3, 4, 7, 16) for s in (-1, 1)))


def hamming_of_length(n, rng):
    """The shortest Hamming code at least n long, shortened at random
    coordinates to length n."""
    r = next(r for r in range(2, 7) if (1 << r) - 1 >= n)
    code = construct_hamming(r)
    return shorten_code(code, rng.sample(range(1, code.n + 1), code.n - n)) if code.n > n else code


def subcode(code, rng):
    """A random linear subcode of dimension 1..8. ``linear_subcode`` enumerates
    the codewords, so generator rows are first sampled down to a dimension
    ``BinaryCode`` will enumerate."""
    if code.dimension > _ENUM_DIM_LIMIT:
        code = BinaryCode(tuple(rng.sample(code.generator, _ENUM_DIM_LIMIT)))
    return linear_subcode(code, rng.randint(1, min(8, code.dimension)), rng.randrange(1 << 30))


def codes_of_width(n):
    rng = random.Random(f"width/{n}")
    codes = []
    if n < MAX_WORD_LEN:  # the longest Hamming code has 63 bits
        codes.append(subcode(hamming_of_length(n, rng), rng))
    if n > 3:
        codes.append(subcode(extend_code(hamming_of_length(n - 1, rng)), rng))
    return codes


def members_only(code, payload, count):
    """Indices of the payload's words outside the code, by ``in``."""
    n = code.n
    bits = "".join(f"{byte:08b}" for byte in payload)
    return tuple(i for i in range(count) if BitWord(int(bits[i * n:(i + 1) * n], 2), n) not in code)


@pytest.mark.parametrize("n", range(3, MAX_WORD_LEN + 1))
def test_codes_of_every_width_match_reference(n):
    rng = random.Random(f"payloads/{n}")
    for code in codes_of_width(n):
        assert code.n == n and code.dimension <= 8
        m = EncodingMap(code.generator)
        for count in COUNTS:
            values = random_values(rng, m, count)
            clean = encode_tensor(m, values, "l")
            assert scan_both(m, clean) == reference_scan(m, clean.payload, count) == (values, ())

            payload = bytearray(clean.payload)
            planted = sorted(rng.sample(range(count), rng.randint(1, min(count, 4))))
            for i in planted:  # fewer than d flips are never a codeword
                for j in rng.sample(range(n), rng.randint(1, code.min_distance - 1)):
                    bit = i * n + j
                    payload[bit // 8] ^= 0x80 >> (bit % 8)
            dirty = with_payload(clean, payload)
            assert scan_both(m, dirty) == reference_scan(m, dirty.payload, count) == (
                None, tuple(planted))

            noise = with_payload(clean, random_payload(rng, n, count))
            got = scan_both(m, noise)
            assert got == reference_scan(m, noise.payload, count)
            assert got[1] == members_only(code, noise.payload, count)
