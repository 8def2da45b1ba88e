"""Frozen expected values shared by the unit and acceptance tests.

The matrices are 16x16 pairwise bit-flip costs with rows and columns
ordered by signed value -8..7; diagonals are 0. They were transcribed
independently of the code under test. ``signed_value`` reads a
two's-complement pattern back as its value, for the tests that check
patterns against values.
"""
from flipguard.quantize import value_range


def signed_value(pattern: int, b: int) -> int:
    """The signed value of a b-bit two's-complement pattern int."""
    half = -value_range(b)[0]
    if not 0 <= pattern < 2 * half:
        raise ValueError(f"pattern {pattern:#x} does not fit in {b} bits")
    return pattern - 2 * half if pattern >= half else pattern


# The 7-bit code as an unordered codeword set.
HAMMING7_WORDS = {
    "0000000", "1001011", "0010111", "1011100",
    "1100101", "0101110", "1110010", "0111001",
    "1111111", "0110100", "1101000", "0100011",
    "0011010", "1010001", "0001101", "1000110",
}

# Value-to-codeword tables in hex, signed values ascending from -8.
CODEBOOK_C7_3 = "7F 34 68 23 1A 51 0D 46 00 4B 17 5C 65 2E 72 39".split()
CODEBOOK_C8_4 = "FF B4 E8 A3 9A D1 8D C6 00 4B 17 5C 65 2E 72 39".split()
CODEBOOK_C9_4 = ("1EF 1F0 193 18C 155 14A 129 136 "
                 "000 01F 07C 063 0BA 0A5 0C6 0D9").split()

# Images of the unit patterns e1..e8 (e1 = sign bit) under the 8-bit maps;
# by linearity they fix all 256 codewords of each map.
BASIS_IMAGES_8BIT = {
    "C12_3": "FEF 7FB E7F FDD FF6 2FF 5FE 79F".split(),
    "C13_4": "1FEF 07FB 0E7F 0FDD 0FF6 12FF 15FE 179F".split(),
    "C14_4": "2FEF 3EFB 3FF5 07FB 0FF6 15FD 1E9F 1F3D".split(),
}


def _matrix(text):
    rows = [tuple(int(x) for x in line.split()) for line in text.strip().splitlines()]
    assert len(rows) == 16 and all(len(r) == 16 for r in rows)
    return tuple(rows)


# Plain 4-bit two's complement.
EXPECTED_FLIPS_4BIT = _matrix("""
0 1 1 2 1 2 2 3 1 2 2 3 2 3 3 4
1 0 2 1 2 1 3 2 2 1 3 2 3 2 4 3
1 2 0 1 2 3 1 2 2 3 1 2 3 4 2 3
2 1 1 0 3 2 2 1 3 2 2 1 4 3 3 2
1 2 2 3 0 1 1 2 2 3 3 4 1 2 2 3
2 1 3 2 1 0 2 1 3 2 4 3 2 1 3 2
2 3 1 2 1 2 0 1 3 4 2 3 2 3 1 2
3 2 2 1 2 1 1 0 4 3 3 2 3 2 2 1
1 2 2 3 2 3 3 4 0 1 1 2 1 2 2 3
2 1 3 2 3 2 4 3 1 0 2 1 2 1 3 2
2 3 1 2 3 4 2 3 1 2 0 1 2 3 1 2
3 2 2 1 4 3 3 2 2 1 1 0 3 2 2 1
2 3 3 4 1 2 2 3 1 2 2 3 0 1 1 2
3 2 4 3 2 1 3 2 2 1 3 2 1 0 2 1
3 4 2 3 2 3 1 2 2 3 1 2 1 2 0 1
4 3 3 2 3 2 2 1 3 2 2 1 2 1 1 0
""")

EXPECTED_MATRIX_C7_3 = _matrix("""
0 4 4 4 4 4 4 4 7 3 3 3 3 3 3 3
4 0 4 4 4 4 4 4 3 7 3 3 3 3 3 3
4 4 0 4 4 4 4 4 3 3 7 3 3 3 3 3
4 4 4 0 4 4 4 4 3 3 3 7 3 3 3 3
4 4 4 4 0 4 4 4 3 3 3 3 7 3 3 3
4 4 4 4 4 0 4 4 3 3 3 3 3 7 3 3
4 4 4 4 4 4 0 4 3 3 3 3 3 3 7 3
4 4 4 4 4 4 4 0 3 3 3 3 3 3 3 7
7 3 3 3 3 3 3 3 0 4 4 4 4 4 4 4
3 7 3 3 3 3 3 3 4 0 4 4 4 4 4 4
3 3 7 3 3 3 3 3 4 4 0 4 4 4 4 4
3 3 3 7 3 3 3 3 4 4 4 0 4 4 4 4
3 3 3 3 7 3 3 3 4 4 4 4 0 4 4 4
3 3 3 3 3 7 3 3 4 4 4 4 4 0 4 4
3 3 3 3 3 3 7 3 4 4 4 4 4 4 0 4
3 3 3 3 3 3 3 7 4 4 4 4 4 4 4 0
""")

EXPECTED_MATRIX_C8_4 = _matrix("""
0 4 4 4 4 4 4 4 8 4 4 4 4 4 4 4
4 0 4 4 4 4 4 4 4 8 4 4 4 4 4 4
4 4 0 4 4 4 4 4 4 4 8 4 4 4 4 4
4 4 4 0 4 4 4 4 4 4 4 8 4 4 4 4
4 4 4 4 0 4 4 4 4 4 4 4 8 4 4 4
4 4 4 4 4 0 4 4 4 4 4 4 4 8 4 4
4 4 4 4 4 4 0 4 4 4 4 4 4 4 8 4
4 4 4 4 4 4 4 0 4 4 4 4 4 4 4 8
8 4 4 4 4 4 4 4 0 4 4 4 4 4 4 4
4 8 4 4 4 4 4 4 4 0 4 4 4 4 4 4
4 4 8 4 4 4 4 4 4 4 0 4 4 4 4 4
4 4 4 8 4 4 4 4 4 4 4 0 4 4 4 4
4 4 4 4 8 4 4 4 4 4 4 4 0 4 4 4
4 4 4 4 4 8 4 4 4 4 4 4 4 0 4 4
4 4 4 4 4 4 8 4 4 4 4 4 4 4 0 4
4 4 4 4 4 4 4 8 4 4 4 4 4 4 4 0
""")

EXPECTED_MATRIX_C9_4 = _matrix("""
0 5 5 4 5 4 4 5 8 5 5 4 5 4 4 5
5 0 4 5 4 5 5 4 5 8 4 5 4 5 5 4
5 4 0 5 4 5 5 4 5 4 8 5 4 5 5 4
4 5 5 0 5 4 4 5 4 5 5 8 5 4 4 5
5 4 4 5 0 5 5 4 5 4 4 5 8 5 5 4
4 5 5 4 5 0 4 5 4 5 5 4 5 8 4 5
4 5 5 4 5 4 0 5 4 5 5 4 5 4 8 5
5 4 4 5 4 5 5 0 5 4 4 5 4 5 5 8
8 5 5 4 5 4 4 5 0 5 5 4 5 4 4 5
5 8 4 5 4 5 5 4 5 0 4 5 4 5 5 4
5 4 8 5 4 5 5 4 5 4 0 5 4 5 5 4
4 5 5 8 5 4 4 5 4 5 5 0 5 4 4 5
5 4 4 5 8 5 5 4 5 4 4 5 0 5 5 4
4 5 5 4 5 8 4 5 4 5 5 4 5 0 4 5
4 5 5 4 5 4 8 5 4 5 5 4 5 4 0 5
5 4 4 5 4 5 5 8 5 4 4 5 4 5 5 0
""")

# (code id, quantizer bits b, length n, size M, min distance d)
EXPECTED_SHAPES = [
    ("C7_3", 4, 7, 16, 3),
    ("C8_4", 4, 8, 16, 4),
    ("C9_4", 4, 9, 16, 4),
    ("C12_3", 8, 12, 256, 3),
    ("C13_4", 8, 13, 256, 4),
    ("C14_4", 8, 14, 256, 4),
]
