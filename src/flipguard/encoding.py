"""Maps from b-bit quantized values onto codewords, plus distance tables.

A map is given by the codewords of the b unit patterns (pattern bit 1 =
MSB) and is GF(2)-linear by construction: its table, indexed by the
unsigned value of the b-bit two's-complement pattern, is the span of those
images. The images of the three 4-bit maps are frozen constants; the 8-bit
ones are derived by greedy basis assignment over the frozen code
constructions.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import zip_longest
from typing import Sequence

from .codes import BinaryCode, BitWord, _independent, _pivots, build_code, code_shape, span_table
from .quantize import _WIDTHS, value_range

__all__ = [
    "DistanceMatrix",
    "EncodingMap",
    "canonical_map",
    "codebook_lines",
    "distance_matrix",
    "encode_value",
    "greedy_basis",
    "twos_complement_matrix",
]

# Frozen images of the unit patterns e1..e4 (e1 = sign bit, i.e. the values
# -8, 4, 2, 1) for the 4-bit codes; by linearity they fix all 16 codewords.
# The 8-bit maps are not frozen; they fall out of greedy_basis
# deterministically.
_CANONICAL_IMAGES = {
    "C7_3": "7F 65 17 4B",
    "C8_4": "FF 65 17 4B",
    "C9_4": "1EF 0BA 07C 01F",
}


@dataclass(frozen=True)
class EncodingMap:
    """Linear bijection between b-bit patterns and the codewords of ``code``.

    ``basis_images[i]`` is the codeword for unit pattern e_(i+1), e1 being
    the MSB; they must be b independent codewords, b = ``code.dimension``,
    which is at most 8: the bulk codec moves each value as one byte. Every
    other codeword follows by linearity, so a non-linear map cannot be
    built.
    """

    code: BinaryCode
    basis_images: tuple[BitWord, ...]
    code_id: str = "custom"

    def __post_init__(self) -> None:
        images = tuple(self.basis_images)
        object.__setattr__(self, "basis_images", images)
        if self.code.dimension > 8:
            raise ValueError(f"code dimension must be at most 8, got {self.code.dimension}")
        if len(images) != self.code.dimension:
            raise ValueError(f"need {self.code.dimension} basis images, got {len(images)}")
        if any(w not in self.code for w in images):
            raise ValueError("basis image is not a codeword")
        if len(_pivots(w.bits for w in images)) != len(images):
            raise ValueError("basis images are linearly dependent")

    @cached_property
    def b(self) -> int:
        """Width of the quantized values: the code dimension."""
        return self.code.dimension

    @cached_property
    def table(self) -> tuple[BitWord, ...]:
        """``table[k]`` is the codeword for the pattern with unsigned value
        k: the XOR of the images that k's set bits pick."""
        n = self.code.n
        return tuple(BitWord(w, n) for w in span_table([w.bits for w in self.basis_images]))

    @cached_property
    def _encoder(self) -> _Rounds:
        """Engine rounds from a block's 8 value bytes to its n payload bytes."""
        n, mask = self.code.n, (1 << self.b) - 1
        return _block_rounds([[self.table[0x80 >> u & mask].bits << n * (7 - s) for u in range(8)]
                              for s in range(8)], n)

    @cached_property
    def _checks(self) -> tuple[_Rounds, ...]:
        """Engine rounds to the words' syndrome bytes, one set per 8
        parity-check rows: bit i of set g's byte checks row 8g + i."""
        rows = self.code.parity_checks
        return tuple(_read_rounds(self.code.n, rows[g : g + 8]) for g in range(0, len(rows), 8))

    @cached_property
    def _decoder(self) -> _Rounds:
        """Engine rounds from a block's n payload bytes to its 8 words'
        signed value bytes.

        A codeword is fixed by its bits at the b pivot positions of the
        code's echelon basis, so by linearity its value is the XOR of the
        values of the unit codewords that those bits pick: the one codeword
        per pivot p with bit p set and every other pivot bit clear. Value
        bit i is then the parity of the word over the pivots whose unit
        codeword's value has bit i; bits b and up repeat the sign bit b - 1,
        so the byte comes out sign-extended.
        """
        pivot_bits = sum(1 << p for p in self.code._pivots)
        units = {}  # pivot position -> its unit codeword's value pattern
        for k, w in enumerate(self.table):
            on = w.bits & pivot_bits
            if on.bit_count() == 1:
                units[on.bit_length() - 1] = k
        sign = self.b - 1
        rows = [sum(1 << p for p, k in units.items() if k >> min(i, sign) & 1) for i in range(8)]
        return _read_rounds(self.code.n, rows)

    @cached_property
    def _costs(self) -> bytes:
        """``_flip_costs`` under this map: entry k is table[k]'s weight, at
        most 64 (``MAX_WORD_LEN``), so it fits a byte."""
        return bytes(w.bits.bit_count() for w in self.table).ljust(256, b"\0")


_Rounds = tuple[tuple[tuple[int, int, bytes], ...], ...]


def _block_rounds(units: list[list[int]], size: int) -> _Rounds:
    """The translate tables of a GF(2)-linear map from one block's bytes to
    another's, size bytes, 8 words of n bits filling n bytes MSB-first.

    ``units[i][u]`` is the output block, as an int, of input byte i holding
    just the bit 0x80 >> u. By linearity the table from input byte i to
    output byte o is the span of those 8 images' bytes o; all-zero tables
    are left out. Round k holds each output byte's k-th (output byte, input
    byte, table) triple.
    """
    outputs: dict[int, list[tuple[int, int, bytes]]] = {}
    for i, images in enumerate(units):
        for o, column in enumerate(zip(*(w.to_bytes(size, "big") for w in images))):
            if any(column):
                outputs.setdefault(o, []).append((o, i, bytes(span_table(column))))
    return tuple(tuple(filter(None, r)) for r in zip_longest(*outputs.values()))


def _read_rounds(n: int, rows: Sequence[int]) -> _Rounds:
    """Rounds from a block's n payload bytes to one byte per word w, whose
    bit i is the parity of w & rows[i]. Block bit q (MSB first) is word
    q // n's coordinate q % n, its bit n - 1 - q % n."""
    columns = [sum((h >> p & 1) << i for i, h in enumerate(rows)) for p in reversed(range(n))]
    return _block_rounds([[columns[q % n] << 8 * (7 - q // n) for q in range(8 * j, 8 * j + 8)]
                          for j in range(n)], 8)


@dataclass(frozen=True)
class DistanceMatrix:
    """Pairwise bit-flip costs, rows and columns ascending by signed value."""

    b: int
    entries: tuple[tuple[int, ...], ...]


def greedy_basis(code: BinaryCode) -> tuple[BitWord, ...]:
    """Max-weight-first basis: e1 gets the heaviest codeword, then each
    next unit pattern the heaviest codeword independent of those chosen.
    Ties break toward the smallest unsigned value."""
    candidates = sorted(
        (w for w in code.codewords if w.bits), key=lambda w: (-w.weight, w.bits)
    )
    return _independent(candidates, code.dimension)


@lru_cache(maxsize=None)
def canonical_map(code_id: str) -> EncodingMap:
    """The frozen map for one of the six code ids.

    A 4-bit map is built over the span of its frozen images. For C7_3 and
    C8_4 that span is the code of ``build_code``. The published 9-bit
    codebook contains odd-weight words, so it spans its own (9, 16, 4) code
    rather than a subset of the even-weight shortened construction.
    """
    _, n = code_shape(code_id)
    if code_id in _CANONICAL_IMAGES:
        images = tuple(BitWord.from_hex(h, n) for h in _CANONICAL_IMAGES[code_id].split())
        return EncodingMap(BinaryCode(n, images), images, code_id)
    code = build_code(code_id)
    return EncodingMap(code, greedy_basis(code), code_id)


def encode_value(m: EncodingMap, v: int) -> BitWord:
    """Codeword for the signed value v."""
    half = 1 << (m.b - 1)
    if not -half <= v < half:
        raise ValueError(f"value {v} out of range [{-half}, {half - 1}]")
    return m.table[v & ((1 << m.b) - 1)]


_PLAIN_COSTS = {b: bytes(k.bit_count() for k in range(1 << b)).ljust(256, b"\0") for b in _WIDTHS}


def _flip_costs(b: int, encoding: EncodingMap | None) -> bytes:
    """Translate table of the bit flips of each b-bit flip pattern k = u ^ v,
    zero from 2^b up: the weight of k in plain two's complement; under a
    map, which is linear, the weight of table[u] ^ table[v] == table[k]."""
    if encoding is None:
        value_range(b)  # validates the width
        return _PLAIN_COSTS[b]
    if encoding.b != b:
        raise ValueError(f"map is {encoding.b}-bit but trace is {b}-bit")
    return encoding._costs


def _cost_matrix(b: int, encoding: EncodingMap | None) -> DistanceMatrix:
    """Flip cost of every change u -> v, signed-ascending on both axes."""
    costs = _flip_costs(b, encoding)
    half = 1 << (b - 1)
    patterns = [v & (2 * half - 1) for v in range(-half, half)]
    entries = tuple(tuple([costs[u ^ v] for v in patterns]) for u in patterns)
    return DistanceMatrix(b, entries)


def distance_matrix(m: EncodingMap) -> DistanceMatrix:
    """All pairwise codeword distances, signed-ascending on both axes."""
    return _cost_matrix(m.b, m)


def twos_complement_matrix(b: int) -> DistanceMatrix:
    """Baseline matrix: plain two's-complement flip counts, no code."""
    return _cost_matrix(b, None)


def codebook_lines(m: EncodingMap) -> list[str]:
    """Hex codewords, one per line, signed values ascending from -2^(b-1)."""
    half = 1 << (m.b - 1)
    return [encode_value(m, v).hex() for v in range(-half, half)]
