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

from .codes import (BinaryCode, BitWord, _independent, _pivots, build_code, code_shape,
                    hamming_distance, span_table)
from .quantize import _WIDTHS, signed_value, value_range

__all__ = [
    "DetectionReport",
    "DistanceMatrix",
    "EncodingMap",
    "canonical_map",
    "codebook_lines",
    "decode_value",
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
class DetectionReport:
    """A non-codeword observation: what was read and how far off it is."""

    word: BitWord
    nearest_distance: int


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
    def _lanes(self) -> tuple[bytes, ...]:
        """Translate tables, one per coordinate j = 1..n, from a value's
        byte (its low 8 two's-complement bits) to b"0" or b"1": the bit at
        j of the value's codeword."""
        n, mask = self.code.n, (1 << self.b) - 1
        words = [self.table[k & mask].bits for k in range(256)]
        return tuple(bytes(b"01"[w >> n - j & 1] for w in words) for j in range(1, n + 1))

    @cached_property
    def _values(self) -> bytes:
        """Translate table from a codeword's information byte (see
        ``_information``) to its value's byte."""
        out = bytearray(256)
        for k, w in enumerate(self.table):
            out[_information(self.code, w.bits)] = signed_value(k, self.b) & 0xFF
        return bytes(out)

    @cached_property
    def _costs(self) -> bytes:
        """``_flip_costs`` under this map: entry k is table[k]'s weight, at
        most 64 (``MAX_WORD_LEN``), so it fits a byte."""
        return bytes(w.bits.bit_count() for w in self.table).ljust(256, b"\0")


def _information(code: BinaryCode, bits: int) -> int:
    """A word's information byte: bit i is the word's bit at the i-th lowest
    pivot position of the code's echelon basis. The echelon rows are
    triangular on those b positions, so no two codewords share one."""
    return sum((bits >> p & 1) << i for i, p in enumerate(sorted(code._pivots)))


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


def decode_value(m: EncodingMap, word: BitWord) -> int | DetectionReport:
    """Signed value for a codeword, or a detection report for anything else.

    Never corrects: a word at distance 1 from a codeword is still reported.
    """
    if word.n != m.code.n:
        raise ValueError(f"expected {m.code.n}-bit words, got {word.n}")
    v = (m._values[_information(m.code, word.bits)] ^ 0x80) - 0x80  # signed byte
    if m.table[v & ((1 << m.b) - 1)] != word:
        nearest = min(hamming_distance(word, w) for w in m.table)
        return DetectionReport(word, nearest)
    return v


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
