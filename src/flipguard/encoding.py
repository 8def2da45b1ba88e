"""Maps from b-bit quantized values onto codewords, plus distance tables.

A map is given by the codewords of the b unit patterns (pattern bit 1 =
MSB) and is GF(2)-linear by construction: its table, indexed by the
unsigned value of the b-bit two's-complement pattern, is the span of those
images, and so is its code. All six canonical maps are frozen images,
read from the code registry in ``codes``. Plain two's-complement storage is
the identity map, so the baseline's costs come from the same per-map table
as every code's.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

from .codes import CODE_IDS, BinaryCode, BitWord, _frozen, span_table
from .quantize import value_range

__all__ = [
    "DistanceMatrix",
    "EncodingMap",
    "canonical_map",
    "codebook_lines",
    "distance_matrix",
    "encode_value",
    "twos_complement_matrix",
]

@dataclass(frozen=True)
class EncodingMap:
    """Linear bijection between b-bit patterns and the codewords of ``code``.

    ``basis_images[i]`` is the codeword for unit pattern e_(i+1), e1 being
    the MSB: b independent words of one length, b at most 8 as the bulk
    codec moves each value as one byte. ``code`` is their span; the other
    codewords follow by linearity, so a non-linear map cannot be built.
    A registered ``code_id`` names its frozen images and no others, as a
    blob's header is read back through ``canonical_map`` of its id.
    """

    basis_images: tuple[BitWord, ...]
    code_id: str = "custom"

    def __post_init__(self) -> None:
        object.__setattr__(self, "basis_images", tuple(self.basis_images))
        if type(self.code_id) is not str:
            raise TypeError(f"code_id: expected str, got {type(self.code_id).__name__}")
        if self.b > 8:
            raise ValueError(f"code dimension must be at most 8, got {self.b}")
        self.code  # builds the span: bad images fail here, not on first use
        if self.code_id in CODE_IDS:
            n, _, images = _frozen(self.code_id)
            if [(w.bits, w.n) for w in self.basis_images] != [(int(h, 16), n) for h in images.split()]:
                raise ValueError(f"images are not the frozen map of code id {self.code_id!r}")

    @cached_property
    def code(self) -> BinaryCode:
        return BinaryCode(self.basis_images)

    @cached_property
    def b(self) -> int:
        """Width of the quantized values: the code dimension."""
        return len(self.basis_images)

    @cached_property
    def table(self) -> tuple[BitWord, ...]:
        """``table[k]`` is the codeword for the pattern with unsigned value
        k: the XOR of the images that k's set bits pick."""
        n = self.code.n
        return tuple(BitWord(w, n) for w in span_table([w.bits for w in self.basis_images]))

    @cached_property
    def _encoder(self) -> _Tables:
        """Engine tables from a block's 8 value bytes to its n payload bytes."""
        n, mask = self.code.n, (1 << self.b) - 1
        return _block_tables([[self.table[0x80 >> u & mask].bits << n * (7 - s) for u in range(8)]
                              for s in range(8)], n)

    @cached_property
    def _checks(self) -> tuple[tuple[int, _Sources, bytes | None], ...]:
        """The syndrome tests, one per word slot o and set of 8 parity-check
        rows (bit i of set g's byte checks row 8g + i): (o, the slot's
        sources, kernel). A one-source slot's kernel holds the bytes its
        table maps to 0; a slot of more sources has none."""
        n, rows = self.code.n, self.code.parity_checks
        return tuple((o, sources, bytes(x for x, s in enumerate(sources[0][1]) if not s)
                      if len(sources) == 1 else None)
                     for g in range(0, len(rows), 8)
                     for o, sources in enumerate(_read_tables(n, rows[g : g + 8])))

    @cached_property
    def _decoder(self) -> _Tables:
        """Engine tables from a block's n payload bytes to its 8 words'
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
        return _read_tables(self.code.n, rows)

    @cached_property
    def _costs(self) -> bytes:
        """Translate table of the flips of each flip pattern k = u ^ v, zero
        from 2^b up: table[k]'s weight, as table[u] ^ table[v] == table[k] (k's
        own under the identity map, plain storage); at most 64, fits a byte."""
        return bytes(w.bits.bit_count() for w in self.table).ljust(256, b"\0")


_Sources = tuple[tuple[int, bytes], ...]
_Tables = tuple[_Sources, ...]


def _block_tables(units: list[list[int]], size: int) -> _Tables:
    """The translate tables of a GF(2)-linear map from one block's bytes to
    another's, size bytes, 8 words of n bits filling n bytes MSB-first.

    ``units[i][u]`` is the output block, as an int, of input byte i holding
    just the bit 0x80 >> u. By linearity the table from input byte i to
    output byte o is the span of those 8 images' bytes o; all-zero tables
    are left out. Entry o holds output byte o's sources, its (input byte,
    table) pairs in ascending input byte.
    """
    outputs: list[list[tuple[int, bytes]]] = [[] for _ in range(size)]
    for i, images in enumerate(units):
        for o, column in enumerate(zip(*(w.to_bytes(size, "big") for w in images))):
            if any(column):
                outputs[o].append((i, bytes(span_table(column))))
    return tuple(map(tuple, outputs))


def _read_tables(n: int, rows: Sequence[int]) -> _Tables:
    """Tables from a block's n payload bytes to one byte per word w, whose
    bit i is the parity of w & rows[i]. Block bit q (MSB first) is word
    q // n's coordinate q % n, its bit n - 1 - q % n."""
    columns = [sum((h >> p & 1) << i for i, h in enumerate(rows)) for p in reversed(range(n))]
    return _block_tables([[columns[q % n] << 8 * (7 - q // n) for q in range(8 * j, 8 * j + 8)]
                          for j in range(n)], 8)


@dataclass(frozen=True)
class DistanceMatrix:
    """Pairwise bit-flip costs, rows and columns ascending by signed value."""

    b: int
    entries: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def canonical_map(code_id: str) -> EncodingMap:
    """The frozen map for one of the six code ids: its images from the
    registry row (``codes._CODES``), its code their span.

    For every id but C9_4 that span is the code of ``build_code``; C9_4's
    published codebook spans its own (9, 16, 4) code.
    """
    n, _, images = _frozen(code_id)
    return EncodingMap([BitWord.from_hex(h, n) for h in images.split()], code_id)


def encode_value(m: EncodingMap, v: int) -> BitWord:
    """Codeword for the signed value v."""
    half = 1 << (m.b - 1)
    if not -half <= v < half:
        raise ValueError(f"value {v} out of range [{-half}, {half - 1}]")
    return m.table[v & ((1 << m.b) - 1)]


@lru_cache(maxsize=None, typed=True)  # typed: 4.0 == 4, but only an int width is valid
def _plain(b: int) -> EncodingMap:
    """Plain two's-complement storage as a map: the identity, each unit
    pattern stored as itself, so a flip pattern costs its own weight."""
    value_range(b)  # validates the width
    return EncodingMap([BitWord(1 << (b - 1 - i), b) for i in range(b)], "plain")


def distance_matrix(m: EncodingMap) -> DistanceMatrix:
    """All pairwise codeword distances, signed-ascending on both axes."""
    costs, half = m._costs, 1 << (m.b - 1)
    patterns = [v & (2 * half - 1) for v in range(-half, half)]
    return DistanceMatrix(m.b, tuple(tuple([costs[u ^ v] for v in patterns]) for u in patterns))


def twos_complement_matrix(b: int) -> DistanceMatrix:
    """Baseline matrix: plain two's-complement flip counts, no code."""
    return distance_matrix(_plain(b))


def codebook_lines(m: EncodingMap) -> list[str]:
    """Hex codewords, one per line, signed values ascending from -2^(b-1)."""
    half = 1 << (m.b - 1)
    return [encode_value(m, v).hex() for v in range(-half, half)]
