"""Binary linear codes on short bit-words, and the six frozen codes.

Words are immutable fixed-length bit strings packed into a Python int.
Coordinate 1 is the leftmost (most significant) bit; hex rendering reads
the whole word MSB-first, so the 7-bit word 1111111 prints as ``7F`` and
9-bit words use three hex digits.

All GF(2) elimination in the package is here: ``_reduce`` reduces a word
against an echelon basis, ``_pivots`` builds one, ``span_table`` lists a
span and ``BinaryCode.parity_checks`` reads the check rows off the
generator's reduced echelon form.

Every fact about the six registered codes is one row of ``_CODES``. Nothing
is constructed at run time: the Hamming, extension, shortening and subcode
steps that produced the rows are the tests' proof of them
(``tests/derivation.py``).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

__all__ = [
    "BitWord",
    "BinaryCode",
    "CODE_IDS",
    "MAX_WORD_LEN",
    "build_code",
    "code_shape",
    "span_table",
]

MAX_WORD_LEN = 64

# Spans larger than 2^11 words are never materialized.
_ENUM_DIM_LIMIT = 11


@dataclass(frozen=True)
class BitWord:
    """Fixed-length bit string; ``bits`` holds coordinate 1 in its MSB."""

    bits: int
    n: int

    def __post_init__(self) -> None:
        for name in ("bits", "n"):
            value = getattr(self, name)
            if type(value) is not int:  # 1.0 would pass the range checks and fail in hex()
                raise TypeError(f"{name}: expected int, got {type(value).__name__}")
        if not 1 <= self.n <= MAX_WORD_LEN:
            raise ValueError(f"word length must be 1..{MAX_WORD_LEN}, got {self.n}")
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError(f"bits {self.bits:#x} do not fit in {self.n} bits")

    @classmethod
    def from_hex(cls, s: str, n: int) -> "BitWord":
        return cls(int(s, 16), n)

    @property
    def weight(self) -> int:
        return self.bits.bit_count()

    def hex(self) -> str:
        return f"{self.bits:0{(self.n + 3) // 4}X}"

    def __str__(self) -> str:
        return f"{self.bits:0{self.n}b}"


def _reduce(word: int, pivots: dict[int, int]) -> int:
    """Reduce a word against an int-row basis keyed by pivot bit position."""
    while word:
        top = word.bit_length() - 1
        if top not in pivots:
            break
        word ^= pivots[top]
    return word


def _pivots(words: Iterable[int]) -> dict[int, int]:
    """Echelon basis of the span keyed by pivot bit position; dependent
    words are dropped."""
    pivots: dict[int, int] = {}
    for word in words:
        reduced = _reduce(word, pivots)
        if reduced:
            pivots[reduced.bit_length() - 1] = reduced
    return pivots


def span_table(rows: Sequence[int]) -> list[int]:
    """All 2^len(rows) XOR combinations: entry k XORs the rows that k's set
    bits pick, rows[0] being picked by the most significant bit."""
    table = [0]
    for row in reversed(rows):
        table += [w ^ row for w in table]
    return table


@dataclass(frozen=True)
class BinaryCode:
    """Linear code over GF(2) given by independent generator rows of one length, n.

    The codeword set is the full 2^k span of the generator; it is only
    materialized for dimensions up to 11 (2048 words).
    """

    generator: tuple[BitWord, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "generator", tuple(self.generator))
        if not self.generator:
            raise ValueError("generator must have at least one row")
        for g in self.generator:
            if type(g) is not BitWord:  # an int row has no length to check
                raise TypeError(f"generator: expected BitWord, got {type(g).__name__}")
        if any(g.n != self.n for g in self.generator):
            raise ValueError("generator rows differ in length")
        if len(self._pivots) != len(self.generator):
            raise ValueError("generator rows are linearly dependent")

    @property
    def n(self) -> int:
        return self.generator[0].n

    @property
    def dimension(self) -> int:
        return len(self.generator)

    @cached_property
    def codewords(self) -> tuple[BitWord, ...]:
        """All 2^k codewords, ascending by unsigned value."""
        if self.dimension > _ENUM_DIM_LIMIT:
            raise ValueError(
                f"refusing to enumerate 2^{self.dimension} codewords"
            )
        span = span_table([g.bits for g in self.generator])
        return tuple(BitWord(w, self.n) for w in sorted(span))

    @cached_property
    def _pivots(self) -> dict[int, int]:
        return _pivots(g.bits for g in self.generator)

    @cached_property
    def parity_checks(self) -> tuple[int, ...]:
        """The n - k parity-check rows H: a word w is a codeword iff w & h
        has even weight for every row h.

        In the reduced echelon form of the generator, the row with pivot p
        is the only one with bit p set, so a codeword's bit at each free
        position f is the XOR of its pivot bits p whose row has bit f set.
        Each free position gives one row: bit f and those pivot bits.
        """
        reduced: dict[int, int] = {}
        for p in sorted(self._pivots):  # clear the lower pivots' bits
            row = self._pivots[p]
            for q, lower in reduced.items():
                if row >> q & 1:
                    row ^= lower
            reduced[p] = row
        return tuple(
            (1 << f) | sum(1 << p for p, row in reduced.items() if row >> f & 1)
            for f in reversed(range(self.n)) if f not in reduced
        )

    @cached_property
    def min_distance(self) -> int:
        """Certified minimum distance: least nonzero codeword weight."""
        return min(w.weight for w in self.codewords if w.bits)


# code id -> (codeword length n, generator rows, images of the unit patterns
# e1..eb, e1 = sign bit), words in hex; b is the number of images. Kept as
# strings and parsed on first use, so importing the package parses nothing.
#
# The rows are the constructions of tests/derivation.py: C7_3 is the r=3
# Hamming code and C8_4 that code extended; C12_3 is the r=4 Hamming code
# shortened at coordinates 13..15; C9_4 and C13_4 are the extended r=4 code
# shortened at 10..16 and at 14..16; C14_4 is a dimension-8 subcode, drawn
# with seed 0, of the extended r=4 code shortened at 15..16. The images span
# the same codes, the 8-bit ones being the greedy max-weight basis of each,
# except C9_4's: the published 9-bit codebook has odd-weight words, so it
# spans its own (9, 16, 4) code rather than the even-weight construction.
_CODES = {
    "C7_3": (7, "46 23 17 0D", "7F 65 17 4B"),
    "C8_4": (8, "C6 A3 17 8D", "FF 65 17 4B"),
    "C9_4": (9, "1C8 0AC 056 02B", "1EF 0BA 07C 01F"),
    "C12_3": (12, "C80 701 320 141 0D1 064 032 019",
              "FEF 7FB E7F FDD FF6 2FF 5FE 79F"),
    "C13_4": (13, "1C80 0AC0 0701 0261 0189 00D1 007D 002B",
              "1FEF 07FB 0E7F 0FDD 0FF6 12FF 15FE 179F"),
    "C14_4": (14, "3627 18C6 30AF 3900 1B05 02B0 10B6 3DE9",
              "2FEF 3EFB 3FF5 07FB 0FF6 15FD 1E9F 1F3D"),
}

# Identity strings shared by the CLI, the blob header, and the map registry.
CODE_IDS = tuple(_CODES)


def _frozen(code_id: str) -> tuple[int, str, str]:
    """The ``_CODES`` row of one of the six frozen code ids."""
    try:
        return _CODES[code_id]
    except KeyError:
        raise ValueError(f"unknown code id {code_id!r}, expected one of {CODE_IDS}") from None


def code_shape(code_id: str) -> tuple[int, int]:
    """(b, n) for one of the six frozen code ids."""
    n, _, images = _frozen(code_id)
    return len(images.split()), n


@lru_cache(maxsize=None)
def build_code(code_id: str) -> BinaryCode:
    """The frozen code of one of the six ids, spanned by its generator rows."""
    n, rows, _ = _frozen(code_id)
    return BinaryCode(tuple(BitWord.from_hex(h, n) for h in rows.split()))
