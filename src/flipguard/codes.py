"""Binary linear codes on short bit-words.

Words are immutable fixed-length bit strings packed into a Python int.
Coordinate 1 is the leftmost (most significant) bit; hex rendering reads
the whole word MSB-first, so the 7-bit word 1111111 prints as ``7F`` and
9-bit words use three hex digits.

All GF(2) elimination in the package is here: ``_reduce`` reduces a word
against an echelon basis, ``_pivots`` builds one, ``_independent`` keeps
the first independent candidates, ``span_table`` lists a span and
``BinaryCode.parity_checks`` reads the check rows off the generator's
reduced echelon form.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

__all__ = [
    "BitWord",
    "BinaryCode",
    "CODE_IDS",
    "DEFAULT_SUBCODE_SEED",
    "MAX_WORD_LEN",
    "build_code",
    "code_shape",
    "construct_hamming",
    "extend_code",
    "hamming_distance",
    "linear_subcode",
    "pairwise_min_distance",
    "shorten_code",
    "span_table",
]

MAX_WORD_LEN = 64

# Spans larger than 2^11 words are never materialized.
_ENUM_DIM_LIMIT = 11

# Parity-check column order for construct_hamming is alpha^(n-1) .. alpha^0
# over GF(2^r) with these primitive polynomials. The r=3 entry is the one
# that makes the 7-bit construction land on the canonical 16-word codebook;
# the others are the reciprocal-family polynomials of the same shape.
_PRIMITIVE_POLY = {
    2: 0b111,      # x^2 + x + 1
    3: 0b1101,     # x^3 + x^2 + 1
    4: 0b11001,    # x^4 + x^3 + 1
    5: 0b101001,   # x^5 + x^3 + 1
    6: 0b1100001,  # x^6 + x^5 + 1
}

DEFAULT_SUBCODE_SEED = 0


@dataclass(frozen=True)
class BitWord:
    """Fixed-length bit string; ``bits`` holds coordinate 1 in its MSB."""

    bits: int
    n: int

    def __post_init__(self) -> None:
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


def hamming_distance(u: BitWord, v: BitWord) -> int:
    """Number of coordinates where u and v differ."""
    if u.n != v.n:
        raise ValueError(f"length mismatch: {u.n} vs {v.n}")
    return (u.bits ^ v.bits).bit_count()


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


def _independent(candidates: Iterable[BitWord], k: int) -> tuple[BitWord, ...]:
    """The first k candidates, in order, that are independent of those
    already kept. Stops drawing as soon as it has k."""
    kept: list[BitWord] = []
    pivots: dict[int, int] = {}
    for w in candidates:
        reduced = _reduce(w.bits, pivots)
        if not reduced:  # in the span of those kept
            continue
        kept.append(w)
        pivots[reduced.bit_length() - 1] = reduced
        if len(kept) == k:
            return tuple(kept)
    raise ValueError(f"fewer than {k} independent candidates")


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

    def __contains__(self, word: BitWord) -> bool:
        return word.n == self.n and _reduce(word.bits, self._pivots) == 0

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


def pairwise_min_distance(words: Sequence[BitWord]) -> int:
    """Minimum distance over all distinct pairs of an arbitrary word set."""
    if len(words) < 2:
        raise ValueError("need at least two words")
    return min(
        hamming_distance(words[i], words[j])
        for i in range(len(words))
        for j in range(i + 1, len(words))
    )


def construct_hamming(r: int) -> BinaryCode:
    """Hamming code of redundancy r: a (2^r - 1, 2^(2^r - r - 1), 3) code.

    The parity-check columns are the powers alpha^(n-1) .. alpha^0 of a
    primitive element, so the code is cyclic and the column order is frozen
    by ``_PRIMITIVE_POLY``. Bit position p carries alpha^p, so positions
    0..r-1 hold the unit columns and ``(1 << p) | alpha^p`` is a codeword
    for each p >= r: the generator comes out in systematic form.
    """
    if r not in _PRIMITIVE_POLY:
        raise ValueError(f"redundancy must be 2..6, got {r}")
    poly = _PRIMITIVE_POLY[r]
    n = (1 << r) - 1
    powers = [1]  # alpha^p, multiplying by x modulo poly
    for _ in range(n - 1):
        a = powers[-1] << 1
        powers.append(a ^ poly if a >> r else a)
    rows = (BitWord((1 << p) | powers[p], n) for p in range(n - 1, r - 1, -1))
    return BinaryCode(tuple(rows))


def extend_code(c: BinaryCode) -> BinaryCode:
    """Add an overall parity bit at coordinate 1; every codeword ends up
    with even weight. Extending a Hamming code raises the distance to 4."""
    if c.n >= MAX_WORD_LEN:
        raise ValueError("extension would exceed the 64-bit word limit")

    def ext(g: BitWord) -> BitWord:
        return BitWord(((g.weight & 1) << c.n) | g.bits, c.n + 1)

    # Parity is additive, so extending the generator rows extends the span.
    return BinaryCode(tuple(ext(g) for g in c.generator))


def shorten_code(c: BinaryCode, positions: Sequence[int]) -> BinaryCode:
    """Shorten a linear code at the given original coordinates: keep the
    codewords with 0 at each position, then delete those coordinates.

    Works on the generator rows alone. Each row is rewritten with the
    shortened coordinates on top and the rest below in their original
    order; the echelon rows ``_pivots`` makes of them whose pivot lies
    below that block are zero on it and span the shortened code. Minimum
    distance never decreases; the size drops by at most a factor of 2 per
    position.
    """
    positions = list(positions)
    if len(set(positions)) != len(positions):
        raise ValueError("duplicate shortening positions")
    if any(not 1 <= p <= c.n for p in positions):
        raise ValueError(f"positions must lie in 1..{c.n}")
    if len(positions) >= c.n:
        raise ValueError("cannot shorten away every coordinate")
    order = positions + [i for i in range(1, c.n + 1) if i not in positions]

    def move(w: int) -> int:
        bits = f"{w:0{c.n}b}"  # bits[i - 1] is coordinate i
        return int("".join(bits[i - 1] for i in order), 2)

    width = c.n - len(positions)
    pivots = _pivots(move(g.bits) for g in c.generator)
    rows = [pivots[p] for p in sorted(pivots, reverse=True) if p < width]
    if not rows:
        raise ValueError("shortening left only the zero word")
    return BinaryCode(tuple(BitWord(r, width) for r in rows))


def linear_subcode(c: BinaryCode, dim: int, seed: int = DEFAULT_SUBCODE_SEED) -> BinaryCode:
    """Random linear subcode of dimension ``dim``, deterministic per seed.

    Generator rows are drawn by rejection sampling: uniform picks from the
    sorted nonzero codeword list, dependent picks discarded.
    """
    if not 1 <= dim <= c.dimension:
        raise ValueError(f"subcode dimension must be 1..{c.dimension}, got {dim}")
    words = c.codewords  # sorted; words[0] is the zero word
    rng = random.Random(seed)
    picks = (words[rng.randrange(1, len(words))] for _ in itertools.count())
    return BinaryCode(_independent(picks, dim))


# Identity strings shared by the CLI, the blob header, and the map registry.
CODE_IDS = ("C7_3", "C8_4", "C9_4", "C12_3", "C13_4", "C14_4")

# code id -> (quantizer bits b, codeword length n)
_CODE_SHAPE = {
    "C7_3": (4, 7),
    "C8_4": (4, 8),
    "C9_4": (4, 9),
    "C12_3": (8, 12),
    "C13_4": (8, 13),
    "C14_4": (8, 14),
}


def code_shape(code_id: str) -> tuple[int, int]:
    """(b, n) for one of the six frozen code ids."""
    try:
        return _CODE_SHAPE[code_id]
    except KeyError:
        raise ValueError(f"unknown code id {code_id!r}, expected one of {CODE_IDS}") from None


@lru_cache(maxsize=None)
def build_code(code_id: str) -> BinaryCode:
    """One of the six frozen constructions.

    C9_4, C13_4 and C14_4 derive from the extended r=4 Hamming code,
    C12_3 from the plain one; "last k locations" means the k highest
    coordinate indices.
    """
    code_shape(code_id)  # validates the id
    if code_id == "C7_3":
        return construct_hamming(3)
    if code_id == "C8_4":
        return extend_code(construct_hamming(3))
    if code_id == "C9_4":
        return shorten_code(extend_code(construct_hamming(4)), range(10, 17))
    if code_id == "C12_3":
        return shorten_code(construct_hamming(4), range(13, 16))
    if code_id == "C13_4":
        return shorten_code(extend_code(construct_hamming(4)), range(14, 17))
    # C14_4: dimension-8 subcode of the twice-shortened extended code
    parent = shorten_code(extend_code(construct_hamming(4)), range(15, 17))
    return linear_subcode(parent, 8, DEFAULT_SUBCODE_SEED)
