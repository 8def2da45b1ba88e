"""The derivation of the six frozen codes, kept as their proof.

``flipguard.codes`` stores each registered code as frozen hex rows. This
module rebuilds them from first principles: the cyclic Hamming codes, their
extension by a parity bit, shortening, and C14_4's seeded linear subcode,
chained by ``derive_code``. ``greedy_basis`` re-derives the 8-bit maps'
images, and ``is_codeword`` is a membership test by echelon reduction, a
reference beside the package's syndrome scan. The tests import these names
the way they import ``reference_tables``.
"""
from __future__ import annotations

import itertools
import random
from typing import Iterable, Sequence

from flipguard.codes import MAX_WORD_LEN, BinaryCode, BitWord, _pivots, _reduce, code_shape

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


def hamming_distance(u: BitWord, v: BitWord) -> int:
    """Number of coordinates where u and v differ."""
    if u.n != v.n:
        raise ValueError(f"length mismatch: {u.n} vs {v.n}")
    return (u.bits ^ v.bits).bit_count()


def is_codeword(code: BinaryCode, word: BitWord) -> bool:
    """Membership by reduction against the generator's echelon basis."""
    return word.n == code.n and _reduce(word.bits, code._pivots) == 0


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


def greedy_basis(code: BinaryCode) -> tuple[BitWord, ...]:
    """Max-weight-first basis: e1 gets the heaviest codeword, then each
    next unit pattern the heaviest codeword independent of those chosen.
    Ties break toward the smallest unsigned value."""
    candidates = sorted(
        (w for w in code.codewords if w.bits), key=lambda w: (-w.weight, w.bits)
    )
    return _independent(candidates, code.dimension)


def derive_code(code_id: str) -> BinaryCode:
    """One of the six codes, constructed.

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
