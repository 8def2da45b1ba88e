"""Container format for code-protected weight tensors.

Wire layout, all integers big-endian:

    magic     8 bytes   b"DNCODE01"
    code_id   u8 length, then UTF-8 bytes
    bits      u8        quantizer width b
    n         u8        codeword length
    count     u64       number of encoded values
    layer_id  u16 length, then UTF-8 bytes
    payload   ceil(count*n/8) bytes

The payload is the codewords packed back to back, MSB-first: coordinate 1
of the first codeword sits in the most significant bit of payload byte 0,
and unused trailing bits of the last byte are zero.

The constructor rejects any field of another type than its annotation
(``TypeError``) or that the wire format cannot hold, so `to_bytes` cannot
fail. `from_bytes` reads only blobs of registered codes: anything else, a
parseable header with an unknown code id or a shape not the code's
included, is `CorruptBlobError`. A custom map's blob verifies only in
memory.

Encode, verify and decode run on one byte-block engine, ``_apply``. 8
words of n bits fill exactly n payload bytes, a block. A GF(2)-linear map
from one block's bytes to another's has one 256-entry table per (input
byte, output byte) pair, and one ``bytes.translate`` applies it to that
pair of every block at once. Encode maps 8 value bytes to n payload bytes.
Verify maps n payload bytes to 8 syndrome bytes, H·w over the code's
parity-check rows H, and a word w is a codeword iff its syndrome is zero:
``_flagged`` is the only code that decides that. It counts the nonzero
syndrome bytes in one pass. Fewer than count / ``_SPARSE`` are found one by
one with ``bytes.find``, which skips clean stretches in C; more are picked
by ``compress`` out of one shared tuple of word indices, ``_INDEX`` (about
40 B kept per word of the largest densely flagged blob seen). So the readout
makes no int per clean word. Verify and decode each compute the syndromes
afresh from the payload bytes. Clean decode maps the n payload bytes
straight to the 8 words' signed value bytes: on codewords the value is a
GF(2)-linear function of the word, like the syndrome. Decoding is
detection-only. A slice that is not a codeword is reported, never silently
corrected, and no values are returned for a dirty blob.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Iterable, Sequence

from .codes import CODE_IDS, code_shape
from .encoding import EncodingMap, _Rounds, encode_value

__all__ = [
    "MAGIC",
    "CorruptBlobError",
    "EncodedBlob",
    "OverheadReport",
    "VerifyReport",
    "decode_tensor",
    "encode_tensor",
    "overhead_report",
    "pack_words",
    "unpack_words",
    "verify_blob",
]

MAGIC = b"DNCODE01"


class CorruptBlobError(Exception):
    """The bytes are not a valid blob of a registered code."""


def _payload_bits(payload: bytes, n: int, count: int) -> bytes:
    """The payload zero-extended to whole blocks of 8 words, n bytes each;
    checks length and zero padding."""
    if n < 1:
        raise ValueError(f"word width must be at least 1, got {n}")
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    need = (count * n + 7) // 8
    if len(payload) < need:
        raise CorruptBlobError(f"payload truncated: {len(payload)} bytes, need {need}")
    if len(payload) > need:
        raise CorruptBlobError(f"payload has {len(payload) - need} trailing bytes")
    pad = 8 * need - count * n
    if pad and payload[-1] & ((1 << pad) - 1):
        raise CorruptBlobError("nonzero padding bits")
    return payload + bytes(-(-count // 8) * n - need)


def _apply(rounds: _Rounds, lanes: list[bytes], step: int) -> int:
    """The engine: lanes[i] holds input byte i of every block, and each
    block maps through the rounds (``encoding._block_rounds``) to step
    output bytes. The output blocks come back as one int.

    A round's (out, at, table) triple fills byte out of every output block
    with lanes[at], translated, by one slice assignment. The rounds'
    outputs are XORed as ints.
    """
    acc = 0
    for pairs in rounds:
        buf = bytearray(len(lanes[0]) * step)
        for out, at, table in pairs:
            buf[out::step] = lanes[at].translate(table)
        acc ^= int.from_bytes(buf, "big")
    return acc


def pack_words(words: Iterable[int], n: int) -> bytes:
    """Pack n-bit ints contiguously, MSB-first, zero-padding the last byte."""
    if n < 1:
        raise ValueError(f"word width must be at least 1, got {n}")
    words = list(words)
    # format() once per distinct word: a codeword stream holds at most 2^b
    as_str = {w: format(w, f"0{n}b") for w in set(words)}
    if as_str and (min(as_str) < 0 or max(as_str) >> n):
        bad = next(w for w in words if not 0 <= w < 1 << n)
        raise ValueError(f"word {bad} does not fit in {n} bits")
    bits = "".join([as_str[w] for w in words])
    pad = -len(bits) % 8
    return (int(bits or "0", 2) << pad).to_bytes((len(bits) + pad) // 8, "big")


def unpack_words(payload: bytes, n: int, count: int) -> list[int]:
    """Inverse of pack_words; checks length and zero padding."""
    blocks = _payload_bits(payload, n, count)
    bits = format(int.from_bytes(blocks, "big"), f"0{8 * len(blocks)}b").encode()
    return [int(w, 2) for (w,) in struct.iter_unpack(f"{n}s", bits[: count * n])]


@dataclass(frozen=True)
class EncodedBlob:
    code_id: str
    bits: int
    n: int
    count: int
    layer_id: str
    payload: bytes

    def __post_init__(self) -> None:
        for name in ("code_id", "bits", "n", "count", "layer_id"):
            value, kind = getattr(self, name), str if name.endswith("_id") else int
            if type(value) is not kind:  # a bool or a float would pass the range checks
                raise TypeError(f"{name}: expected {kind.__name__}, got {type(value).__name__}")
        if type(self.payload) is not bytes:  # a mutable buffer could change once verified;
            # memoryview refuses an int, which bytes() would read as a length
            object.__setattr__(self, "payload", bytes(memoryview(self.payload)))
        for name, value, top in (("bits", self.bits, 0xFF), ("n", self.n, 0xFF),
                                 ("count", self.count, (1 << 64) - 1)):
            if not 0 <= value <= top:
                raise ValueError(f"{name} must lie in 0..{top}, got {value}")
        need = (self.count * self.n + 7) // 8
        if len(self.payload) != need:
            raise ValueError(f"payload must be {need} bytes, got {len(self.payload)}")
        if len(self.code_id.encode()) > 0xFF:
            raise ValueError("code_id too long")
        if len(self.layer_id.encode()) > 0xFFFF:
            raise ValueError("layer_id too long")

    def to_bytes(self) -> bytes:
        cid = self.code_id.encode()
        lid = self.layer_id.encode()
        head = MAGIC + struct.pack(">B", len(cid)) + cid
        head += struct.pack(">BBQ", self.bits, self.n, self.count)
        head += struct.pack(">H", len(lid)) + lid
        return head + self.payload

    @classmethod
    def from_bytes(cls, data: bytes | bytearray | memoryview) -> "EncodedBlob":
        """A blob of a registered code; any other bytes raise CorruptBlobError."""
        def take(k: int, what: str) -> bytes:
            nonlocal pos
            if pos + k > len(data):
                raise CorruptBlobError(f"truncated blob: missing {what}")
            chunk = data[pos : pos + k]
            pos += k
            return chunk

        def text(k: int, what: str) -> str:
            try:
                return str(take(k, what), "utf-8")
            except UnicodeDecodeError:
                raise CorruptBlobError(f"{what} is not valid UTF-8") from None

        pos = 0
        if take(len(MAGIC), "magic") != MAGIC:
            raise CorruptBlobError("bad magic")
        (cid_len,) = struct.unpack(">B", take(1, "code_id length"))
        code_id = text(cid_len, "code_id")
        bits, n, count = struct.unpack(">BBQ", take(10, "header"))
        (lid_len,) = struct.unpack(">H", take(2, "layer_id length"))
        layer_id = text(lid_len, "layer_id")
        if code_id not in CODE_IDS:
            raise CorruptBlobError(f"unknown code id {code_id!r}")
        if (bits, n) != code_shape(code_id):
            raise CorruptBlobError(f"header (b={bits}, n={n}) does not match {code_id}")
        try:
            return cls(code_id, bits, n, count, layer_id, data[pos:])
        except ValueError as e:
            raise CorruptBlobError(str(e)) from None


@dataclass(frozen=True)
class VerifyReport:
    """Scan result: the indices of the slices that are not codewords."""

    corrupted_indices: tuple[int, ...]
    scanned: int

    @property
    def clean(self) -> bool:
        return not self.corrupted_indices


# The bytes of the b-bit values, b < 8: a value byte outside them is one
# that struct's "b" format takes but encode_value refuses (8..127 or -128..-9 at b=4).
_IN_RANGE = {b: bytes(v & 0xFF for v in range(-(1 << b - 1), 1 << b - 1)) for b in range(1, 8)}


def encode_tensor(m: EncodingMap, values: Sequence[int], layer_id: str = "") -> EncodedBlob:
    """Encode quantized values into a blob under the given map.

    Each value becomes one byte, and the engine (``_apply``) maps every
    block of 8 value bytes to its n payload bytes.
    """
    if not isinstance(values, (list, tuple)):  # an iterator is read once
        values = list(values)
    try:  # refuses non-ints, and values outside -128..127
        vb = struct.pack(f"{len(values)}b", *values)
    except struct.error:
        vb = None
    if vb is None or m.b < 8 and vb.translate(None, _IN_RANGE[m.b]):
        for v in values:
            encode_value(m, v)  # raises for the first value it refuses
        raise TypeError("values must be ints")
    n, count = m.code.n, len(vb)
    vb += bytes(-count % 8)
    payload = _apply(m._encoder, [vb[s::8] for s in range(8)], n).to_bytes(len(vb) // 8 * n, "big")
    return EncodedBlob(m.code_id, m.b, n, count, layer_id, payload[: (count * n + 7) // 8])


# Word indices 0..k-1, made once and shared: ``range`` makes a fresh int for
# every index above 256, flagged or not. Built on the first densely flagged
# blob, not at import, and rebuilt only for a dense one with more words. It
# keeps about 40 B per word of the largest such blob seen (an 8-byte slot and
# a 28-byte int, allocated as 32), what a fully corrupt report of it holds.
# A longer tuple reads the same: the words past count are zero padding.
_INDEX: tuple[int, ...] = ()
# Under count / _SPARSE flagged words, one ``find`` per flagged word (about
# 0.2 us) in the syndromes mapped to 0/1 by _NONZERO beats ``compress`` (about
# 8 ns per word): they break even near count / 24 (README "Performance").
_SPARSE = 64
_NONZERO = bytes(1) + b"\x01" * 255


def _indices(k: int) -> tuple[int, ...]:
    """``_INDEX``, at least k long."""
    global _INDEX
    index = _INDEX
    if len(index) < k:
        index = _INDEX = tuple(range(k))
    return index


def _flagged(m: EncodingMap, blob: EncodedBlob) -> tuple[list[bytes], tuple[int, ...]]:
    """The engine's lanes of the checked payload (``_payload_bits``) and the
    ascending indices of the words w with H·w != 0: byte i of ``syndromes``
    is word i's syndrome (ORed over sets of 8 rows), truthy when nonzero."""
    if (blob.code_id, blob.bits, blob.n) != (m.code_id, m.b, m.code.n):
        raise ValueError(
            f"blob header ({blob.code_id}, b={blob.bits}, n={blob.n}) does not "
            f"match map ({m.code_id}, b={m.b}, n={m.code.n})"
        )
    n, count = blob.n, blob.count
    blocks = _payload_bits(blob.payload, n, count)
    lanes = [blocks[j::n] for j in range(n)]
    syndromes = 0
    for rounds in m._checks:
        syndromes |= _apply(rounds, lanes, 8)
    if not syndromes:
        return lanes, ()
    sb = syndromes.to_bytes(8 * len(lanes[0]), "big")
    dirty = len(sb) - sb.count(0)  # padding words have syndrome 0
    if dirty * _SPARSE >= count:
        return lanes, tuple(compress(_indices(count), sb))
    nz, i = sb.translate(_NONZERO), -1
    return lanes, tuple([i := nz.find(1, i + 1) for _ in range(dirty)])


def verify_blob(m: EncodingMap, blob: EncodedBlob) -> VerifyReport:
    """Flag every slice of the payload that is not a codeword."""
    return VerifyReport(_flagged(m, blob)[1], blob.count)


def decode_tensor(m: EncodingMap, blob: EncodedBlob) -> list[int] | VerifyReport:
    """Values if every slice is a codeword, else the verify report.

    No partial output: one corrupted slice suppresses all values.
    """
    lanes, bad = _flagged(m, blob)
    if bad:
        return VerifyReport(bad, blob.count)
    values = _apply(m._decoder, lanes, 8).to_bytes(8 * len(lanes[0]), "big")
    return memoryview(values)[: blob.count].cast("b").tolist()


@dataclass(frozen=True)
class OverheadReport:
    memory_overhead_percent: Fraction
    bits_per_weight: int


def overhead_report(code_id: str, b: int) -> OverheadReport:
    """Exact storage overhead of a code relative to b raw bits per weight."""
    cb, n = code_shape(code_id)
    if b != cb:
        raise ValueError(f"{code_id} protects {cb}-bit values, not {b}-bit")
    return OverheadReport(Fraction(100 * (n - b), b), n)
