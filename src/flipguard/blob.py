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

The constructor rejects any field the wire format cannot hold, so
`to_bytes` cannot fail. `from_bytes` reads only blobs of registered codes:
anything else, a parseable header with an unknown code id or a shape not
the code's included, is `CorruptBlobError`. A custom map's blob verifies
only in memory.

Detection is the syndrome test: a word w is a codeword iff H·w = 0 over
GF(2), H being the code's parity-check rows. ``_flagged`` runs it over the
whole payload at once: per row h, the payload int shifted right by each
set position of h, XORed together, leaves each word's check bit at the
word's bit 0 (bit-slicing). It is the only code that decides whether a
slice is a codeword. Encoding and clean decoding move each value as one
byte through per-byte tables, which ``bytes.translate`` applies to whole
lanes of the payload's bit string. Decoding is detection-only. A slice
that is not a codeword is reported, never silently corrected, and no
values are returned for a dirty blob.
"""
from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Iterable, Sequence

from .codes import CODE_IDS, code_shape
from .encoding import EncodingMap, encode_value

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


def _to_payload(bits: str) -> bytes:
    """A '0'/'1' string as bytes, MSB-first, zero-padding the last byte."""
    pad = -len(bits) % 8
    return (int(bits or "0", 2) << pad).to_bytes((len(bits) + pad) // 8, "big")


def _payload_bits(payload: bytes, n: int, count: int) -> int:
    """The payload's count n-bit words as one int, the padding shifted out
    (the last word in the low bits); checks length and zero padding."""
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
    acc = int.from_bytes(payload, "big")
    if acc & ((1 << pad) - 1):
        raise CorruptBlobError("nonzero padding bits")
    return acc >> pad


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
    return _to_payload("".join([as_str[w] for w in words]))


def unpack_words(payload: bytes, n: int, count: int) -> list[int]:
    """Inverse of pack_words; checks length and zero padding."""
    acc = _payload_bits(payload, n, count)
    if not count:
        return []
    bits = format(acc, f"0{count * n}b").encode()
    return [int(w, 2) for (w,) in struct.iter_unpack(f"{n}s", bits)]


@dataclass(frozen=True)
class EncodedBlob:
    code_id: str
    bits: int
    n: int
    count: int
    layer_id: str
    payload: bytes

    def __post_init__(self) -> None:
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
    def from_bytes(cls, data: bytes) -> "EncodedBlob":
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
                return take(k, what).decode()
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
# that array("b") takes but encode_value refuses (8..127 or -128..-9 at b=4).
_IN_RANGE = {b: bytes(v & 0xFF for v in range(-(1 << b - 1), 1 << b - 1)) for b in range(1, 8)}


def encode_tensor(m: EncodingMap, values: Sequence[int], layer_id: str = "") -> EncodedBlob:
    """Encode quantized values into a blob under the given map.

    Each value becomes one byte, and each coordinate j of the codewords one
    lane of the bit string: every n-th character from j, which translating
    the value bytes through the map's table for j fills in one C-level pass.
    """
    if not isinstance(values, (list, tuple)):  # read once; array() takes bytes raw
        values = list(values)
    try:  # refuses non-ints, and values outside -128..127
        vb = array("b", values).tobytes()
    except (TypeError, OverflowError):
        vb = None
    if vb is None or m.b < 8 and vb.translate(None, _IN_RANGE[m.b]):
        for v in values:
            encode_value(m, v)  # raises for the first value it refuses
        raise TypeError("values must be ints")
    n = m.code.n
    bits = bytearray(len(vb) * n)
    for j, lane in enumerate(m._lanes):
        bits[j::n] = vb.translate(lane)
    return EncodedBlob(m.code_id, m.b, n, len(vb), layer_id, _to_payload(bits))


def _check_header(m: EncodingMap, blob: EncodedBlob) -> None:
    if (blob.code_id, blob.bits, blob.n) != (m.code_id, m.b, m.code.n):
        raise ValueError(
            f"blob header ({blob.code_id}, b={blob.bits}, n={blob.n}) does not "
            f"match map ({m.code_id}, b={m.b}, n={m.code.n})"
        )


# b"0"/b"1" to the bytes 0/1: flags for itertools.compress, and bits for decode
_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _flagged(m: EncodingMap, blob: EncodedBlob) -> tuple[int, tuple[int, ...]]:
    """The checked payload int (see ``_payload_bits``) and the ascending
    indices of its words w with H·w != 0.

    Bit p of a word lands on the word's bit 0 when the payload int is
    shifted right by p. So for each parity-check row h, the XOR of the
    shifts by h's set positions holds, at bit 0 of each word, the parity
    of w & h: the word's check bit for h. The rows' check bits are ORed
    together and the field mask keeps bit 0 of each word. Every step is a
    whole-int operation, so the time is linear in the payload size.
    """
    _check_header(m, blob)
    n, count = blob.n, blob.count
    acc = _payload_bits(blob.payload, n, count)
    bad = 0
    for h in m.code.parity_checks:
        check = 0
        for p in range(n):
            if h >> p & 1:
                check ^= acc >> p
        bad |= check
    # bit 0 of every word; 8 words fill n whole bytes, the repeated unit
    unit = sum(1 << j * n for j in range(8)).to_bytes(n, "big")
    bad &= int.from_bytes(unit * -(-count // 8), "big")
    if not bad:
        return acc, ()
    # word i's flag is character i*n + n-1 of the bits, MSB first
    flags = format(bad, f"0{count * n}b")[n - 1 :: n].encode().translate(_FLAGS)
    return acc, tuple(compress(range(count), flags))


def verify_blob(m: EncodingMap, blob: EncodedBlob) -> VerifyReport:
    """Flag every slice of the payload that is not a codeword."""
    return VerifyReport(_flagged(m, blob)[1], blob.count)


def decode_tensor(m: EncodingMap, blob: EncodedBlob) -> list[int] | VerifyReport:
    """Values if every slice is a codeword, else the verify report.

    No partial output: one corrupted slice suppresses all values.
    """
    acc, bad = _flagged(m, blob)
    if bad:
        return VerifyReport(bad, blob.count)
    n, count = blob.n, blob.count
    if not count:
        return []
    # A clean word's value follows from its b information bits: read the
    # i-th off its plane, every n-th character of the payload's bit string,
    # into bit i of one information byte per word (``encoding._information``).
    bits = format(acc, f"0{count * n}b").encode()
    info = 0
    for i, p in enumerate(sorted(m.code._pivots)):
        info |= int.from_bytes(bits[n - 1 - p :: n].translate(_FLAGS), "big") << i
    return memoryview(info.to_bytes(count, "big").translate(m._values)).cast("b").tolist()


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
