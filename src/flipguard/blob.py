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

Decoding is detection-only. A slice that is not a codeword is reported,
never silently corrected, and no values are returned for a dirty blob.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
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


# Words per cut. Payloads are zero-filled to whole chunks so that one cached
# format per word width serves every count: a format per count would hold
# about 32 B per word for each layer size it was cached for.
_CHUNK = 1024


@lru_cache(maxsize=16)
def _cutter(n: int) -> struct.Struct:
    """_CHUNK fields of n bytes: cuts n-character words off a bit string."""
    return struct.Struct(f"{n}s" * _CHUNK)


def _slices(payload: bytes, n: int, count: int) -> list[bytes]:
    """The payload as count n-bit b'0'/b'1' strings; checks length and zero
    padding."""
    if n < 1:
        raise ValueError(f"word width must be at least 1, got {n}")
    need = (count * n + 7) // 8
    if len(payload) < need:
        raise CorruptBlobError(f"payload truncated: {len(payload)} bytes, need {need}")
    if len(payload) > need:
        raise CorruptBlobError(f"payload has {len(payload) - need} trailing bytes")
    pad = 8 * need - count * n
    acc = int.from_bytes(payload, "big")
    if acc & ((1 << pad) - 1):
        raise CorruptBlobError("nonzero padding bits")
    if not count:
        return []
    fill = -count % _CHUNK
    bits = format(acc >> pad << fill * n, f"0{(count + fill) * n}b").encode()
    slices = list(chain.from_iterable(_cutter(n).iter_unpack(bits)))
    del slices[count:]
    return slices


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
    slices = _slices(payload, n, count)
    # int() once per distinct slice: a codeword payload holds at most 2^b
    as_int = {s: int(s, 2) for s in set(slices)}
    return [as_int[s] for s in slices]


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


def encode_tensor(m: EncodingMap, values: Sequence[int], layer_id: str = "") -> EncodedBlob:
    """Encode quantized values into a blob under the given map."""
    half = 1 << (m.b - 1)
    if values and (min(values) < -half or max(values) >= half):
        for v in values:
            encode_value(m, v)  # raises for the first value out of range
    strings = m.codeword_strings
    bits = "".join([strings[v] for v in values])
    return EncodedBlob(m.code_id, m.b, m.code.n, len(values), layer_id, _to_payload(bits))


def _check_header(m: EncodingMap, blob: EncodedBlob) -> None:
    if (blob.code_id, blob.bits, blob.n) != (m.code_id, m.b, m.code.n):
        raise ValueError(
            f"blob header ({blob.code_id}, b={blob.bits}, n={blob.n}) does not "
            f"match map ({m.code_id}, b={m.b}, n={m.code.n})"
        )


def _scan(m: EncodingMap, blob: EncodedBlob) -> tuple[list[int | None], tuple[int, ...]]:
    """Every slice's signed value (None for a non-codeword) and the indices
    of the non-codewords."""
    _check_header(m, blob)
    slices = _slices(blob.payload, blob.n, blob.count)
    # A clean payload raises nowhere, so it needs no pass looking for None.
    try:
        return list(map(m.string_values.__getitem__, slices)), ()
    except KeyError:
        values = list(map(m.string_values.get, slices))
        return values, tuple(i for i, v in enumerate(values) if v is None)


def verify_blob(m: EncodingMap, blob: EncodedBlob) -> VerifyReport:
    """Flag every slice of the payload that is not a codeword."""
    _, bad = _scan(m, blob)
    return VerifyReport(bad, blob.count)


def decode_tensor(m: EncodingMap, blob: EncodedBlob) -> list[int] | VerifyReport:
    """Values if every slice is a codeword, else the verify report.

    No partial output: one corrupted slice suppresses all values.
    """
    values, bad = _scan(m, blob)
    return VerifyReport(bad, blob.count) if bad else values


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
