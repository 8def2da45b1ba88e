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

The constructor checks the fields in order and rejects the first of
another type than its annotation (``TypeError``) or that the wire format
cannot hold, an id too long or not valid UTF-8 among them, so `to_bytes`
cannot fail. `from_bytes` reads only blobs of registered codes: anything
else, a parseable header with an unknown code id or a shape not the
code's included, is `CorruptBlobError`. A custom map's blob verifies only
in memory.

Encode, verify and decode run on byte-block tables. 8 words of n bits fill
exactly n payload bytes, a block. A GF(2)-linear map from one block's
bytes to another's has one 256-entry table per (input byte, output byte)
pair, and one ``bytes.translate`` applies it to that pair of every block
at once. The engine, ``_apply``, writes each output byte of every block
once: encode maps 8 value bytes to n payload bytes, and clean decode maps
the n payload bytes to the 8 words' signed value bytes (on codewords the
value is a GF(2)-linear function of the word). Verify tests word slot o,
word o of every block, on its own (``_scan``): its syndrome bytes, H·w
over the code's parity-check rows H, are the XOR of its sources'
translated lanes (one to three for the six codes), and a word w is a
codeword iff its syndrome is zero. A one-source slot is clean when no lane
byte lies outside its table's kernel and a two-source slot when its two
lanes are equal, so only three-source slots make ints, and a clean blob
builds no syndrome buffer. ``_flagged`` is the only code that reads the
verdicts. Fewer than count / ``_SPARSE`` flagged words are found in each
dirty slot's syndromes with ``bytes.find``, which skips clean stretches in
C, and merged; more are picked by ``compress`` out of one shared tuple of
word indices, ``_INDEX`` (about 40 B kept per word of the largest densely
flagged blob seen). So the readout makes no int per clean word. A dirty
result stays on the blob for the map that found it, so verify then decode
of a corrupt blob scans once; a clean one is computed afresh from the
payload bytes on every call, so a flip that lands between verify and
decode of a clean blob is still caught. Decoding is detection-only. A
slice that is not a codeword is reported, never silently corrected, and no
values are returned for a dirty blob.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Iterable, Sequence

from .codes import CODE_IDS, code_shape
from .encoding import EncodingMap, _Tables, encode_value

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


def _apply(outputs: _Tables, lanes: list[bytes], step: int) -> bytearray:
    """The engine: lanes[i] holds input byte i of every block, and each
    block maps through the tables (``encoding._block_tables``) to step
    output bytes. The output blocks come back as one buffer.

    Output byte o of every block is written once, by one slice assignment:
    its one source's lane translated, or the XOR of its sources' translated
    lanes, taken as ints.
    """
    size = len(lanes[0])
    buf = bytearray(size * step)
    for o, sources in enumerate(outputs):
        if len(sources) == 1:
            i, table = sources[0]
            buf[o::step] = lanes[i].translate(table)
        elif sources:
            acc = 0
            for i, table in sources:
                acc ^= int.from_bytes(lanes[i].translate(table), "big")
            buf[o::step] = acc.to_bytes(size, "big")
    return buf


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


# The header after the magic, packed by `to_bytes` and unpacked by `from_bytes`:
_BYTE = struct.Struct(">B")  # the code_id length
_HEAD = struct.Struct(">BBQH")  # bits, n, count and the layer_id length


def _text(data: bytes | bytearray | memoryview, pos: int, k: int, what: str) -> tuple[str, int]:
    """The UTF-8 field of k bytes at pos in a blob, and the position after it."""
    end = pos + k
    if end > len(data):
        raise CorruptBlobError(f"truncated blob: missing {what}")
    try:
        return str(data[pos:end], "utf-8"), end
    except UnicodeDecodeError:
        raise CorruptBlobError(f"{what} is not valid UTF-8") from None


@dataclass(frozen=True)
class EncodedBlob:
    code_id: str
    bits: int
    n: int
    count: int
    layer_id: str
    payload: bytes

    _flags = None  # not a field: ``_flagged`` keeps a dirty result here

    def __post_init__(self) -> None:
        """The fields in order: the first that fails raises, and a payload
        of another buffer type is copied to bytes."""
        for name, value, kind in (("code_id", self.code_id, str), ("bits", self.bits, int),
                                  ("n", self.n, int), ("count", self.count, int),
                                  ("layer_id", self.layer_id, str)):
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
        for name, value, top in (("code_id", self.code_id, 0xFF),
                                 ("layer_id", self.layer_id, 0xFFFF)):
            try:  # an ASCII id is as many bytes as characters
                size = len(value) if value.isascii() else len(value.encode())
            except UnicodeEncodeError:  # a lone surrogate
                raise ValueError(f"{name} is not valid UTF-8") from None
            if size > top:
                raise ValueError(f"{name} too long")

    def to_bytes(self) -> bytes:
        cid, lid = self.code_id.encode(), self.layer_id.encode()
        return b"".join((MAGIC, _BYTE.pack(len(cid)), cid,
                         _HEAD.pack(self.bits, self.n, self.count, len(lid)), lid, self.payload))

    @classmethod
    def from_bytes(cls, data: bytes | bytearray | memoryview) -> "EncodedBlob":
        """A blob of a registered code; any other bytes raise CorruptBlobError."""
        if data[: len(MAGIC)] != MAGIC:
            raise CorruptBlobError("truncated blob: missing magic" if len(data) < len(MAGIC)
                                   else "bad magic")
        pos = len(MAGIC) + 1
        if len(data) < pos:
            raise CorruptBlobError("truncated blob: missing code_id length")
        code_id, pos = _text(data, pos, _BYTE.unpack_from(data, pos - 1)[0], "code_id")
        if len(data) < pos + _HEAD.size:
            raise CorruptBlobError("truncated blob: missing " + (
                "header" if len(data) < pos + _HEAD.size - 2 else "layer_id length"))
        bits, n, count, lid_len = _HEAD.unpack_from(data, pos)
        layer_id, pos = _text(data, pos + _HEAD.size, lid_len, "layer_id")
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
    payload = _apply(m._encoder, [vb[s::8] for s in range(8)], n)
    del payload[(count * n + 7) // 8 :]
    return EncodedBlob(m.code_id, m.b, n, count, layer_id, bytes(payload))


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


def _scan(m: EncodingMap, lanes: list[bytes]) -> dict[int, bytes]:
    """The syndrome pass: each dirty word slot o and its syndromes, byte k
    word 8k + o's, ORed over the sets of 8 parity-check rows. Each source
    lane is translated once. One source is clean when no lane byte lies
    outside its table's kernel, and two when their translated lanes are
    equal, so such a slot makes no int; three or more are clean when their
    XOR as ints is 0.
    """
    size, dirty = len(lanes[0]), {}
    for o, sources, kernel in m._checks:
        if kernel is not None:
            i, table = sources[0]
            if not lanes[i].translate(None, kernel):
                continue
            syndromes = lanes[i].translate(table)
        elif len(sources) == 2:
            (i, table), (j, other) = sources
            first, second = lanes[i].translate(table), lanes[j].translate(other)
            if first == second:
                continue
            acc = int.from_bytes(first, "big") ^ int.from_bytes(second, "big")
            syndromes = acc.to_bytes(size, "big")
        else:
            acc = 0
            for i, table in sources:
                acc ^= int.from_bytes(lanes[i].translate(table), "big")
            if not acc:
                continue
            syndromes = acc.to_bytes(size, "big")
        if o in dirty:  # another set of 8 rows
            acc = int.from_bytes(dirty[o], "big") | int.from_bytes(syndromes, "big")
            syndromes = acc.to_bytes(size, "big")
        dirty[o] = syndromes
    return dirty


def _flagged(m: EncodingMap, blob: EncodedBlob) -> tuple[list[bytes], tuple[int, ...]]:
    """The engine's lanes of the checked payload (``_payload_bits``) and the
    ascending indices of the words w with H·w != 0, from the dirty slots'
    syndromes (``_scan``): word 8k + o is flagged when byte k of slot o's is
    nonzero.

    The flagged words are counted slot by slot, up to count / ``_SPARSE``,
    so a random payload counts one slot. Under that many, each dirty slot's
    are found in its own syndromes by ``bytes.find`` and merged in
    ascending order; more are picked by ``compress`` out of all slots'
    syndromes interleaved into one buffer, one byte per word.

    A dirty result is kept on the blob as ``_flags``, (m, indices), and a
    later call with the same map object returns it with no lanes and no
    scan; ``copy.copy`` and ``pickle`` carry it along. A dirty result lets
    no values out, so a flip that lands after the scan cannot reach a
    caller. A clean result is never kept: a clean decode checks every word.
    """
    if (blob.code_id, blob.bits, blob.n) != (m.code_id, m.b, m.code.n):
        raise ValueError(
            f"blob header ({blob.code_id}, b={blob.bits}, n={blob.n}) does not "
            f"match map ({m.code_id}, b={m.b}, n={m.code.n})"
        )
    kept = blob._flags
    if kept is not None and kept[0] is m:
        return [], kept[1]
    n, count = blob.n, blob.count
    blocks = _payload_bits(blob.payload, n, count)
    lanes = [blocks[j::n] for j in range(n)]
    dirty = _scan(m, lanes)
    if not dirty:
        return lanes, ()
    size, flagged = len(lanes[0]), 0
    for syndromes in dirty.values():
        flagged += size - syndromes.count(0)  # padding words have syndrome 0
        if flagged * _SPARSE >= count:
            sb = bytearray(8 * size)
            for o, lane in dirty.items():
                sb[o::8] = lane
            # compress steps a bytes object about 8% faster than a bytearray
            found = tuple(compress(_indices(count), bytes(sb)))
            break
    else:
        found = []
        for o, syndromes in dirty.items():
            nz, k = syndromes.translate(_NONZERO), -1
            found += [8 * (k := nz.find(1, k + 1)) + o for _ in range(size - syndromes.count(0))]
        found = tuple(sorted(found))
    object.__setattr__(blob, "_flags", (m, found))
    return lanes, found


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
    return memoryview(_apply(m._decoder, lanes, 8))[: blob.count].cast("b").tolist()


@dataclass(frozen=True)
class OverheadReport:
    memory_overhead_percent: Fraction
    bits_per_weight: int


def overhead_report(code_id: str, b: int) -> OverheadReport:
    """Exact storage overhead of a code relative to b raw bits per weight."""
    cb, n = code_shape(code_id)
    if type(b) is not int or b != cb:  # 4.0 == 4, but Fraction refuses a float
        raise ValueError(f"{code_id} protects {cb}-bit values, not {b}-bit")
    return OverheadReport(Fraction(100 * (n - b), b), n)
