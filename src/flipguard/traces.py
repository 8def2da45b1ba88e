"""Attack traces: parsing, replay cost, synthesis, and pair statistics.

A trace is a JSON document:

    {"meta": {"method": "...", "b": 4, "model": "...", "dataset": "..."},
     "changes": [{"layer": "...", "index": 0, "old": -1, "new": 7}, ...]}

Replay cost is the total number of bit flips the recorded weight changes
need under a chosen map; plain two's-complement storage is the identity
map. A map is GF(2)-linear, so a change costs the weight of the image of its
flip pattern ``old ^ new``: the weight of its codeword, which in plain
storage is the pattern itself.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from random import Random
from typing import Iterable, Mapping, NamedTuple, Sequence

from .encoding import EncodingMap, _plain
from .quantize import value_range

__all__ = [
    "AttackTrace",
    "CostStats",
    "DEFAULT_MSB_FRACTION",
    "DEFAULT_MULTIFLIP_WEIGHTS",
    "ROWHAMMER_FLIPS_PER_SECOND",
    "TraceMeta",
    "TraceParseError",
    "WeightChange",
    "cost_of_trace",
    "estimated_seconds",
    "load_trace",
    "pair_frequency",
    "parse_trace",
    "synthesize_trace",
    "trace_stats",
    "trace_to_json",
    "trace_width",
]

# Observed Rowhammer productivity on DRAM: usable bit flips per second.
ROWHAMMER_FLIPS_PER_SECOND = 0.31

# Share of recorded weight changes that touch the sign bit, per width.
DEFAULT_MSB_FRACTION = {4: 0.714, 8: 0.804}

# How many bits a single weight change flips, per width.
DEFAULT_MULTIFLIP_WEIGHTS = {
    4: {1: 0.85, 2: 0.14, 3: 0.0099, 4: 0.0001},
    8: {1: 0.60, 2: 0.36, 3: 0.037, 4: 0.003},
}


class TraceParseError(ValueError):
    """A trace document violates the schema; message carries the field path."""


class TraceMeta(NamedTuple):
    method: str
    b: int
    model: str
    dataset: str


class WeightChange(NamedTuple):
    layer: str
    index: int
    old: int
    new: int


@dataclass(frozen=True)
class AttackTrace:
    """A trace whose values obey the rules: ``meta`` is a TraceMeta with str
    method, model and dataset and an int ``b`` that is a supported width,
    ``changes`` is iterable, and each change has four fields: a str layer,
    int (not bool) index, old and new, a nonnegative index, old != new, and
    both values in range. Parsed and built traces alike are checked here, in
    that order, the changes in one ordered pass that checks each one whole;
    the first fault raises.
    ``parse_trace`` checks the shape of the whole document first, so its
    order differs in one case: a type fault in a later change wins there
    over a value fault in an earlier one, which a built trace raises first.
    The pass stores each change as a ``WeightChange`` (a tuple of them is
    kept as is) in a tuple, so what was checked cannot change afterwards,
    and leaves ``_patterns``, one flip pattern byte per change, for
    ``cost_of_trace``."""

    meta: TraceMeta
    changes: tuple[WeightChange, ...]

    def __post_init__(self) -> None:
        if type(self.meta) is not TraceMeta:
            raise ValueError(f"meta: expected TraceMeta, got {type(self.meta).__name__}")
        for field, v, kind in zip(TraceMeta._fields, self.meta, (str, int, str, str)):
            if type(v) is not kind:
                raise ValueError(f"meta.{field}: expected {kind.__name__}, got {type(v).__name__}")
        try:
            lo, hi = value_range(self.meta.b)
        except ValueError as e:
            raise ValueError(f"meta.b: {e}") from None
        try:  # iter alone, so a TypeError raised while iterating is not renamed
            iter(self.changes)
        except TypeError:
            raise ValueError(f"changes: expected a sequence of changes, "
                             f"got {type(self.changes).__name__}") from None
        changes = tuple(self.changes)  # a tuple is returned as is
        mask = (1 << self.meta.b) - 1
        # One ordered pass: each change is unpacked, checked whole, stored as
        # a record and its flip pattern kept; the first fault raises. Every
        # change before it kept one pattern, so len(patterns) is its position
        records, patterns, kept = list(changes), bytearray(), changes  # a tuple of records is kept
        keep = patterns.append
        for change in changes:
            if type(change) is not WeightChange:  # a list, or any other iterable
                i = len(patterns)
                try:
                    records[i] = change = tuple.__new__(WeightChange, change)
                except TypeError:
                    raise ValueError(f"changes[{i}]: {_FIELDS}, "
                                     f"got {type(change).__name__}") from None
                kept = None
            if len(change) != 4:
                raise ValueError(f"changes[{len(patterns)}]: {_FIELDS}, got {len(change)}")
            layer, index, old, new = change
            if not (type(layer) is str and type(index) is type(old) is type(new) is int
                    and index >= 0 and old != new and lo <= old <= hi and lo <= new <= hi):
                i = len(patterns)
                for field, v, kind in zip(WeightChange._fields, change, (str, int, int, int)):
                    if type(v) is not kind:
                        raise ValueError(f"changes[{i}].{field}: expected {kind.__name__}, "
                                         f"got {type(v).__name__}")
                if index < 0:
                    raise ValueError(f"changes[{i}]: index must be nonnegative, got {index}")
                if old == new:
                    raise ValueError(f"changes[{i}]: old and new are both {old}")
                side, v = ("new", new) if lo <= old <= hi else ("old", old)
                raise ValueError(f"changes[{i}].{side}: expected integer in [{lo}, {hi}], got {v}")
            keep((old ^ new) & mask)
        object.__setattr__(self, "changes", tuple(records) if kept is None else kept)
        object.__setattr__(self, "_patterns", bytes(patterns))


_FIELDS = "expected 4 fields (layer, index, old, new)"


def _want(obj: Mapping, key: str, kind: type, where: str):
    if key not in obj:
        raise TraceParseError(f"{where}: missing field {key!r}")
    val = obj[key]
    # bool is an int subclass; never acceptable where an int is expected
    if not isinstance(val, kind) or isinstance(val, bool):
        raise TraceParseError(
            f"{where}.{key}: expected {kind.__name__}, got {type(val).__name__}"
        )
    return val


def parse_trace(text: str) -> AttackTrace:
    """Parse a trace document from JSON text. The shape is checked here,
    the values by AttackTrace; every error carries the field path."""
    # JSONDecodeError is a ValueError, and so is an int over the digit limit;
    # nesting too deep raises RecursionError
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:
        raise TraceParseError(f"not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise TraceParseError(f"top level: expected object, got {type(doc).__name__}")
    meta_obj = _want(doc, "meta", dict, "top level")
    method = _want(meta_obj, "method", str, "meta")
    b = _want(meta_obj, "b", int, "meta")
    model = _want(meta_obj, "model", str, "meta")
    dataset = _want(meta_obj, "dataset", str, "meta")
    meta = TraceMeta(method, b, model, dataset)
    raw_changes = _want(doc, "changes", list, "top level")
    try:
        # json.loads yields exact types, so AttackTrace makes the same type
        # tests as the _want checks below; the records are built in C, by
        # tuple.__new__ without the NamedTuple's Python-level __new__
        fields = itemgetter("layer", "index", "old", "new")
        return AttackTrace(meta, tuple(map(tuple.__new__, repeat(WeightChange),
                                           map(fields, raw_changes))))
    except (TypeError, KeyError, ValueError) as e:
        error = str(e)
    # Name the first shape fault, which wins over any value fault
    for i, entry in enumerate(raw_changes):
        where = f"changes[{i}]"
        if not isinstance(entry, dict):
            raise TraceParseError(f"{where}: expected object, got {type(entry).__name__}")
        for key, kind in (("layer", str), ("index", int), ("old", int), ("new", int)):
            _want(entry, key, kind, where)
    raise TraceParseError(error)  # the message carries the field path


def load_trace(path) -> AttackTrace:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise TraceParseError(f"{path}: {e}") from None
    except UnicodeDecodeError as e:
        raise TraceParseError(f"{path}: not valid UTF-8: {e}") from None
    try:
        return parse_trace(text)
    except TraceParseError as e:
        raise TraceParseError(f"{path}: {e}") from None


# One change as json.dumps(..., sort_keys=True, indent=2) lays it out at depth 2
_CHANGE = '    {\n      "index": %d,\n      "layer": %s,\n      "new": %d,\n      "old": %d\n    }'


def trace_to_json(trace: AttackTrace) -> str:
    """Stable serialization: sorted keys, no volatile fields.

    The text is ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``, laid
    out here because ``indent=`` sends ``json.dumps`` to its pure-Python
    encoder. Each change is one format string, its layer id quoted by the C
    string encoder; ``AttackTrace`` has checked every field's type.
    """
    changes = ",\n".join([_CHANGE % (index, encode_basestring_ascii(layer), new, old)
                          for layer, index, old, new in trace.changes])
    changes = f"[\n{changes}\n  ]" if changes else "[]"
    meta = json.dumps(trace.meta._asdict(), sort_keys=True, indent=2).replace("\n", "\n  ")
    return f'{{\n  "changes": {changes},\n  "meta": {meta}\n}}\n'


def cost_of_trace(trace: AttackTrace, encoding: EncodingMap | None = None) -> int:
    """Total bit flips to replay the trace.

    ``encoding=None`` replays against plain two's-complement storage.
    """
    b = trace.meta.b
    m = _plain(b) if encoding is None else encoding
    if m.b != b:
        raise ValueError(f"map is {m.b}-bit but trace is {b}-bit")
    return sum(trace._patterns.translate(m._costs))


@dataclass(frozen=True)
class CostStats:
    """Per-trace replay cost summary; avg is exact."""

    min_flips: int
    avg_flips: Fraction
    max_flips: int


def trace_stats(traces: Sequence[AttackTrace], encoding: EncodingMap | None = None) -> CostStats:
    trace_width(traces)  # at least one trace, all of one width
    costs = [cost_of_trace(t, encoding) for t in traces]
    return CostStats(min(costs), Fraction(sum(costs), len(costs)), max(costs))


def estimated_seconds(flips: int | float) -> float:
    """Wall-clock Rowhammer effort for a flip budget."""
    if isinstance(flips, float) and not math.isfinite(flips):
        raise ValueError(f"flip count must be finite, got {flips}")
    if flips < 0:
        raise ValueError("flip count must be nonnegative")
    return flips / ROWHAMMER_FLIPS_PER_SECOND


def _validate_multiflip(weights: Mapping[int, float], b: int) -> list[tuple[int, float]]:
    if not weights:
        raise ValueError("multiflip_weights must not be empty")
    items = sorted(weights.items())
    for k, p in items:
        if not (isinstance(k, int) and 1 <= k <= b):
            raise ValueError(f"flip count {k!r} outside 1..{b}")
        if not math.isfinite(p):
            raise ValueError(f"weight for {k} flips is not finite: {p}")
        if p < 0:
            raise ValueError(f"weight for {k} flips is negative")
    total = sum(p for _, p in items)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"multiflip weights sum to {total}, expected 1")
    return items


def synthesize_trace(
    b: int,
    num_changes: int,
    *,
    msb_fraction: float | None = None,
    multiflip_weights: Mapping[int, float] | None = None,
    seed: int = 0,
) -> AttackTrace:
    """Generate a synthetic trace with the recorded attack shape.

    Each change draws a uniform in-range old value and flips k bits of its
    pattern, k weighted by ``multiflip_weights``. The first flipped bit is
    the MSB with probability ``msb_fraction`` (otherwise uniform over the
    rest); any remaining flips land uniformly on unused positions. Same
    seed, same trace.
    """
    lo, hi = value_range(b)
    if type(num_changes) is not int:  # range() refuses 3.0, but takes True as 1
        raise ValueError(f"num_changes: expected int, got {type(num_changes).__name__}")
    if num_changes < 0:
        raise ValueError("num_changes must be nonnegative")
    if msb_fraction is None:
        msb_fraction = DEFAULT_MSB_FRACTION[b]
    if not 0.0 <= msb_fraction <= 1.0:
        raise ValueError(f"msb_fraction must lie in [0, 1], got {msb_fraction}")
    if multiflip_weights is None:
        multiflip_weights = DEFAULT_MULTIFLIP_WEIGHTS[b]
    dist = _validate_multiflip(multiflip_weights, b)

    rng = Random(seed)
    randint, random, randrange, sample = rng.randint, rng.random, rng.randrange, rng.sample
    mask, half, last = (1 << b) - 1, hi + 1, dist[-1][0]  # last: k when rounding leaves r >= 0
    # others[first]: the positions left for the remaining flips
    others = [[p for p in range(1, b + 1) if p != first] for first in range(b + 1)]
    record = tuple.__new__
    changes = []
    for i in range(num_changes):
        old = randint(lo, hi)
        r = random()
        k = last
        for kk, p in dist:
            r -= p
            if r < 0:
                k = kk
                break
        first = 1 if random() < msb_fraction else randrange(2, b + 1)
        pattern = (old & mask) ^ (1 << (b - first))
        if k > 1:  # a sample of 0 draws nothing, so skipping it keeps the stream
            for pos in sample(others[first], k - 1):
                pattern ^= 1 << (b - pos)
        new = (pattern ^ half) - half  # the pattern's signed value
        changes.append(record(WeightChange, ("synthetic", i, old, new)))
    meta = TraceMeta("synthetic", b, "synthetic", "synthetic")
    return AttackTrace(meta, tuple(changes))


def trace_width(traces: Sequence[AttackTrace]) -> int:
    """The bit width shared by all the traces."""
    if not traces:
        raise ValueError("need at least one trace")
    b = traces[0].meta.b
    if any(t.meta.b != b for t in traces):
        raise ValueError("traces mix bit widths")
    return b


def pair_frequency(traces: Iterable[AttackTrace]) -> list[list[int]]:
    """(old, new) change counts, rows and columns ascending by signed value."""
    traces = list(traces)
    half = 1 << (trace_width(traces) - 1)
    counts = [[0] * (2 * half) for _ in range(2 * half)]
    for t in traces:
        for _, _, old, new in t.changes:
            counts[old + half][new + half] += 1
    return counts
