"""In-memory spans for the traced run, and the per-layer metrics built from them.

A span is one timed call into a flipguard stage. Spans of one op share the
op's span as parent. Nothing is written while the run measures; the caller
dumps ``Tracer.spans`` once, at the end.
"""
from __future__ import annotations

import json
import statistics
import time
from pathlib import Path


class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer: "Tracer", rec: list) -> None:
        self.tracer = tracer
        self.rec = rec

    def __enter__(self) -> dict:
        self.tracer._stack.append(self.rec[0])
        self.rec[3] = time.perf_counter_ns()
        return self.rec[5]

    def __exit__(self, *exc) -> None:
        self.rec[4] = time.perf_counter_ns()
        self.tracer._stack.pop()


class _NoSpan:
    __slots__ = ("attrs",)

    def __init__(self) -> None:
        self.attrs: dict = {}

    def __enter__(self) -> dict:
        return self.attrs

    def __exit__(self, *exc) -> None:
        pass


class Tracer:
    """Records spans as [id, parent id, name, start ns, end ns, attrs]."""

    on = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name: str, **attrs) -> _Span:
        parent = self._stack[-1] if self._stack else None
        rec = [len(self.spans), parent, name, 0, 0, attrs]
        self.spans.append(rec)
        return _Span(self, rec)

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, t0, t1, attrs in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start_ns": t0, "end_ns": t1, **attrs}) + "\n")


class NullTracer:
    """Untraced runs: every span is a shared no-op."""

    on = False

    def __init__(self) -> None:
        self._none = _NoSpan()

    def span(self, name: str, **attrs) -> _NoSpan:
        return self._none


def _select(spans, name, **match):
    for _, _, n, t0, t1, attrs in spans:
        if n == name and all(attrs.get(k) == v for k, v in match.items()):
            yield t1 - t0, attrs


def ns_per(spans, name: str, unit: str = "values", exclude_kind: str | None = None,
           **match) -> float:
    """Summed span time over summed ``unit`` for spans of one stage."""
    busy = work = 0
    for dt, attrs in _select(spans, name, **match):
        if exclude_kind is not None and attrs.get("kind") == exclude_kind:
            continue
        busy += dt
        work += attrs[unit]
    if not work:
        raise RuntimeError(f"traced run recorded no {name} spans matching {match}")
    return busy / work


def total(spans, name: str, key: str) -> int:
    return sum(attrs[key] for _, attrs in _select(spans, name))


def median_ms(spans, name: str) -> float:
    return statistics.median(dt for dt, _ in _select(spans, name)) / 1e6


def layer_metrics(spans, map_build_s: float, code_build_s: float) -> dict[str, float]:
    """Per-layer metrics of BENCHMARK.json, from one traced run's spans.

    Read-path ratios cover clean and lightly tampered layers; the heavily
    tampered ones, where nearly every word is flagged, have their own
    ``dirty_verify`` figure.
    """
    verify = ns_per(spans, "blob.verify_blob", exclude_kind="heavy")
    unpack = ns_per(spans, "blob.unpack_words", exclude_kind="heavy")
    return {
        "quantize.quantize_ns_per_value": ns_per(spans, "quantize.quantize"),
        "encoding.encode_value_ns_per_value": ns_per(spans, "encoding.encode_value"),
        "encoding.canonical_map_s": map_build_s,
        "codes.build_code_s": code_build_s,
        "blob.encode_tensor_ns_per_value": ns_per(spans, "blob.encode_tensor"),
        "blob.pack_words_ns_per_value": ns_per(spans, "blob.pack_words"),
        "blob.pack_words_scaling": ns_per(spans, "blob.pack_words", rung=15)
        / ns_per(spans, "blob.pack_words", rung=10),
        "blob.to_bytes_ns_per_value": ns_per(spans, "blob.to_bytes"),
        "blob.from_bytes_ns_per_value": ns_per(spans, "blob.from_bytes"),
        "blob.unpack_words_ns_per_value": unpack,
        "blob.verify_blob_ns_per_value": verify,
        "blob.scan_ns_per_value": verify - unpack,
        "blob.decode_tensor_ns_per_value": ns_per(spans, "blob.decode_tensor",
                                                  exclude_kind="heavy"),
        "blob.verify_scaling": ns_per(spans, "blob.verify_blob", rung=15, kind="clean")
        / ns_per(spans, "blob.verify_blob", rung=10, kind="clean"),
        "blob.dirty_verify_ns_per_value": ns_per(spans, "blob.verify_blob", kind="heavy"),
        "blob.bytes_written": total(spans, "blob.to_bytes", "bytes"),
        "blob.bytes_scanned": total(spans, "blob.verify_blob", "bytes"),
        "blob.words_flagged": total(spans, "blob.verify_blob", "flagged"),
        "traces.parse_trace_ns_per_change": ns_per(spans, "traces.parse_trace", "changes"),
        "traces.cost_plain_ns_per_change": ns_per(spans, "traces.cost_of_trace", "changes",
                                                  encoding="plain"),
        "traces.cost_mapped_ns_per_change": ns_per(spans, "traces.cost_of_trace", "changes",
                                                   encoding="mapped"),
        "traces.changes_replayed": total(spans, "traces.cost_of_trace", "changes"),
        "cli.verify_ms": median_ms(spans, "cli.verify"),
    }
