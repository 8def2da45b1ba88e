"""The three workloads: seeded inputs, one op each, and the check of every op.

``protect`` and ``check`` share one synthetic model: for each of the six
codes, one layer at each size on the ladder 2^10 .. 2^15, Gaussian weights
and a per-layer quantizer step. ``attack_cost`` replays synthetic traces of
both widths. Everything is derived from the seed, so the same seed gives the
same inputs.

Every op's output is checked against a reference the harness computes on its
own, after set-up and outside the op's timing.
"""
from __future__ import annotations

import dataclasses
import io
import random
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from spans import NullTracer

RUNGS = range(10, 16)
# Visits per round of each code's layer at each rung; rungs left out are built
# (and, for check, stored) in set-up and timed in the traced run, but not in
# the timed loop. The harness reports each input's fastest time, which is
# steady only when ops are short and each input is visited often: on a shared
# host, speed dips last tens of ms. At 2^13 and up, a write takes 50 ms to 1 s
# with the quadratic packer and got 3 or 4 visits in a run; over ten runs its
# figures spread by 0.3-0.4 of their median.
# Rungs differ about 2x in op time and, within a rung, the 4-bit codes mostly
# run faster than the 8-bit ones. With these counts no percentile sits on
# such a boundary, for any number of whole rounds.
# protect: op_ms_p50 lands inside the 8-bit 2^11 ops and op_ms_p90 inside the
# 8-bit 2^12 ops.
PROTECT_VISITS = {10: 1, 11: 2, 12: 2}
# check: op_ms_p50 lands inside the light 2^12 ops and op_ms_p90 inside the
# heavy 2^13 ops, whose verify is the dirty path.
CHECK_VISITS = {10: 1, 11: 1, 12: 2, 13: 2}
LIGHT_RUNG = 12   # check: LIGHT_WORDS words get 1..d-1 flips each
HEAVY_RUNG = 13   # check: payload replaced by random bytes
LIGHT_WORDS = 4
HEADER_SWEEP_RUNG = 10

# attack_cost: one round is one 4-bit and three 8-bit traces of equal length,
# so op_ms_p50 falls inside the 8-bit population whichever width is the
# slower one. Short traces (an op takes about 20 ms) get over 100 visits each
# in a run, so each trace's fastest time is found.
ROUND_WIDTHS = (4, 8, 8, 8)
TRACE_CHANGES = 2_000

# Small cross-section for stages a workload's own ops never call, so that
# every traced run reports every per-layer metric.
PROBE_CODES = ("C7_3", "C13_4")
PROBE_RUNGS = (10, LIGHT_RUNG, HEAVY_RUNG, 15)


def _kind(rung: int) -> str:
    return {LIGHT_RUNG: "light", HEAVY_RUNG: "heavy"}.get(rung, "clean")


def _ref_ints(weights, b: int, delta: float) -> list[int]:
    """Round half to even, then clamp to the signed b-bit range."""
    lo, hi = -(1 << (b - 1)), (1 << (b - 1)) - 1
    return [min(max(round(w / delta), lo), hi) for w in weights]


def _ref_payload(m, ints) -> bytes:
    """Codewords back to back, MSB-first, zero-padded to a whole byte."""
    mask = (1 << m.b) - 1
    width = f"0{m.code.n}b"
    bits = "".join(format(m.table[v & mask].bits, width) for v in ints)
    bits += "0" * (-len(bits) % 8)
    return int(bits, 2).to_bytes(len(bits) // 8, "big") if bits else b""


def _ref_words(payload: bytes, n: int, count: int) -> list[int]:
    bits = format(int.from_bytes(payload, "big"), f"0{8 * len(payload)}b")
    return [int(bits[i * n:(i + 1) * n], 2) for i in range(count)]


@dataclasses.dataclass
class Layer:
    code: str
    rung: int
    m: object          # EncodingMap
    cfg: object        # QuantConfig
    weights: list
    layer_id: str
    kind: str = "clean"
    raw: bytes = b""   # stored bytes (check only)
    ints: list | None = None
    flagged: tuple = ()
    ref_payload: bytes = b""

    @property
    def count(self) -> int:
        return len(self.weights)


def _make_layers(lib, seed: int, spec) -> list[Layer]:
    maps = {code: lib.encoding.canonical_map(code) for code in lib.codes.CODE_IDS}
    layers = []
    for code, rung in spec:
        rng = random.Random(f"{seed}/{code}/{rung}")
        m = maps[code]
        sigma = rng.uniform(0.02, 0.2)
        delta = 3 * sigma / (1 << (m.b - 1)) * rng.uniform(0.8, 1.25)
        weights = [rng.gauss(0.0, sigma) for _ in range(1 << rung)]
        layers.append(Layer(code, rung, m, lib.quantize.QuantConfig(m.b, delta),
                            weights, f"{code}.r{rung}"))
    return layers


def _schedule(layers, visits, rng: random.Random) -> list[Layer]:
    ops = [layer for layer in layers for _ in range(visits.get(layer.rung, 0))]
    rng.shuffle(ops)
    return ops


def protect_op(lib, layer: Layer, t) -> bytes:
    """quantize every weight, encode_tensor, to_bytes."""
    quantize, cfg, m = lib.quantize.quantize, layer.cfg, layer.m
    c, r = layer.count, layer.rung
    with t.span("quantize.quantize", values=c, rung=r):
        ints = [quantize(w, cfg) for w in layer.weights]
    with t.span("blob.encode_tensor", values=c, rung=r):
        blob = lib.blob.encode_tensor(m, ints, layer.layer_id)
    with t.span("blob.to_bytes", values=c, rung=r) as attrs:
        raw = blob.to_bytes()
    attrs["bytes"] = len(raw)
    return raw


def protect_stages(lib, layer: Layer, t) -> None:
    """Time encode_value and pack_words, stages of encode_tensor, on the
    layer's values. Traced runs call this outside the op's timing."""
    m = layer.m
    ints = [lib.quantize.quantize(w, layer.cfg) for w in layer.weights]
    with t.span("encoding.encode_value", values=layer.count, rung=layer.rung):
        words = [lib.encoding.encode_value(m, v).bits for v in ints]
    with t.span("blob.pack_words", values=layer.count, rung=layer.rung):
        lib.blob.pack_words(words, m.code.n)


def check_op(lib, layer: Layer, t):
    """from_bytes, verify_blob, decode_tensor."""
    blobmod, m = lib.blob, layer.m
    tags = dict(values=layer.count, rung=layer.rung, kind=layer.kind)
    with t.span("blob.from_bytes", **tags):
        blob = blobmod.EncodedBlob.from_bytes(layer.raw)
    with t.span("blob.verify_blob", bytes=len(blob.payload), **tags) as attrs:
        report = blobmod.verify_blob(m, blob)
    attrs["flagged"] = len(report.corrupted_indices)
    with t.span("blob.decode_tensor", **tags):
        out = blobmod.decode_tensor(m, blob)
    return report, out


def check_stages(lib, layer: Layer, t) -> None:
    """Time unpack_words, the first stage of verify_blob, on the layer's
    payload. Traced runs call this outside the op's timing."""
    blob = lib.blob.EncodedBlob.from_bytes(layer.raw)
    with t.span("blob.unpack_words", values=layer.count, rung=layer.rung, kind=layer.kind):
        lib.blob.unpack_words(blob.payload, blob.n, blob.count)


def cli_verify(lib, path: Path, t) -> int | None:
    """Exit code of ``flipguard verify --in path``; None if it raised."""
    sink = io.StringIO()
    with t.span("cli.verify"), redirect_stdout(sink), redirect_stderr(sink):
        try:
            return lib.cli.main(["verify", "--in", str(path)])
        except Exception:  # a crash is a measured outcome, not a harness failure
            return None


class Protect:
    """Write path: one op is one layer, one item is one weight."""

    name = "protect"
    probes = ("check", "attack_cost")
    visits = PROTECT_VISITS

    def __init__(self, lib, seed: int, t, spec=None) -> None:
        self.lib = lib
        self.layers = _make_layers(lib, seed, spec or _ladder(lib))

    def prepare_checks(self) -> None:
        for layer in self.layers:
            layer.ints = _ref_ints(layer.weights, layer.m.b, layer.cfg.delta)
            layer.ref_payload = _ref_payload(layer.m, layer.ints)

    def round(self, rng):
        return _schedule(self.layers, self.visits, rng)

    def run(self, layer, t):
        return protect_op(self.lib, layer, t)

    def stages(self, layer, t) -> None:
        protect_stages(self.lib, layer, t)

    def check(self, layer, raw) -> bool:
        blob = self.lib.blob.EncodedBlob.from_bytes(raw)
        return (blob.code_id, blob.count, blob.layer_id, blob.payload) == (
            layer.code, layer.count, layer.layer_id, layer.ref_payload)

    def items(self, layer) -> int:
        return layer.count

    def stored_bytes(self, layer, raw) -> int:
        return len(raw)

    def after_loop(self, t, workdir: Path) -> dict:
        return {}

    def probe(self, t, workdir: Path) -> tuple[int, int]:
        """Run each input, timed loop or not, through the op once, traced:
        (checked, failed)."""
        return _probe(self, self.layers, t)


class Check(Protect):
    """Read path over the protect model's stored bytes: one op is one layer,
    one item is one stored value. Layers at LIGHT_RUNG carry a few payload
    flips, layers at HEAVY_RUNG a random payload."""

    name = "check"
    probes = ("attack_cost",)
    visits = CHECK_VISITS

    def __init__(self, lib, seed: int, t, spec=None) -> None:
        super().__init__(lib, seed, t, spec)
        self.light_ops = self.light_caught = 0
        rng = random.Random(f"{seed}/tamper")
        for layer in self.layers:
            # set-up stores the model with the library; traced runs time it
            raw = protect_op(lib, layer, t)
            if t.on:
                protect_stages(lib, layer, t)
            layer.kind = _kind(layer.rung)
            if layer.kind == "clean":
                layer.raw = raw
                continue
            blob = lib.blob.EncodedBlob.from_bytes(raw)
            payload = bytearray(blob.payload)
            n, d = layer.m.code.n, layer.m.code.min_distance
            if layer.kind == "light":
                planted = sorted(rng.sample(range(layer.count), LIGHT_WORDS))
                for i in planted:
                    for j in rng.sample(range(n), rng.randint(1, d - 1)):
                        bit = i * n + j
                        payload[bit // 8] ^= 0x80 >> (bit % 8)
                layer.flagged = tuple(planted)
            else:
                payload[:] = rng.randbytes(len(payload))
                pad = 8 * len(payload) - layer.count * n
                payload[-1] &= (0xFF << pad) & 0xFF
            layer.raw = dataclasses.replace(blob, payload=bytes(payload)).to_bytes()

    def prepare_checks(self) -> None:
        for layer in self.layers:
            layer.ints = _ref_ints(layer.weights, layer.m.b, layer.cfg.delta)
            if layer.kind == "heavy":
                payload = self.lib.blob.EncodedBlob.from_bytes(layer.raw).payload
                codewords = {w.bits for w in layer.m.table}
                words = _ref_words(payload, layer.m.code.n, layer.count)
                layer.flagged = tuple(i for i, w in enumerate(words) if w not in codewords)
                if not layer.flagged:
                    raise RuntimeError(f"{layer.layer_id}: random payload is all codewords")

    def run(self, layer, t):
        return check_op(self.lib, layer, t)

    def stages(self, layer, t) -> None:
        check_stages(self.lib, layer, t)

    def check(self, layer, result) -> bool:
        report, out = result
        if layer.kind == "clean":
            return report.clean and out == layer.ints
        ok = (report.corrupted_indices == layer.flagged
              and isinstance(out, self.lib.blob.VerifyReport)
              and out.corrupted_indices == layer.flagged)
        if layer.kind == "light":
            self.light_ops += 1
            self.light_caught += ok
        return ok

    def stored_bytes(self, layer, result) -> int:
        return len(layer.raw)

    def after_loop(self, t, workdir: Path) -> dict:
        """Flip every header bit of each code's smallest layer, one at a time,
        and run each variant through the CLI's verify."""
        path = workdir / "header_flip.bin"
        codes = {0: 0, 1: 0, 2: 0, None: 0}
        for layer in self.layers:
            if layer.rung != HEADER_SWEEP_RUNG:
                continue
            raw = layer.raw
            header_bits = 8 * (len(raw) - len(self.lib.blob.EncodedBlob.from_bytes(raw).payload))
            for bit in range(header_bits):
                flipped = bytearray(raw)
                flipped[bit // 8] ^= 0x80 >> (bit % 8)
                path.write_bytes(flipped)
                codes[cli_verify(self.lib, path, t)] += 1
        flips = sum(codes.values())
        return {
            "payload_flip_caught_share": self.light_caught / self.light_ops,
            "header_flips": flips,
            "header_flip_caught_share": codes[2] / flips,
            "header_flip_silent_share": codes[0] / flips,
            "header_flip_exit1_share": codes[1] / flips,
            "header_flip_raised": codes[None],
        }

    def probe(self, t, workdir: Path) -> tuple[int, int]:
        """The ops, then the CLI's verify of each stored layer."""
        checked, failed = super().probe(t, workdir)
        path = workdir / "probe.bin"
        for layer in self.layers:
            path.write_bytes(layer.raw)
            failed += cli_verify(self.lib, path, t) != (0 if layer.kind == "clean" else 2)
        return checked + len(self.layers), failed


class AttackCost:
    """Cost analysis: one op is one trace, one item is one weight change."""

    name = "attack_cost"
    probes = ("protect", "check")

    def __init__(self, lib, seed: int, t, widths=None) -> None:
        self.lib = lib
        tr, enc, codes = lib.traces, lib.encoding, lib.codes
        self.maps = {b: [enc.canonical_map(c) for c in codes.CODE_IDS
                         if codes.code_shape(c)[0] == b] for b in (4, 8)}
        rng = random.Random(f"{seed}/traces")
        self.traces = []
        for b in widths or ROUND_WIDTHS:
            trace = tr.synthesize_trace(b, TRACE_CHANGES, seed=rng.getrandbits(32))
            self.traces.append([trace, tr.trace_to_json(trace), None])

    def prepare_checks(self) -> None:
        for entry in self.traces:
            trace = entry[0]
            b = trace.meta.b
            mask = (1 << b) - 1
            plain = sum(((c.old ^ c.new) & mask).bit_count() for c in trace.changes)
            mapped = [sum((m.table[c.old & mask].bits ^ m.table[c.new & mask].bits).bit_count()
                          for c in trace.changes) for m in self.maps[b]]
            entry[2] = (plain, mapped)

    def round(self, rng):
        ops = list(self.traces)
        rng.shuffle(ops)
        return ops

    def run(self, entry, t):
        tr = self.lib.traces
        changes = TRACE_CHANGES
        with t.span("traces.parse_trace", changes=changes, b=entry[0].meta.b):
            trace = tr.parse_trace(entry[1])
        with t.span("traces.cost_of_trace", changes=changes, encoding="plain"):
            plain = tr.cost_of_trace(trace)
        mapped = []
        for m in self.maps[trace.meta.b]:
            with t.span("traces.cost_of_trace", changes=changes, encoding="mapped"):
                mapped.append(tr.cost_of_trace(trace, m))
        with t.span("traces.trace_stats", changes=changes):
            stats = tr.trace_stats([trace])
        return trace, plain, mapped, stats

    def stages(self, entry, t) -> None:
        pass

    def check(self, entry, result) -> bool:
        trace, plain, mapped, stats = result
        return (trace == entry[0] and (plain, mapped) == entry[2]
                and stats.min_flips == stats.max_flips == plain)

    def items(self, entry) -> int:
        return len(entry[0].changes)

    def stored_bytes(self, entry, result) -> int:
        return len(entry[1].encode())

    def after_loop(self, t, workdir: Path) -> dict:
        return {}

    def probe(self, t, workdir: Path) -> tuple[int, int]:
        return _probe(self, self.traces, t)


def _ladder(lib):
    return [(code, rung) for code in lib.codes.CODE_IDS for rung in RUNGS]


def _probe(w, inputs, t) -> tuple[int, int]:
    failed = 0
    for x in inputs:
        try:
            failed += not w.check(x, w.run(x, t))
            w.stages(x, t)
        except Exception:
            traceback.print_exc()
            failed += 1
    return len(inputs), failed


WORKLOADS = {cls.name: cls for cls in (Protect, Check, AttackCost)}


def make_probe(name: str, lib, seed: int):
    """A workload object over the small probe inputs, ready to run."""
    quiet = NullTracer()
    if name == "attack_cost":
        w = AttackCost(lib, seed, quiet, widths=(4, 8))
    else:
        spec = [(code, rung) for code in PROBE_CODES for rung in PROBE_RUNGS]
        w = WORKLOADS[name](lib, seed, quiet, spec)
    w.prepare_checks()
    return w
