"""Command-line front end.

Machine-readable output goes to stdout or to --out files; human summaries
go to stderr. Exit codes: 0 success, 1 bad input, 2 corruption detected.
"""
from __future__ import annotations

import argparse
import json
import platform
import random
import sys
import time
from dataclasses import replace
from functools import cache
from pathlib import Path

from .blob import (
    CorruptBlobError,
    EncodedBlob,
    VerifyReport,
    decode_tensor,
    encode_tensor,
    overhead_report,
    verify_blob,
)
from .codes import CODE_IDS, code_shape
from .encoding import (
    EncodingMap,
    canonical_map,
    codebook_lines,
    distance_matrix,
    twos_complement_matrix,
)
from .quantize import QuantConfig, quantize, value_range
from .traces import (
    AttackTrace,
    cost_of_trace,
    estimated_seconds,
    load_trace,
    pair_frequency,
    synthesize_trace,
    trace_stats,
    trace_to_json,
    trace_width,
)

_MIN_RUNS = 10  # least runs per bench stage: at 2^20 values, best of 3-5 cannot resolve 25%


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is reserved for corruption here.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _grid(rows, fmt: str, widths, sep: str) -> list[str]:
    """One line per row: its cells joined by commas for CSV, otherwise each
    right-aligned to its column's width and joined by ``sep``."""
    if fmt == "csv":
        return [",".join(str(x) for x in row) for row in rows]
    return [sep.join(str(x).rjust(w) for x, w in zip(row, widths)) for row in rows]


def _matrix_lines(b: int, rows, fmt: str) -> list[str]:
    """A square matrix whose rows and columns are the signed b-bit values."""
    half = 1 << (b - 1)
    labels = [str(v) for v in range(-half, half)]
    width = max(len(lab) for lab in labels) + 1
    grid = [["", *labels], *([lab, *row] for lab, row in zip(labels, rows))]
    return _grid(grid, fmt, [width] * (len(labels) + 1), "")


def _read_ints(path: str) -> list[int]:
    try:
        tokens = Path(path).read_text(encoding="utf-8").split()
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: not valid UTF-8: {e}") from None
    try:
        return [int(t) for t in tokens]
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def _load_blob(path: str) -> tuple[EncodedBlob, EncodingMap]:
    """The blob stored at path and its code's map."""
    blob = EncodedBlob.from_bytes(Path(path).read_bytes())
    return blob, canonical_map(blob.code_id)


def _print_report(report: VerifyReport) -> None:
    print(json.dumps({
        "clean": report.clean,
        "corrupted_indices": report.corrupted_indices,
        "scanned": report.scanned,
    }, sort_keys=True))


def _gather_traces(args) -> list[AttackTrace]:
    if args.infile:
        return [load_trace(args.infile)]
    paths = sorted(Path(args.trace_dir).glob("*.json"))
    if not paths:
        raise ValueError(f"no *.json traces under {args.trace_dir}")
    return [load_trace(p) for p in paths]


def _stats_dict(traces, encoding=None) -> dict:
    st = trace_stats(traces, encoding)
    return {
        "min": st.min_flips,
        "avg": float(st.avg_flips),
        "max": st.max_flips,
        "estimated_seconds_avg": estimated_seconds(float(st.avg_flips)),
    }


def cmd_codebook(args) -> int:
    m = canonical_map(args.code)
    _emit("\n".join(codebook_lines(m)) + "\n", args.out)
    return 0


def cmd_distances(args) -> int:
    if args.code:
        m = distance_matrix(canonical_map(args.code))
    else:
        m = twos_complement_matrix(args.bits)
    _emit("\n".join(_matrix_lines(m.b, m.entries, args.format)) + "\n", args.out)
    return 0


def cmd_encode(args) -> int:
    m = canonical_map(args.code)
    values = _read_ints(args.infile)
    blob = encode_tensor(m, values, args.layer)
    Path(args.out).write_bytes(blob.to_bytes())
    _say(f"encoded {len(values)} values with {args.code} into {args.out}")
    return 0


def cmd_decode(args) -> int:
    blob, m = _load_blob(args.infile)
    result = decode_tensor(m, blob)
    if isinstance(result, list):
        _emit("\n".join(str(v) for v in result) + ("\n" if result else ""), args.out)
        _say(f"decoded {len(result)} values, clean")
        return 0
    _print_report(result)
    _say(f"corruption detected at {len(result.corrupted_indices)} of "
         f"{result.scanned} indices; no values written")
    return 2


def cmd_verify(args) -> int:
    blob, m = _load_blob(args.infile)
    report = verify_blob(m, blob)
    _print_report(report)
    if report.clean:
        _say(f"{args.infile}: clean ({report.scanned} codewords)")
        return 0
    _say(f"{args.infile}: {len(report.corrupted_indices)} corrupted of {report.scanned}")
    return 2


def cmd_analyze_trace(args) -> int:
    traces = _gather_traces(args)
    b = trace_width(traces)
    out = {
        "traces": len(traces),
        "changes": sum(len(t.changes) for t in traces),
        "b": b,
        "unprotected": _stats_dict(traces),
    }
    if args.code:
        m = canonical_map(args.code)
        out["code"] = args.code
        out["protected"] = _stats_dict(traces, m)
        if out["unprotected"]["avg"]:
            out["amplification"] = out["protected"]["avg"] / out["unprotected"]["avg"]
    if args.pair_freq:  # before the result, so a failed write prints none
        _emit("\n".join(_matrix_lines(b, pair_frequency(traces), "csv")) + "\n",
              args.pair_freq)
        _say(f"pair frequencies written to {args.pair_freq}")
    print(json.dumps(out, sort_keys=True, indent=2))
    _say(f"analyzed {len(traces)} trace(s), {out['changes']} changes")
    return 0


def cmd_simulate(args) -> int:
    trace = synthesize_trace(
        args.bits,
        args.changes,
        msb_fraction=args.msb_fraction,
        seed=args.seed,
    )
    _emit(trace_to_json(trace), args.out)
    cost = cost_of_trace(trace)
    _say(f"synthesized {args.changes} changes (b={args.bits}, seed={args.seed}), "
         f"{cost} unprotected flips")
    return 0


def cmd_overhead(args) -> int:
    ids = [args.code] if args.code else list(CODE_IDS)
    rows = [("code", "b", "n", "overhead_percent", "bits_per_weight")]
    for cid in ids:
        b, n = code_shape(cid)
        rep = overhead_report(cid, b)
        rows.append((cid, b, n, f"{float(rep.memory_overhead_percent):g}",
                     rep.bits_per_weight))
    widths = [max(len(str(x)) for x in col) for col in zip(*rows)]
    _emit("\n".join(_grid(rows, args.format, widths, "  ")) + "\n", args.out)
    return 0


def cmd_bench(args) -> int:
    if args.count < 0:
        raise ValueError(f"--count must be nonnegative, got {args.count}")
    m = canonical_map(args.code)
    lo, hi = value_range(m.b)
    rng = random.Random(args.seed)
    values = [rng.randint(lo, hi) for _ in range(args.count)]
    weights = [rng.gauss(0.0, 1.0) for _ in range(args.count)]
    cfg = QuantConfig(m.b, 3.0 / (hi + 1))  # clamps beyond 3 sigma
    _, quantize_s = _best(lambda: [quantize(w, cfg) for w in weights])
    blob, encode_s = _best(lambda: encode_tensor(m, values, "bench"))
    raw, serialize_s = _best(blob.to_bytes)
    blob, parse_s = _best(lambda: EncodedBlob.from_bytes(raw))
    _, verify_s = _best(lambda: verify_blob(m, blob))
    _, decode_s = _best(lambda: decode_tensor(m, blob))
    # the same blob over random words (nearly every word flagged, padding kept
    # zero), verified as a fresh copy in each run: a blob keeps its dirty result
    noise = bytearray(rng.randbytes(len(blob.payload)))
    if noise:
        noise[-1] &= (0xFF << (8 * len(noise) - blob.n * blob.count)) & 0xFF
    dirty = replace(blob, payload=bytes(noise))
    _, verify_dirty_s = _best(lambda: verify_blob(m, replace(dirty)))
    if args.json:
        print(json.dumps({
            "code": args.code,
            "count": args.count,
            "seed": args.seed,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "seconds": {"quantize": quantize_s, "encode": encode_s, "serialize": serialize_s,
                        "parse": parse_s, "verify": verify_s, "verify_dirty": verify_dirty_s,
                        "decode": decode_s},
        }, sort_keys=True))
        return 0
    print(f"code={args.code} count={args.count} "
          f"encode_s={encode_s:.4f} verify_s={verify_s:.4f} decode_s={decode_s:.4f}")
    return 0


def _best(stage, seconds=0.2):
    """``stage()``'s last result and its best single-run time, run for at
    least ``seconds`` and ``_MIN_RUNS`` times; lazy set-up lands in the first run."""
    times, stop = [], time.perf_counter() + seconds
    while len(times) < _MIN_RUNS or time.perf_counter() < stop:
        t0 = time.perf_counter()
        out = stage()
        times.append(time.perf_counter() - t0)
    return out, min(times)


@cache  # one per process: exclusive groups point back at their parser, a reference cycle
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="flipguard",
                     description="Protect quantized weights with bit-flip-resistant codes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("codebook", cmd_codebook, help="print a code's value-to-codeword table")
    p.add_argument("--code", required=True, choices=CODE_IDS)
    p.add_argument("--out")

    p = add("distances", cmd_distances, help="pairwise bit-flip cost matrix")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--code", choices=CODE_IDS)
    g.add_argument("--bits", type=int, choices=(4, 8),
                   help="plain two's-complement matrix instead of a code's")
    p.add_argument("--format", choices=("table", "csv"), default="table")
    p.add_argument("--out")

    p = add("encode", cmd_encode, help="encode integer values into a blob")
    p.add_argument("--code", required=True, choices=CODE_IDS)
    p.add_argument("--in", dest="infile", required=True,
                   help="text file of whitespace-separated signed integers")
    p.add_argument("--out", required=True)
    p.add_argument("--layer", default="")

    p = add("decode", cmd_decode, help="decode a blob back to values")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")

    p = add("verify", cmd_verify, help="scan a blob for non-codeword slices")
    p.add_argument("--in", dest="infile", required=True)

    p = add("analyze-trace", cmd_analyze_trace, help="replay cost statistics")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--in", dest="infile", help="a single trace file")
    g.add_argument("--trace-dir", help="directory of *.json traces")
    p.add_argument("--code", choices=CODE_IDS,
                   help="also cost the traces under this code's map")
    p.add_argument("--pair-freq", help="write (old,new) counts as CSV here")

    p = add("simulate", cmd_simulate, help="synthesize a trace")
    p.add_argument("--bits", type=int, required=True, choices=(4, 8))
    p.add_argument("--changes", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--msb-fraction", type=float, default=None)
    p.add_argument("--out")

    p = add("overhead", cmd_overhead, help="per-code storage overhead")
    p.add_argument("--code", choices=CODE_IDS)
    p.add_argument("--format", choices=("table", "csv"), default="table")
    p.add_argument("--out")

    p = add("bench", cmd_bench, help="time quantize/encode/verify/decode on random data")
    p.add_argument("--code", required=True, choices=CODE_IDS)
    p.add_argument("--count", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true",
                   help="print every stage's seconds as one JSON object")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.fn(args)
    except CorruptBlobError as e:
        _say(f"corrupt blob: {e}")
        return 2
    except (ValueError, OSError) as e:
        _say(f"error: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
