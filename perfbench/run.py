"""flipguard benchmark: protect, check and attack_cost workloads.

Run from the root of a flipguard checkout; the package is imported from
``src/`` of that checkout, never from an installed copy.

    python3 perfbench/run.py                   # every workload, untraced then traced
    python3 perfbench/run.py --workload check --seed 1 --trace 0

One workload runs per process, single client, closed loop: an op starts when
the previous one has returned. The loop runs whole rounds of ops until
``run_seconds`` of BENCHMARK.json have passed, so every run holds the same op
mix. ``--seconds`` is accepted for callers that pass the run length on the
command line; it must equal ``run_seconds``. ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` its per-layer metrics; the
last line of stdout is the JSON result. Results and spans are also written
under ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

from spans import NullTracer, Tracer, layer_metrics
from workloads import WORKLOADS, make_probe

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = HERE / "out"
MODULES = ("quantize", "codes", "encoding", "blob", "traces", "cli")
# Set-up is repeated at least SETUP_MIN_REPS times and until SETUP_MIN_S
# seconds have gone into it; setup_s is the median.
SETUP_MIN_REPS = 3
SETUP_MIN_S = 4.0
MAP_BUILD_REPS = 5
# A stage whose ns per value at 2^15 values exceeds this multiple of its ns
# per value at 2^10 values grows faster than linearly; it is reported, loudly,
# but does not fail the run.
SCALING_WARN = 1.5
# End-to-end figures printed and recorded beside those of BENCHMARK.json.
# failed_share is 0 and the shares of flips reach 0 or 1 in a healthy run, so
# they are reported here and through "correct"/"failed", not as gated metrics.
DETECTION_METRICS = ("failed_share", "payload_flip_caught_share",
                     "header_flip_caught_share", "header_flip_silent_share")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def fresh_import() -> SimpleNamespace:
    """Import flipguard from scratch, so that each set-up pays for it."""
    for name in [n for n in sys.modules if n == "flipguard" or n.startswith("flipguard.")]:
        del sys.modules[name]
    pkg = importlib.import_module("flipguard")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"flipguard was imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"flipguard.{m}") for m in MODULES})


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    return {
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "seed": seed,
        "commit": git_commit(),
    }


def map_build_times(lib) -> tuple[float, float]:
    """Median seconds to build the six maps, and the six codes, uncached."""
    map_s, code_s = [], []
    ids = lib.codes.CODE_IDS
    for _ in range(MAP_BUILD_REPS):
        lib.codes.build_code.cache_clear()
        lib.encoding.canonical_map.cache_clear()
        t0 = time.perf_counter()
        for cid in ids:
            lib.codes.build_code(cid)
        t1 = time.perf_counter()
        for cid in ids:
            lib.encoding.canonical_map(cid)
        t2 = time.perf_counter()
        code_s.append(t1 - t0)
        map_s.append(t2 - t1)
    return statistics.median(map_s), statistics.median(code_s)


def run_workload(name: str, seed: int, seconds: int, traced: bool, workdir: Path) -> dict:
    cls = WORKLOADS[name]
    t = Tracer() if traced else NullTracer()
    setup_s: list[float] = []
    w = None
    # A traced run sets up once, traced; setup_s comes from untraced runs.
    while not setup_s or (not traced and (len(setup_s) < SETUP_MIN_REPS
                                          or sum(setup_s) < SETUP_MIN_S)):
        w = None
        gc.collect()
        t0 = time.perf_counter()
        lib = fresh_import()
        w = cls(lib, seed, t, None)
        setup_s.append(time.perf_counter() - t0)
    w.prepare_checks()

    rng = random.Random(f"{seed}/schedule")
    op_ns: list[int] = []
    op_input: list[int] = []
    items = stored = failed = rounds = 0
    # The model and inputs live for the whole run; frozen, they are left out
    # of the collector's full passes, whose pauses would land in random ops.
    gc.collect()
    gc.freeze()
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        for x in w.round(rng):
            dt = None
            t0 = time.perf_counter_ns()
            try:
                with t.span("op", workload=name):
                    out = w.run(x, t)
                dt = time.perf_counter_ns() - t0
                if traced:
                    w.stages(x, t)
                ok = w.check(x, out)
                stored += w.stored_bytes(x, out)
            except Exception:
                dt = dt or time.perf_counter_ns() - t0
                ok = False
                if not failed:
                    traceback.print_exc()
            op_ns.append(dt)
            op_input.append(id(x))
            items += w.items(x)
            failed += not ok
        rounds += 1
    gc.unfreeze()
    attempted = len(op_ns)
    extra = w.after_loop(t, workdir)

    # Timings replace each op's time by its input's fastest time over the
    # run. Ops on one input differ only by the host: on a shared machine its
    # speed swings up to 2x in spells of seconds, which would set the mean
    # and every percentile, while the fastest time stays put.
    per_input: dict[int, int] = {}
    for key, dt in zip(op_input, op_ns):
        per_input[key] = min(dt, per_input.get(key, dt))
    best_ns = [per_input[key] for key in op_input]
    q = statistics.quantiles(best_ns, n=100, method="inclusive")
    raw = statistics.quantiles(op_ns, n=100, method="inclusive")
    result = {
        "workload": name,
        "traced": traced,
        "environment": environment(seed),
        "rounds": rounds,
        "ops": attempted,
        "setup_s_each": setup_s,
        "e2e": {
            "setup_s": statistics.median(setup_s),
            "items_per_s": items / (sum(best_ns) / 1e9),
            "op_ms_p50": q[49] / 1e6,
            "op_ms_p90": q[89] / 1e6,
            "items_per_s_per_op": items / (sum(op_ns) / 1e9),
            "op_ms_p50_per_op": raw[49] / 1e6,
            "op_ms_p90_per_op": raw[89] / 1e6,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "bytes_per_value": stored / items,
            "failed_share": failed / attempted,
            **extra,
        },
    }
    if traced:
        # every input of the workload once, the rungs the loop skips included,
        # then small probes for the stages its ops never call
        for probe in [w] + [make_probe(n, lib, seed) for n in cls.probes]:
            checked, bad = probe.probe(t, workdir)
            attempted += checked
            failed += bad
        map_s, code_s = map_build_times(lib)
        result["layers"] = layer_metrics(t.spans, map_s, code_s)
        result["layers"]["harness.traced_items_per_s"] = result["e2e"]["items_per_s"]
        t.dump(OUT / f"spans-{name}-seed{seed}.jsonl")
    result["attempted"] = attempted
    result["failed"] = failed
    result["correct"] = failed == 0 and extra.get("payload_flip_caught_share", 1.0) == 1.0
    return result


def report(result: dict, spec: dict) -> dict:
    """Print every figure by name with its unit; return the contract metrics."""
    env = result["environment"]
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# workload={result['workload']} traced={int(result['traced'])} "
          f"rounds={result['rounds']} ops={result['ops']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    if result["traced"]:
        wanted = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = result["layers"]
        for key in ("blob.pack_words_scaling", "blob.verify_scaling"):
            if values[key] > SCALING_WARN:
                print(f"\n{'!' * 72}\n!! WARNING: {key} = {values[key]:.2f} exceeds "
                      f"{SCALING_WARN}: ns per value grows with layer size\n{'!' * 72}\n",
                      file=sys.stderr)
    else:
        wanted = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = result["e2e"]
        for key in DETECTION_METRICS:
            print(f"{key} = {values[key]:.6g} share" if key in values
                  else f"{key} = n/a (no tampered layers in {result['workload']})")
    metrics = {k: {"value": values[k], "unit": u} for k, u in wanted.items()}
    for k, m in metrics.items():
        print(f"{k} = {m['value']:.6g} {m['unit']}")
    return metrics


def single(args) -> int:
    spec = load_spec()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = report(result, spec)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def suite(args) -> int:
    """Every workload in its own process, untraced then traced."""
    spec = load_spec()
    summary = {}
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
                   "--seed", str(args.seed), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
            sys.stdout.write(proc.stdout)
            summary[w["name"], trace] = json.loads(proc.stdout.splitlines()[-1])
    print("\n# tracing overhead: traced items_per_s / untraced items_per_s")
    for w in spec["workloads"]:
        plain = summary[w["name"], 0]["metrics"]["items_per_s"]["value"]
        traced = summary[w["name"], 1]["metrics"]["harness.traced_items_per_s"]["value"]
        print(f"{w['name']}: {traced / plain:.3f}")
    return 0 if all(r["correct"] for r in summary.values()) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        help="run length; must equal run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "flipguard" / "__init__.py").is_file():
        print(f"error: no flipguard sources under {SRC}; run from the root of a "
              "flipguard checkout", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    run_seconds = load_spec()["run_seconds"]
    if args.seconds not in (None, run_seconds):
        parser.error(f"--seconds must equal run_seconds ({run_seconds}) of BENCHMARK.json")
    args.seconds = run_seconds
    return single(args) if args.workload else suite(args)


if __name__ == "__main__":
    sys.exit(main())
