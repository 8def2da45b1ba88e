"""Acceptance gate: one test per published claim the package must reproduce.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS line per
criterion. Every assertion is exact (zero tolerance) unless the line says
otherwise.
"""
import itertools
import json
import random
import time
from fractions import Fraction

from flipguard.blob import EncodedBlob, overhead_report, pack_words, unpack_words, verify_blob
from flipguard.cli import main
from flipguard.codes import CODE_IDS, build_code, code_shape
from flipguard.encoding import canonical_map, codebook_lines, distance_matrix, twos_complement_matrix
from flipguard.quantize import value_range
from flipguard.traces import (
    AttackTrace,
    TraceMeta,
    WeightChange,
    cost_of_trace,
    synthesize_trace,
    trace_stats,
)

from derivation import pairwise_min_distance
from reference_tables import (
    CODEBOOK_C7_3,
    CODEBOOK_C8_4,
    CODEBOOK_C9_4,
    EXPECTED_FLIPS_4BIT,
    EXPECTED_MATRIX_C7_3,
    EXPECTED_MATRIX_C8_4,
    EXPECTED_MATRIX_C9_4,
    EXPECTED_SHAPES,
)


def report(k, detail):
    print(f"criterion {k}: PASS — {detail}")


def test_criterion_01_codebook_fidelity():
    t0 = time.perf_counter()
    produced = {cid: codebook_lines(canonical_map(cid))
                for cid in ("C7_3", "C8_4", "C9_4")}
    assert produced["C7_3"] == CODEBOOK_C7_3
    assert produced["C8_4"] == CODEBOOK_C8_4
    assert produced["C9_4"] == CODEBOOK_C9_4
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, f"three pinned codebooks bit-exact in {elapsed:.3f}s")


def test_criterion_02_distance_matrix_fidelity():
    pairs = [
        (twos_complement_matrix(4).entries, EXPECTED_FLIPS_4BIT),
        (distance_matrix(canonical_map("C7_3")).entries, EXPECTED_MATRIX_C7_3),
        (distance_matrix(canonical_map("C8_4")).entries, EXPECTED_MATRIX_C8_4),
        (distance_matrix(canonical_map("C9_4")).entries, EXPECTED_MATRIX_C9_4),
    ]
    checked = 0
    for got, want in pairs:
        for grow, wrow in zip(got, want, strict=True):
            for g, w in zip(grow, wrow, strict=True):
                assert g == w
                checked += 1
    assert checked == 4 * 256
    report(2, f"{checked} matrix entries equal across all four tables")


def test_criterion_03_code_parameters():
    t0 = time.perf_counter()
    for cid, b, n, m_size, d in EXPECTED_SHAPES:
        code = build_code(cid)
        words = code.codewords
        assert code.n == n
        assert len(words) == m_size
        assert code_shape(cid) == (b, n)
        brute = pairwise_min_distance(words)
        assert brute == d
        assert code.min_distance == d
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(3, f"six (n, M, d) triples brute-forced in {elapsed:.2f}s")


def test_criterion_04_perfect_code_tiling():
    words = build_code("C7_3").codewords
    covered = set()
    total = 0
    for w in words:
        ball = {w.bits} | {w.bits ^ (1 << k) for k in range(7)}
        assert len(ball) == 8
        assert not (ball & covered)
        covered |= ball
        total += len(ball)
    assert total == 128
    assert covered == set(range(128))
    report(4, "16 radius-1 balls exactly partition the 128 length-7 words")


def test_criterion_05_worked_example_replay():
    trace = AttackTrace(
        TraceMeta("targeted-bfa", 4, "example-cnn", "example-data"),
        (
            WeightChange("conv1", 0, -1, 7),
            WeightChange("conv1", 17, -1, 7),
            WeightChange("fc2", 5, -2, 6),
        ),
    )
    plain = cost_of_trace(trace)
    protected = cost_of_trace(trace, canonical_map("C7_3"))
    assert plain == 3
    assert protected == 21
    report(5, f"replay costs {plain} unprotected, {protected} under C7_3")


def test_criterion_06_msb_amplification():
    kwargs = dict(msb_fraction=1.0, multiflip_weights={1: 1.0}, seed=2026)
    ratios = {}
    for b, ids in ((4, ("C7_3", "C8_4", "C9_4")),
                   (8, ("C12_3", "C13_4", "C14_4"))):
        trace = synthesize_trace(b, 1000, **kwargs)
        plain = trace_stats([trace]).avg_flips
        assert plain == 1000  # every change is a single MSB flip
        for cid in ids:
            m = canonical_map(cid)
            protected = trace_stats([trace], m).avg_flips
            ratios[cid] = protected / plain
    assert ratios["C7_3"] == Fraction(7)
    assert ratios["C8_4"] == Fraction(8)
    assert ratios["C9_4"] == Fraction(8)
    for cid in ("C12_3", "C13_4", "C14_4"):
        m = canonical_map(cid)
        first_image = m.basis_images[0].weight
        heaviest = max(w.weight for w in m.code.codewords)
        assert first_image == heaviest  # brute-force cross-check
        assert ratios[cid] == Fraction(first_image)
    assert [int(ratios[c]) for c in ("C12_3", "C13_4", "C14_4")] == [11, 12, 12]
    report(6, "1000-change ratios exactly 7/8/8 (b=4) and 11/12/12 (b=8)")


def test_criterion_07_memory_overheads():
    expected = {
        "C7_3": Fraction(75),
        "C8_4": Fraction(100),
        "C9_4": Fraction(125),
        "C12_3": Fraction(50),
        "C13_4": Fraction(125, 2),
        "C14_4": Fraction(75),
    }
    for cid, want in expected.items():
        b, n = code_shape(cid)
        rep = overhead_report(cid, b)
        assert rep.memory_overhead_percent == want
        assert rep.bits_per_weight == n
    report(7, "overheads exactly 75/100/125 (b=4) and 50/62.5/75 (b=8) percent")


def test_criterion_08_detection_completeness():
    m7 = canonical_map("C7_3")
    cases = 0
    for w in m7.code.codewords:
        patterns = [1 << k for k in range(7)]
        patterns += [(1 << i) | (1 << j)
                     for i, j in itertools.combinations(range(7), 2)]
        for p in patterns:
            blob = EncodedBlob("C7_3", 4, 7, 1, "", pack_words([w.bits ^ p], 7))
            rep = verify_blob(m7, blob)
            assert not rep.clean and rep.corrupted_indices == (0,)
            cases += 1
    assert cases == 448

    m13 = canonical_map("C13_4")
    rng = random.Random(2026)
    lo, hi = value_range(8)
    count = 100_000
    words = []
    for _ in range(count):
        word = m13.table[rng.randint(lo, hi) & 0xFF].bits
        flips = rng.sample(range(13), rng.randint(1, 3))
        for k in flips:
            word ^= 1 << k
        words.append(word)
    blob = EncodedBlob("C13_4", 8, 13, count, "", pack_words(words, 13))
    rep = verify_blob(m13, blob)
    assert len(rep.corrupted_indices) == count
    report(8, f"448 exhaustive C7_3 cases and {count} sampled C13_4 cases all flagged")


def test_criterion_09_property_suites():
    for cid in ("C7_3", "C8_4", "C9_4"):
        m = canonical_map(cid)
        for u in range(16):
            for v in range(16):
                assert m.table[u ^ v].bits == m.table[u].bits ^ m.table[v].bits
    rng = random.Random(2026)
    for cid in ("C12_3", "C13_4", "C14_4"):
        m = canonical_map(cid)
        for _ in range(10_000):
            u, v = rng.randrange(256), rng.randrange(256)
            assert m.table[u ^ v].bits == m.table[u].bits ^ m.table[v].bits

    from flipguard.blob import decode_tensor, encode_tensor
    tensors = 10_000
    for i in range(tensors):
        cid = CODE_IDS[i % 6]
        m = canonical_map(cid)
        lo, hi = value_range(m.b)
        values = [rng.randint(lo, hi) for _ in range(rng.randrange(0, 9))]
        assert decode_tensor(m, encode_tensor(m, values, "t")) == values

    shapes = [code_shape(cid)[1] for cid in CODE_IDS]
    for count in range(1001):
        n = shapes[count % 6]
        words = [rng.getrandbits(n) for _ in range(count)]
        assert unpack_words(pack_words(words, n), n, count) == words
    report(9, "linearity, 10000 tensor round trips, pack/unpack inverse 0..1000")


def test_criterion_10_full_scale_campaigns_out_of_scope(capsys, tmp_path):
    # Absolute flip counts and attack-success rates from full training runs
    # need trained ResNet/VGG models plus the original attack tooling; at
    # desk scale they are replaced by the replay and amplification checks
    # above plus this structural check of the stats schema.
    traces = [synthesize_trace(8, 50, seed=s) for s in range(20)]
    stats = trace_stats(traces, canonical_map("C13_4"))
    assert isinstance(stats.min_flips, int)
    assert isinstance(stats.avg_flips, Fraction)
    assert isinstance(stats.max_flips, int)
    assert stats.min_flips <= stats.avg_flips <= stats.max_flips

    for seed in range(3):
        trace_path = tmp_path / f"t{seed}.json"
        code = main(["simulate", "--bits", "8", "--changes", "50",
                     "--seed", str(seed), "--out", str(trace_path)])
        assert code == 0
    assert main(["analyze-trace", "--trace-dir", str(tmp_path),
                 "--code", "C13_4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    for section in ("unprotected", "protected"):
        assert set(doc[section]) == {"min", "avg", "max", "estimated_seconds_avg"}
        assert doc[section]["min"] <= doc[section]["avg"] <= doc[section]["max"]
    assert doc["amplification"] > 1
    report(10, "full-scale campaign tables replaced by criteria 5-6 plus "
               "min/avg/max stats schema (needs trained models otherwise)")
