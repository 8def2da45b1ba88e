import gc
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import flipguard.blob as blob_module
import flipguard.cli as cli_module
from flipguard.cli import _MIN_RUNS, _best, main
from flipguard.encoding import canonical_map
from flipguard.traces import parse_trace

from reference_tables import (
    CODEBOOK_C7_3,
    EXPECTED_FLIPS_4BIT,
    EXPECTED_MATRIX_C7_3,
)

FIXTURE = str(Path(__file__).parent / "data" / "msb_attack_example.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv_matrix(text):
    rows = [line.split(",") for line in text.strip().splitlines()]
    assert rows[0][0] == ""
    return tuple(tuple(int(x) for x in row[1:]) for row in rows[1:])


class TestCodebook:
    def test_pinned_table(self, capsys):
        code, out, _ = run(capsys, "codebook", "--code", "C7_3")
        assert code == 0
        assert out.splitlines() == CODEBOOK_C7_3

    def test_out_file(self, capsys, tmp_path):
        dest = tmp_path / "book.txt"
        code, out, _ = run(capsys, "codebook", "--code", "C8_4", "--out", str(dest))
        assert code == 0 and out == ""
        assert len(dest.read_text().splitlines()) == 16

    def test_unknown_code(self, capsys):
        code, _, err = run(capsys, "codebook", "--code", "C6_2")
        assert code == 1
        assert "invalid choice" in err


class TestDistances:
    def test_code_matrix_csv(self, capsys):
        code, out, _ = run(capsys, "distances", "--code", "C7_3", "--format", "csv")
        assert code == 0
        assert parse_csv_matrix(out) == EXPECTED_MATRIX_C7_3

    def test_plain_twos_complement(self, capsys):
        code, out, _ = run(capsys, "distances", "--bits", "4", "--format", "csv")
        assert code == 0
        assert parse_csv_matrix(out) == EXPECTED_FLIPS_4BIT

    def test_table_format_has_labels(self, capsys):
        code, out, _ = run(capsys, "distances", "--code", "C7_3")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 17
        assert lines[1].lstrip().startswith("-8")

    def test_plain_table_golden(self, capsys):
        code, out, _ = run(capsys, "distances", "--bits", "4")
        assert code == 0
        assert out == "\n".join([
            "    -8 -7 -6 -5 -4 -3 -2 -1  0  1  2  3  4  5  6  7",
            " -8  0  1  1  2  1  2  2  3  1  2  2  3  2  3  3  4",
            " -7  1  0  2  1  2  1  3  2  2  1  3  2  3  2  4  3",
            " -6  1  2  0  1  2  3  1  2  2  3  1  2  3  4  2  3",
            " -5  2  1  1  0  3  2  2  1  3  2  2  1  4  3  3  2",
            " -4  1  2  2  3  0  1  1  2  2  3  3  4  1  2  2  3",
            " -3  2  1  3  2  1  0  2  1  3  2  4  3  2  1  3  2",
            " -2  2  3  1  2  1  2  0  1  3  4  2  3  2  3  1  2",
            " -1  3  2  2  1  2  1  1  0  4  3  3  2  3  2  2  1",
            "  0  1  2  2  3  2  3  3  4  0  1  1  2  1  2  2  3",
            "  1  2  1  3  2  3  2  4  3  1  0  2  1  2  1  3  2",
            "  2  2  3  1  2  3  4  2  3  1  2  0  1  2  3  1  2",
            "  3  3  2  2  1  4  3  3  2  2  1  1  0  3  2  2  1",
            "  4  2  3  3  4  1  2  2  3  1  2  2  3  0  1  1  2",
            "  5  3  2  4  3  2  1  3  2  2  1  3  2  1  0  2  1",
            "  6  3  4  2  3  2  3  1  2  2  3  1  2  1  2  0  1",
            "  7  4  3  3  2  3  2  2  1  3  2  2  1  2  1  1  0",
        ]) + "\n"

    def test_code_table_golden(self, capsys):
        # 257 lines of 1285 characters: every cell is five wide, the width
        # of "-128" plus one; the whole text is pinned by its digest
        code, out, _ = run(capsys, "distances", "--code", "C13_4")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 257
        assert {len(line) for line in lines} == {1285}
        assert lines[0].startswith("      -128 -127 -126 -125") and lines[0].endswith("  126  127")
        assert lines[1].startswith(" -128    0   10   10    4   10")
        assert lines[-1].startswith("  127    8    4    4    8") and lines[-1].endswith("   10    0")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "72c6aaae99bb633c08d530b27e19494c007ce98ca00b42957f83eaf05b9224fe")

    def test_code_and_bits_are_exclusive(self, capsys):
        code, _, err = run(capsys, "distances", "--code", "C7_3", "--bits", "4")
        assert code == 1
        assert "not allowed" in err


class TestEncodeVerifyDecode:
    def encode(self, capsys, tmp_path, values, code_id="C7_3"):
        src = tmp_path / "values.txt"
        src.write_text(" ".join(str(v) for v in values))
        blob_path = tmp_path / "weights.bin"
        code, _, err = run(capsys, "encode", "--code", code_id,
                           "--in", str(src), "--out", str(blob_path))
        assert code == 0 and code_id in err
        return blob_path

    def test_round_trip(self, capsys, tmp_path):
        values = list(range(-8, 8))
        blob_path = self.encode(capsys, tmp_path, values)

        code, out, _ = run(capsys, "verify", "--in", str(blob_path))
        assert code == 0
        assert json.loads(out) == {"clean": True, "corrupted_indices": [],
                                   "scanned": 16}

        code, out, _ = run(capsys, "decode", "--in", str(blob_path))
        assert code == 0
        assert [int(t) for t in out.split()] == values

    def test_decode_to_file(self, capsys, tmp_path):
        blob_path = self.encode(capsys, tmp_path, [3, -5, 0], "C9_4")
        dest = tmp_path / "decoded.txt"
        code, _, _ = run(capsys, "decode", "--in", str(blob_path), "--out", str(dest))
        assert code == 0
        assert [int(t) for t in dest.read_text().split()] == [3, -5, 0]

    def test_bit_flip_is_detected_with_its_index(self, capsys, tmp_path):
        blob_path = self.encode(capsys, tmp_path, list(range(-8, 8)))
        raw = bytearray(blob_path.read_bytes())
        raw[-1] ^= 0x01  # last payload bit = last coordinate of slice 15
        blob_path.write_bytes(raw)

        code, out, _ = run(capsys, "verify", "--in", str(blob_path))
        assert code == 2
        assert json.loads(out) == {"clean": False, "corrupted_indices": [15],
                                   "scanned": 16}

        dest = tmp_path / "decoded.txt"
        code, out, _ = run(capsys, "decode", "--in", str(blob_path), "--out", str(dest))
        assert code == 2
        assert json.loads(out)["corrupted_indices"] == [15]
        assert not dest.exists()

    def test_garbage_file(self, capsys, tmp_path):
        bad = tmp_path / "noise.bin"
        bad.write_bytes(b"not a blob at all")
        code, _, err = run(capsys, "verify", "--in", str(bad))
        assert code == 2
        assert "corrupt blob" in err

    def test_non_utf8_code_id_exits_2(self, capsys, tmp_path):
        blob_path = self.encode(capsys, tmp_path, [1, 2, 3])
        raw = bytearray(blob_path.read_bytes())
        raw[9] ^= 0x80  # top bit of the 'C' in the code id
        blob_path.write_bytes(raw)
        code, out, err = run(capsys, "verify", "--in", str(blob_path))
        assert code == 2
        assert out == ""
        assert "corrupt blob: code_id is not valid UTF-8" in err

    def test_out_of_range_value(self, capsys, tmp_path):
        src = tmp_path / "values.txt"
        src.write_text("99")
        code, _, err = run(capsys, "encode", "--code", "C7_3",
                           "--in", str(src), "--out", str(tmp_path / "x.bin"))
        assert code == 1 and "error" in err

    def test_non_integer_input(self, capsys, tmp_path):
        src = tmp_path / "values.txt"
        src.write_text("1 two 3")
        code, _, err = run(capsys, "encode", "--code", "C7_3",
                           "--in", str(src), "--out", str(tmp_path / "x.bin"))
        assert code == 1 and "values.txt" in err

    def test_non_utf8_input_names_the_file(self, capsys, tmp_path):
        src = tmp_path / "values.txt"
        src.write_bytes(b"\xff\xfe\x7b")
        code, out, err = run(capsys, "encode", "--code", "C7_3",
                             "--in", str(src), "--out", str(tmp_path / "x.bin"))
        assert code == 1 and out == ""
        assert f"error: {src}: not valid UTF-8" in err

    def test_non_utf8_layer_id_is_refused(self, tmp_path):
        # the byte 0xff reaches sys.argv as a lone surrogate, which UTF-8 cannot encode
        src, dest = tmp_path / "values.txt", tmp_path / "x.bin"
        src.write_text("1 2 3")
        proc = subprocess.run(
            [sys.executable, "-m", "flipguard", "encode", "--code", "C7_3",
             "--layer", b"a\xffb", "--in", str(src), "--out", str(dest)],
            capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error: layer_id is not valid UTF-8\n"
        assert not dest.exists()

    def test_missing_input_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "decode", "--in", str(tmp_path / "absent.bin"))
        assert code == 1

    def encode_layer(self, capsys, tmp_path):
        """A 64-value C7_3 blob whose layer id is C7_3.r10."""
        src = tmp_path / "values.txt"
        src.write_text(" ".join(str(i % 16 - 8) for i in range(64)))
        blob_path = tmp_path / "layer.bin"
        code, _, _ = run(capsys, "encode", "--code", "C7_3", "--in", str(src),
                         "--out", str(blob_path), "--layer", "C7_3.r10")
        assert code == 0
        return blob_path.read_bytes()

    def test_every_header_flip_before_the_layer_id_exits_2(self, capsys, tmp_path):
        raw = self.encode_layer(capsys, tmp_path)
        head = raw.index(b"C7_3.r10")  # magic .. layer_id length
        assert head == 25
        damaged = tmp_path / "damaged.bin"
        codes = []
        for bit in range(8 * head):
            flipped = bytearray(raw)
            flipped[bit // 8] ^= 0x80 >> (bit % 8)
            damaged.write_bytes(flipped)
            codes.append(run(capsys, "verify", "--in", str(damaged))[0])
        assert codes == [2] * 200

    @pytest.mark.xfail(raises=AssertionError, strict=True,
                       reason="56 of 264 header flips, all of them layer-id flips, exit 0 "
                              "(CHANGES FOUND line 3, ROADMAP item 1)")
    def test_every_header_flip_exits_2(self, capsys, tmp_path):
        # the layer id included: a flip that leaves it valid UTF-8 reads clean
        raw = self.encode_layer(capsys, tmp_path)
        head = raw.index(b"C7_3.r10") + len(b"C7_3.r10")  # magic .. layer_id
        assert head == 33
        damaged = tmp_path / "damaged.bin"
        codes = []
        for bit in range(8 * head):
            flipped = bytearray(raw)
            flipped[bit // 8] ^= 0x80 >> (bit % 8)
            damaged.write_bytes(flipped)
            codes.append(run(capsys, "verify", "--in", str(damaged))[0])
        assert codes == [2] * 264

    @pytest.mark.parametrize("code_id", ["C7_3", "C8_4", "C9_4", "C12_3", "C13_4", "C14_4"])
    def test_every_single_bit_flip_exits_2(self, capsys, tmp_path, code_id):
        # empty layer id: every bit of header and payload is covered
        raw = self.encode(capsys, tmp_path, range(-5, 6), code_id).read_bytes()
        damaged = tmp_path / "damaged.bin"
        codes = []
        for bit in range(8 * len(raw)):
            flipped = bytearray(raw)
            flipped[bit // 8] ^= 0x80 >> (bit % 8)
            damaged.write_bytes(flipped)
            for command in ("verify", "decode"):
                codes.append(run(capsys, command, "--in", str(damaged))[0])
        assert len(codes) == 16 * len(raw)
        assert set(codes) == {2}

    @pytest.mark.parametrize("offset, mask, message", [
        (9, 0x20, "unknown code id 'c7_3'"),  # 'C' -> 'c'
        (13, 0x01, "header (b=5, n=7) does not match C7_3"),
    ])
    def test_parseable_header_damage_is_corruption(self, capsys, tmp_path,
                                                   offset, mask, message):
        raw = bytearray(self.encode_layer(capsys, tmp_path))
        raw[offset] ^= mask
        damaged = tmp_path / "damaged.bin"
        damaged.write_bytes(raw)
        for command in ("verify", "decode"):
            code, out, err = run(capsys, command, "--in", str(damaged))
            assert code == 2 and out == ""
            assert f"corrupt blob: {message}" in err


class TestAnalyzeTrace:
    def test_fixture_unprotected(self, capsys):
        code, out, _ = run(capsys, "analyze-trace", "--in", FIXTURE)
        assert code == 0
        doc = json.loads(out)
        assert doc["traces"] == 1 and doc["changes"] == 3 and doc["b"] == 4
        assert doc["unprotected"]["min"] == 3
        assert doc["unprotected"]["avg"] == 3.0
        assert doc["unprotected"]["max"] == 3
        assert doc["unprotected"]["estimated_seconds_avg"] == pytest.approx(3 / 0.31)
        assert "protected" not in doc

    def test_fixture_amplification(self, capsys):
        code, out, _ = run(capsys, "analyze-trace", "--in", FIXTURE,
                           "--code", "C7_3")
        doc = json.loads(out)
        assert code == 0
        assert doc["protected"]["avg"] == 21.0
        assert doc["amplification"] == 7.0

    def test_trace_dir_and_pair_freq(self, capsys, tmp_path):
        for seed in (1, 2):
            _, out, _ = run(capsys, "simulate", "--bits", "4", "--changes", "50",
                            "--seed", str(seed),
                            "--out", str(tmp_path / f"t{seed}.json"))
        freq = tmp_path / "pairs.csv"
        code, out, _ = run(capsys, "analyze-trace", "--trace-dir", str(tmp_path),
                           "--pair-freq", str(freq))
        assert code == 0
        doc = json.loads(out)
        assert doc["traces"] == 2 and doc["changes"] == 100
        counts = parse_csv_matrix(freq.read_text())
        assert sum(map(sum, counts)) == 100

    def test_unwritable_pair_freq_prints_no_result(self, capsys, tmp_path):
        code, out, err = run(capsys, "analyze-trace", "--in", FIXTURE,
                             "--pair-freq", str(tmp_path / "missing" / "pairs.csv"))
        assert code == 1 and "error:" in err
        assert out == ""

    def test_mixed_widths_rejected(self, capsys, tmp_path):
        run(capsys, "simulate", "--bits", "4", "--changes", "5",
            "--out", str(tmp_path / "a.json"))
        run(capsys, "simulate", "--bits", "8", "--changes", "5",
            "--out", str(tmp_path / "b.json"))
        code, _, err = run(capsys, "analyze-trace", "--trace-dir", str(tmp_path))
        assert code == 1 and "mix" in err

    def test_empty_dir(self, capsys, tmp_path):
        code, _, err = run(capsys, "analyze-trace", "--trace-dir", str(tmp_path))
        assert code == 1 and "no *.json" in err

    def test_in_and_dir_are_exclusive(self, capsys, tmp_path):
        code, _, _ = run(capsys, "analyze-trace", "--in", FIXTURE,
                         "--trace-dir", str(tmp_path))
        assert code == 1

    def test_bad_trace_reports_path(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"meta": {}, "changes": []}')
        code, _, err = run(capsys, "analyze-trace", "--in", str(bad))
        assert code == 1 and "bad.json" in err

    def test_too_deep_trace_is_bad_input(self, capsys, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        code, out, err = run(capsys, "analyze-trace", "--in", str(deep))
        assert code == 1 and out == ""
        assert f"error: {deep}: not valid JSON" in err

    @pytest.mark.parametrize("flag", ["--in", "--trace-dir"])
    def test_non_utf8_trace_names_the_file(self, capsys, tmp_path, flag):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe\x7b")
        code, out, err = run(capsys, "analyze-trace", flag,
                             str(bad if flag == "--in" else tmp_path))
        assert code == 1 and out == ""
        assert f"error: {bad}: not valid UTF-8" in err


class TestSimulate:
    def test_stdout_trace_parses(self, capsys):
        code, out, _ = run(capsys, "simulate", "--bits", "8", "--changes", "20")
        assert code == 0
        trace = parse_trace(out)
        assert trace.meta.b == 8 and len(trace.changes) == 20

    def test_same_seed_same_file(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "simulate", "--bits", "4", "--changes", "100",
            "--seed", "7", "--out", str(a))
        run(capsys, "simulate", "--bits", "4", "--changes", "100",
            "--seed", "7", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_msb_fraction_passthrough(self, capsys):
        code, out, _ = run(capsys, "simulate", "--bits", "4", "--changes", "30",
                           "--msb-fraction", "1.0")
        trace = parse_trace(out)
        flips = [(c.old ^ c.new) & 0xF for c in trace.changes]
        assert all(f & 0b1000 for f in flips)

    def test_invalid_width(self, capsys):
        code, _, err = run(capsys, "simulate", "--bits", "5", "--changes", "1")
        assert code == 1 and "invalid choice" in err

    def test_negative_count(self, capsys):
        code, _, err = run(capsys, "simulate", "--bits", "4", "--changes", "-3")
        assert code == 1


class TestOverhead:
    def test_all_codes_listed(self, capsys):
        code, out, _ = run(capsys, "overhead", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "code,b,n,overhead_percent,bits_per_weight"
        rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        assert len(rows) == 6
        assert rows["C7_3"][3] == "75"
        assert rows["C8_4"][3] == "100"
        assert rows["C9_4"][3] == "125"
        assert rows["C12_3"][3] == "50"
        assert rows["C13_4"][3] == "62.5"
        assert rows["C14_4"][3] == "75"

    def test_single_code(self, capsys):
        code, out, _ = run(capsys, "overhead", "--code", "C13_4", "--format", "csv")
        lines = out.strip().splitlines()
        assert code == 0 and len(lines) == 2
        assert lines[1] == "C13_4,8,13,62.5,13"


    def test_table_golden(self, capsys):
        code, out, _ = run(capsys, "overhead")
        assert code == 0
        assert out == "\n".join([
            " code  b   n  overhead_percent  bits_per_weight",
            " C7_3  4   7                75                7",
            " C8_4  4   8               100                8",
            " C9_4  4   9               125                9",
            "C12_3  8  12                50               12",
            "C13_4  8  13              62.5               13",
            "C14_4  8  14                75               14",
        ]) + "\n"

    def test_single_code_table_golden(self, capsys):
        code, out, _ = run(capsys, "overhead", "--code", "C13_4")
        assert code == 0
        assert out == (" code  b   n  overhead_percent  bits_per_weight\n"
                       "C13_4  8  13              62.5               13\n")


class TestBench:
    def test_runs_and_reports(self, capsys):
        code, out, _ = run(capsys, "bench", "--code", "C7_3", "--count", "500")
        assert code == 0
        assert "encode_s=" in out and "verify_s=" in out and "decode_s=" in out

    def test_json_reports_every_stage(self, capsys):
        code, out, _ = run(capsys, "bench", "--code", "C14_4", "--count", "3000",
                           "--seed", "3", "--json")
        assert code == 0
        doc = json.loads(out)
        assert {k: doc[k] for k in ("code", "count", "seed")} == {
            "code": "C14_4", "count": 3000, "seed": 3}
        assert doc["python"] and doc["machine"]
        assert sorted(doc["seconds"]) == ["decode", "encode", "parse", "quantize",
                                          "serialize", "verify", "verify_dirty"]
        assert all(t >= 0 for t in doc["seconds"].values())

    @pytest.mark.parametrize("count", ["0", "1"])
    def test_tiny_counts(self, capsys, count):
        code, out, _ = run(capsys, "bench", "--code", "C13_4", "--count", count, "--json")
        assert code == 0
        assert json.loads(out)["count"] == int(count)
        code, out, _ = run(capsys, "bench", "--code", "C7_3", "--count", count)
        assert code == 0 and out.startswith(f"code=C7_3 count={count} encode_s=")

    def test_stage_repeats_for_its_time_and_reports_the_best_run(self):
        calls = []
        out, best = _best(lambda: calls.append(None) or len(calls), seconds=0.02)
        assert len(calls) > 1 and out == len(calls) and 0 <= best < 0.02
        calls.clear()
        out, _ = _best(lambda: calls.append(None) or len(calls), seconds=0)
        assert out == _MIN_RUNS and calls == [None] * _MIN_RUNS

    def test_every_timed_scan_runs(self, capsys, monkeypatch):
        # a blob keeps a sparse dirty scan result: a verify or decode run
        # served from it would skip the payload read and the syndrome pass
        runs, reads, passes = 3, [], []
        read, scan = blob_module._payload_bits, blob_module._scan
        monkeypatch.setattr(cli_module, "_best",
                            lambda stage, seconds=0: ([stage() for _ in range(runs)][-1], 0.0))
        monkeypatch.setattr(blob_module, "_payload_bits", lambda *a: reads.append(a) or read(*a))
        monkeypatch.setattr(blob_module, "_scan", lambda *a: passes.append(a) or scan(*a))
        code, _, _ = run(capsys, "bench", "--code", "C13_4", "--count", "4096", "--json")
        assert code == 0
        # verify, decode and verify_dirty
        assert len(reads) == len(passes) == 3 * runs

    def test_negative_count_is_bad_input(self, capsys):
        code, out, err = run(capsys, "bench", "--code", "C7_3", "--count", "-5")
        assert code == 1 and out == ""
        assert "error: --count must be nonnegative, got -5" in err


class TestUsage:
    def test_no_arguments(self, capsys):
        assert run(capsys, )[0] == 1

    def test_in_process_calls_leave_no_cyclic_garbage(self, capsys):
        # argparse's exclusive groups point back at their parser, so a parser
        # built per call would leave a reference cycle behind every time
        run(capsys, "overhead", "--code", "C7_3")
        gc.collect()
        gc.disable()
        try:
            for argv in (["overhead"], ["codebook", "--code", "C9_4"], ["distances", "--bits", "4"]):
                run(capsys, *argv)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1 and "invalid choice" in err

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "codebook", "--code", "C7_3", "--bogus")
        assert code == 1

    def test_module_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "flipguard", "codebook", "--code", "C7_3"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == CODEBOOK_C7_3
