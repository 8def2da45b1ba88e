import copy
import dataclasses
import hashlib
import json
import math
import pickle
import re
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, strategies as st

from flipguard.codes import CODE_IDS, BitWord, code_shape
from flipguard.encoding import (
    EncodingMap,
    _plain,
    canonical_map,
    distance_matrix,
    twos_complement_matrix,
)
from flipguard.quantize import value_range
from flipguard.traces import (
    AttackTrace,
    CostStats,
    DEFAULT_MSB_FRACTION,
    DEFAULT_MULTIFLIP_WEIGHTS,
    ROWHAMMER_FLIPS_PER_SECOND,
    TraceMeta,
    TraceParseError,
    WeightChange,
    cost_of_trace,
    estimated_seconds,
    load_trace,
    pair_frequency,
    parse_trace,
    synthesize_trace,
    trace_stats,
    trace_to_json,
)

from reference_tables import signed_value

FIXTURE = Path(__file__).parent / "data" / "msb_attack_example.json"


GOOD_CHANGE = {"layer": "l", "index": 3, "old": 1, "new": 2}


def without(field):
    return {k: v for k, v in GOOD_CHANGE.items() if k != field}


def make_trace(changes, b=4):
    meta = TraceMeta("test", b, "model", "data")
    return AttackTrace(meta, tuple(WeightChange(*c) for c in changes))


class TestParse:
    def test_fixture_loads(self):
        trace = load_trace(FIXTURE)
        assert trace.meta.b == 4
        assert len(trace.changes) == 3
        assert trace.changes[0] == WeightChange("conv1", 0, -1, 7)

    def test_serialize_parse_identity(self):
        trace = load_trace(FIXTURE)
        assert parse_trace(trace_to_json(trace)) == trace

    def test_not_json(self):
        with pytest.raises(TraceParseError, match="not valid JSON"):
            parse_trace("{nope")

    @pytest.mark.parametrize("text", [
        "[" * 100_000,
        json.dumps({"meta": {"method": "m", "b": 4, "model": "x", "dataset": "d"},
                    "changes": [GOOD_CHANGE]}).replace('"index": 3', '"index": ' + "9" * 5000),
    ], ids=["too_deep", "int_over_the_digit_limit"])
    def test_json_the_decoder_refuses(self, text):
        with pytest.raises(TraceParseError, match="not valid JSON"):
            parse_trace(text)

    def test_top_level_must_be_object(self):
        with pytest.raises(TraceParseError, match="top level"):
            parse_trace("[1, 2]")

    def test_missing_meta_field(self):
        with pytest.raises(TraceParseError, match="missing field 'dataset'"):
            parse_trace('{"meta": {"method": "m", "b": 4, "model": "x"}, "changes": []}')

    def test_unsupported_width(self):
        doc = {"meta": {"method": "m", "b": 5, "model": "x", "dataset": "d"},
               "changes": []}
        with pytest.raises(TraceParseError, match="meta.b"):
            parse_trace(json.dumps(doc))

    def make_doc(self, **change):
        base = {"layer": "l", "index": 0, "old": -1, "new": 7}
        base.update(change)
        return json.dumps({
            "meta": {"method": "m", "b": 4, "model": "x", "dataset": "d"},
            "changes": [base],
        })

    def test_out_of_range_value_names_the_path(self):
        with pytest.raises(TraceParseError, match=r"changes\[0\].new"):
            parse_trace(self.make_doc(new=9))

    def test_bool_is_not_an_integer(self):
        with pytest.raises(TraceParseError, match=r"changes\[0\].old"):
            parse_trace(self.make_doc(old=True))

    def test_string_index(self):
        with pytest.raises(TraceParseError, match=r"changes\[0\].index"):
            parse_trace(self.make_doc(index="0"))

    def test_negative_index(self):
        with pytest.raises(TraceParseError, match="nonnegative"):
            parse_trace(self.make_doc(index=-1))

    def test_no_op_change(self):
        with pytest.raises(TraceParseError, match="both -1"):
            parse_trace(self.make_doc(new=-1))

    def test_later_change_out_of_range_names_its_path(self):
        doc = json.loads(self.make_doc())
        doc["changes"].append({"layer": "l", "index": 1, "old": 0, "new": 8})
        with pytest.raises(TraceParseError, match=r"changes\[1\]\.new"):
            parse_trace(json.dumps(doc))

    @pytest.mark.parametrize("entry, message", [
        ([1, 2], "changes[3]: expected object, got list"),
        ("x", "changes[3]: expected object, got str"),
        (None, "changes[3]: expected object, got NoneType"),
        (without("layer"), "changes[3]: missing field 'layer'"),
        (without("index"), "changes[3]: missing field 'index'"),
        (without("old"), "changes[3]: missing field 'old'"),
        (without("new"), "changes[3]: missing field 'new'"),
        ({**GOOD_CHANGE, "layer": 1}, "changes[3].layer: expected str, got int"),
        ({**GOOD_CHANGE, "index": "3"}, "changes[3].index: expected int, got str"),
        ({**GOOD_CHANGE, "index": 3.0}, "changes[3].index: expected int, got float"),
        ({**GOOD_CHANGE, "old": "1"}, "changes[3].old: expected int, got str"),
        ({**GOOD_CHANGE, "new": None}, "changes[3].new: expected int, got NoneType"),
        ({**GOOD_CHANGE, "layer": True}, "changes[3].layer: expected str, got bool"),
        ({**GOOD_CHANGE, "index": True}, "changes[3].index: expected int, got bool"),
        ({**GOOD_CHANGE, "old": False}, "changes[3].old: expected int, got bool"),
        ({**GOOD_CHANGE, "new": True}, "changes[3].new: expected int, got bool"),
        ({**GOOD_CHANGE, "index": -1}, "changes[3]: index must be nonnegative, got -1"),
        ({**GOOD_CHANGE, "new": 1}, "changes[3]: old and new are both 1"),
        # several faults: the first field in layer, index, old, new order wins
        ({"index": "3"}, "changes[3]: missing field 'layer'"),
        ({**without("old"), "index": -1}, "changes[3]: missing field 'old'"),
    ])
    def test_bad_change_messages(self, entry, message):
        good = [{**GOOD_CHANGE, "index": i} for i in range(3)]
        doc = {"meta": {"method": "m", "b": 4, "model": "x", "dataset": "d"},
               "changes": good + [entry]}
        with pytest.raises(TraceParseError) as info:
            parse_trace(json.dumps(doc))
        assert str(info.value) == message

    def test_first_fault_wins(self):
        doc = json.loads(self.make_doc(old=-9))
        doc["changes"].append({"layer": "l", "index": -1, "old": 0, "new": 1})
        with pytest.raises(TraceParseError) as info:
            parse_trace(json.dumps(doc))
        assert str(info.value) == "changes[0].old: expected integer in [-8, 7], got -9"

    def test_shape_errors_come_before_value_errors(self):
        doc = {"meta": {"method": "m", "b": 5, "model": "x", "dataset": "d"},
               "changes": [{**GOOD_CHANGE, "new": 1}, without("old")]}
        with pytest.raises(TraceParseError) as info:
            parse_trace(json.dumps(doc))
        assert str(info.value) == "changes[1]: missing field 'old'"

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceParseError):
            load_trace(tmp_path / "absent.json")

    def test_non_utf8_file_names_the_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe\x7b")
        with pytest.raises(TraceParseError, match=f"^{re.escape(str(bad))}: not valid UTF-8"):
            load_trace(bad)

    def test_file_errors_name_the_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}", encoding="utf-8")
        with pytest.raises(TraceParseError, match="bad.json"):
            load_trace(bad)


class TestCost:
    def test_worked_example(self):
        trace = load_trace(FIXTURE)
        assert cost_of_trace(trace) == 3
        assert cost_of_trace(trace, canonical_map("C7_3")) == 21

    def test_worked_example_under_the_other_4bit_maps(self):
        trace = load_trace(FIXTURE)
        # all three changes are pure sign flips, so cost = 3 * MSB weight
        assert cost_of_trace(trace, canonical_map("C8_4")) == 24
        assert cost_of_trace(trace, canonical_map("C9_4")) == 24

    def test_single_change_costs(self):
        trace = make_trace([("l", 0, -1, 7)])
        assert cost_of_trace(trace) == 1
        assert cost_of_trace(trace, canonical_map("C7_3")) == 7

    def test_empty_trace_costs_nothing(self):
        assert cost_of_trace(make_trace([])) == 0

    def test_width_mismatch(self):
        trace = load_trace(FIXTURE)
        with pytest.raises(ValueError, match="8-bit"):
            cost_of_trace(trace, canonical_map("C12_3"))

    def test_width_mismatch_on_an_empty_trace(self):
        with pytest.raises(ValueError, match="8-bit"):
            cost_of_trace(make_trace([]), canonical_map("C12_3"))

    @pytest.mark.parametrize("code_id", [None, "C7_3"])
    def test_out_of_range_change_is_rejected(self, code_id):
        m = code_id and canonical_map(code_id)
        # the trace refuses the change, so no representation ever costs it
        with pytest.raises(ValueError, match=r"changes\[0\]\.old: .* got 100"):
            cost_of_trace(make_trace([("x", 0, 100, 3)]), m)

    @given(st.integers(-8, 7), st.integers(-8, 7))
    def test_change_cost_equals_matrix_entry(self, old, new):
        if old == new:
            return
        trace = make_trace([("l", 0, old, new)])
        for code_id in ("C7_3", "C9_4"):
            m = canonical_map(code_id)
            assert cost_of_trace(trace, m) == distance_matrix(m).entries[old + 8][new + 8]
        assert cost_of_trace(trace) == ((old ^ new) & 0xF).bit_count()

    def test_cost_is_additive_over_concatenation(self):
        a = synthesize_trace(4, 40, seed=11)
        b = synthesize_trace(4, 25, seed=12)
        joined = AttackTrace(a.meta, a.changes + b.changes)
        m = canonical_map("C7_3")
        assert cost_of_trace(joined, m) == cost_of_trace(a, m) + cost_of_trace(b, m)


def reference_cost(old, new, b, m=None):
    """The pairwise formula: flips between the two stored words."""
    mask = (1 << b) - 1
    if m is None:
        return ((old & mask) ^ (new & mask)).bit_count()
    return (m.table[old & mask].bits ^ m.table[new & mask].bits).bit_count()


class TestCostDifferential:
    """The linear kernel against the pairwise formula it replaced."""

    @pytest.mark.parametrize("b, code_id",
                             [(4, None), (8, None), *((code_shape(c)[0], c) for c in CODE_IDS)])
    def test_every_change(self, b, code_id):
        m = code_id and canonical_map(code_id)
        matrix = distance_matrix(m) if m else twos_complement_matrix(b)
        half = 1 << (b - 1)
        for old in range(-half, half):
            for new in range(-half, half):
                if old == new:
                    continue
                cost = cost_of_trace(make_trace([("l", 0, old, new)], b), m)
                entry = matrix.entries[old + half][new + half]
                assert cost == reference_cost(old, new, b, m) == entry

    @pytest.mark.parametrize("b", [4, 8])
    def test_traces(self, b):
        traces = [synthesize_trace(b, 500, seed=s) for s in range(4)]
        maps = [canonical_map(c) for c in CODE_IDS if canonical_map(c).b == b]
        for m in (None, *maps):
            costs = [sum(reference_cost(c.old, c.new, b, m) for c in t.changes)
                     for t in traces]
            assert [cost_of_trace(t, m) for t in traces] == costs
            assert trace_stats(traces, m) == CostStats(
                min(costs), Fraction(sum(costs), len(costs)), max(costs))


class TestStats:
    def test_min_avg_max(self):
        t1 = make_trace([("l", 0, -1, 7), ("l", 1, 0, 1)])       # 1 + 1 + ... = 2
        t2 = make_trace([("l", 0, 0, -1), ("l", 1, -8, 7), ("l", 2, 3, 1)])
        stats = trace_stats([t1, t2])
        costs = [cost_of_trace(t1), cost_of_trace(t2)]
        assert stats.min_flips == min(costs)
        assert stats.max_flips == max(costs)
        assert stats.avg_flips == Fraction(sum(costs), 2)

    def test_avg_is_exact(self):
        traces = [make_trace([("l", 0, -1, 7)]),
                  make_trace([("l", 0, -1, 7), ("l", 1, -1, 7)]),
                  make_trace([("l", 0, 0, 1), ("l", 1, 0, 1)])]
        st_ = trace_stats(traces, canonical_map("C7_3"))
        assert st_.avg_flips == Fraction(7 + 14 + 8, 3)

    def test_empty_input(self):
        with pytest.raises(ValueError, match="at least one trace"):
            trace_stats([])

    def test_mixed_widths_are_rejected(self):
        traces = [synthesize_trace(4, 10, seed=1), synthesize_trace(8, 10, seed=1)]
        with pytest.raises(ValueError, match="mix bit widths"):
            trace_stats(traces)

    def test_ordering_invariant(self):
        traces = [synthesize_trace(8, 30, seed=s) for s in range(5)]
        stats = trace_stats(traces, canonical_map("C13_4"))
        assert stats.min_flips <= stats.avg_flips <= stats.max_flips


class TestSynthesize:
    def test_deterministic(self):
        a = synthesize_trace(4, 200, seed=42)
        b = synthesize_trace(4, 200, seed=42)
        assert a == b
        assert trace_to_json(a) == trace_to_json(b)

    @pytest.mark.parametrize("b, seed, digest", [
        (4, 0, "129b71b7657ec397ea2e8c187ffd269686a55f5fe2bae977da3082e5662e1164"),
        (4, 7, "abbec5807ee0752c162b946a32c73db151654996793176c4e907edd1714aed44"),
        (4, 12345, "9da35076a41b7285d4d943e0021c9a6a4cb64d62cad3d5b07504e79b80d6b87f"),
        (8, 0, "bc2e4e555d67ab58458af4e2aadbe806398bf36b06c944b40b5f71e4692c2695"),
        (8, 7, "5f97424e552425205d9c6392207862199bf3d0789b7443b1d354beed8b7bad95"),
        (8, 12345, "b30a0585a1e29fd11ff48b2cfae64bd9f243d0ed73ed96ee48bbbdf170ff7283"),
    ])
    def test_golden_output(self, b, seed, digest):
        text = trace_to_json(synthesize_trace(b, 2000, seed=seed))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("b, options, digest", [
        (4, {"msb_fraction": 0.0},
         "0107678c5fd5c4ed7b75eb7e40fcd846eb4a95dce306c7e08e66143b4ef173af"),
        (4, {"msb_fraction": 1.0},
         "a67b9185fb5a82160bfeeeafed2c9320ae59d3fdd85a4ba4f233a4a59892f9e6"),
        (8, {"msb_fraction": 0.0},
         "64090b78fd2976b72ef979dce2a39a1b21cddb19648a1a22bf9ace86f9fd8086"),
        (8, {"msb_fraction": 1.0},
         "b7820bb2032d74b3b2681ab159e5f9640325027629625600313f7e8284ce17bb"),
        (4, {"multiflip_weights": {1: 0.25, 3: 0.25, 4: 0.5}},
         "d539373870b7704b7e9d57fb144b6293ee4b200918a726d41c0fc0cbf11b8c3e"),
        (8, {"multiflip_weights": {2: 0.3, 7: 0.2, 8: 0.5}},
         "7e30ea087e39a97037ab6d7fc1c86214d9d228df825d9a0e6b2265a4953941ac"),
        (4, {"multiflip_weights": {4: 1.0}},
         "4eb01e8bc2150cb52166c1563b4c6078c7b84819ef3b36eec3f18b1ad4dc0703"),
        (8, {"multiflip_weights": {8: 1.0}},
         "5e891665b9eba3e0fd0ce5f1a9e99ad3f2fe8f377662450695493b4f2df05e1a"),
    ], ids=["b4-msb0", "b4-msb1", "b8-msb0", "b8-msb1", "b4-k134", "b8-k278", "b4-k4", "b8-k8"])
    def test_golden_output_of_other_options(self, b, options, digest):
        # the sign-bit share at both ends, and flip counts up to k = b
        text = trace_to_json(synthesize_trace(b, 2000, seed=3, **options))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_seed_changes_the_trace(self):
        assert synthesize_trace(4, 200, seed=1) != synthesize_trace(4, 200, seed=2)

    @pytest.mark.parametrize("b", [4, 8])
    def test_changes_are_wellformed(self, b):
        trace = synthesize_trace(b, 300, seed=9)
        assert trace.meta.b == b
        assert len(trace.changes) == 300
        half = 1 << (b - 1)
        for i, c in enumerate(trace.changes):
            assert c.index == i
            assert c.old != c.new
            assert -half <= c.old < half
            assert -half <= c.new < half

    def test_pure_msb_mode(self):
        trace = synthesize_trace(
            4, 500, msb_fraction=1.0, multiflip_weights={1: 1.0}, seed=5
        )
        for c in trace.changes:
            assert ((c.old ^ c.new) & 0xF) == 0b1000

    def test_msb_never_first_when_fraction_is_zero(self):
        trace = synthesize_trace(
            4, 500, msb_fraction=0.0, multiflip_weights={1: 1.0}, seed=5
        )
        for c in trace.changes:
            diff = (c.old ^ c.new) & 0xF
            assert diff != 0b1000 and diff.bit_count() == 1

    def test_fixed_flip_count(self):
        trace = synthesize_trace(4, 400, multiflip_weights={2: 1.0}, seed=3)
        assert all(((c.old ^ c.new) & 0xF).bit_count() == 2 for c in trace.changes)

    def test_default_calibration_is_visible_in_the_output(self):
        # deterministic seed, so these windows are stable
        trace = synthesize_trace(4, 4000, seed=0)
        singles = [c for c in trace.changes if ((c.old ^ c.new) & 0xF).bit_count() == 1]
        assert 0.80 < len(singles) / 4000 < 0.90
        msb_singles = sum(1 for c in singles if (c.old ^ c.new) & 0x8)
        assert abs(msb_singles / len(singles) - DEFAULT_MSB_FRACTION[4]) < 0.04

    def test_validation(self):
        with pytest.raises(ValueError, match="num_changes must be nonnegative"):
            synthesize_trace(4, -1, seed=0)
        with pytest.raises(ValueError, match=r"msb_fraction must lie in \[0, 1\], got 1\.5$"):
            synthesize_trace(4, 1, msb_fraction=1.5, seed=0)
        with pytest.raises(ValueError, match=r"flip count 5 outside 1\.\.4$"):
            synthesize_trace(4, 1, multiflip_weights={5: 1.0}, seed=0)
        with pytest.raises(ValueError, match=r"multiflip weights sum to 0\.5, expected 1$"):
            synthesize_trace(4, 1, multiflip_weights={1: 0.5}, seed=0)
        with pytest.raises(ValueError, match="weight for 2 flips is negative$"):
            synthesize_trace(4, 1, multiflip_weights={1: 1.5, 2: -0.5}, seed=0)
        with pytest.raises(ValueError, match="multiflip_weights must not be empty$"):
            synthesize_trace(4, 1, multiflip_weights={}, seed=0)
        with pytest.raises(ValueError, match=r"bit width must be one of \(4, 8\), got 16$"):
            synthesize_trace(16, 1, seed=0)
        for num, kind in ((3.0, "float"), (True, "bool"), ("3", "str"), (None, "NoneType")):
            with pytest.raises(ValueError, match=f"num_changes: expected int, got {kind}$"):
                synthesize_trace(4, num, seed=0)

    @pytest.mark.parametrize("weights, k", [
        ({1: float("nan")}, 1),
        ({1: 1.0, 2: float("nan")}, 2),
        ({1: float("inf"), 2: float("-inf")}, 1),
    ])
    def test_non_finite_weights_rejected(self, weights, k):
        with pytest.raises(ValueError, match=f"weight for {k} flips is not finite"):
            synthesize_trace(4, 1, multiflip_weights=weights, seed=0)

    def test_default_weights_are_distributions(self):
        for b, weights in DEFAULT_MULTIFLIP_WEIGHTS.items():
            assert abs(sum(weights.values()) - 1.0) < 1e-12
            assert set(weights) <= set(range(1, b + 1))


def reference_to_json(trace):
    """The serializer trace_to_json replaced, on the pure-Python indent encoder."""
    doc = {"meta": trace.meta._asdict(), "changes": [c._asdict() for c in trace.changes]}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


class TestSerializeDifferential:
    """trace_to_json against ``json.dumps(doc, sort_keys=True, indent=2)``:
    the same text for any string in the ids, and for an empty trace."""

    @pytest.mark.parametrize("text", [
        'say "hi"', "back\\slash\\", "tab\tnew\nline\r\x00\x1f\x7f", "caf\xe9",
        "中文", "\U0001f600", "lone \ud800", "", "/<script>",
    ])
    def test_layer_and_meta_strings(self, text):
        trace = AttackTrace(TraceMeta(text, 8, text, text), (
            WeightChange(text, 0, -128, 127), WeightChange("l", 1 << 70, 1, -1)))
        assert trace_to_json(trace) == reference_to_json(trace)

    @pytest.mark.parametrize("b", [4, 8])
    def test_empty_trace(self, b):
        trace = AttackTrace(TraceMeta("m", b, "x", "d"), ())
        text = trace_to_json(trace)
        assert text == reference_to_json(trace)
        assert '\n  "changes": [],\n' in text and parse_trace(text) == trace

    @given(st.text(), st.lists(st.tuples(
        st.text(), st.integers(min_value=0), st.integers(-8, 7), st.integers(-8, 7),
    ).filter(lambda c: c[2] != c[3]), max_size=4))
    def test_any_strings(self, text, changes):
        trace = AttackTrace(TraceMeta(text, 4, "x", text), tuple(WeightChange(*c) for c in changes))
        assert trace_to_json(trace) == reference_to_json(trace)


class TestPairFrequency:
    def test_fixture_counts(self):
        counts = pair_frequency([load_trace(FIXTURE)])
        assert len(counts) == 16 and all(len(row) == 16 for row in counts)
        assert counts[(-1) + 8][7 + 8] == 2
        assert counts[(-2) + 8][6 + 8] == 1
        assert sum(map(sum, counts)) == 3

    def test_diagonal_is_empty(self):
        counts = pair_frequency([synthesize_trace(4, 500, seed=8)])
        assert all(counts[i][i] == 0 for i in range(16))
        assert sum(map(sum, counts)) == 500

    def test_mixed_widths_rejected(self):
        with pytest.raises(ValueError):
            pair_frequency([synthesize_trace(4, 1, seed=0),
                            synthesize_trace(8, 1, seed=0)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pair_frequency([])

    def test_plain_tuple_changes_are_counted(self):
        # AttackTrace accepts a change as any 4-tuple, so its readers must too
        trace = AttackTrace(TraceMeta("m", 4, "x", "d"), [("l", 0, 1, 2)])
        counts = pair_frequency([trace])
        assert counts[1 + 8][2 + 8] == 1
        assert sum(map(sum, counts)) == 1


class TestWallClock:
    def test_thirty_one_flips_take_about_100_seconds(self):
        assert estimated_seconds(31) == pytest.approx(100.0, rel=1e-9)

    def test_scales_linearly(self):
        assert estimated_seconds(62) == pytest.approx(2 * estimated_seconds(31))

    def test_rate_constant(self):
        assert ROWHAMMER_FLIPS_PER_SECOND == 0.31

    def test_negative_flips(self):
        with pytest.raises(ValueError, match="flip count must be nonnegative"):
            estimated_seconds(-1)
        for flips in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"flip count must be finite, got {flips}$"):
                estimated_seconds(flips)


class TestChangeValidation:
    """AttackTrace checks built traces with the messages parse_trace gives."""

    def check(self, changes, message, b=4):
        with pytest.raises(ValueError) as info:
            make_trace(changes, b)
        assert str(info.value) == message

    def test_bad_width_rejected(self):
        self.check([], "meta.b: bit width must be one of (4, 8), got 5", b=5)

    def test_no_op_rejected(self):
        self.check([("l", 0, 3, 3)], "changes[0]: old and new are both 3")

    def test_negative_index_rejected(self):
        self.check([("l", -1, 0, 1)], "changes[0]: index must be nonnegative, got -1")

    def test_first_bad_change_wins(self):
        self.check([("l", 0, 8, 0), ("l", -1, 0, 1)],
                   "changes[0].old: expected integer in [-8, 7], got 8")

    @pytest.mark.parametrize("changes, message", [
        # a value fault before a short record: the value fault comes first
        ([("l", 0, 9, 0), ("l", 0, 1)], "changes[0].old: expected integer in [-8, 7], got 9"),
        ([("l", 0, 1, 2), ("l", 0, 1)],
         "changes[1]: expected 4 fields (layer, index, old, new), got 3"),
        ([("l", 0, 1, 2, 3)], "changes[0]: expected 4 fields (layer, index, old, new), got 5"),
        ([("l", 0, 1, 2), ()], "changes[1]: expected 4 fields (layer, index, old, new), got 0"),
        ([("l", 0, 1, 2), 7], "changes[1]: expected 4 fields (layer, index, old, new), got int"),
        ([None, ("l", 0, 9, 0)],
         "changes[0]: expected 4 fields (layer, index, old, new), got NoneType"),
        ([("l", -1, 1, 2), 7], "changes[0]: index must be nonnegative, got -1"),
        # a one-shot iterator is read once, so the fault named is the next change's
        ([iter(("l", 0, 1, 2)), ("l", 1, 1, 9)],
         "changes[1].new: expected integer in [-8, 7], got 9"),
        # changes that cannot be iterated at all are named as a whole
        (None, "changes: expected a sequence of changes, got NoneType"),
        (5, "changes: expected a sequence of changes, got int"),
    ], ids=["value-then-short", "short", "long", "empty", "int", "None-first", "index-then-int",
            "iterator-then-range", "changes-None", "changes-int"])
    def test_malformed_records_rejected_in_order(self, changes, message):
        with pytest.raises(ValueError) as info:
            AttackTrace(TraceMeta("m", 4, "x", "d"), changes)
        assert type(info.value) is ValueError
        assert str(info.value) == message

    def test_meta_fault_wins_over_changes_fault(self):
        with pytest.raises(ValueError) as info:
            AttackTrace(TraceMeta("m", 3, "x", "d"), None)
        assert type(info.value) is ValueError
        assert str(info.value) == "meta.b: bit width must be one of (4, 8), got 3"

    def test_type_error_inside_changes_propagates(self):
        # only a changes value that cannot be iterated is renamed; a fault
        # raised while iterating one is the iterable's own
        def changes():
            yield ("l", 0, 1, 2)
            raise TypeError("from inside")
        with pytest.raises(TypeError, match="^from inside$"):
            AttackTrace(TraceMeta("m", 4, "x", "d"), changes())

    def test_records_are_plain_tuples(self):
        assert WeightChange("l", 0, 3, 4) == ("l", 0, 3, 4)
        assert TraceMeta("m", 4, "x", "d") == ("m", 4, "x", "d")
        # a record's own fields are not checked until it joins a trace
        assert TraceMeta("m", 5, "x", "d").b == 5

    def test_changes_are_stored_as_a_tuple(self):
        meta = TraceMeta("m", 4, "x", "d")
        given_changes = [WeightChange("l", 0, 1, 2)]
        trace = AttackTrace(meta, given_changes)
        assert trace.changes == (WeightChange("l", 0, 1, 2),)
        # neither the caller's list nor the trace can grow a change unchecked
        given_changes.append(WeightChange("l", 1, -1, 9))
        with pytest.raises(AttributeError):
            trace.changes.append(WeightChange("l", 1, -1, 9))
        assert cost_of_trace(trace) == 2
        assert AttackTrace(meta, trace.changes).changes is trace.changes

    def test_list_changes_are_stored_as_records(self):
        meta = TraceMeta("m", 4, "x", "d")
        given_change = ["l", 0, 1, 2]
        trace = AttackTrace(meta, [given_change, iter(("l", 1, -8, 7))])
        given_change[3] = 99  # the check saw 2, and the trace keeps 2
        assert trace.changes == (WeightChange("l", 0, 1, 2), WeightChange("l", 1, -8, 7))
        assert [type(c) for c in trace.changes] == [WeightChange, WeightChange]
        assert parse_trace(trace_to_json(trace)) == trace
        assert cost_of_trace(trace) == 2 + 4

    @pytest.mark.parametrize("change, message", [
        (("l", 0, 1.0, 2), "changes[0].old: expected int, got float"),
        (("l", 0, True, 2), "changes[0].old: expected int, got bool"),
        (("l", 0, 1, 2.0), "changes[0].new: expected int, got float"),
        (("l", 1.0, 1, 2), "changes[0].index: expected int, got float"),
        (("l", False, 1, 2), "changes[0].index: expected int, got bool"),
        (("l", "0", 1, 2), "changes[0].index: expected int, got str"),
    ], ids=["old-float", "old-bool", "new-float", "index-float", "index-bool", "index-str"])
    def test_non_int_fields_rejected(self, change, message):
        self.check([change], message)
        doc = {"meta": {"method": "m", "b": 4, "model": "x", "dataset": "d"},
               "changes": [dict(zip(("layer", "index", "old", "new"), change))]}
        with pytest.raises(TraceParseError) as info:
            parse_trace(json.dumps(doc))
        assert str(info.value) == message

    @pytest.mark.parametrize("layer", [1, None, True, 1.5], ids=["int", "None", "bool", "float"])
    def test_non_str_layer_rejected(self, layer):
        message = f"changes[0].layer: expected str, got {type(layer).__name__}"
        self.check([(layer, 0, 1, 2)], message)
        doc = {"meta": {"method": "m", "b": 4, "model": "x", "dataset": "d"},
               "changes": [{**GOOD_CHANGE, "layer": layer}]}
        with pytest.raises(TraceParseError) as info:
            parse_trace(json.dumps(doc))
        assert str(info.value) == message

    @pytest.mark.parametrize("meta, message", [
        ((None, 4, "x", "d"), "meta.method: expected str, got NoneType"),
        (("m", 4.0, "x", "d"), "meta.b: expected int, got float"),
        (("m", 8.0, "x", "d"), "meta.b: expected int, got float"),
        (("m", True, "x", "d"), "meta.b: expected int, got bool"),
        (("m", "4", "x", "d"), "meta.b: expected int, got str"),
        (("m", 4, 7, "d"), "meta.model: expected str, got int"),
        (("m", 4, "x", ["d"]), "meta.dataset: expected str, got list"),
        # several faults: the first field in method, b, model, dataset order wins
        ((1, 5.0, 2, 3), "meta.method: expected str, got int"),
        (("m", 5, 2, "d"), "meta.model: expected str, got int"),
    ], ids=["method-None", "b-float-4", "b-float-8", "b-bool", "b-str", "model-int",
            "dataset-list", "method-first", "types-before-width"])
    def test_bad_meta_rejected_like_parse_trace(self, meta, message):
        with pytest.raises(ValueError) as info:
            AttackTrace(TraceMeta(*meta), (WeightChange("l", 0, 1, 2),))
        assert str(info.value) == message
        doc = {"meta": dict(zip(TraceMeta._fields, meta)), "changes": [GOOD_CHANGE]}
        with pytest.raises(TraceParseError) as info:
            parse_trace(json.dumps(doc))
        assert str(info.value) == message

    NUMBERS = st.one_of(st.integers(-9, 9), st.booleans(), st.floats(-9, 9))

    @given(st.sampled_from([4, 8]),
           st.lists(st.tuples(st.just("l"), NUMBERS, NUMBERS, NUMBERS), max_size=3))
    def test_built_trace_round_trips_or_fails_at_construction(self, b, changes):
        try:
            trace = make_trace(changes, b)
        except ValueError:
            return
        assert parse_trace(trace_to_json(trace)) == trace

    JSON_SCALARS = st.one_of(st.text(max_size=3), st.integers(-9, 9), st.booleans(),
                             st.floats(-9, 9), st.none())

    @given(st.tuples(JSON_SCALARS, st.one_of(st.sampled_from([4, 8, 4.0, 8.0]), JSON_SCALARS),
                     JSON_SCALARS, JSON_SCALARS),
           st.lists(st.tuples(JSON_SCALARS, st.integers(0, 9), st.integers(-8, 7),
                              st.integers(-8, 7)), max_size=3))
    def test_any_built_trace_round_trips_or_fails_at_construction(self, meta, changes):
        try:
            trace = AttackTrace(TraceMeta(*meta), tuple(WeightChange(*c) for c in changes))
        except ValueError:
            return
        assert parse_trace(trace_to_json(trace)) == trace

    def test_plain_tuple_meta_rejected(self):
        with pytest.raises(ValueError) as info:
            AttackTrace(("m", 4, "x", "d"), ())
        assert str(info.value) == "meta: expected TraceMeta, got tuple"

    def test_trace_range_check(self):
        meta = TraceMeta("m", 4, "x", "d")
        with pytest.raises(ValueError):
            AttackTrace(meta, (WeightChange("l", 0, -9, 0),))


def reference_want(obj, key, kind, where):
    """Frozen copy of parse_trace's field check."""
    if key not in obj:
        raise TraceParseError(f"{where}: missing field {key!r}")
    val = obj[key]
    if not isinstance(val, kind) or isinstance(val, bool):
        raise TraceParseError(f"{where}.{key}: expected {kind.__name__}, got {type(val).__name__}")
    return val


def reference_parse(text):
    """Frozen copy of the parse that checked the shape of every change in
    its own loop before AttackTrace checked the values."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:
        raise TraceParseError(f"not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise TraceParseError(f"top level: expected object, got {type(doc).__name__}")
    meta_obj = reference_want(doc, "meta", dict, "top level")
    meta = TraceMeta(*(reference_want(meta_obj, f, kind, "meta")
                       for f, kind in zip(TraceMeta._fields, (str, int, str, str))))
    raw_changes = reference_want(doc, "changes", list, "top level")
    changes = []
    for i, entry in enumerate(raw_changes):
        where = f"changes[{i}]"
        if not isinstance(entry, dict):
            raise TraceParseError(f"{where}: expected object, got {type(entry).__name__}")
        changes.append(WeightChange(*(reference_want(entry, f, kind, where) for f, kind in
                                      zip(WeightChange._fields, (str, int, int, int)))))
    try:
        return AttackTrace(meta, tuple(changes))
    except ValueError as e:
        raise TraceParseError(str(e)) from None


def parse_outcome(parse, text):
    try:
        return parse(text)
    except TraceParseError as e:
        return "error", str(e)


# In-range and out-of-range values of both widths, small negative indices,
# and repeats, so that old == new comes up often.
CHANGE_INTS = st.one_of(st.integers(-9, 9), st.sampled_from([-129, -128, 127, 128]))
BAD_FIELD_VALUES = st.sampled_from([True, False, 0.0, 2.5, float("nan"), "3", "l", None,
                                    [1], {"a": 1}, 7])


@st.composite
def trace_entries(draw):
    """A change entry: well formed, with one field missing or of a wrong
    type, or not an object at all."""
    kind = draw(st.sampled_from(["good"] * 5 + ["retyped", "missing", "non-object"]))
    if kind == "non-object":
        return draw(st.sampled_from([[], [GOOD_CHANGE], "x", 3, 1.5, True, None]))
    entry = {"layer": "l", "index": draw(st.integers(-2, 3)),
             "old": draw(CHANGE_INTS), "new": draw(CHANGE_INTS)}
    if kind == "retyped":
        entry[draw(st.sampled_from(WeightChange._fields))] = draw(BAD_FIELD_VALUES)
    elif kind == "missing":
        del entry[draw(st.sampled_from(WeightChange._fields))]
    return entry


TRACE_DOCS = st.fixed_dictionaries({
    "meta": st.fixed_dictionaries({
        "method": st.just("m"),
        "b": st.sampled_from([4] * 4 + [8] * 4 + [5, 4.0, True, "4"]),
        "model": st.just("x"),
        "dataset": st.just("d"),
    }),
    "changes": st.lists(trace_entries(), max_size=6),
})


class TestParseDifferential:
    """parse_trace against a frozen copy of the per-change parse loop: the
    same trace, or a TraceParseError with the same message."""

    @pytest.mark.parametrize("doc", [
        # an early value fault, then a later shape fault: the shape fault wins
        {"meta": {"method": "m", "b": 4, "model": "x", "dataset": "d"},
         "changes": [{**GOOD_CHANGE, "old": 9}, {**GOOD_CHANGE, "index": "1"}]},
        {"meta": {"method": "m", "b": 5, "model": "x", "dataset": "d"},
         "changes": [{**GOOD_CHANGE, "new": 1}, without("new"), [1]]},
        {"meta": {"method": "m", "b": 8, "model": "x", "dataset": "d"},
         "changes": [GOOD_CHANGE, {**GOOD_CHANGE, "index": -1}, {**GOOD_CHANGE, "old": True}]},
    ])
    def test_fixed_documents(self, doc):
        text = json.dumps(doc)
        assert parse_outcome(parse_trace, text) == parse_outcome(reference_parse, text)

    def test_a_built_trace_raises_the_first_bad_change(self):
        # the first fixed document, built: with no shape pass, change 0's
        # value fault comes before change 1's type fault
        changes = [{**GOOD_CHANGE, "old": 9}, {**GOOD_CHANGE, "index": "1"}]
        doc = {"meta": {"method": "m", "b": 4, "model": "x", "dataset": "d"}, "changes": changes}
        assert parse_outcome(parse_trace, json.dumps(doc)) == (
            "error", "changes[1].index: expected int, got str")
        with pytest.raises(ValueError) as info:
            AttackTrace(TraceMeta("m", 4, "x", "d"), [WeightChange(**c) for c in changes])
        assert type(info.value) is ValueError
        assert str(info.value) == "changes[0].old: expected integer in [-8, 7], got 9"

    @given(TRACE_DOCS)
    def test_mixed_faults(self, doc):
        text = json.dumps(doc)
        assert parse_outcome(parse_trace, text) == parse_outcome(reference_parse, text)

    @given(st.text(max_size=40) | st.sampled_from(["[]", "{}", '{"meta": {}}', "1e999"]))
    def test_any_text(self, text):
        assert parse_outcome(parse_trace, text) == parse_outcome(reference_parse, text)


def reference_check(meta, changes):
    """Frozen copy of the per-change loop that checked a built trace before
    the patterns were made in the same pass, with its field-count rule, then
    the pattern comprehension that pricing ran on first use."""
    lo, hi = value_range(meta.b)
    for i, change in enumerate(changes):
        try:
            fields = tuple(change)
        except TypeError:
            raise ValueError(f"changes[{i}]: expected 4 fields (layer, index, old, new), "
                             f"got {type(change).__name__}") from None
        if len(fields) != 4:
            raise ValueError(f"changes[{i}]: expected 4 fields (layer, index, old, new), "
                             f"got {len(fields)}")
        layer, index, old, new = fields
        if type(layer) is not str:
            raise ValueError(f"changes[{i}].layer: expected str, got {type(layer).__name__}")
        for field, v in (("index", index), ("old", old), ("new", new)):
            if type(v) is not int:
                raise ValueError(f"changes[{i}].{field}: expected int, got {type(v).__name__}")
        if index < 0:
            raise ValueError(f"changes[{i}]: index must be nonnegative, got {index}")
        if old == new:
            raise ValueError(f"changes[{i}]: old and new are both {old}")
        if not (lo <= old <= hi and lo <= new <= hi):
            side, v = ("new", new) if lo <= old <= hi else ("old", old)
            raise ValueError(f"changes[{i}].{side}: expected integer in [{lo}, {hi}], got {v}")
    mask = (1 << meta.b) - 1
    return bytes([(old ^ new) & mask for _, _, old, new in changes])


FAULTS = ["retyped", "range", "no-op", "negative", "short", "long", "non-record"]


@st.composite
def built_changes(draw, b, kinds=("good",) * 4 + tuple(FAULTS)):
    """A change record of width b: well formed, or with a value of a wrong
    type, out of range, a no-op, a negative index, 3 or 5 fields, or no
    fields at all."""
    lo, hi = value_range(b)
    record = ["l", draw(st.integers(0, 3)), draw(st.integers(lo, hi)), draw(st.integers(lo, hi))]
    kind = draw(st.sampled_from(kinds))
    if kind == "retyped":
        record[draw(st.integers(0, 3))] = draw(st.sampled_from(
            [True, False, 0.0, 1.0, 2.5, float("nan"), "3", None, b"l"]))
    elif kind == "range":
        record[draw(st.integers(2, 3))] = draw(st.sampled_from([lo - 1, hi + 1, -129, 128, 10**30]))
    elif kind == "no-op":
        record[3] = record[2]
    elif kind == "negative":
        record[1] = draw(st.integers(-3, -1))
    elif kind == "short":
        del record[draw(st.integers(0, 3))]
    elif kind == "long":
        record.insert(draw(st.integers(0, 4)), draw(st.integers(-2, 2)))
    elif kind == "non-record":
        return draw(st.sampled_from([7, None, 1.5, True]))
    return draw(st.sampled_from([tuple, list, lambda r: WeightChange(*r) if len(r) == 4 else r]))(record)


@st.composite
def built_traces(draw, one_fault):
    """Meta and changes: any mix of faults, or good changes around one
    change with a fault, so that no other fault sends it down the ordered
    check."""
    b = draw(st.sampled_from([4, 8]))
    if not one_fault:
        return TraceMeta("m", b, "x", "d"), draw(st.lists(built_changes(b), max_size=6))
    changes = draw(st.lists(built_changes(b, ["good"]), max_size=5))
    changes.insert(draw(st.integers(0, len(changes))), draw(built_changes(b, FAULTS)))
    return TraceMeta("m", b, "x", "d"), changes


def check_build(meta, changes):
    def outcome(build):
        try:
            return build(meta, changes)
        except Exception as e:
            return type(e), str(e)
    def built(m, c):
        trace = AttackTrace(m, c)
        assert all(type(change) is WeightChange for change in trace.changes)
        return trace._patterns, trace.changes
    # a change is stored as the record of its four fields
    assert outcome(built) == outcome(lambda m, c: (reference_check(m, c), tuple(map(tuple, c))))


class TestBuildDifferential:
    """AttackTrace against the frozen ordered check: the same patterns, or
    an error of the same type with the same message."""

    @given(built_traces(one_fault=False))
    def test_mixed_faults(self, trace):
        check_build(*trace)

    @given(built_traces(one_fault=True))
    def test_one_fault(self, trace):
        check_build(*trace)

    @pytest.mark.parametrize("b", [4, 8])
    def test_synthesized_traces(self, b):
        trace = synthesize_trace(b, 2000, seed=b)
        assert trace._patterns == reference_check(trace.meta, trace.changes)


class TestCachedPatterns:
    """The check that builds a trace leaves one flip-pattern byte per change
    on it; copies of a priced trace must equal and price like a freshly
    built one."""

    @pytest.mark.parametrize("b", [4, 8])
    def test_copies_of_a_priced_trace(self, b):
        trace = synthesize_trace(b, 300, seed=b)
        maps = [None, *(canonical_map(c) for c in CODE_IDS if code_shape(c)[0] == b)]
        costs = [cost_of_trace(trace, m) for m in maps]
        fresh = AttackTrace(trace.meta, list(trace.changes))
        listed = AttackTrace(trace.meta, [list(c) for c in trace.changes])
        for twin in (pickle.loads(pickle.dumps(trace)), copy.copy(trace),
                     copy.deepcopy(trace), dataclasses.replace(trace), fresh, listed):
            assert twin == trace == fresh
            assert hash(twin) == hash(trace) == hash(fresh)
            assert repr(twin) == repr(fresh)
            assert [cost_of_trace(twin, m) for m in maps] == costs

    def test_replaced_changes_are_priced_anew(self):
        trace = make_trace([("l", 0, -8, 7)])
        m = canonical_map("C7_3")
        assert (cost_of_trace(trace), cost_of_trace(trace, m)) == (4, 3)
        other = dataclasses.replace(trace, changes=[WeightChange("l", 0, 0, 1)])
        assert (cost_of_trace(other), cost_of_trace(other, m)) == (1, reference_cost(0, 1, 4, m))
        shorter = dataclasses.replace(trace, changes=())
        assert (cost_of_trace(shorter), cost_of_trace(shorter, m)) == (0, 0)

    @pytest.mark.parametrize("b", [4, 8])
    def test_list_built_trace_matches_the_pairwise_formula(self, b):
        half = 1 << (b - 1)
        rng = Random(b)
        changes = []
        for i in range(400):
            old, new = rng.sample(range(-half, half), 2)
            changes.append(WeightChange("l", i, old, new))
        trace = AttackTrace(TraceMeta("m", b, "x", "d"), changes)
        for m in (None, *(canonical_map(c) for c in CODE_IDS if code_shape(c)[0] == b)):
            assert cost_of_trace(trace, m) == sum(
                reference_cost(c.old, c.new, b, m) for c in changes)

    @pytest.mark.parametrize("b, code_id",
                             [(4, None), (8, None), *((code_shape(c)[0], c) for c in CODE_IDS)])
    def test_cost_tables(self, b, code_id):
        m = code_id and canonical_map(code_id)
        table = (m or _plain(b))._costs
        assert (m or _plain(b))._costs is table  # cached
        assert len(table) == 256 and not any(table[1 << b:])
        assert list(table[:1 << b]) == [reference_cost(0, signed_value(k, b), b, m)
                                        for k in range(1 << b)]

    @pytest.mark.parametrize("b", [4, 8])
    def test_plain_storage_is_the_identity_map(self, b):
        units = EncodingMap([BitWord(1 << (b - 1 - i), b) for i in range(b)])
        assert distance_matrix(units) == twos_complement_matrix(b)
        for seed in range(3):
            trace = synthesize_trace(b, 300, seed=seed)
            assert cost_of_trace(trace, units) == cost_of_trace(trace)
        plain = _plain(b)
        assert _plain(b) is plain  # cached
        assert plain.code.n == b and plain.code.parity_checks == ()
        assert [w.bits for w in plain.table] == list(range(1 << b))
