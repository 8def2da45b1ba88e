import math

import pytest
from hypothesis import given, strategies as st

from flipguard.encoding import twos_complement_matrix
from flipguard.quantize import QuantConfig, quantize, signed_value, value_range

# value -> 4-bit two's-complement pattern
FOUR_BIT_PATTERNS = {
    0: "0000", 1: "0001", 2: "0010", 3: "0011",
    4: "0100", 5: "0101", 6: "0110", 7: "0111",
    -8: "1000", -7: "1001", -6: "1010", -5: "1011",
    -4: "1100", -3: "1101", -2: "1110", -1: "1111",
}


class TestTwosComplement:
    def test_all_4bit_patterns(self):
        for v, pattern in FOUR_BIT_PATTERNS.items():
            assert signed_value(int(pattern, 2), 4) == v

    def test_8bit_edges(self):
        assert signed_value(0b10000000, 8) == -128
        assert signed_value(0b11111111, 8) == -1
        assert signed_value(0b01111111, 8) == 127

    def test_sign_bit_is_coordinate_one(self):
        # coordinate 1 is the most significant bit of the pattern
        for b in (4, 8):
            for pattern in range(1 << b):
                assert (signed_value(pattern, b) < 0) == bool(pattern >> (b - 1))

    @given(st.sampled_from([4, 8]), st.data())
    def test_signed_value_inverts(self, b, data):
        lo, hi = value_range(b)
        v = data.draw(st.integers(lo, hi))
        assert signed_value(v & ((1 << b) - 1), b) == v

    def test_signed_value_validation(self):
        with pytest.raises(ValueError):
            signed_value(16, 4)
        with pytest.raises(ValueError):
            signed_value(-1, 4)


PLAIN_COSTS = {b: twos_complement_matrix(b).entries for b in (4, 8)}


def flip_count(u, v, b):
    """Plain-storage cost of changing signed value u into v."""
    half = 1 << (b - 1)
    return PLAIN_COSTS[b][u + half][v + half]


class TestFlipCount:
    """Bit flips between two's-complement patterns, as the plain-storage
    cost table gives them."""

    def test_examples(self):
        assert flip_count(7, 6, 4) == 1
        assert flip_count(-7, -6, 4) == 2
        assert flip_count(0, -1, 4) == 4

    def test_equal_values_cost_nothing(self):
        assert flip_count(5, 5, 4) == 0

    @pytest.mark.parametrize("b", [4, 8])
    def test_pure_sign_flips_cost_one(self, b):
        half = 1 << (b - 1)
        for v in range(0, half):
            assert flip_count(v, v - half, b) == 1

    @given(st.integers(-8, 7), st.integers(-8, 7))
    def test_symmetry(self, u, v):
        assert flip_count(u, v, 4) == flip_count(v, u, 4)
        assert (flip_count(u, v, 4) == 0) == (u == v)


class TestQuantConfig:
    def test_valid(self):
        QuantConfig(4, 0.1)
        QuantConfig(8, 1e-3)

    def test_bad_bits(self):
        for b in (0, 5, 16):
            with pytest.raises(ValueError):
                QuantConfig(b, 0.1)

    def test_bad_delta(self):
        for d in (0.0, -0.5, math.inf, math.nan):
            with pytest.raises(ValueError):
                QuantConfig(4, d)


def oracle_quantize(omega, cfg):
    """Independent route: scan every representable level for the closest."""
    lo, hi = value_range(cfg.bits)
    best = None
    for v in range(lo, hi + 1):
        d = abs(omega - v * cfg.delta)
        if best is None or d < best[0] or (d == best[0] and v % 2 == 0):
            best = (d, v)
    return best[1]


class TestQuantize:
    def test_zero(self):
        assert quantize(0.0, QuantConfig(4, 0.1)) == 0

    def test_half_step_example(self):
        assert quantize(0.5, QuantConfig(4, 0.1)) == 5

    def test_clamps_at_both_ends(self):
        cfg = QuantConfig(4, 0.1)
        assert quantize(2.0, cfg) == 7
        assert quantize(-2.0, cfg) == -8
        cfg8 = QuantConfig(8, 0.01)
        assert quantize(5.0, cfg8) == 127
        assert quantize(-5.0, cfg8) == -128

    def test_halfway_cases_round_to_even(self):
        cfg = QuantConfig(4, 0.5)  # these ratios are exact in binary
        assert quantize(1.25, cfg) == 2
        assert quantize(1.75, cfg) == 4
        assert quantize(-1.25, cfg) == -2
        assert quantize(-1.75, cfg) == -4

    def test_overflowing_ratio_clamps(self):
        # omega / delta overflows to +-inf for these finite inputs
        for omega, delta in ((1e300, 1e-300), (1.0, 5e-324)):
            assert quantize(omega, QuantConfig(4, delta)) == 7
            assert quantize(-omega, QuantConfig(4, delta)) == -8
            assert quantize(omega, QuantConfig(8, delta)) == 127
            assert quantize(-omega, QuantConfig(8, delta)) == -128

    def test_non_finite_weight(self):
        cfg = QuantConfig(4, 0.1)
        for omega in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                quantize(omega, cfg)

    @given(
        st.integers(-400, 400),
        st.sampled_from([0.05, 0.1, 0.25, 0.3, 0.5]),
        st.sampled_from([4, 8]),
    )
    def test_matches_brute_force_scan(self, i, delta, bits):
        omega = i * 0.0125
        ratio = omega / delta
        if abs(ratio - math.floor(ratio) - 0.5) < 1e-9:
            return  # knife-edge ties are pinned by the round-to-even test
        cfg = QuantConfig(bits, delta)
        assert quantize(omega, cfg) == oracle_quantize(omega, cfg)

    @given(st.integers(-50, 50), st.integers(-50, 50))
    def test_monotone_in_omega(self, i, j):
        cfg = QuantConfig(4, 0.07)
        lo, hi = sorted((i, j))
        assert quantize(lo * 0.03, cfg) <= quantize(hi * 0.03, cfg)
