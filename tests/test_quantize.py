import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from flipguard.encoding import twos_complement_matrix
from flipguard.quantize import QuantConfig, quantize, value_range

from reference_tables import signed_value

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

    @pytest.mark.parametrize("b", [4.0, 8.0, True, 3, 16])
    def test_signed_value_checks_width(self, b):
        # the width goes through value_range, so a float or a bool is refused
        # before it reaches a shift (4.0) or reads as 1 bit (True)
        with pytest.raises(ValueError, match=f"bit width must be one of \\(4, 8\\), got {b}"):
            signed_value(1, b)


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
        for b in (0, 5, 16, 4.0, 8.0, True):
            with pytest.raises(ValueError, match=f"bit width must be one of \\(4, 8\\), got {b}$"):
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


def reference_quantize(omega, cfg):
    """quantize as it was before its one-comparison fast path."""
    if not math.isfinite(omega):
        raise ValueError(f"weight must be finite, got {omega}")
    half = 1 << (cfg.bits - 1)
    try:
        v = round(omega / cfg.delta)
    except OverflowError:  # omega / delta overflowed to +-inf
        v = half if omega > 0 else -half
    return -half if v < -half else half - 1 if v >= half else v


def outcome(f, omega, cfg):
    """f's result, or the type and message of what it raised."""
    try:
        return f(omega, cfg)
    except Exception as e:  # compared, not swallowed
        return type(e), str(e)


TINY = 5e-324  # the smallest subnormal
DELTAS = st.one_of(
    st.sampled_from([TINY, 1e-310, 2.2250738585072014e-308, 1e-300, 0.1, 0.37,
                     1.0, 3.0, 1e300, 1.7976931348623157e308]),
    st.floats(min_value=TINY, max_value=1.7976931348623157e308),
)


@st.composite
def at_fast_path_edges(draw):
    """(omega, cfg) with omega at, or one ulp from, (+-half +- 1/2) * delta:
    the ends of the fast path's interval and their mirror images."""
    bits = draw(st.sampled_from([4, 8]))
    delta = draw(DELTAS)
    half = 1 << (bits - 1)
    edge = draw(st.sampled_from([-half - 0.5, -half + 0.5, half - 0.5, half + 0.5]))
    omega = edge * delta
    omega = draw(st.sampled_from([omega, math.nextafter(omega, math.inf),
                                  math.nextafter(omega, -math.inf)]))
    return omega, QuantConfig(bits, delta)


class TestQuantizeMatchesReference:
    @given(at_fast_path_edges())
    def test_at_the_edges_of_the_fast_path(self, case):
        omega, cfg = case
        assert outcome(quantize, omega, cfg) == outcome(reference_quantize, omega, cfg)

    @given(
        st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from([0.0, -0.0, TINY, -TINY, 1e300, -1e300,
                             1.7976931348623157e308, -1.7976931348623157e308]),
            st.integers(-(10 ** 6), 10 ** 6),
            st.integers(),
            st.sampled_from([10 ** 400, -(10 ** 400)]),  # too large for a float
            st.booleans(),
        ),
        DELTAS,
        st.sampled_from([4, 8]),
    )
    def test_any_weight_and_delta(self, omega, delta, bits):
        cfg = QuantConfig(bits, delta)
        assert outcome(quantize, omega, cfg) == outcome(reference_quantize, omega, cfg)

    @given(st.sampled_from([math.nan, -math.nan, math.inf, -math.inf]), DELTAS,
           st.sampled_from([4, 8]))
    def test_non_finite_weights_raise(self, omega, delta, bits):
        cfg = QuantConfig(bits, delta)
        with pytest.raises(ValueError, match="weight must be finite"):
            quantize(omega, cfg)
        assert outcome(quantize, omega, cfg) == outcome(reference_quantize, omega, cfg)

    def test_non_numbers_raise_as_before(self):
        cfg = QuantConfig(4, 0.1)
        for omega in ("0.3", None, 1j, [0.1]):
            got = outcome(quantize, omega, cfg)
            assert got == outcome(reference_quantize, omega, cfg)
            assert got[0] is TypeError

    def test_signed_zero_and_the_widths(self):
        for bits in (4, 8):
            cfg = QuantConfig(bits, 0.1)
            assert quantize(-0.0, cfg) == quantize(0.0, cfg) == 0
            # the fast path's literal bounds are these widths' half +- 1/2
            half = -value_range(bits)[0]
            assert quantize((half - 0.5) * 0.5, QuantConfig(bits, 0.5)) == half - 1
            assert quantize((-half - 0.5) * 0.5, QuantConfig(bits, 0.5)) == -half

    @pytest.mark.parametrize("bits", [4, 8])
    @pytest.mark.parametrize("delta", [1.0, 0.5, 3, Fraction(1, 3)])
    def test_every_tie_rounds_to_even(self, bits, delta):
        # every k + 1/2 from -half - 1/2 to half + 1/2: the fast path's ties,
        # its two ends and the first clamped tie past each
        cfg = QuantConfig(bits, delta)
        half = 1 << (bits - 1)
        for k in range(-half - 1, half + 1):
            omega = (k + Fraction(1, 2)) * delta
            if not isinstance(delta, Fraction):
                omega = float(omega)  # exact: k + 1/2 times 1, 1/2 or 3
            even = k if k % 2 == 0 else k + 1
            got = quantize(omega, cfg)
            assert type(got) is int
            assert got == min(max(even, -half), half - 1)
            assert outcome(quantize, omega, cfg) == outcome(reference_quantize, omega, cfg)

    @pytest.mark.parametrize("bits", [4, 8])
    def test_signed_zeros_give_the_int_zero(self, bits):
        for delta in (0.1, TINY, 3, Fraction(1, 3)):
            for omega in (0.0, -0.0):
                got = quantize(omega, QuantConfig(bits, delta))
                assert type(got) is int and got == 0  # not a float -0.0


class Weight(float):
    """A float subclass, as array libraries hand out."""


# Fractions and ints up to 1e300 in magnitude: math.isfinite, which
# reference_quantize applies first, refuses a Fraction too large for a float.
FRACTION_WEIGHTS = st.fractions(min_value=-(10 ** 300), max_value=10 ** 300,
                                max_denominator=10 ** 6)
FRACTION_DELTAS = st.fractions(min_value=Fraction(1, 10 ** 6), max_value=10 ** 6,
                               max_denominator=10 ** 6)


class TestQuantizeRatiosThatAreNotFloats:
    """A ratio omega / delta that is not a float, a Fraction say, rounds
    through its own __round__, like a float ratio through float's."""

    @given(
        st.one_of(FRACTION_WEIGHTS, st.integers(-(10 ** 6), 10 ** 6),
                  st.floats(allow_nan=False, allow_infinity=False)),
        st.one_of(FRACTION_DELTAS, st.integers(1, 10 ** 6), DELTAS),
        st.sampled_from([4, 8]),
    )
    def test_fraction_and_int_weights_and_deltas(self, omega, delta, bits):
        cfg = QuantConfig(bits, delta)
        got = outcome(quantize, omega, cfg)
        assert got == outcome(reference_quantize, omega, cfg)
        assert type(got) is int

    @given(st.floats(allow_nan=False, allow_infinity=False), DELTAS, st.sampled_from([4, 8]))
    def test_float_subclass_weights(self, omega, delta, bits):
        cfg = QuantConfig(bits, delta)
        got = quantize(Weight(omega), cfg)
        assert type(got) is int
        assert got == quantize(omega, cfg) == reference_quantize(Weight(omega), cfg)

    def test_in_range_fraction_ratio_of_a_weight_too_large_for_a_float(self):
        # The ratio is an exact Fraction in range, so the fast path rounds it;
        # the checked path (reference_quantize) tests math.isfinite(omega)
        # first, and that raises OverflowError for this omega.
        cfg = QuantConfig(8, Fraction(10 ** 308))
        assert quantize(Fraction(10 ** 310), cfg) == 100
        assert quantize(Fraction(201, 2) * cfg.delta, cfg) == 100
        assert quantize(-(10 ** 310), cfg) == -100
        with pytest.raises(OverflowError):
            reference_quantize(Fraction(10 ** 310), cfg)
