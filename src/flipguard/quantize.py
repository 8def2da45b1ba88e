"""Uniform symmetric quantization to 4- or 8-bit two's-complement integers."""
from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "QuantConfig",
    "quantize",
    "value_range",
]

_WIDTHS = (4, 8)
_round = float.__round__  # round(x) looks __round__ up on type(x) at every call


def value_range(b: int) -> tuple[int, int]:
    """Inclusive signed range of a b-bit two's-complement integer."""
    if type(b) is not int or b not in _WIDTHS:  # 4.0 == 4, but 1 << 3.0 fails
        raise ValueError(f"bit width must be one of {_WIDTHS}, got {b}")
    half = 1 << (b - 1)
    return -half, half - 1


@dataclass(frozen=True)
class QuantConfig:
    bits: int
    delta: float  # step size, > 0

    def __post_init__(self) -> None:
        value_range(self.bits)
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise ValueError(f"delta must be a positive finite number, got {self.delta}")


def quantize(omega: float, cfg: QuantConfig) -> int:
    """Nearest representable integer to omega/delta.

    Halfway cases round to even, then the result is clamped to the signed
    b-bit range.
    """
    # Fast path: for x in [-half - 1/2, half - 1/2), half from _WIDTHS, round(x) needs
    # no clamp. NaN fails the test, so NaN, +-inf and overflowed ratios take the checks
    # below, as does anything the division, the comparison or round refuses.
    try:
        x = omega / cfg.delta
        if (-8.5 <= x < 7.5) if cfg.bits == 4 else (-128.5 <= x < 127.5):
            try:
                return _round(x)
            except TypeError:  # x is not a float (a Fraction, say): its own __round__
                return round(x)
    except (TypeError, OverflowError):
        pass
    if not math.isfinite(omega):
        raise ValueError(f"weight must be finite, got {omega}")
    half = 1 << (cfg.bits - 1)  # cfg.bits was validated by QuantConfig
    try:
        v = round(omega / cfg.delta)
    except OverflowError:  # omega / delta overflowed to +-inf
        v = half if omega > 0 else -half
    return -half if v < -half else half - 1 if v >= half else v
