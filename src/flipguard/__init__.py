"""Bit-flip protection for quantized neural network weights.

Re-encodes b-bit two's-complement weights as codewords of distance-
maximizing binary linear codes, detects tampering on read, and replays
attack traces to quantify how many extra bit flips an attacker needs.
"""

from .blob import (
    CorruptBlobError,
    EncodedBlob,
    OverheadReport,
    VerifyReport,
    decode_tensor,
    encode_tensor,
    overhead_report,
    verify_blob,
)
from .codes import (
    CODE_IDS,
    BinaryCode,
    BitWord,
    build_code,
    code_shape,
)
from .encoding import (
    DistanceMatrix,
    EncodingMap,
    canonical_map,
    codebook_lines,
    distance_matrix,
    encode_value,
    twos_complement_matrix,
)
from .quantize import QuantConfig, quantize
from .traces import (
    AttackTrace,
    CostStats,
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
)

__version__ = "0.1.0"
