"""Circuit IR, its evaluator and constructive builders."""

from .builders import (
    CircuitBuilder,
    build_even_nonempty_scorer,
    build_move_validator_circuit,
    build_nimber_diff_circuit,
    threshold_at_least,
)
from .encoding import PositionEncoding, decode_value, encode_value
from .ir import (
    AND,
    CONST0,
    CONST1,
    Circuit,
    CircuitMetrics,
    Gate,
    INPUT,
    NOT,
    OR,
    load_circuit,
    parse,
    save_circuit,
    serialize,
)

__all__ = [
    "AND",
    "CONST0",
    "CONST1",
    "Circuit",
    "CircuitBuilder",
    "CircuitMetrics",
    "Gate",
    "INPUT",
    "NOT",
    "OR",
    "PositionEncoding",
    "build_even_nonempty_scorer",
    "build_move_validator_circuit",
    "build_nimber_diff_circuit",
    "decode_value",
    "encode_value",
    "load_circuit",
    "parse",
    "save_circuit",
    "serialize",
    "threshold_at_least",
]
