"""nimcore: impartial games, constant-depth circuits, preserving rollouts.

The package covers the whole pipeline: exact game theory for NIM-like
games (Grundy numbers, win/loss oracles), the local nimber-difference
primitive, a boolean-circuit IR with constructive builders for the
fixed-depth subcircuits, constant-precision threshold networks with a
circuit compiler, playing agents (including the multi-frame
value-preserving rollout agent), and a reproducible experiment harness.
"""

from .circuits import (
    Circuit,
    CircuitMetrics,
    PositionEncoding,
    build_even_nonempty_scorer,
    build_move_validator_circuit,
    build_nimber_diff_circuit,
    threshold_at_least,
)
from .agents import (
    AgentPolicy,
    FrameHistory,
    Mirror71Agent,
    Mirror72Agent,
    MultiFrameAgent,
    OracleAgent,
    RandomAgent,
    RolloutBudget,
    SingleFrameCircuitAgent,
    preserving_reply,
)
from .games import (
    GameMove,
    GameRules,
    GrundySolver,
    Position,
    Variant,
    WinLoss,
    apply_move,
    grundy,
    is_terminal,
    legal_moves,
    mex,
)
from .harness import (
    ExperimentConfig,
    MatchRecord,
    exhaustive_adversary,
    make_agent,
    parse_rules,
    play_match,
    run_experiment,
)
from .models import (
    ModelKind,
    ThresholdNetwork,
    certify_compilation,
    compile_to_ac0,
    eval_model,
)
from .nimber import (
    bit_width,
    nim_sum,
    nimber_diff,
    winning_moves,
)

__version__ = "0.1.0"

__all__ = [
    "AgentPolicy",
    "Circuit",
    "CircuitMetrics",
    "ExperimentConfig",
    "FrameHistory",
    "GameMove",
    "GameRules",
    "GrundySolver",
    "MatchRecord",
    "Mirror71Agent",
    "Mirror72Agent",
    "ModelKind",
    "MultiFrameAgent",
    "OracleAgent",
    "Position",
    "PositionEncoding",
    "RandomAgent",
    "RolloutBudget",
    "SingleFrameCircuitAgent",
    "ThresholdNetwork",
    "Variant",
    "WinLoss",
    "apply_move",
    "bit_width",
    "build_even_nonempty_scorer",
    "build_move_validator_circuit",
    "build_nimber_diff_circuit",
    "certify_compilation",
    "compile_to_ac0",
    "eval_model",
    "exhaustive_adversary",
    "grundy",
    "is_terminal",
    "legal_moves",
    "make_agent",
    "mex",
    "nim_sum",
    "nimber_diff",
    "parse_rules",
    "play_match",
    "preserving_reply",
    "run_experiment",
    "threshold_at_least",
    "winning_moves",
]
