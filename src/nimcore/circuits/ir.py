"""Boolean-circuit IR: unbounded fan-in AND/OR, NOT, inputs and constants.

Gates live in a topologically ordered list and reference earlier gates by
index, which makes the DAG acyclic by construction, evaluation a single
forward sweep, and the text serialization canonical (identical circuits
serialize to identical bytes).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ..errors import CircuitFormatError, EncodingError

INPUT = "INPUT"
CONST0 = "CONST0"
CONST1 = "CONST1"
AND = "AND"
OR = "OR"
NOT = "NOT"

LOGIC_KINDS = (AND, OR, NOT)
_OP_INPUT, _OP_CONST0, _OP_CONST1, _OP_AND, _OP_OR, _OP_NOT = range(6)
_OPCODES = {
    INPUT: _OP_INPUT,
    CONST0: _OP_CONST0,
    CONST1: _OP_CONST1,
    AND: _OP_AND,
    OR: _OP_OR,
    NOT: _OP_NOT,
}


@dataclass(frozen=True)
class Gate:
    kind: str
    args: tuple[int, ...] = ()


@dataclass(frozen=True)
class CircuitMetrics:
    depth: int
    size: int
    fan_in_max: int


def _eval_single(ops, args, bits, values, start, stop):
    """Evaluate gates ``start`` to ``stop - 1`` on one input vector,
    writing into ``values``; earlier gates must already be there."""
    for g in range(start, stop):
        op = ops[g]
        a = args[g]
        if op == _OP_AND:
            v = 1
            for idx in a:
                if not values[idx]:
                    v = 0
                    break
        elif op == _OP_OR:
            v = 0
            for idx in a:
                if values[idx]:
                    v = 1
                    break
        elif op == _OP_NOT:
            v = 1 - values[a[0]]
        elif op == _OP_INPUT:
            v = 1 if bits[a[0]] else 0
        elif op == _OP_CONST1:
            v = 1
        else:
            v = 0
        values[g] = v


def _eval_batch(ops, args, out_ids, inputs):
    """Evaluate many 0/1 rows at once, columnar: each gate's value is a
    vector over all rows.  Returns a (rows, outputs) uint8 array."""
    rows = inputs.shape[0]
    ones = np.ones(rows, dtype=np.uint8)
    zeros = np.zeros(rows, dtype=np.uint8)
    vals: list[np.ndarray] = [zeros] * len(ops)
    for g, op in enumerate(ops):
        a = args[g]
        if op == _OP_AND:
            v = vals[a[0]]
            for idx in a[1:]:
                v = v & vals[idx]
        elif op == _OP_OR:
            v = vals[a[0]]
            for idx in a[1:]:
                v = v | vals[idx]
        elif op == _OP_NOT:
            v = vals[a[0]] ^ 1
        elif op == _OP_INPUT:
            v = inputs[:, a[0]]
        elif op == _OP_CONST1:
            v = ones
        else:
            v = zeros
        vals[g] = v
    return np.stack([vals[o] for o in out_ids], axis=1)


class Circuit:
    """Immutable layered circuit; safe to evaluate from any thread.

    ``evaluate`` sweeps every gate once for one input vector;
    ``first_set`` sweeps the same gate list only as far as the outputs
    it reads.  ``evaluate_batch`` sweeps it once with a numpy vector per
    gate.
    """

    __slots__ = ("gates", "outputs", "input_arity", "_ops", "_args")

    def __init__(self, gates: Sequence[Gate], outputs: Sequence[int], input_arity: int):
        gates = tuple(gates)
        outputs = tuple(outputs)
        # the gate list flattened for the evaluators: integer opcodes and
        # operand tuples, where an INPUT's operand is its input slot
        ops: list[int] = []
        args: list[tuple[int, ...]] = []
        n_inputs = 0
        for idx, g in enumerate(gates):
            if g.kind not in _OPCODES:
                raise CircuitFormatError(f"gate g{idx} has unknown kind {g.kind!r}")
            if g.kind in (INPUT, CONST0, CONST1):
                if g.args:
                    raise CircuitFormatError(f"gate g{idx} ({g.kind}) takes no operands")
                if g.kind == INPUT:
                    n_inputs += 1
            elif g.kind == NOT:
                if len(g.args) != 1:
                    raise CircuitFormatError(f"NOT gate g{idx} needs exactly one operand")
            else:
                if len(g.args) < 1:
                    raise CircuitFormatError(f"{g.kind} gate g{idx} needs at least one operand")
            for a in g.args:
                if not 0 <= a < idx:
                    raise CircuitFormatError(
                        f"gate g{idx} references g{a}, which is not an earlier gate"
                    )
            ops.append(_OPCODES[g.kind])
            args.append((n_inputs - 1,) if g.kind == INPUT else g.args)
        if n_inputs != input_arity:
            raise CircuitFormatError(
                f"circuit declares {input_arity} inputs but has {n_inputs} INPUT gates"
            )
        if not outputs:
            raise CircuitFormatError("circuit needs at least one output")
        for o in outputs:
            if not 0 <= o < len(gates):
                raise CircuitFormatError(f"output references unknown gate g{o}")
        self.gates = gates
        self.outputs = outputs
        self.input_arity = input_arity
        self._ops = ops
        self._args = args

    def _check_bits(self, bits: Sequence[int]) -> None:
        if len(bits) != self.input_arity:
            raise EncodingError(
                f"circuit takes {self.input_arity} input bits, got {len(bits)}"
            )

    def gate_depths(self) -> list[int]:
        """Per-gate depth counting AND/OR/NOT gates along the longest path."""
        depths = [0] * len(self.gates)
        for idx, g in enumerate(self.gates):
            if g.kind in LOGIC_KINDS:
                depths[idx] = 1 + max((depths[a] for a in g.args), default=0)
            elif g.args:
                depths[idx] = max(depths[a] for a in g.args)
        return depths

    def metrics(self) -> CircuitMetrics:
        depths = self.gate_depths()
        size = 0
        fan_in = 0
        for g in self.gates:
            if g.kind in LOGIC_KINDS:
                size += 1
                if len(g.args) > fan_in:
                    fan_in = len(g.args)
        return CircuitMetrics(max(depths, default=0), size, fan_in)

    def evaluate(self, bits: Sequence[int]) -> tuple[int, ...]:
        """Run one input vector through the circuit; any nonzero bit reads
        as 1.  Returns every output, in order."""
        self._check_bits(bits)
        n = len(self._ops)
        values = [0] * n
        _eval_single(self._ops, self._args, bits, values, 0, n)
        return tuple(values[o] for o in self.outputs)

    def first_set(self, bits: Sequence[int], outputs: Sequence[int]) -> int | None:
        """The first index in ``outputs`` whose output is 1 on ``bits``,
        or None when none is (or ``outputs`` is empty).

        Equal to ``next((k for k in outputs if evaluate(bits)[k]), None)``,
        but the sweep stops at the gate of the last output read: outputs
        whose gates come early in the gate list cost least.  Indices may
        come in any order and repeat; each must be a valid output index,
        else ``EncodingError`` names it.
        """
        self._check_bits(bits)
        if outputs and (min(outputs) < 0 or max(outputs) >= len(self.outputs)):
            bad = next(k for k in outputs if not 0 <= k < len(self.outputs))
            raise EncodingError(
                f"output index {bad} out of range for {len(self.outputs)} outputs"
            )
        ops, args, out_ids = self._ops, self._args, self.outputs
        values = [0] * len(ops)
        done = 0
        for k in outputs:
            # gates reference earlier gates only, so the prefix through
            # output k's gate holds everything it reads
            stop = out_ids[k] + 1
            if stop > done:
                _eval_single(ops, args, bits, values, done, stop)
                done = stop
            if values[out_ids[k]]:
                return k
        return None

    def evaluate_batch(self, rows) -> np.ndarray:
        """Run many input vectors; returns a (rows, outputs) uint8 array.

        As in ``evaluate``, any nonzero entry reads as 1.
        """
        arr = np.asarray(rows)
        if arr.ndim != 2 or arr.shape[1] != self.input_arity:
            raise EncodingError(
                f"batch must have shape (rows, {self.input_arity}), got {arr.shape}"
            )
        bits = np.not_equal(arr, 0).view(np.uint8)
        return _eval_batch(self._ops, self._args, self.outputs, bits)


_HEADER = re.compile(r"^ac0 v1 inputs=(\d+) outputs=(\d+(?:,\d+)*)$")
_GATE_LINE = re.compile(r"^g(\d+) ([A-Z01]+)((?: \d+)*)$")


def serialize(c: Circuit) -> str:
    lines = [
        "ac0 v1 inputs=%d outputs=%s" % (c.input_arity, ",".join(map(str, c.outputs)))
    ]
    for i, g in enumerate(c.gates):
        if g.args:
            lines.append("g%d %s %s" % (i, g.kind, " ".join(map(str, g.args))))
        else:
            lines.append("g%d %s" % (i, g.kind))
    return "\n".join(lines) + "\n"


def parse(text: str) -> Circuit:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise CircuitFormatError("empty circuit text")
    m = _HEADER.match(lines[0])
    if not m:
        raise CircuitFormatError(f"bad header line: {lines[0]!r}")
    input_arity = int(m.group(1))
    outputs = tuple(int(x) for x in m.group(2).split(","))
    gates: list[Gate] = []
    for lineno, line in enumerate(lines[1:], start=2):
        gm = _GATE_LINE.match(line)
        if not gm:
            raise CircuitFormatError(f"line {lineno}: cannot parse {line!r}")
        gid = int(gm.group(1))
        if gid != len(gates):
            raise CircuitFormatError(
                f"line {lineno}: expected gate g{len(gates)}, found g{gid}"
            )
        args = tuple(int(x) for x in gm.group(3).split()) if gm.group(3) else ()
        gates.append(Gate(gm.group(2), args))
    return Circuit(gates, outputs, input_arity)


def save_circuit(c: Circuit, path) -> None:
    Path(path).write_text(serialize(c))


def load_circuit(path) -> Circuit:
    return parse(Path(path).read_text())


__all__ = [
    "AND",
    "CONST0",
    "CONST1",
    "Circuit",
    "CircuitMetrics",
    "Gate",
    "INPUT",
    "NOT",
    "OR",
    "load_circuit",
    "parse",
    "save_circuit",
    "serialize",
]
