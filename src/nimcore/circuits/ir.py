"""Boolean-circuit IR: unbounded fan-in AND/OR, NOT, inputs and constants.

Gates live in a topologically ordered list and reference earlier gates by
index, which makes the DAG acyclic by construction, evaluation a single
forward sweep, and the text serialization canonical (identical circuits
serialize to identical bytes).
"""

from __future__ import annotations

import operator
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


# The single-row evaluator is generated Python.  Gates are written into
# the tests of the gates that read them, so ``and``/``or`` skip a whole
# subterm once an earlier operand decides:
# - inputs and constants are read in place;
# - a NOT of an input, a constant or a gate with a statement is read in
#   place as ``not ...`` by each of its readers, since a negated test costs
#   no instruction;
# - any other logic gate read exactly once is inlined into its reader's
#   test, if that test nests at most _NEST gates deep, which keeps deep
#   circuits clear of the parser's and the compiler's recursion limits,
#   and holds at most _INLINE_NODES expression nodes (gates named);
# - an OR's consecutive inlined ANDs that share their first operands write
#   them once, ``(a and x) or (a and y)`` as ``a and (x or y)``, and so on
#   within the parentheses (see ``_factor``), so a sum of products in wire
#   order is tested as a trie, one path of it at a time.
# Every other gate below the last output, and every output gate, is a
# statement ``v = 1 if <test> else 0``; a test of more than _UNIT_NODES
# nodes is cut into parts that each also read the parts before, so the
# statements still stop at the first deciding part.  The code is
# compiled in units of at most _UNIT_STATEMENTS statements and _UNIT_NODES
# nodes: what the compiler holds at once grows with one unit.  Values read
# across units pass through a list.
_UNIT_STATEMENTS = 256
_UNIT_NODES = 1024
_INLINE_NODES = 256
_NEST = 32
_LEAF_OPS = (_OP_INPUT, _OP_CONST0, _OP_CONST1)


def _leaf(op, a):
    """The test of an INPUT or constant gate: any nonzero input passes."""
    if op == _OP_INPUT:
        return "b[%d]" % a[0]
    return "1" if op == _OP_CONST1 else "0"


def _factor(terms, whole, item, room):
    """How an OR writes its disjuncts ``terms``, each the operands of an
    inlined AND or one operand of its own, as runs ``(m, lo, hi, sub,
    nodes, nest)``: a run writes operands ``lo:hi`` of term ``m`` joined
    by ``and``, then ``and (<sub>)`` when ``sub``, the runs of the terms'
    remainders, is not None.  A term written whole is written as its own
    test, of ``whole[m]`` (nodes, nest); ``item(x)`` gives an operand's.

    Consecutive terms that share a first operand are one run, which
    writes their longest shared prefix once; if that prefix is a whole
    term, the others only extend it and are dropped.  Runs nest at most
    ``room`` parentheses deep, and a run at the top holds at most
    _INLINE_NODES nodes, or is cut into runs that each write the shared
    prefix, so the parts of one gate's test stay as small as today.
    ``nest`` counts the parentheses a run's text opens, with its
    operands' own.
    """

    def written(m, lo, hi, sub):
        if sub is None and lo == 0 and hi == len(terms[m]):
            return (m, lo, hi, None) + whole[m]
        nodes, nest = 1, 0
        for x in terms[m][lo:hi]:
            n, d = item(x)
            nodes += n
            nest = max(nest, d)
        if sub is not None:
            nodes += 1 + sum(r[4] for r in sub)
            nest = max(nest, 1 + max(r[5] for r in sub))
        return (m, lo, hi, sub, nodes, nest)

    def group(lo, members, room):
        runs = []
        i = 0
        while i < len(members):
            key = terms[members[i]][lo]
            j = i + 1
            while j < len(members) and terms[members[j]][lo] == key:
                j += 1
            runs += run(lo, members[i:j], room)
            i = j
        return runs

    def run(lo, members, room):
        if len(members) == 1 or not room:
            return [written(m, lo, len(terms[m]), None) for m in members]
        first = terms[members[0]]
        hi = lo + 1
        while all(len(terms[m]) > hi and terms[m][hi] == first[hi] for m in members):
            hi += 1
        ends = [m for m in members if len(terms[m]) == hi]
        if ends:
            return [written(ends[0], lo, hi, None)]
        return [written(members[0], lo, hi, group(hi, members, room - 1))]

    def fit(r):
        # r cut into runs of at most _INLINE_NODES nodes, each of which
        # writes r's prefix and some of its remainders' runs
        m, lo, hi, sub, nodes, _ = r
        if nodes <= _INLINE_NODES or sub is None:
            return [r]
        joins = nodes - sum(s[4] for s in sub)
        chunks = [[]]
        size = joins
        for s in sub:
            if chunks[-1] and size + s[4] > _INLINE_NODES:
                chunks.append([])
                size = joins
            chunks[-1].append(s)
            size += s[4]
        cut = []
        for chunk in chunks:
            if len(chunk) > 1:
                cut.append(written(m, lo, hi, chunk))
            else:
                (s,) = chunk
                cut += fit(written(s[0], lo, s[2], s[3]))
        return cut

    return [cut for r in group(0, range(len(terms)), room) for cut in fit(r)]


def _plan(ops, args, stop, results):
    """How each gate below ``stop`` is written (see above), and where the
    value of each gate with a statement is last read.

    Returns ``place``, the test and the locals read of each gate read in
    place, else None; ``inlined``; ``nodes``, the expression nodes of each
    gate's test; the gates ``kept`` as statements for the outputs
    (``results``); ``runs``, the ``_factor`` runs of each OR whose test
    writes a shared prefix once; and ``last_read``: the gate whose
    statements last read each gate, counting a gate's own later parts, or
    ``stop`` for ``results``.
    """
    kept = set(results)
    reads = [0] * stop
    reader = [0] * stop
    for g in range(stop):
        if ops[g] not in _LEAF_OPS:
            for x in args[g]:
                reads[x] += 1
                reader[x] = g
    place: list[tuple[str, tuple[int, ...]] | None] = [None] * stop
    inlined = [False] * stop
    nodes = [1] * stop
    nest = [0] * stop
    runs: dict[int, list] = {}

    def item(y):
        return (nodes[y] if inlined[y] or place[y] else 1, nest[y] if inlined[y] else 0)

    for g in range(stop):
        op, a = ops[g], args[g]
        if op in _LEAF_OPS:
            place[g] = (_leaf(op, a), ())
            continue
        x = a[0]
        if op == _OP_NOT and g not in kept:
            if ops[x] in _LEAF_OPS:
                place[g] = ("not " + place[x][0], ())
            elif place[x] is None and not inlined[x]:
                place[g] = ("not v%d" % x, (x,))
            if place[g] is not None:
                nodes[g] = 2
                continue
        nodes[g] = 1 + sum(nodes[y] if inlined[y] or place[y] else 1 for y in a)
        nest[g] = 1 + max((nest[y] for y in a if inlined[y]), default=0)
        if op == _OP_OR:
            terms = [args[y] if ops[y] == _OP_AND and inlined[y] else (y,) for y in a]
            if any(terms[k][0] == terms[k + 1][0] for k in range(len(a) - 1)):
                # factored parentheses count against _NEST with the
                # operands', so no test nests deeper than it could unfactored
                deepest = max(item(x)[1] for t in terms for x in t)
                ran = _factor(terms, [item(y) for y in a], item, max(1, _NEST - 1 - deepest))
                runs[g] = ran
                nodes[g] = 1 + sum(r[4] for r in ran)
                nest[g] = 1 + max(r[5] for r in ran)
        inlined[g] = (
            reads[g] == 1 and g not in kept and nest[g] <= _NEST and nodes[g] <= _INLINE_NODES
        )
    # the statement an inlined gate's test lands in: its reader's, or that
    # reader's own reader's if the reader is inlined too
    home = list(range(stop))
    for g in reversed(range(stop)):
        if inlined[g]:
            home[g] = home[reader[g]]
    last_read = list(range(stop))
    for g in range(stop):
        if place[g] is None:
            for x in args[g]:
                for y in place[x][1] if place[x] else (x,):
                    last_read[y] = max(last_read[y], home[g])
    for o in results:
        last_read[o] = stop
    return place, inlined, nodes, kept, runs, last_read


def _statements(ops, args, stop, plan):
    """Yield ``(g, line, locals read, nodes)`` for the gates ``g`` below
    ``stop`` that have statements, in gate order, as ``_plan`` planned.

    A gate's test joins its operands' tests with ``and``/``or``, or negates
    its one operand with ``not``; an operand is read in place, inlined in
    parentheses, or the local of a gate with a statement, which holds 0 or
    1.  An OR with ``runs`` joins the runs' tests instead.
    """
    place, inlined, nodes, kept, runs, _ = plan
    # the test, node count and locals read of each inlined gate, and its
    # operands' (test, nodes, locals read), until its reader takes it
    pending: dict[int, tuple[str, int, list[int], list]] = {}

    def run_test(run, whole, items):
        # the (test, nodes, locals read) of a _factor run
        m, lo, hi, sub, n, _ = run
        if sub is None and lo == 0 and hi == len(items[m]):
            return whole[m]
        its = items[m][lo:hi]
        tests = [t for t, _, _ in its]
        reads = [y for _, _, r in its for y in r]
        if sub is not None:
            parts = [run_test(r, whole, items) for r in sub]
            tests.append("(%s)" % " or ".join(t for t, _, _ in parts))
            reads += [y for _, _, r in parts for y in r]
        return " and ".join(tests), n, reads

    for g in range(stop):
        op, a = ops[g], args[g]
        if place[g] is not None and g not in kept:
            continue
        if op in _LEAF_OPS:
            yield g, "v%d = 1 if %s else 0" % (g, place[g][0]), (), 1
        else:
            terms = []
            items = []
            for x in a:
                if inlined[x]:
                    test, n, reads, its = pending.pop(x)
                    terms.append((test, n, reads))
                    items.append(its if ops[x] == _OP_AND else [terms[-1]])
                    continue
                if place[x] is not None:
                    terms.append((place[x][0], nodes[x], place[x][1]))
                else:
                    terms.append(("v%d" % x, 1, (x,)))
                items.append([terms[-1]])
            if op == _OP_NOT:
                test, n, reads = terms[0]
                terms = [("not " + test, n + 1, reads)]
            elif g in runs:
                terms = [run_test(r, terms, items) for r in runs[g]]
            join = " and " if op == _OP_AND else " or "
            if inlined[g]:
                test = join.join(t for t, _, _ in terms)
                if op != _OP_NOT:
                    test = "(%s)" % test
                pending[g] = (test, nodes[g], [y for _, _, r in terms for y in r], terms)
                continue
            part, size, reads = [], 1, []
            for test, n, r in terms:
                if part and size + n > _UNIT_NODES:
                    yield g, "v%d = 1 if %s else 0" % (g, join.join(part)), reads, size
                    part, size, reads = ["v%d" % g], 2, [g]
                part.append(test)
                size += n
                reads += r
            yield g, "v%d = 1 if %s else 0" % (g, join.join(part)), reads, size


def _generate(ops, args, results):
    """Compile the gates up to the last of ``results`` into unit functions
    ``u(b, V)``, to run in order on one list ``V``; only the gates
    ``_plan`` gives a statement have a local, and a ``V`` slot when
    another unit or the caller reads them.

    Each unit is compiled as soon as it is full.  It loads from ``V`` what
    earlier units computed, and stores there what later units and the
    caller (``results``) read.  Returns the units, ``len(V)`` and the slots
    of ``results``.
    """
    stop = max(results) + 1
    plan = _plan(ops, args, stop, results)
    last_read = plan[-1]
    slot: dict[int, int] = {}
    units = []

    def compile_unit(lines, loaded, written, until):
        # ``until``: the gate the next unit starts at
        src = ["def u(b, V):"]
        src.extend(" v%d = V[%d]" % (g, slot[g]) for g in loaded)
        src.extend(" " + line for line in lines)
        for g in written:
            if last_read[g] >= until:
                src.append(" V[%d] = v%d" % (slot.setdefault(g, len(slot)), g))
        namespace: dict = {}
        exec(compile("\n".join(src), "<circuit>", "exec"), namespace)
        units.append(namespace["u"])

    lines, loaded, written, size = [], {}, {}, 0
    for g, line, reads, n in _statements(ops, args, stop, plan):
        if lines and (len(lines) == _UNIT_STATEMENTS or size + n > _UNIT_NODES):
            compile_unit(lines, loaded, written, g)
            lines, loaded, written, size = [], {}, {}, 0
        for r in reads:
            if r not in written:
                loaded[r] = None
        written[g] = None
        lines.append(line)
        size += n
    compile_unit(lines, loaded, written, stop)
    return units, len(slot), [slot[g] for g in results]


def _eval_batch(ops, args, out_ids, inputs):
    """Evaluate many 0/1 rows at once, columnar: each gate's value is a
    vector over all rows.  Returns a (rows, outputs) uint8 array.

    A gate's vector is dropped after its last reader, so the sweep holds
    the gates still to be read rather than every gate.
    """
    rows = inputs.shape[0]
    ones = np.ones(rows, dtype=np.uint8)
    zeros = np.zeros(rows, dtype=np.uint8)
    last_read = [-1] * len(ops)
    for g, op in enumerate(ops):
        if op not in _LEAF_OPS:
            for idx in args[g]:
                last_read[idx] = g
    for o in out_ids:
        last_read[o] = len(ops)
    vals: list[np.ndarray | None] = [None] * len(ops)
    for g, op in enumerate(ops):
        a = args[g]
        if op == _OP_INPUT:
            v = inputs[:, a[0]]
        elif op == _OP_CONST0:
            v = zeros
        elif op == _OP_CONST1:
            v = ones
        else:
            if op == _OP_AND:
                v = vals[a[0]]
                for idx in a[1:]:
                    v = v & vals[idx]
            elif op == _OP_OR:
                v = vals[a[0]]
                for idx in a[1:]:
                    v = v | vals[idx]
            else:
                v = vals[a[0]] ^ 1
            for idx in a:
                if last_read[idx] == g:
                    vals[idx] = None
        vals[g] = v
    return np.stack([vals[o] for o in out_ids], axis=1)


class Circuit:
    """Immutable layered circuit; safe to evaluate from any thread.

    ``evaluate``, the one single-row entry point, runs Python code
    generated from the gate list on its first call and kept with the
    circuit, ending at the last output gate: a gate read by one other gate
    is written inside that gate's ``and``/``or`` test, an OR's inlined
    ANDs write the first operands they share once, inputs and the
    negations of values already computed are read in place, and every
    other gate is one assignment of 0 or 1.  Two threads that both make
    the first call compile the same code, and either copy serves.
    ``evaluate_batch`` sweeps the gate list once with a numpy vector per
    gate.
    """

    __slots__ = (
        "gates",
        "outputs",
        "input_arity",
        "_ops",
        "_args",
        "_evaluator",
    )

    def __init__(self, gates: Sequence[Gate], outputs: Sequence[int], input_arity: int):
        gates = tuple(gates)
        outputs = tuple(outputs)
        if type(input_arity) is not int:
            raise CircuitFormatError(f"input arity {input_arity!r} is not an int")
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
                # exactly int: the evaluators are generated from these numbers
                if type(a) is not int:
                    raise CircuitFormatError(f"gate g{idx} has operand {a!r}, not an int")
                if not 0 <= a < idx:
                    raise CircuitFormatError(
                        f"gate g{idx} references g{a}, which is not an earlier gate"
                    )
            ops.append(_OPCODES[g.kind])
            args.append((n_inputs - 1,) if g.kind == INPUT else tuple(g.args))
        if n_inputs != input_arity:
            raise CircuitFormatError(
                f"circuit declares {input_arity} inputs but has {n_inputs} INPUT gates"
            )
        if not outputs:
            raise CircuitFormatError("circuit needs at least one output")
        for o in outputs:
            if type(o) is not int:
                raise CircuitFormatError(f"output gate {o!r} is not an int")
            if not 0 <= o < len(gates):
                raise CircuitFormatError(f"output references unknown gate g{o}")
        self.gates = gates
        self.outputs = outputs
        self.input_arity = input_arity
        self._ops = ops
        self._args = args
        self._evaluator = None

    def gate_depths(self) -> list[int]:
        """Per-gate depth counting AND/OR/NOT gates along the longest path."""
        depths = [0] * len(self.gates)
        for idx, g in enumerate(self.gates):
            if g.kind in LOGIC_KINDS:
                depths[idx] = 1 + max((depths[a] for a in g.args), default=0)
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
        if len(bits) != self.input_arity:
            raise EncodingError(
                f"circuit takes {self.input_arity} input bits, got {len(bits)}"
            )
        units, size, read = self._evaluator or self._compile_evaluator()
        values = [0] * size
        for u in units:
            u(bits, values)
        return read(values)

    def _compile_evaluator(self):
        units, size, slots = _generate(self._ops, self._args, self.outputs)
        if len(slots) == 1:
            (slot,) = slots

            def read(values):
                return (values[slot],)

        else:
            read = operator.itemgetter(*slots)
        self._evaluator = units, size, read
        return self._evaluator

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


# ASCII: a str pattern's \d also matches the digits of other scripts,
# which int() reads too, so two texts would parse to one circuit
_HEADER = re.compile(r"^ac0 v1 inputs=(\d+) outputs=(\d+(?:,\d+)*)$", re.ASCII)
_GATE_LINE = re.compile(r"^g(\d+) ([A-Z01]+)((?: \d+)*)$", re.ASCII)


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
    # blank lines are skipped, but an error names the line of the text
    lines = [(i, ln) for i, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines:
        raise CircuitFormatError("empty circuit text")
    lineno, header = lines[0]
    m = _HEADER.match(header)
    if not m:
        raise CircuitFormatError(f"bad header line: {header!r}")
    # int() refuses text of more digits than sys.get_int_max_str_digits()
    try:
        input_arity = int(m.group(1))
        outputs = tuple(int(x) for x in m.group(2).split(","))
    except ValueError:
        raise CircuitFormatError(f"line {lineno}: a number too long to read") from None
    gates: list[Gate] = []
    for lineno, line in lines[1:]:
        gm = _GATE_LINE.match(line)
        if not gm:
            raise CircuitFormatError(f"line {lineno}: cannot parse {line!r}")
        try:
            gid = int(gm.group(1))
            args = tuple(int(x) for x in gm.group(3).split()) if gm.group(3) else ()
        except ValueError:
            raise CircuitFormatError(f"line {lineno}: a number too long to read") from None
        if gid != len(gates):
            raise CircuitFormatError(
                f"line {lineno}: expected gate g{len(gates)}, found g{gid}"
            )
        gates.append(Gate(gm.group(2), args))
    return Circuit(gates, outputs, input_arity)


def save_circuit(c: Circuit, path) -> None:
    Path(path).write_text(serialize(c))


def load_circuit(path) -> Circuit:
    """Parse the circuit text in file ``path``.  A file that cannot be read
    raises ``OSError``; one that is not UTF-8 text, or does not parse,
    raises ``CircuitFormatError``."""
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CircuitFormatError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    return parse(text)


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
