"""Constructive builders for the fixed-depth subcircuits the pipeline uses.

All constructions keep depth independent of the heap count: fan-in grows
with the position size, never the number of gate levels.  The XOR-heavy
pieces expand into AND/OR/NOT because the gate basis has no XOR.

The builder functions take no cap or budget: each builds within the fixed
``DEFAULT_GATE_BUDGET`` and raises ``GateBudgetError`` past it, and
``threshold_at_least`` also keeps to the fixed ``DEFAULT_T_CAP``.  Only
``CircuitBuilder`` itself (and so ``models.compile_to_ac0``) takes a
budget.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import Sequence

from ..errors import EncodingError, GateBudgetError, ThresholdCapError
from .encoding import PositionEncoding
from .ir import AND, CONST0, CONST1, Circuit, Gate, INPUT, NOT, OR

DEFAULT_T_CAP = 8
DEFAULT_GATE_BUDGET = 1_000_000


class CircuitBuilder:
    """Incremental circuit assembly.

    AND/OR always emit a gate (so structural sizes are predictable); NOT
    gates and constants are deduplicated since sharing them never changes
    depth.
    """

    def __init__(self, gate_budget: int = DEFAULT_GATE_BUDGET):
        self.gate_budget = gate_budget
        self._gates: list[Gate] = []
        self._input_count = 0
        self._consts: dict[int, int] = {}
        self._nots: dict[int, int] = {}

    def _add(self, kind: str, args: Sequence[int] = ()) -> int:
        if len(self._gates) >= self.gate_budget:
            raise GateBudgetError(
                f"construction exceeds the gate budget of {self.gate_budget}"
            )
        self._gates.append(Gate(kind, tuple(args)))
        return len(self._gates) - 1

    def reserve(self, gates_needed: int) -> None:
        """Fail fast when a construction step cannot fit in the budget."""
        if len(self._gates) + gates_needed > self.gate_budget:
            raise GateBudgetError(
                f"construction needs {gates_needed} more gates, which exceeds "
                f"the budget of {self.gate_budget}"
            )

    def input(self) -> int:
        self._input_count += 1
        return self._add(INPUT)

    def inputs(self, k: int) -> list[int]:
        return [self.input() for _ in range(k)]

    def const(self, bit: int) -> int:
        bit = 1 if bit else 0
        if bit not in self._consts:
            self._consts[bit] = self._add(CONST1 if bit else CONST0)
        return self._consts[bit]

    def wire_const(self, wire: int) -> int | None:
        """0/1 if the wire is a constant gate, else None."""
        kind = self._gates[wire].kind
        if kind == CONST0:
            return 0
        if kind == CONST1:
            return 1
        return None

    def not_(self, wire: int) -> int:
        c = self.wire_const(wire)
        if c is not None:
            return self.const(1 - c)
        if wire not in self._nots:
            self._nots[wire] = self._add(NOT, (wire,))
        return self._nots[wire]

    def and_(self, wires: Sequence[int]) -> int:
        if not wires:
            raise ValueError("AND needs at least one operand")
        return self._add(AND, wires)

    def or_(self, wires: Sequence[int]) -> int:
        if not wires:
            raise ValueError("OR needs at least one operand")
        return self._add(OR, wires)

    def xor2(self, a: int, b: int) -> int:
        return self.or_([self.and_([a, self.not_(b)]), self.and_([self.not_(a), b])])

    def at_least(self, wires: Sequence[int], t: int) -> int:
        """1 iff at least ``t`` of ``wires`` are 1: an OR over every size-``t``
        AND, so C(len(wires), t) + 1 gates of depth 2, reserved up front."""
        if t <= 0:
            return self.const(1)
        if t > len(wires):
            return self.const(0)
        self.reserve(comb(len(wires), t) + 1)
        return self.or_([self.and_(combo) for combo in itertools.combinations(wires, t)])

    def build(self, outputs: Sequence[int]) -> Circuit:
        return Circuit(self._gates, outputs, self._input_count)


def threshold_at_least(n: int, t: int) -> Circuit:
    """Output 1 iff at least ``t`` of ``n`` inputs are 1.

    Realized as an OR over every size-``t`` AND, so size is C(n, t) + 1
    and depth is 2.  ``t`` must not exceed the fixed cap ``DEFAULT_T_CAP``
    (else ``ThresholdCapError``): the gate count is polynomial only
    because the threshold is a constant.  A construction above the fixed
    ``DEFAULT_GATE_BUDGET`` raises ``GateBudgetError`` before any AND is
    built.
    """
    if n < 0 or not 0 <= t <= n:
        raise ValueError(f"need 0 <= t <= n, got n={n}, t={t}")
    if t > DEFAULT_T_CAP:
        raise ThresholdCapError(f"threshold {t} is above the constant cap {DEFAULT_T_CAP}")
    b = CircuitBuilder()
    return b.build([b.at_least(b.inputs(n), t)])


def _heap_diff_wires(b: CircuitBuilder, pa, pb, n: int, l: int):
    """Per-bit difference wires and per-heap changed flags for two frames."""
    dbits = [
        [b.xor2(pa[i * l + j], pb[i * l + j]) for j in range(l)] for i in range(n)
    ]
    diff = [b.or_(dbits[i]) for i in range(n)]
    return dbits, diff


def _parity_sop(b: CircuitBuilder, wires: Sequence[int], want_odd: bool = True) -> int:
    """Parity of a constant number of wires as a two-level formula."""
    terms = []
    for assignment in itertools.product((0, 1), repeat=len(wires)):
        if (sum(assignment) % 2 == 1) != want_odd:
            continue
        lits = [w if bit else b.not_(w) for w, bit in zip(wires, assignment)]
        terms.append(b.and_(lits) if len(lits) > 1 else lits[0])
    if not terms:
        return b.const(0 if want_odd else 1)
    return b.or_(terms) if len(terms) > 1 else terms[0]


def build_nimber_diff_circuit(n: int, l: int, k_max: int = 2) -> Circuit:
    """Local nimber difference of two positions that differ in <= k_max heaps.

    Inputs: two encoded positions (2*n*l bits).  Outputs: the l bits of
    the XOR of per-heap differences over the changed heaps (MSB first),
    then one validity bit that is 0 when more than k_max heaps differ.

    Each output bit ORs over every <=k_max-subset of heaps: a subset's
    term fires when the changed-heap mask matches the subset exactly and
    the XOR fold of its per-heap difference bits (a constant-size formula,
    the subset has at most k_max members) is 1.  Depth is therefore a
    constant; the subset enumeration costs O(n^k_max) gates, within the
    fixed gate budget.
    """
    if n < 1 or l < 1 or k_max < 0:
        raise ValueError("need n >= 1, l >= 1, k_max >= 0")
    b = CircuitBuilder()
    pa = b.inputs(n * l)
    pb = b.inputs(n * l)
    return b.build(_nimber_diff_wires(b, pa, pb, n, l, k_max))


def _nimber_diff_wires(
    b: CircuitBuilder, pa: Sequence[int], pb: Sequence[int], n: int, l: int, k_max: int
) -> list[int]:
    """The l value wires, then the validity wire, of the nimber difference
    of frames ``pa`` and ``pb`` (see ``build_nimber_diff_circuit``)."""
    dbits, diff = _heap_diff_wires(b, pa, pb, n, l)
    same = [b.not_(w) for w in diff]

    selectors: list[tuple[tuple[int, ...], int]] = []
    for size in range(1, min(k_max, n) + 1):
        for subset in itertools.combinations(range(n), size):
            members = set(subset)
            lits = [diff[i] if i in members else same[i] for i in range(n)]
            selectors.append((subset, b.and_(lits)))

    value_outs = []
    for j in range(l):
        terms = []
        for subset, sel in selectors:
            if len(subset) == 1:
                par = dbits[subset[0]][j]
            else:
                par = _parity_sop(b, [dbits[i][j] for i in subset])
            terms.append(b.and_([sel, par]))
        value_outs.append(b.or_(terms) if terms else b.const(0))

    # validity: 0 when more than k_max heaps differ.  "More than k" is
    # "some k-subset all differs and a heap outside it also differs",
    # which needs O(n^k_max) gates instead of the O(n^(k_max+1)) of a
    # direct (k_max+1)-subset enumeration.
    if k_max >= n:
        valid = b.const(1)
    elif k_max == 0:
        valid = b.not_(b.or_(diff))
    else:
        over_terms = []
        for subset in itertools.combinations(range(n), k_max):
            members = set(subset)
            outside = [diff[i] for i in range(n) if i not in members]
            over_terms.append(
                b.and_([diff[i] for i in subset] + [b.or_(outside)])
            )
        valid = b.not_(b.or_(over_terms))
    return value_outs + [valid]


def build_move_validator_circuit(enc: PositionEncoding, k_max: int = 2) -> Circuit:
    """Score every candidate move of the current position by value preservation.

    Takes three encoded frames (previous own position P1, position after
    the opponent's move Q1, and the current position).  Emits one bit per
    candidate slot (heap h to new count v, heap-major): the bit is 1 iff
    the local nimber difference of (P1, Q1) equals that of (current,
    candidate result), i.e. the candidate cancels the opponent's value
    change.  Candidates are scored for all 2**l values; legality (strict
    decrease) is the caller's concern.

    Layer structure: difference detection on (P1, Q1); per-heap lookup of
    the current count (one minterm per possible count, so candidate
    modification words are table lookups); per-bit parity-match against
    the detected difference; a final AND per candidate.  The (P1, Q1)
    validity bit is folded into every score so an out-of-contract history
    endorses nothing.  The nimber difference is built in the validator's
    own builder, and the whole construction within the fixed gate budget.
    """
    if enc.frames != 3:
        raise EncodingError("move validation needs exactly 3 frames")
    n, l = enc.n, enc.l
    b = CircuitBuilder()
    ins = b.inputs(enc.total_bits)
    fb = enc.frame_bits
    p1, q1, cur = ins[:fb], ins[fb : 2 * fb], ins[2 * fb :]

    *ndiff, valid = _nimber_diff_wires(b, p1, q1, n, l, k_max)
    ndiff_not = [b.not_(w) for w in ndiff]

    outs = []
    for h in range(n):
        hbits = cur[h * l : (h + 1) * l]
        minterms = []
        for count in range(1 << l):
            lits = [
                hbits[j] if (count >> (l - 1 - j)) & 1 else b.not_(hbits[j])
                for j in range(l)
            ]
            minterms.append(b.and_(lits) if l > 1 else lits[0])
        for v in range(1 << l):
            match = []
            for j in range(l):
                hits = [minterms[c] for c in range(1 << l) if ((c ^ v) >> (l - 1 - j)) & 1]
                cbit = b.or_(hits)
                match.append(
                    b.or_([b.and_([ndiff[j], cbit]), b.and_([ndiff_not[j], b.not_(cbit)])])
                )
            outs.append(b.and_(match + [valid]))
    return b.build(outs)


def build_even_nonempty_scorer(n: int, l: int) -> Circuit:
    """Single-frame heuristic scorer: prefer moves leaving an even number
    of non-empty heaps.

    Takes one encoded frame and emits one bit per candidate slot (heap h
    to value v, heap-major).  Deliberately crude: it is the history-free
    baseline, correct only on boards of single-object heaps.  Built
    within the fixed gate budget.
    """
    b = CircuitBuilder()
    ins = b.inputs(n * l)
    nonempty = [b.or_(ins[i * l : (i + 1) * l]) for i in range(n)]
    outs = []
    for h in range(n):
        others = [nonempty[i] for i in range(n) if i != h]
        if others:
            even_rest = _parity_sop(b, others, want_odd=False)
        else:
            even_rest = b.const(1)
        odd_rest = b.not_(even_rest)
        for v in range(1 << l):
            outs.append(even_rest if v == 0 else odd_rest)
    return b.build(outs)
