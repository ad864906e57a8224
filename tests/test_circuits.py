import functools
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nimcore.circuits.builders import build_even_nonempty_scorer, threshold_at_least
from nimcore.circuits.ir import (
    _NEST,
    _UNIT_NODES,
    _plan,
    _statements,
    AND,
    Circuit,
    Gate,
    INPUT,
    NOT,
    OR,
    load_circuit,
    parse,
    serialize,
)
from nimcore.errors import CircuitFormatError, EncodingError


def and2():
    return Circuit([Gate(INPUT), Gate(INPUT), Gate(AND, (0, 1))], [2], 2)


def reference_eval(circuit, bits):
    """Definitional evaluator used to check single and batch evaluation."""
    values = []
    slot = 0
    for g in circuit.gates:
        if g.kind == INPUT:
            values.append(1 if bits[slot] else 0)
            slot += 1
        elif g.kind == "CONST0":
            values.append(0)
        elif g.kind == "CONST1":
            values.append(1)
        elif g.kind == AND:
            values.append(1 if all(values[a] for a in g.args) else 0)
        elif g.kind == OR:
            values.append(1 if any(values[a] for a in g.args) else 0)
        else:
            values.append(1 - values[g.args[0]])
    return tuple(values[o] for o in circuit.outputs)


def random_circuit(rng):
    n_inputs = rng.randint(2, 6)
    gates = [Gate(INPUT) for _ in range(n_inputs)]
    gates.append(Gate("CONST0"))
    gates.append(Gate("CONST1"))
    for _ in range(rng.randint(5, 50)):
        kind = rng.choice((AND, OR, NOT))
        if kind == NOT:
            args = (rng.randrange(len(gates)),)
        else:
            fan = rng.randint(1, min(6, len(gates)))
            args = tuple(rng.sample(range(len(gates)), fan))
        gates.append(Gate(kind, args))
    outputs = tuple(rng.randrange(len(gates)) for _ in range(rng.randint(1, 4)))
    return Circuit(gates, outputs, n_inputs)


@st.composite
def circuits_with_rows(draw):
    """A random gate list and rows whose entries need not be 0/1."""
    n_inputs = draw(st.integers(1, 6))
    gates = [Gate(INPUT) for _ in range(n_inputs)] + [Gate("CONST0"), Gate("CONST1")]
    for _ in range(draw(st.integers(0, 30))):
        earlier = st.integers(0, len(gates) - 1)
        kind = draw(st.sampled_from((AND, OR, NOT)))
        if kind == NOT:
            args = (draw(earlier),)
        else:
            args = tuple(draw(st.lists(earlier, min_size=1, max_size=6)))
        gates.append(Gate(kind, args))
    outputs = draw(st.lists(st.integers(0, len(gates) - 1), min_size=1, max_size=4))
    row = st.lists(st.sampled_from((0, 1, 2, 255)), min_size=n_inputs, max_size=n_inputs)
    rows = draw(st.lists(row, min_size=1, max_size=20))
    return Circuit(gates, outputs, n_inputs), rows


def wide_random_circuit(rng, n_gates):
    """Several generated units' worth of gates, each reading gates drawn
    from anywhere earlier, so values cross unit boundaries."""
    n_inputs = rng.randint(4, 24)
    gates = [Gate(INPUT) for _ in range(n_inputs)] + [Gate("CONST0"), Gate("CONST1")]
    while len(gates) < n_gates:
        kind = rng.choice((AND, OR, NOT))
        if kind == NOT:
            args = (rng.randrange(len(gates)),)
        else:
            # favour recent gates, as layered builders do, but reach back
            args = tuple(
                rng.randrange(len(gates)) if rng.random() < 0.3
                else rng.randrange(max(0, len(gates) - 40), len(gates))
                for _ in range(rng.randint(1, 6))
            )
        gates.append(Gate(kind, args))
    outputs = [rng.randrange(len(gates)) for _ in range(rng.randint(1, 12))]
    # the last gate is an output, so no unit is cut off as dead code
    outputs.insert(rng.randrange(len(outputs) + 1), len(gates) - 1)
    return Circuit(gates, outputs, n_inputs)


def chain_heavy_circuit(rng, n_gates):
    """Gates that mostly read a recent gate nothing has read yet, so most
    have one reader and are written inside its test.  The rest read any
    earlier gate, so some gates have several readers, and now and then an
    OR of a few hundred fresh ANDs makes a test long enough to be cut
    into parts."""
    n_inputs = rng.randint(1, 10)
    gates = [Gate(INPUT) for _ in range(n_inputs)] + [Gate("CONST0"), Gate("CONST1")]
    unread: list[int] = []

    def operand():
        if unread and rng.random() < 0.75:
            return unread.pop(rng.randrange(max(0, len(unread) - 4), len(unread)))
        return rng.randrange(len(gates))

    while len(gates) < n_gates:
        r = rng.random()
        if r < 0.01:
            terms = []
            for _ in range(rng.randint(150, 300)):
                args = tuple(rng.randrange(len(gates)) for _ in range(rng.randint(1, 6)))
                gates.append(Gate(AND, args))
                terms.append(len(gates) - 1)
            gates.append(Gate(OR, tuple(terms)))
        elif r < 0.35:
            gates.append(Gate(NOT, (operand(),)))
        else:
            args = tuple(operand() for _ in range(rng.randint(1, 5)))
            gates.append(Gate(rng.choice((AND, OR)), args))
        unread.append(len(gates) - 1)
    outputs = [rng.randrange(len(gates)) for _ in range(rng.randint(0, 6))]
    outputs.insert(rng.randrange(len(outputs) + 1), len(gates) - 1)
    return Circuit(gates, outputs, n_inputs)


def assert_matches_reference(c, rows):
    for bits in rows:
        assert c.evaluate(bits) == reference_eval(c, bits)


@functools.cache
def at_least_24_4():
    # one OR of fan-in C(24, 4) = 10,626 over four-input ANDs
    return threshold_at_least(24, 4)


class TestEvaluate:
    def test_and_gate(self):
        c = and2()
        assert c.evaluate([1, 1]) == (1,)
        assert c.evaluate([1, 0]) == (0,)

    def test_const_circuit(self):
        c = Circuit([Gate(INPUT), Gate("CONST1")], [1], 1)
        assert c.evaluate([0]) == (1,)
        assert c.evaluate([1]) == (1,)

    def test_arity_mismatch(self):
        with pytest.raises(EncodingError):
            and2().evaluate([1])

    def test_batch_matches_single(self):
        rng = random.Random(11)
        c = random_circuit(rng)
        rows = np.array(
            [[rng.randint(0, 1) for _ in range(c.input_arity)] for _ in range(64)],
            dtype=np.uint8,
        )
        batch = c.evaluate_batch(rows)
        for row, out in zip(rows, batch):
            assert tuple(out) == c.evaluate(list(row))

    def test_kernels_agree_with_reference(self):
        rng = random.Random(23)
        for _ in range(30):
            c = random_circuit(rng)
            rows = [
                [rng.randint(0, 1) for _ in range(c.input_arity)] for _ in range(20)
            ]
            batch = c.evaluate_batch(np.array(rows, dtype=np.uint8))
            for bits, brow in zip(rows, batch):
                expected = reference_eval(c, bits)
                assert tuple(brow) == expected
                assert c.evaluate(bits) == expected

    @given(circuits_with_rows())
    def test_evaluators_match_reference_on_nonbinary_entries(self, case):
        c, rows = case
        batch = c.evaluate_batch(rows)
        assert batch.shape == (len(rows), len(c.outputs))
        for bits, brow in zip(rows, batch):
            expected = reference_eval(c, bits)
            assert c.evaluate(bits) == expected
            assert tuple(int(x) for x in brow) == expected
            assert set(expected) <= {0, 1}

    def test_batch_reads_nonzero_as_one(self):
        assert and2().evaluate([2, 1]) == (1,)
        assert and2().evaluate_batch([[2, 1]]).tolist() == [[1]]
        inv = Circuit([Gate(INPUT), Gate(NOT, (0,))], [1], 1)
        assert inv.evaluate_batch([[2], [0]]).tolist() == [[0], [1]]
        wide = np.array([[256, 1], [512, 0]], dtype=np.int64)
        assert and2().evaluate_batch(wide).tolist() == [[1], [0]]

    def test_deep_not_chain_needs_no_recursion(self):
        depth = 5000
        assert depth > sys.getrecursionlimit()
        gates = [Gate(INPUT)] + [Gate(NOT, (i,)) for i in range(depth)]
        c = Circuit(gates, [depth, 1], 1)
        assert c.evaluate([1]) == (1, 0)
        assert c.evaluate([0]) == (0, 1)

    def test_dead_gates_do_not_matter(self):
        # gates no output reads, before and between the output gates
        gates = [Gate(INPUT) for _ in range(3)] + [
            Gate(AND, (0, 1)),  # read by nothing
            Gate(OR, (0, 2)),
            Gate(NOT, (3,)),  # read by nothing
            Gate(AND, (4, 1)),
            Gate("CONST1"),  # read by nothing
        ]
        c = Circuit(gates, [6, 4], 3)
        for row in range(8):
            bits = [(row >> j) & 1 for j in range(3)]
            assert c.evaluate(bits) == reference_eval(c, bits)


class TestGeneratedCode:
    """``evaluate`` against ``reference_eval`` where the generated code is
    split: across units, and within one wide gate."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1500, 3000))
    def test_circuits_spanning_units(self, seed, n_gates):
        rng = random.Random(seed)
        c = wide_random_circuit(rng, n_gates)
        rows = [[rng.randint(0, 1) for _ in range(c.input_arity)] for _ in range(8)]
        assert_matches_reference(c, rows)
        assert len(c._evaluator[0]) > 2  # the premise: several units

    @settings(max_examples=6, deadline=None)
    @given(st.sampled_from((AND, OR)), st.integers(3001, 9000), st.integers(0, 2**32))
    def test_one_gate_wider_than_3000(self, kind, fan_in, seed):
        # every operand a distinct input, shuffled: a row with one entry
        # flipped against the rest decides the gate on that one operand
        rng = random.Random(seed)
        order = list(range(fan_in))
        rng.shuffle(order)
        gates = [Gate(INPUT) for _ in range(fan_in)]
        gates += [Gate(kind, tuple(order)), Gate(NOT, (fan_in,))]
        c = Circuit(gates, [fan_in + 1, fan_in, 0], fan_in)
        rest = 1 if kind == AND else 0
        rows = [[rest] * fan_in, [1 - rest] * fan_in]
        rows.append([rng.randint(0, 1) for _ in range(fan_in)])
        for i in rng.sample(range(fan_in), 3) + [order[0], order[-1]]:
            row = [rest] * fan_in
            row[i] = 1 - rest
            rows.append(row)
        assert_matches_reference(c, rows)

    @pytest.mark.parametrize("kind", [AND, OR])
    def test_wide_gate_reads_every_operand(self, kind):
        # wide enough to be split into statements and across units
        n = 4500
        order = list(range(n))
        random.Random(2).shuffle(order)
        c = Circuit([Gate(INPUT) for _ in range(n)] + [Gate(kind, tuple(order))], [n], n)
        rest = 1 if kind == AND else 0
        row = [rest] * n
        assert c.evaluate(row) == (rest,)
        for i in range(n):
            row[i] = 1 - rest
            assert c.evaluate(row) == (1 - rest,), f"operand of input {i} not read"
            row[i] = rest

    def test_dead_wide_gate(self):
        # split across units, and read by no output
        gates = [Gate(INPUT) for _ in range(8)]
        gates += [Gate(AND, tuple(i % 8 for i in range(9000))), Gate(NOT, (0,))]
        c = Circuit(gates, [9], 8)
        assert c.evaluate([0] * 8) == (1,)
        assert c.evaluate([1] * 8) == (0,)

    def test_compile_memory_is_bounded(self):
        # one gate of fan-in 20,000 compiled in one piece peaks near 26 MB
        # of Python allocations; split into units it stays under 5 MB
        wide = Gate(OR, tuple(i % 10 for i in range(20_000)))
        c = Circuit([Gate(INPUT) for _ in range(10)] + [wide], [10], 10)
        tracemalloc.start()
        try:
            assert c.evaluate([0] * 9 + [1]) == (1,)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 15e6

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, 23), max_size=6))
    def test_threshold_at_least_24_4(self, ones):
        c = at_least_24_4()
        assert max(len(g.args) for g in c.gates) == 10_626
        bits = [1 if i in ones else 0 for i in range(24)]
        assert_matches_reference(c, [bits])
        assert c.evaluate(bits) == (int(len(set(ones)) >= 4),)

    def test_first_calls_from_four_threads(self):
        c = wide_random_circuit(random.Random(5), 2000)
        rng = random.Random(6)
        rows = [[rng.randint(0, 1) for _ in range(c.input_arity)] for _ in range(6)]
        expected = [reference_eval(c, bits) for bits in rows]
        start = threading.Barrier(4)
        results = []

        def run():
            start.wait(timeout=30)
            results.append([c.evaluate(bits) for bits in rows])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [expected] * 4


class TestInlinedGates:
    """``evaluate`` against ``reference_eval`` where most gates are written
    inside the tests of the gates that read them."""

    ENTRIES = (0, 1, 2, -1, True, False, np.uint8(0), np.uint8(1), np.uint8(200))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32), st.integers(20, 2500))
    def test_chain_heavy_circuits(self, seed, n_gates):
        rng = random.Random(seed)
        c = chain_heavy_circuit(rng, n_gates)
        _, inlined, *_ = _plan(c._ops, c._args, max(c.outputs) + 1, c.outputs)
        assert any(inlined)  # the premise: gates are inlined
        for _ in range(6):
            bits = [rng.choice(self.ENTRIES) for _ in range(c.input_arity)]
            expected = reference_eval(c, bits)
            got = c.evaluate(bits)
            assert got == expected
            assert {type(v) for v in got} == {int}

    @pytest.mark.parametrize("kind", [AND, OR])
    def test_long_test_cut_into_parts(self, kind):
        # 500 fresh two-input terms in one gate: past a statement's size
        n = 1000
        gates = [Gate(INPUT) for _ in range(n)]
        gates += [Gate(AND if kind == OR else OR, (2 * i, 2 * i + 1)) for i in range(500)]
        gates.append(Gate(kind, tuple(range(n, n + 500))))
        c = Circuit(gates, [len(gates) - 1, 0], n)
        nodes = _plan(c._ops, c._args, len(gates), c.outputs)[2]
        assert nodes[-1] > _UNIT_NODES  # the premise: two parts or more
        # every term the same but one, which decides the gate
        rest = [1] * n if kind == AND else [0] * n
        for term in (0, 250, 499):
            row = list(rest)
            row[2 * term] = row[2 * term + 1] = 1 - rest[0]
            for bits in (rest, row):
                assert c.evaluate(bits) == reference_eval(c, bits)

    # NOT and AND alternating, and one-operand ANDs, which nest parentheses
    @pytest.mark.parametrize("chain", [(NOT, AND), (AND,)], ids=["not-and", "and"])
    def test_long_single_reader_chain(self, chain):
        # each gate read once, by the next: inlined only up to a bounded
        # depth, so neither the parser nor the compiler recurses deeply
        n = 100_000
        gates = [Gate(INPUT), Gate(INPUT), Gate(NOT, (0,))]
        for i in range(n):
            prev = len(gates) - 1
            kind = chain[i % len(chain)]
            gates.append(Gate(kind, (prev,) if kind == NOT or len(chain) == 1 else (prev, 1)))
        c = Circuit(gates, [len(gates) - 1, 2], 2)
        for bits in ([0, 0], [0, 1], [1, 0], [1, 1], [True, np.uint8(3)]):
            assert c.evaluate(bits) == reference_eval(c, bits)


@st.composite
def shared_prefix_ors(draw):
    """An OR over ANDs read by it alone, so inlined, whose operand lists
    are copies, prefixes and extensions of earlier ones, in drawn or in
    sorted order; a one-operand disjunct may be that operand itself.  The
    OR is an output, or read by one AND, which inlines it too."""
    n_inputs = draw(st.integers(1, 5))
    gates = [Gate(INPUT) for _ in range(n_inputs)]
    gates += [Gate(NOT, (i,)) for i in range(n_inputs)]
    shared = len(gates)  # an output, so a statement that the ANDs read
    gates.append(Gate(OR, (0, n_inputs - 1)))
    operand = st.integers(0, shared)
    lists: list[tuple[int, ...]] = []
    for _ in range(draw(st.integers(1, 40))):
        how = draw(st.sampled_from(("fresh", "copy", "prefix", "extend")))
        if not lists or how == "fresh":
            ops = tuple(draw(st.lists(operand, min_size=1, max_size=6)))
        else:
            base = draw(st.sampled_from(lists))
            if how == "copy":
                ops = base
            elif how == "prefix":
                ops = base[: draw(st.integers(1, len(base)))]
            else:
                ops = base + tuple(draw(st.lists(operand, min_size=1, max_size=3)))
        lists.append(ops)
    if draw(st.booleans()):
        lists.sort()
    disjuncts = []
    for ops in lists:
        if len(ops) == 1 and draw(st.booleans()):
            disjuncts.append(ops[0])
        else:
            gates.append(Gate(AND, ops))
            disjuncts.append(len(gates) - 1)
    gates.append(Gate(OR, tuple(disjuncts)))
    if draw(st.booleans()):
        gates.append(Gate(AND, (len(gates) - 1, draw(operand))))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, 1), min_size=n_inputs, max_size=n_inputs),
            min_size=1,
            max_size=16,
        )
    )
    return Circuit(gates, [len(gates) - 1, shared], n_inputs), rows


def deepest_parentheses(c):
    """How deep the parentheses of the generated statements nest."""
    stop = max(c.outputs) + 1
    plan = _plan(c._ops, c._args, stop, c.outputs)
    deepest = 0
    for _, line, _, _ in _statements(c._ops, c._args, stop, plan):
        depth = 0
        for ch in line:
            if ch == "(":
                depth += 1
                deepest = max(deepest, depth)
            elif ch == ")":
                depth -= 1
    return deepest


class TestFactoredTests:
    """``evaluate`` against ``reference_eval`` where an OR's inlined ANDs
    share their first operands, which its test writes once."""

    @settings(max_examples=300, deadline=None)
    @given(shared_prefix_ors())
    def test_shared_prefixes(self, case):
        c, rows = case
        assert_matches_reference(c, rows)

    def test_parity_is_tested_as_a_trie(self):
        # the 9-heap scorer: each heap's parity of the other 8 non-empty
        # flags, 128 ANDs in wire order, written as a trie of depth 8
        c = build_even_nonempty_scorer(9, 5)
        stop = max(c.outputs) + 1
        runs = _plan(c._ops, c._args, stop, c.outputs)[4]
        assert len(runs) == 9
        rng = random.Random(4)
        assert_matches_reference(c, [[rng.randint(0, 1) for _ in range(45)] for _ in range(40)])

    # the ORs nest, each read once by an AND of the next, and their ANDs
    # share a 14-operand prefix, or branch after every operand of it
    @pytest.mark.parametrize("levels", [_NEST, 40])
    @pytest.mark.parametrize("shape", ["shared", "staircase"])
    def test_nested_factored_ors_nest_no_deeper_than_the_bound(self, levels, shape):
        k = 14
        gates = [Gate(INPUT) for _ in range(k + 2)]
        prefix, y = tuple(range(k)), k + 1
        inner = k
        for _ in range(levels):
            if shape == "shared":
                lists = [prefix + (inner,), prefix + (y,)]
            else:
                lists = [prefix[:1] + (inner,)] + [prefix[: i + 1] + (y,) for i in range(1, k)]
            for ops in lists:
                gates.append(Gate(AND, ops))
            gates.append(Gate(OR, tuple(range(len(gates) - len(lists), len(gates)))))
            inner = len(gates) - 1
        c = Circuit(gates, [inner], k + 2)
        assert _plan(c._ops, c._args, len(gates), c.outputs)[4]  # the premise: factored
        assert deepest_parentheses(c) <= _NEST
        ones = [1] * (k + 2)
        rows = [ones, [0] * (k + 2)]
        for i in (0, 1, k - 1, k, k + 1):
            rows.append(ones[:i] + [0] + ones[i + 1 :])
        rows.append(ones[:k] + [0, 0])
        assert_matches_reference(c, rows)

    def test_a_branch_after_every_operand_nests_no_deeper_than_the_bound(self):
        # ANDs of the first 1..199 inputs and the last: a trie 199 deep
        n = 200
        gates = [Gate(INPUT) for _ in range(n)]
        gates += [Gate(AND, tuple(range(i + 1)) + (n - 1,)) for i in range(n - 1)]
        gates.append(Gate(OR, tuple(range(n, 2 * n - 1))))
        c = Circuit(gates, [2 * n - 1], n)
        assert deepest_parentheses(c) <= _NEST
        ones = [1] * n
        rows = [ones, ones[:-1] + [0]]
        rows += [[0] * i + ones[i:] for i in (1, 100, n - 1)]
        rows += [ones[:i] + [0] * (n - i) for i in (1, 100, n - 1)]
        assert_matches_reference(c, rows)

    def test_factored_compile_memory_is_bounded(self):
        # 8,000 ANDs that share their first operand: factored as one test,
        # a ~17 MB compile; cut into parts that each write it, under 6 MB
        n = 8_000
        gates = [Gate(INPUT) for _ in range(10)]
        gates += [Gate(AND, (0, 1 + i % 9)) for i in range(n)]
        gates.append(Gate(OR, tuple(range(10, 10 + n))))
        c = Circuit(gates, [len(gates) - 1], 10)
        tracemalloc.start()
        try:
            assert c.evaluate([1] + [0] * 8 + [1]) == (1,)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6
        assert_matches_reference(c, [[0] + [1] * 9, [1] + [0] * 9, [1] * 10])

    @pytest.mark.parametrize("prefix", [200, 300])
    def test_long_shared_prefix(self, prefix):
        # ANDs of 201 operands are inlined and factored; of 301, they are
        # past _INLINE_NODES and are statements the OR reads
        n = prefix + 4
        gates = [Gate(INPUT) for _ in range(n)]
        gates += [Gate(AND, tuple(range(prefix)) + (prefix + j,)) for j in range(4)]
        gates.append(Gate(OR, tuple(range(n, n + 4))))
        c = Circuit(gates, [n + 4], n)
        ones = [1] * n
        rows = [ones, [0] * n, ones[:prefix] + [0] * 4]
        for j in range(4):
            rows.append(ones[:prefix] + [int(i == j) for i in range(4)])
        for i in (0, prefix // 2, prefix - 1):
            rows.append(ones[:i] + [0] + ones[i + 1 :])
        assert_matches_reference(c, rows)


class TestStructure:
    def test_forward_reference_rejected(self):
        with pytest.raises(CircuitFormatError):
            Circuit([Gate(INPUT), Gate(AND, (0, 2)), Gate(INPUT)], [1], 2)

    def test_not_needs_one_operand(self):
        with pytest.raises(CircuitFormatError):
            Circuit([Gate(INPUT), Gate(NOT, ())], [1], 1)

    @pytest.mark.parametrize("bad", [0.5, 1.0, "0", True, None])
    def test_operand_must_be_an_int(self, bad):
        with pytest.raises(CircuitFormatError, match=r"gate g2 has operand"):
            Circuit([Gate(INPUT), Gate(INPUT), Gate(AND, (0, bad))], [2], 2)

    @pytest.mark.parametrize("bad", [1.0, True, "1"])
    def test_output_must_be_an_int(self, bad):
        with pytest.raises(CircuitFormatError, match=r"output gate .* is not an int"):
            Circuit([Gate(INPUT), Gate(NOT, (0,))], [bad], 1)

    @pytest.mark.parametrize("bad", [1.0, True, "1"])
    def test_input_arity_must_be_an_int(self, bad):
        with pytest.raises(CircuitFormatError, match=r"input arity .* is not an int"):
            Circuit([Gate(INPUT), Gate(NOT, (0,))], [1], bad)

    def test_input_count_must_match(self):
        with pytest.raises(CircuitFormatError):
            Circuit([Gate(INPUT)], [0], 2)

    def test_metrics(self):
        c = Circuit([Gate(INPUT) for _ in range(8)] + [Gate(AND, tuple(range(8)))], [8], 8)
        m = c.metrics()
        assert (m.depth, m.size, m.fan_in_max) == (1, 1, 8)

    def test_not_gates_add_depth(self):
        gates = [Gate(INPUT)]
        for i in range(10):
            gates.append(Gate(NOT, (i,)))
        c = Circuit(gates, [10], 1)
        assert c.gate_depths() == list(range(11))


class TestSerialization:
    def test_format(self):
        text = serialize(and2())
        assert text.splitlines()[0] == "ac0 v1 inputs=2 outputs=2"
        assert text.splitlines()[1] == "g0 INPUT"
        assert text.splitlines()[3] == "g2 AND 0 1"

    def test_round_trip_exact(self):
        rng = random.Random(3)
        for _ in range(25):
            c = random_circuit(rng)
            text = serialize(c)
            back = parse(text)
            assert serialize(back) == text
            assert back.metrics() == c.metrics()
            rows = np.array(
                [[rng.randint(0, 1) for _ in range(c.input_arity)] for _ in range(100)],
                dtype=np.uint8,
            )
            assert np.array_equal(c.evaluate_batch(rows), back.evaluate_batch(rows))

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "ac0 v2 inputs=1 outputs=0\ng0 INPUT",
            "ac0 v1 inputs=1 outputs=0\ng1 INPUT",
            "ac0 v1 inputs=1 outputs=0\ng0 XOR 0",
            "ac0 v1 inputs=1 outputs=5\ng0 INPUT",
            "ac0 v1 inputs=1 outputs=,",
            "ac0 v1 inputs=1 outputs=0,,0",
            # digits of another script, which int() would read
            "ac0 v1 inputs=\u0661 outputs=0\ng0 INPUT",
            "ac0 v1 inputs=1 outputs=0\ng\u0660 INPUT",
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(CircuitFormatError):
            parse(text)

    # more digits than int() reads from text: 4,300 by default
    @pytest.mark.parametrize(
        "text, line",
        [
            ("ac0 v1 inputs=%s outputs=0\ng0 INPUT" % ("1" * 5000), 1),
            ("ac0 v1 inputs=1 outputs=0,%s\ng0 INPUT" % ("2" * 5000), 1),
            ("ac0 v1 inputs=1 outputs=0\ng%s INPUT" % ("9" * 5000), 2),
            ("ac0 v1 inputs=1 outputs=1\ng0 INPUT\ng1 NOT %s" % ("3" * 5000), 3),
        ],
        ids=["inputs", "output", "gate-id", "operand"],
    )
    def test_overlong_number_names_the_line(self, text, line):
        with pytest.raises(CircuitFormatError, match=f"^line {line}: a number too long to read$"):
            parse(text)

    def test_error_names_the_line_of_the_text(self):
        # blank lines before the faulty one count too
        with pytest.raises(CircuitFormatError, match=r"^line 5: cannot parse 'g1 not 0'$"):
            parse("ac0 v1 inputs=1 outputs=0\n\n  \ng0 INPUT\ng1 not 0\n")
        with pytest.raises(CircuitFormatError, match=r"^line 3: expected gate g0, found g2$"):
            parse("\nac0 v1 inputs=1 outputs=0\ng2 INPUT\n")

    def test_load_refuses_a_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "bytes.ac0"
        path.write_bytes(b"\xff\xfe\x00")
        with pytest.raises(CircuitFormatError, match=r"bytes\.ac0: not UTF-8 text"):
            load_circuit(path)
