import random
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nimcore.circuits.ir import (
    AND,
    Circuit,
    Gate,
    INPUT,
    NOT,
    OR,
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


class TestFirstSet:
    @given(circuits_with_rows(), st.data())
    def test_matches_reference(self, case, data):
        c, rows = case
        # any order, repeats allowed, possibly empty
        picks = data.draw(st.lists(st.integers(0, len(c.outputs) - 1), max_size=8))
        for bits in rows:
            expected = reference_eval(c, bits)
            want = next((k for k in picks if expected[k]), None)
            assert c.first_set(bits, picks) == want

    def test_empty_outputs(self):
        assert and2().first_set([1, 1], []) is None

    def test_wrong_bit_count_as_evaluate(self):
        with pytest.raises(EncodingError) as single:
            and2().evaluate([1])
        with pytest.raises(EncodingError) as first:
            and2().first_set([1], [0])
        assert str(first.value) == str(single.value)

    @pytest.mark.parametrize("bad", [1, 7, -1])
    def test_output_index_out_of_range_named(self, bad):
        # raised even though output 0, read first, is set
        with pytest.raises(EncodingError, match=rf"output index {bad} out of range"):
            and2().first_set([1, 1], [0, bad])

    def test_deep_not_chain_needs_no_recursion(self):
        depth = 5000
        assert depth > sys.getrecursionlimit()
        gates = [Gate(INPUT)] + [Gate(NOT, (i,)) for i in range(depth)]
        c = Circuit(gates, [depth, 1], 1)
        assert c.evaluate([1]) == (1, 0)
        assert c.first_set([0], [0, 1]) == 1
        assert c.first_set([1], [1, 0]) == 0

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
            expected = reference_eval(c, bits)
            assert c.evaluate(bits) == expected
            assert c.first_set(bits, [0, 1]) == next(
                (k for k in (0, 1) if expected[k]), None
            )


class TestStructure:
    def test_forward_reference_rejected(self):
        with pytest.raises(CircuitFormatError):
            Circuit([Gate(INPUT), Gate(AND, (0, 2)), Gate(INPUT)], [1], 2)

    def test_not_needs_one_operand(self):
        with pytest.raises(CircuitFormatError):
            Circuit([Gate(INPUT), Gate(NOT, ())], [1], 1)

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
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(CircuitFormatError):
            parse(text)
