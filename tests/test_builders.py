import hashlib
import itertools
import random
import re

import numpy as np
import pytest

from nimcore import verify
from nimcore.circuits.builders import (
    CircuitBuilder,
    _heap_diff_wires,
    build_even_nonempty_scorer,
    build_move_validator_circuit,
    build_nimber_diff_circuit,
    threshold_at_least,
)
from nimcore.circuits.encoding import PositionEncoding, decode_value, encode_value
from nimcore.circuits.ir import serialize
from nimcore.errors import EncodingError, GateBudgetError, ThresholdCapError
from nimcore.models import compile_to_ac0

from oracles import popcount_at_least, xor_fold


def all_bit_rows(n):
    return np.array(
        [[(x >> i) & 1 for i in range(n)] for x in range(1 << n)], dtype=np.uint8
    )


class TestEncoding:
    def test_encode_value_msb_first(self):
        assert encode_value(5, 4) == [0, 1, 0, 1]
        assert decode_value([0, 1, 0, 1]) == 5

    def test_value_too_wide(self):
        with pytest.raises(EncodingError):
            encode_value(8, 3)

    # exactly int >= 1: True would read as width 1
    @pytest.mark.parametrize(
        "value, width", [(1, True), (3, 2.5), (5, "3"), (0, -1), (0, 0), (1, None)]
    )
    def test_width_must_be_an_int_of_at_least_one(self, value, width):
        message = rf"^width {re.escape(repr(width))} is not an int >= 1$"
        with pytest.raises(EncodingError, match=message):
            encode_value(value, width)

    def test_layout(self):
        enc = PositionEncoding(2, 3, frames=2)
        assert enc.total_bits == 12
        bits = enc.encode([(3, 5), (0, 7)])
        assert bits == [0, 1, 1, 1, 0, 1, 0, 0, 0, 1, 1, 1]

    def test_candidate_slots(self):
        enc = PositionEncoding(3, 2)
        assert enc.slot_count == 12
        assert enc.candidate_slot(2, 3) == 11
        with pytest.raises(EncodingError):
            enc.candidate_slot(3, 0)

    def test_encode_heaps_reads_encode_value(self):
        # every board of a small shape, twice: the second pass reads the
        # rows the first one kept
        enc = PositionEncoding(3, 3, frames=1)
        for _ in range(2):
            for heaps in itertools.product(range(8), repeat=3):
                expected = [b for h in heaps for b in encode_value(h, 3)]
                assert enc.encode_heaps(heaps) == expected

    # exactly int: True would encode as 1, and 2.0 and 1.5 are no counts
    @pytest.mark.parametrize("bad", [True, False, 1.5, 2.0, "1", None])
    def test_counts_must_be_ints(self, bad):
        enc = PositionEncoding(3, 3, frames=1)
        enc.encode_heaps((0, 1, 2))  # rows 0, 1 and 2 are now kept
        message = rf"^value {re.escape(repr(bad))} is not an int$"
        with pytest.raises(EncodingError, match=message):
            encode_value(bad, 3)
        with pytest.raises(EncodingError, match=message):
            enc.encode_heaps((bad, 2, 3))
        with pytest.raises(EncodingError, match=message):
            enc.encode([(1, 2, bad)])
        with pytest.raises(EncodingError, match=message):
            enc.candidate_slot(1, bad)
        with pytest.raises(EncodingError, match=rf"^heap {re.escape(repr(bad))} is not an int$"):
            enc.candidate_slot(bad, 2)

    @pytest.mark.parametrize(
        "args, name, value",
        [
            ((2.5, 3), "n", 2.5),
            ((2, True), "l", True),
            ((2, 3, 1.0), "frames", 1.0),
            (("3", 3), "n", "3"),
            ((2, None), "l", None),
            ((0, 3), "n", 0),
            ((2, 3, -1), "frames", -1),
        ],
    )
    def test_sizes_must_be_ints(self, args, name, value):
        with pytest.raises(EncodingError, match=rf"; {name} is {re.escape(repr(value))}$"):
            PositionEncoding(*args)


class TestThreshold:
    def test_examples(self):
        c = threshold_at_least(3, 2)
        assert c.evaluate([1, 1, 0]) == (1,)
        assert c.evaluate([1, 0, 0]) == (0,)

    def test_zero_threshold_always_one(self):
        c = threshold_at_least(4, 0)
        assert c.evaluate([0, 0, 0, 0]) == (1,)

    def test_metrics_exact(self):
        m = threshold_at_least(3, 2).metrics()
        assert (m.depth, m.size) == (2, 4)  # 3 ANDs + 1 OR

    def test_exhaustive_popcount(self):
        for n in range(1, 13):
            rows = all_bit_rows(n)
            for t in range(0, min(n, 3) + 1):
                out = threshold_at_least(n, t).evaluate_batch(rows)
                for row, got in zip(rows, out):
                    assert got[0] == popcount_at_least(row, t)

    def test_cap_rejected(self):
        with pytest.raises(ThresholdCapError):
            threshold_at_least(20, 9)

    def test_budget_rejected(self):
        with pytest.raises(GateBudgetError):
            threshold_at_least(100, 4)  # C(100, 4) + 1 gates, above the fixed budget

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            threshold_at_least(3, 4)

    def test_depth_two_at_every_width(self):
        for n in (1, 2, 5, 8, 12):
            for t in range(1, min(n, 3) + 1):
                assert threshold_at_least(n, t).metrics().depth == 2


def xor_words(l):
    """Bitwise XOR of two l-bit words, one ``CircuitBuilder.xor2`` per bit."""
    b = CircuitBuilder()
    a, c = b.inputs(l), b.inputs(l)
    return b.build([b.xor2(x, y) for x, y in zip(a, c)])


class TestXor2:
    def test_example(self):
        c = xor_words(4)
        assert c.evaluate([0, 1, 0, 1, 0, 0, 1, 1]) == (0, 1, 1, 0)

    def test_self_cancels_and_zero_identity(self):
        c = xor_words(3)
        for x in range(8):
            bits = encode_value(x, 3)
            assert c.evaluate(bits + bits) == (0, 0, 0)
            assert c.evaluate(bits + [0, 0, 0]) == tuple(bits)

    def test_depth_constant_in_width(self):
        depths = {xor_words(l).metrics().depth for l in (1, 2, 4, 8, 16)}
        assert len(depths) == 1

    def test_exhaustive_small(self):
        c = xor_words(3)
        for a in range(8):
            for b in range(8):
                got = c.evaluate(encode_value(a, 3) + encode_value(b, 3))
                assert decode_value(got) == a ^ b


class TestHeapDiffWires:
    def test_changed_flags(self):
        n, l = 3, 3
        enc = PositionEncoding(n, l, frames=2)
        b = CircuitBuilder()
        pa, pb = b.inputs(n * l), b.inputs(n * l)
        _, diff = _heap_diff_wires(b, pa, pb, n, l)
        c = b.build(diff)
        assert c.evaluate(enc.encode([(3, 5, 7), (3, 5, 2)])) == (0, 0, 1)
        assert c.evaluate(enc.encode([(3, 5, 7), (3, 5, 7)])) == (0, 0, 0)
        assert c.evaluate(enc.encode([(1, 1, 1), (0, 0, 0)])) == (1, 1, 1)


class TestNimberDiffCircuit:
    def test_worked_example(self):
        enc = PositionEncoding(3, 3, frames=2)
        c = build_nimber_diff_circuit(3, 3, 1)
        out = c.evaluate(enc.encode([(3, 5, 7), (3, 5, 2)]))
        assert decode_value(out[:3]) == 5 and out[3] == 1

    def test_identity(self):
        enc = PositionEncoding(3, 3, frames=2)
        c = build_nimber_diff_circuit(3, 3, 2)
        out = c.evaluate(enc.encode([(3, 5, 7), (3, 5, 7)]))
        assert decode_value(out[:3]) == 0 and out[3] == 1

    def test_contract_bit(self):
        enc = PositionEncoding(3, 3, frames=2)
        c = build_nimber_diff_circuit(3, 3, 2)
        out = c.evaluate(enc.encode([(1, 2, 3), (0, 0, 0)]))
        assert out[3] == 0

    def test_exhaustive_small(self):
        n, l, k = 2, 2, 1
        enc = PositionEncoding(n, l, frames=2)
        c = build_nimber_diff_circuit(n, l, k)
        for p1 in itertools.product(range(4), repeat=n):
            for p2 in itertools.product(range(4), repeat=n):
                out = c.evaluate(enc.encode([p1, p2]))
                changed = sum(1 for a, b in zip(p1, p2) if a != b)
                if changed <= k:
                    assert out[l] == 1
                    assert decode_value(out[:l]) == xor_fold(p1) ^ xor_fold(p2)
                else:
                    assert out[l] == 0

    def test_random_matches_oracle(self):
        rng = random.Random(404)
        n, l, k = 6, 5, 2
        enc = PositionEncoding(n, l, frames=2)
        c = build_nimber_diff_circuit(n, l, k)
        for _ in range(300):
            p1 = tuple(rng.randint(0, 31) for _ in range(n))
            p2 = list(p1)
            for i in rng.sample(range(n), rng.randint(0, k)):
                p2[i] = rng.randint(0, 31)
            out = c.evaluate(enc.encode([p1, tuple(p2)]))
            assert out[l] == 1
            assert decode_value(out[:l]) == xor_fold(p1) ^ xor_fold(p2)

    def test_depth_independent_of_heap_count(self):
        depths = {build_nimber_diff_circuit(n, 4, 2).metrics().depth for n in (2, 4, 8, 16)}
        assert len(depths) == 1

    def test_size_quadratic(self):
        sizes = {n: build_nimber_diff_circuit(n, 4, 2).metrics().size for n in (2, 4, 8, 16)}
        coeff = sizes[2] / 4
        for n in (4, 8, 16):
            assert sizes[n] <= coeff * n * n


class TestMoveValidator:
    def test_worked_example(self):
        enc = PositionEncoding(3, 3, frames=3)
        c = build_move_validator_circuit(enc, 2)
        out = c.evaluate(enc.encode([(2, 5, 7), (2, 1, 7), (2, 1, 7)]))
        # opponent changed heap 1 by 5^1=4; candidate heap2 -> 3 changes 7^3=4
        assert out[enc.candidate_slot(2, 3)] == 1
        # candidate reproducing the current count does not cancel a 4-change
        assert out[enc.candidate_slot(2, 7)] == 0

    def test_no_opponent_change_matches_only_zero_diff(self):
        enc = PositionEncoding(2, 3, frames=3)
        c = build_move_validator_circuit(enc, 2)
        cur = (4, 6)
        out = c.evaluate(enc.encode([(3, 2), (3, 2), cur]))
        for h in range(2):
            for v in range(8):
                expected = 1 if (cur[h] ^ v) == 0 else 0
                assert out[enc.candidate_slot(h, v)] == expected

    def test_requires_three_frames(self):
        with pytest.raises(EncodingError):
            build_move_validator_circuit(PositionEncoding(2, 3, frames=2), 2)

    def test_random_matches_predicate(self):
        rng = random.Random(11)
        enc = PositionEncoding(4, 3, frames=3)
        c = build_move_validator_circuit(enc, 2)
        for _ in range(100):
            p1 = tuple(rng.randint(0, 7) for _ in range(4))
            q1 = list(p1)
            for i in rng.sample(range(4), rng.randint(0, 2)):
                q1[i] = rng.randint(0, 7)
            cur = tuple(rng.randint(0, 7) for _ in range(4))
            out = c.evaluate(enc.encode([p1, tuple(q1), cur]))
            d = xor_fold(p1) ^ xor_fold(q1)
            for h in range(4):
                for v in range(8):
                    assert out[enc.candidate_slot(h, v)] == (1 if (cur[h] ^ v) == d else 0)

    def test_out_of_contract_scores_nothing(self):
        enc = PositionEncoding(4, 2, frames=3)
        c = build_move_validator_circuit(enc, 2)
        out = c.evaluate(enc.encode([(1, 2, 3, 1), (0, 0, 0, 0), (3, 3, 3, 3)]))
        assert not any(out)


class TestEvenNonemptyScorer:
    def test_scores(self):
        n, l = 3, 2
        enc = PositionEncoding(n, l, frames=1)
        c = build_even_nonempty_scorer(n, l)
        for heaps in itertools.product(range(4), repeat=n):
            out = c.evaluate(enc.encode_heaps(heaps))
            for h in range(n):
                for v in range(4):
                    resulting = sum(
                        1 for i, x in enumerate(heaps) if (v if i == h else x) > 0
                    )
                    assert out[enc.candidate_slot(h, v)] == (resulting + 1) % 2


def test_serialized_circuits_are_pinned():
    # gate lists fix evaluate costs and the gate counts the benchmark reports,
    # so a rewrite of a builder or the compiler must emit the same gates in order
    h = hashlib.sha256()
    for n in range(9):
        for t in range(min(n, 4) + 1):
            h.update(serialize(threshold_at_least(n, t)).encode())
    for n, l, k in itertools.product(range(1, 6), range(1, 4), range(4)):
        h.update(serialize(build_nimber_diff_circuit(n, l, k)).encode())
    for n, l, k in itertools.product(range(1, 5), range(1, 4), range(3)):
        enc = PositionEncoding(n, l, 3)
        h.update(serialize(build_move_validator_circuit(enc, k)).encode())
    rng = random.Random(5)
    for _ in range(20):
        circuit = compile_to_ac0(verify._random_network(rng))
        h.update(serialize(circuit).encode())
    assert h.hexdigest() == "763a237c5dab3fef0f127d681f3732825307dd95fba9cecb25d29287b0e57c8d"
