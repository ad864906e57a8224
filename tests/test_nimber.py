import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nimcore.agents import preserving_reply
from nimcore.errors import ContractViolationError, InvalidPositionError
from nimcore.games import GameMove, GameRules, GrundySolver, Position, WinLoss, apply_move
from nimcore.nimber import (
    bit_width,
    nim_sum,
    nimber_diff,
    winning_moves,
)

from oracles import xor_fold

NIM8 = GameRules.nim(8)


class TestNimSum:
    def test_worked_example(self):
        assert nim_sum(Position((3, 5, 7))) == 1

    def test_equal_pair_cancels(self):
        for k in range(20):
            assert nim_sum(Position((k, k))) == 0

    def test_all_zero(self):
        assert nim_sum(Position((0, 0, 0, 0))) == 0

    def test_rejects_non_nim(self):
        with pytest.raises(InvalidPositionError):
            nim_sum(Position((1, 2), "kayles"))

    @given(st.lists(st.integers(0, 1023), min_size=1, max_size=10))
    def test_matches_fold(self, heaps):
        assert nim_sum(Position(tuple(heaps))) == xor_fold(heaps)


class TestWinningMoves:
    def test_three_five_seven(self):
        assert winning_moves(Position((3, 5, 7))) == [
            GameMove(0, 2),
            GameMove(1, 4),
            GameMove(2, 6),
        ]

    def test_losing_position_has_none(self):
        assert winning_moves(Position((1, 2, 3))) == []

    def test_single_heap_takes_all(self):
        assert winning_moves(Position((5,))) == [GameMove(0, 0)]

    def test_nonempty_exactly_when_winning(self):
        solver = GrundySolver(NIM8)
        for heaps in itertools.product(range(6), repeat=3):
            p = Position(heaps)
            assert bool(winning_moves(p)) == (solver.win_loss(p) is WinLoss.WIN)

    def test_every_winning_move_wins(self):
        solver = GrundySolver(NIM8)
        for heaps in itertools.product(range(7), repeat=3):
            p = Position(heaps)
            for m in winning_moves(p):
                child = apply_move(p, m, NIM8)
                assert nim_sum(child) == 0
                assert solver.win_loss(child) is WinLoss.LOSS


class TestNimberDiff:
    def test_example(self):
        assert nimber_diff(Position((3, 5, 7)), Position((3, 5, 2)), 1) == 5

    def test_identity(self):
        p = Position((9, 4, 2))
        assert nimber_diff(p, p) == 0

    def test_two_heap_example(self):
        assert nimber_diff(Position((3, 5, 7)), Position((2, 5, 6)), 2) == 0

    def test_length_mismatch(self):
        with pytest.raises(InvalidPositionError):
            nimber_diff(Position((1,)), Position((1, 2)))

    def test_contract_enforced(self):
        with pytest.raises(ContractViolationError):
            nimber_diff(Position((1, 2, 3)), Position((0, 0, 0)), 2)

    def test_all_changed(self):
        assert nimber_diff(Position((1, 2)), Position((0, 0)), 2) == 3

    def test_k_max_zero_allows_only_identical(self):
        p = Position((3, 5, 7))
        assert nimber_diff(p, p, 0) == 0
        with pytest.raises(ContractViolationError):
            nimber_diff(p, Position((3, 5, 2)), 0)

    @settings(max_examples=200)
    @given(
        st.lists(st.integers(0, 255), min_size=3, max_size=10),
        st.data(),
    )
    def test_equals_global_difference(self, heaps, data):
        k = data.draw(st.integers(1, 3))
        idxs = data.draw(
            st.lists(
                st.integers(0, len(heaps) - 1), min_size=0, max_size=k, unique=True
            )
        )
        other = list(heaps)
        for i in idxs:
            other[i] = data.draw(st.integers(0, 255))
        p1, p2 = Position(tuple(heaps)), Position(tuple(other))
        assert nimber_diff(p1, p2, k) == nim_sum(p1) ^ nim_sum(p2)


@pytest.mark.parametrize(
    "primitive,p1,p2",
    [
        (nimber_diff, Position((4,), "kayles"), Position((1,), "kayles")),
        (nimber_diff, Position((3, 5)), Position((3, 4), "kayles")),
        (preserving_reply, Position((2, 7), "kayles"), Position((1, 7), "kayles")),
        (preserving_reply, Position((2, 7)), Position((1, 7), "kayles")),
    ],
    ids=[
        "nimber_diff-kayles",
        "nimber_diff-mixed-games",
        "preserving_reply-kayles",
        "preserving_reply-mixed-games",
    ],
)
def test_nim_only_primitives_refuse_other_games(primitive, p1, p2):
    with pytest.raises(InvalidPositionError, match="NIM positions"):
        primitive(p1, p2)


class TestBitWidth:
    @pytest.mark.parametrize("m,l", [(0, 1), (1, 1), (7, 3), (8, 4), (15, 4), (255, 8)])
    def test_values(self, m, l):
        assert bit_width(m) == l

    def test_every_count_fits(self):
        for m in range(1, 300):
            assert m < (1 << bit_width(m))

    @pytest.mark.parametrize("m", [2.5, 3.0, True, False, "3", None, -1])
    def test_refuses_what_is_not_an_int(self, m):
        with pytest.raises(ValueError, match=f"max_heap_size {m!r} is not a non-negative int"):
            bit_width(m)
