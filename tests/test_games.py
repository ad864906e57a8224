import contextlib
import itertools
import random
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nimcore import games, verify
from nimcore.errors import (
    IllegalMoveError,
    InvalidPositionError,
    MemoLimitError,
)
from nimcore.games import (
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

from oracles import (
    brute_kayles_grundy,
    brute_nim_grundy,
    brute_nim_win,
    kayles_row_values,
    kayles_successors,
    make_brute_grundy,
    make_brute_win,
    nim_successors,
    sorting_successors,
    subtraction_successors,
    xor_fold,
)

NIM8 = GameRules.nim(8)

# rules and their independent brute-force (grundy, win) oracles
VARIANTS = {
    name: (rules, make_brute_grundy(successors), make_brute_win(successors))
    for name, rules, successors in (
        ("nim", NIM8, nim_successors),
        ("kayles", GameRules.kayles(8), kayles_successors),
        ("subtraction", GameRules.subtraction({1, 3, 4}, 8), subtraction_successors({1, 3, 4})),
    )
}
# heap vectors with empty heaps among them
HEAPS = st.lists(st.integers(0, 8), min_size=1, max_size=4).map(tuple)


class TestPosition:
    def test_basic(self):
        p = Position((3, 5, 7))
        assert p.heaps == (3, 5, 7)
        assert p.total == 15

    def test_rejects_negative_heap(self):
        with pytest.raises(InvalidPositionError):
            Position((1, -2))

    def test_rejects_empty(self):
        with pytest.raises(InvalidPositionError):
            Position(())

    # a heap count is exactly an int: not a float, a string, None or a bool
    @pytest.mark.parametrize(
        "heaps, message",
        [
            ((1.5, 2), "heap 0 is 1.5, not an int"),
            ((3, "a"), "heap 1 is 'a', not an int"),
            ((None,), "heap 0 is None, not an int"),
            ((True, 2), "heap 0 is True, not an int"),
        ],
        ids=["float", "str", "none", "bool"],
    )
    def test_rejects_heap_that_is_not_an_int(self, heaps, message):
        with pytest.raises(InvalidPositionError, match=message):
            Position(heaps)

    def test_text_round_trip(self):
        p = Position.from_text("3,5,7")
        assert p.heaps == (3, 5, 7)
        assert p.to_text() == "3,5,7"

    def test_bad_text(self):
        with pytest.raises(InvalidPositionError):
            Position.from_text("3,x")


class TestRules:
    def test_subtraction_requires_removals(self):
        with pytest.raises(ValueError):
            GameRules(Variant.SUBTRACTION)

    def test_game_ids(self):
        assert GameRules.nim().game_id == "nim"
        assert GameRules.kayles().game_id == "kayles"
        assert GameRules.subtraction({2, 1}).game_id == "subtraction(1,2)"

    def test_game_id_computed_once(self):
        rules = GameRules.subtraction({2, 1})
        assert rules.game_id is rules.game_id
        # the kept id is not a field: equality and hashing ignore it
        assert rules == GameRules.subtraction({1, 2})
        assert hash(rules) == hash(GameRules.subtraction({1, 2}))

    def test_removals_must_be_positive(self):
        with pytest.raises(ValueError):
            GameRules.subtraction({0, 1})

    # exactly int, as for heap counts: a float removal would fail later in
    # grundy with a bare KeyError, and True would play as removal 1
    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: GameRules.subtraction({1.5}, 8), "removal 1.5 is not an int >= 1"),
            (lambda: GameRules.subtraction({True}, 8), "removal True is not an int >= 1"),
            (lambda: GameRules.subtraction({"2"}, 8), "removal '2' is not an int >= 1"),
            (lambda: GameRules.nim(2.5), "max_heap_size 2.5 is not a positive int"),
            (lambda: GameRules.nim("8"), "max_heap_size '8' is not a positive int"),
            (lambda: GameRules.kayles(True), "max_heap_size True is not a positive int"),
            (lambda: GameRules.nim(0), "max_heap_size 0 is not a positive int"),
        ],
    )
    def test_sizes_and_removals_must_be_ints(self, make, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()

    @pytest.mark.parametrize("variant", [Variant.NIM, Variant.KAYLES])
    def test_only_subtraction_takes_removals(self, variant):
        with pytest.raises(ValueError, match=f"^{variant.value} does not take a removal set$"):
            GameRules(variant, 8, frozenset({1}))


class TestLegalMoves:
    def test_nim_single_heap(self):
        moves = legal_moves(Position((2,)), NIM8)
        assert set(moves) == {GameMove(0, 0), GameMove(0, 1)}

    def test_terminal_is_empty(self):
        assert legal_moves(Position((0, 0)), NIM8) == []
        assert is_terminal(Position((0, 0)), NIM8)

    def test_subtraction(self):
        rules = GameRules.subtraction({1, 2}, 8)
        moves = legal_moves(Position((3,), rules.game_id), rules)
        assert set(moves) == {GameMove(0, 2), GameMove(0, 1)}

    def test_subtraction_terminal_above_zero(self):
        rules = GameRules.subtraction({2}, 8)
        assert is_terminal(Position((1,), rules.game_id), rules)

    def test_kayles_splits(self):
        rules = GameRules.kayles(8)
        moves = legal_moves(Position((4,), rules.game_id), rules)
        # take 1: splits (3,0),(2,1); take 2: (2,0),(1,1)
        assert set(moves) == {
            GameMove(0, 3, 0),
            GameMove(0, 2, 1),
            GameMove(0, 2, 0),
            GameMove(0, 1, 1),
        }

    def test_duplicate_free(self):
        for rules in (NIM8, GameRules.kayles(8), GameRules.subtraction({1, 3}, 8)):
            p = Position((5, 3), rules.game_id)
            moves = legal_moves(p, rules)
            assert len(moves) == len(set(moves))

    def test_wrong_game_id_rejected(self):
        with pytest.raises(InvalidPositionError):
            legal_moves(Position((2,), "kayles"), NIM8)


# subtraction sets whose smallest removal is often 2 or more, so that
# non-empty heaps can be terminal
RULES = st.one_of(
    st.sampled_from((NIM8, GameRules.kayles(8))),
    st.frozensets(st.integers(1, 9), min_size=1, max_size=3).map(
        lambda removals: GameRules.subtraction(removals, 8)
    ),
)


@settings(max_examples=300, deadline=None)
@given(RULES, HEAPS)
@example(GameRules.subtraction({2, 5}, 8), (0, 1, 1))
@example(GameRules.subtraction({3}, 8), (0, 2, 3))
@example(GameRules.kayles(8), (0, 0, 1))
def test_closed_form_terminal_test_matches_move_generator(rules, heaps):
    no_moves = games._no_moves(heaps, rules)
    assert no_moves == (next(games._iter_moves(heaps, rules), None) is None)
    assert is_terminal(Position(heaps, rules.game_id), rules) == no_moves
    # is_terminal still validates before its closed form
    foreign = "kayles" if rules.variant is Variant.NIM else "nim"
    with pytest.raises(InvalidPositionError, match="position belongs to"):
        is_terminal(Position(heaps, foreign), rules)
    over = heaps[:-1] + (rules.max_heap_size + 1,)
    with pytest.raises(InvalidPositionError, match="above the rule bound"):
        is_terminal(Position(over, rules.game_id), rules)


class TestApplyMove:
    def test_single_heap_changes(self):
        p = apply_move(Position((3, 5, 7)), GameMove(2, 6), NIM8)
        assert p.heaps == (3, 5, 6)

    def test_more_examples(self):
        assert apply_move(Position((1,)), GameMove(0, 0), NIM8).heaps == (0,)
        assert apply_move(Position((2, 2)), GameMove(1, 0), NIM8).heaps == (2, 0)

    def test_rejects_out_of_range(self):
        with pytest.raises(IllegalMoveError, match="out of range"):
            apply_move(Position((3,)), GameMove(1, 0), NIM8)

    def test_rejects_non_decrease(self):
        with pytest.raises(IllegalMoveError, match="strictly decrease"):
            apply_move(Position((3,)), GameMove(0, 3), NIM8)

    def test_rejects_bad_removal(self):
        rules = GameRules.subtraction({1, 2}, 8)
        with pytest.raises(IllegalMoveError, match="not allowed"):
            apply_move(Position((5,), rules.game_id), GameMove(0, 1), rules)

    def test_kayles_split_appends_row(self):
        rules = GameRules.kayles(8)
        p = apply_move(Position((5,), rules.game_id), GameMove(0, 2, 1), rules)
        assert p.heaps == (2, 1)

    def test_closure_strictly_reduces_total(self):
        for rules in (NIM8, GameRules.kayles(8), GameRules.subtraction({1, 2}, 8)):
            p = Position((4, 3), rules.game_id)
            for m in legal_moves(p, rules):
                q = apply_move(p, m, rules)
                assert q.total < p.total
                # pre-existing heaps other than the moved one are unchanged
                for i in range(len(p.heaps)):
                    if i != m.heap_index:
                        assert q.heaps[i] == p.heaps[i]


class TestMex:
    @pytest.mark.parametrize(
        "values,expected",
        [(set(), 0), ({0, 1, 3}, 2), ({1, 2, 3}, 0), ({0, 1, 2}, 3)],
    )
    def test_examples(self, values, expected):
        assert mex(values) == expected


class TestGrundy:
    def test_single_nim_heap_is_itself(self):
        for n in range(9):
            assert grundy(Position((n,)), NIM8) == n

    def test_three_five_seven(self):
        assert grundy(Position((3, 5, 7)), NIM8) == 1

    def test_matches_brute_force_nim(self):
        for heaps in itertools.product(range(6), repeat=3):
            assert grundy(Position(heaps), NIM8) == brute_nim_grundy(heaps)

    def test_kayles_rows_match_independent_oracle(self):
        rules = GameRules.kayles(8)
        for row in range(9):
            engine = grundy(Position((row,), rules.game_id), rules)
            assert engine == brute_kayles_grundy((row,))

    def test_kayles_multirow_matches_oracle(self):
        rules = GameRules.kayles(6)
        for rows in itertools.product(range(5), repeat=2):
            assert grundy(Position(rows, rules.game_id), rules) == brute_kayles_grundy(rows)

    def test_subtraction_game_matches_oracle(self):
        rules = GameRules.subtraction({1, 2}, 21)
        oracle = make_brute_grundy(subtraction_successors({1, 2}))
        for n in range(22):
            assert grundy(Position((n,), rules.game_id), rules) == oracle((n,))

    def test_long_kayles_rows_by_the_sum_rule(self):
        # the table holds one entry per row length, 256 here, where a walk
        # over whole positions would need far more than the cap
        rows = (255, 70, 31, 12)
        values = kayles_row_values(255)
        solver = GrundySolver(GameRules.kayles(255), memo_cap=300)
        assert solver.grundy(Position(rows, "kayles")) == xor_fold(values[r] for r in rows)

    def test_memo_cap_raises(self):
        solver = GrundySolver(GameRules.nim(8), memo_cap=3)
        with pytest.raises(MemoLimitError):
            solver.grundy(Position((3, 5, 7)))
        with pytest.raises(MemoLimitError):
            solver.win_loss(Position((3, 5, 7)))

    @pytest.mark.parametrize("memo_cap", [0, -1, True, False, 2.5, "10", None])
    def test_memo_cap_must_be_a_positive_int(self, memo_cap):
        # exactly int, as GameRules checks max_heap_size
        message = f"memo_cap {memo_cap!r} is not a positive int"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GrundySolver(NIM8, memo_cap)

    def test_one_shared_solver_per_rule_set(self):
        kayles = GameRules.kayles(6)
        assert games.solver_for(kayles) is games.solver_for(GameRules.kayles(6))
        assert games.solver_for(kayles) is not games.solver_for(NIM8)

    def test_full_shared_solver_raises_and_stays(self, monkeypatch):
        # the shared table answers what fits under its cap and raises on
        # the rest; it is never swapped or evicted
        rules = GameRules.kayles(6)
        solver = GrundySolver(rules, memo_cap=3)
        monkeypatch.setitem(games._SOLVERS, rules, solver)
        with pytest.raises(MemoLimitError):
            grundy(Position((5,), rules.game_id), rules)
        assert grundy(Position((2, 1), rules.game_id), rules) == brute_kayles_grundy((2, 1))
        assert games._SOLVERS[rules] is solver

    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_sum_of_positions_is_xor(self, name):
        rules, brute_grundy, _ = VARIANTS[name]
        p, q = (1, 2), (3,)
        value = grundy(Position(p + q, rules.game_id), rules)
        assert value == brute_grundy(p + q)
        assert value == grundy(Position(p, rules.game_id), rules) ^ grundy(
            Position(q, rules.game_id), rules
        )


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(sorted(VARIANTS)),
    positions=st.lists(HEAPS, min_size=1, max_size=8),
)
def test_solver_matches_brute_force(name, positions):
    """One solver queried in the drawn order, and a fresh one per position."""
    rules, brute_grundy, brute_win = VARIANTS[name]
    shared = GrundySolver(rules)
    for heaps in positions:
        p = Position(heaps, rules.game_id)
        want = (brute_grundy(heaps), WinLoss.WIN if brute_win(heaps) else WinLoss.LOSS)
        fresh = GrundySolver(rules)
        assert (shared.grundy(p), shared.win_loss(p)) == want
        assert (fresh.grundy(p), fresh.win_loss(p)) == want


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(sorted(VARIANTS)),
    heaps=HEAPS,
    walked=st.lists(HEAPS, max_size=3),
)
# taking 2 pins from the row of 8 can leave rows of 1 and 5, and the 1
# belongs before the row of 3: that key is sorted in, not spliced
@example(name="kayles", heaps=(3, 8), walked=[])
def test_successor_keys_follow_legal_moves(name, heaps, walked):
    """legal_moves and apply_move agree with the solver's own successors:
    after the walks of ``walked`` have filled its memo, the solver returns
    the legal-move keys not yet in it, or None when one is a known LOSS."""
    rules = VARIANTS[name][0]
    solver = GrundySolver(rules)
    for q in walked:
        solver.win_loss(Position(q, rules.game_id))
    memo = dict(solver._outcome)
    p = Position(heaps, rules.game_id)
    after = (apply_move(p, m, rules).heaps for m in legal_moves(p, rules))
    want = sorted({tuple(sorted(h for h in q if h)) for q in after})
    got = solver._successors(tuple(sorted(h for h in heaps if h)))
    if any(memo.get(k) is WinLoss.LOSS for k in want):
        assert got is None
    else:
        assert sorted(got) == [k for k in want if k not in memo]


@pytest.mark.parametrize(
    "rules, successors",
    [
        (GameRules.nim(9), nim_successors),
        (GameRules.kayles(9), kayles_successors),
        (GameRules.subtraction({1, 3, 4}, 9), subtraction_successors({1, 3, 4})),
    ],
    ids=["nim", "kayles", "subtraction"],
)
def test_spliced_walk_matches_the_sorting_walk(monkeypatch, rules, successors):
    """A fresh solver's memo after each walk of a grid, and a shared
    solver's after all of them, hold the keys, the values and the
    insertion order that walks sorting every key leave."""
    grid = [*itertools.product(range(10), repeat=2), *itertools.product(range(5), repeat=4)]
    random.Random(5).shuffle(grid)
    grid.insert(0, (3, 9))  # Kayles sorts in the piece (1, 6) of the row of 9

    def memos():
        shared, out = GrundySolver(rules), []
        for heaps in grid:
            p, fresh = Position(heaps, rules.game_id), GrundySolver(rules)
            fresh.win_loss(p)
            shared.win_loss(p)
            out.append(list(fresh._outcome.items()))
        return out + [list(shared._outcome.items())]

    spliced = memos()
    monkeypatch.setattr(GrundySolver, "_successors", sorting_successors(successors))
    assert memos() == spliced


@settings(max_examples=200, deadline=None)
@given(
    name=st.sampled_from(sorted(VARIANTS)),
    positions=st.lists(HEAPS, min_size=1, max_size=8),
    memo_cap=st.one_of(st.just(games.DEFAULT_MEMO_CAP), st.integers(1, 40)),
)
# walks that fill the memo partway and then meet a known LOSS
@example(name="nim", positions=[(3, 5, 7)], memo_cap=20)
@example(name="kayles", positions=[(4, 4, 1)], memo_cap=10)
def test_every_memo_entry_is_a_fact(name, positions, memo_cap):
    """Every win/loss entry a shared solver keeps, including those of a
    walk cut short by a full memo, matches brute force, and the memo never
    grows past its cap.  A key settled at a successor known to be a LOSS
    has the rest of its successors never built, so only the brute-force
    value can vouch for it."""
    rules, _, brute_win = VARIANTS[name]
    solver = GrundySolver(rules, memo_cap)
    for heaps in positions:
        with contextlib.suppress(MemoLimitError):
            solver.win_loss(Position(heaps, rules.game_id))
    assert len(solver._outcome) <= memo_cap
    for key, outcome in solver._outcome.items():
        assert outcome is (WinLoss.WIN if brute_win(key) else WinLoss.LOSS), key


def test_grundy_definition_check_catches_added_heap_values(monkeypatch):
    assert verify.check_grundy_definition()[0]
    solve = GrundySolver.grundy

    def added(self, p):
        return sum(solve(self, Position((h,), p.game_id)) for h in p.heaps)

    monkeypatch.setattr(games.GrundySolver, "grundy", added)
    ok, detail = verify.check_grundy_definition()
    assert not ok
    assert detail == "nim grundy(1, 1) is not the mex of its successors"


def test_grundy_definition_check_catches_a_wrong_win_loss(monkeypatch):
    walk = GrundySolver.win_loss

    def flipped_on_three_kayles_rows(self, p):
        outcome = walk(self, p)
        if p.game_id == "kayles" and len(p.heaps) == 3:
            return WinLoss.LOSS if outcome is WinLoss.WIN else WinLoss.WIN
        return outcome

    monkeypatch.setattr(games.GrundySolver, "win_loss", flipped_on_three_kayles_rows)
    ok, detail = verify.check_grundy_definition()
    assert not ok
    assert detail == "kayles win_loss(1, 1, 1) disagrees with grundy 1"


class TestWinLossOracle:
    def test_deep_walk_needs_no_recursion(self):
        # 200,000 plies of taking one object: one stack entry per key
        rules = GameRules.subtraction({1}, 200_000)
        solver = GrundySolver(rules)
        assert solver.win_loss(Position((200_000,), rules.game_id)) is WinLoss.LOSS
        assert len(solver._outcome) == 200_001

    def test_terminal_is_loss(self):
        assert GrundySolver(NIM8).win_loss(Position((0, 0))) is WinLoss.LOSS

    def test_single_object_wins(self):
        assert GrundySolver(NIM8).win_loss(Position((1,))) is WinLoss.WIN

    def test_one_two_three_loses(self):
        assert GrundySolver(NIM8).win_loss(Position((1, 2, 3))) is WinLoss.LOSS

    def test_matches_brute_force(self):
        for heaps in itertools.product(range(5), repeat=3):
            expected = WinLoss.WIN if brute_nim_win(heaps) else WinLoss.LOSS
            assert GrundySolver(NIM8).win_loss(Position(heaps)) is expected


def test_thread_safety_bit_identical():
    solver = GrundySolver(NIM8)
    positions = [Position(h) for h in itertools.product(range(7), repeat=3)]
    sequential = [GrundySolver(NIM8).grundy(p) for p in positions]
    rng = random.Random(5)
    shuffled = positions[:]
    rng.shuffle(shuffled)
    with ThreadPoolExecutor(max_workers=4) as pool:
        list(pool.map(solver.grundy, shuffled))
    assert [solver.grundy(p) for p in positions] == sequential


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_win_loss_threads_match_fresh_solvers(name):
    """Four threads walking one shared solver over a shuffled grid return
    what a fresh solver returns for each position."""
    rules = VARIANTS[name][0]
    positions = [Position(h, rules.game_id) for h in itertools.product(range(7), repeat=3)]
    random.Random(5).shuffle(positions)
    want = [GrundySolver(rules).win_loss(p) for p in positions]
    solver = GrundySolver(rules)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(solver.win_loss, positions, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert got == want


def test_heap_table_race():
    """Threads that fill one solver's per-heap table at once leave every
    entry at its single-thread value."""
    rules = GameRules.kayles(255)
    want = kayles_row_values(255)
    rows = [Position((r,), rules.game_id) for r in range(252, 256)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            solver = GrundySolver(rules)
            barrier = threading.Barrier(len(rows))

            def query(p):
                barrier.wait(timeout=60)
                return solver.grundy(p)

            with ThreadPoolExecutor(max_workers=len(rows)) as pool:
                got = list(pool.map(query, rows, timeout=120))
            assert got == want[252:]
            assert [solver._grundy[c] for c in range(256)] == want
    finally:
        sys.setswitchinterval(interval)
