import functools
import itertools
import operator
import random
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nimcore
from nimcore.agents import (
    FrameHistory,
    Mirror71Agent,
    Mirror72Agent,
    MultiFrameAgent,
    OracleAgent,
    RandomAgent,
    RolloutBudget,
    SingleFrameCircuitAgent,
    _fast_rollout,
    _window,
    preserving_reply,
)
from nimcore.circuits.builders import build_even_nonempty_scorer
from nimcore.circuits.ir import AND, INPUT, NOT, OR, Circuit, Gate
from nimcore.errors import (
    ContractViolationError,
    EncodingError,
    GateBudgetError,
    IllegalMoveError,
    InvalidPositionError,
    StrategyDomainError,
)
from nimcore.games import GameMove, GameRules, Position, apply_move, legal_moves
from nimcore.nimber import nim_sum

from oracles import (
    reference_oracle_choice,
    reference_random_choice,
    reference_singleframe_choice,
)

NIM = GameRules.nim(64)
RNG = lambda: random.Random(0)


def hist(*heaps_seq):
    return FrameHistory(heaps_seq)


@pytest.mark.parametrize("module", [nimcore, nimcore.circuits], ids=lambda m: m.__name__)
def test_public_names_resolve(module):
    assert len(set(module.__all__)) == len(module.__all__)
    for name in module.__all__:
        assert hasattr(module, name), name


class TestFrameHistory:
    def test_truncates(self):
        h = hist((3, 5, 7), (2, 5, 7), (2, 1, 7))
        assert len(h.frames) == 3
        assert h.current.heaps == (2, 1, 7)

    def test_needs_a_frame(self):
        with pytest.raises(ValueError):
            FrameHistory(())

    def test_a_frame_must_be_a_heap_tuple(self):
        # one frame passed where a list of frames is wanted
        with pytest.raises(InvalidPositionError, match="^frame 0 is 3, not a heap tuple$"):
            FrameHistory((3, 5, 7))
        with pytest.raises(InvalidPositionError, match="^frame 1 is None, not a heap tuple$"):
            FrameHistory([(3, 5), None])

    def test_current_is_built_from_the_newest_frame(self):
        h = FrameHistory([(3,), (1,)], "kayles")
        assert h.frames == ((3,), (1,)) and h.game_id == "kayles"
        assert h.current == Position((1,), "kayles")
        assert FrameHistory([[3, 5]]).frames == ((3, 5),)
        with pytest.raises(InvalidPositionError, match="negative count"):
            FrameHistory(((2, -1),)).current

    @pytest.mark.parametrize(
        "frame, message",
        [((-1, 2), "heap 0 has negative count -1"), ((1.5, 2), "heap 0 is 1.5, not an int")],
    )
    def test_every_frame_is_checked(self, frame, message):
        # an older frame too, and before any agent reads the window
        match = f"^{re.escape(message)}$"
        for frames in ([frame], [frame, (0, 2)]):
            with pytest.raises(InvalidPositionError, match=match):
                MultiFrameAgent().choose(FrameHistory(frames), RNG())

    @pytest.mark.parametrize(
        "agent",
        [MultiFrameAgent(), SingleFrameCircuitAgent.heuristic(2, 2), Mirror71Agent(1), Mirror72Agent(1)],
        ids=lambda agent: agent.name,
    )
    def test_a_nim_only_agent_refuses_another_game(self, agent):
        window = FrameHistory([(3, 2)], "kayles")
        with pytest.raises(
            InvalidPositionError, match="^position belongs to 'kayles', the agent plays 'nim'$"
        ):
            agent.choose(window, RNG())


class TestOracleAgent:
    def test_picks_lowest_winning_move(self):
        agent = OracleAgent(NIM)
        assert agent.choose(hist((3, 5, 7)), RNG()) == GameMove(0, 2)

    def test_single_heap(self):
        assert OracleAgent(NIM).choose(hist((1,)), RNG()) == GameMove(0, 0)

    def test_losing_tie_break(self):
        assert OracleAgent(NIM).choose(hist((1, 2, 3)), RNG()) == GameMove(0, 0)

    def test_terminal_rejected(self):
        with pytest.raises(IllegalMoveError):
            OracleAgent(NIM).choose(hist((0, 0)), RNG())

    def test_kayles_oracle_uses_grundy(self):
        rules = GameRules.kayles(8)
        agent = OracleAgent(rules)
        move = agent.choose(FrameHistory(((3,),), "kayles"), RNG())
        from nimcore.games import grundy

        assert grundy(apply_move(Position((3,), "kayles"), move, rules), rules) == 0


def _outcome(choose, rng):
    """(move or error class, generator state after the call)."""
    try:
        result = choose()
    except (IllegalMoveError, InvalidPositionError) as exc:
        result = type(exc)
    return result, rng.getstate()


@settings(max_examples=300, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32))
def test_nim_choices_match_move_list(data, seed):
    bound = data.draw(st.integers(1, 12))
    heaps = data.draw(st.lists(st.integers(0, bound), min_size=1, max_size=6))
    # a heap above the bound and a foreign game id must fail as before
    if data.draw(st.booleans()):
        heaps[data.draw(st.integers(0, len(heaps) - 1))] = bound + 1
    game_id = data.draw(st.sampled_from(("nim", "nim", "kayles")))
    rules = GameRules.nim(bound)
    p = Position(tuple(heaps), game_id)
    window = FrameHistory((p.heaps,), p.game_id)
    for agent, reference in (
        (OracleAgent(rules), lambda rng: reference_oracle_choice(p, rules)),
        (RandomAgent(rules), lambda rng: reference_random_choice(p, rules, rng)),
    ):
        fast_rng, ref_rng = random.Random(seed), random.Random(seed)
        fast = _outcome(lambda: agent.choose(window, fast_rng), fast_rng)
        expected = _outcome(lambda: reference(ref_rng), ref_rng)
        assert fast == expected, agent.name


@pytest.mark.parametrize(
    "frame, message",
    [
        ((-1, 2), "heap 0 has negative count -1"),
        ((2, 1.5), "heap 1 is 1.5, not an int"),
        ((True, 2), "heap 0 is True, not an int"),
        ((3, 17, -1), "heap 2 has negative count -1"),
    ],
)
@pytest.mark.parametrize("rules", [GameRules.nim(16), GameRules.kayles(16)], ids=["nim", "kayles"])
@pytest.mark.parametrize("policy", [OracleAgent, RandomAgent])
def test_a_hand_built_window_is_validated(policy, rules, frame, message):
    # a heap that is no count is refused with the error a Position would
    # raise: by the public constructor, and by the agent on a window the
    # drivers' unchecked path built under rules that are not its own
    # object, even equal ones
    match = f"^{re.escape(message)}$"
    with pytest.raises(InvalidPositionError, match=match):
        FrameHistory([frame], rules.game_id)
    other = GameRules(rules.variant, rules.max_heap_size)
    assert other == rules and other is not rules
    with pytest.raises(InvalidPositionError, match=match):
        policy(rules).choose(_window((frame,), other), RNG())


@pytest.mark.parametrize("policy", [OracleAgent, RandomAgent])
def test_windows_cut_under_the_agents_rules_are_not_checked_again(policy, monkeypatch):
    checked = []
    validate = nimcore.agents._validate
    monkeypatch.setattr(
        nimcore.agents, "_validate", lambda *a: checked.append(a[0]) or validate(*a)
    )
    rules = GameRules.nim(31)
    record = nimcore.harness.play_match(rules, Position((3, 5, 7)), policy(rules), policy(rules), 0)
    assert record.forfeit is None and checked == []
    assert FrameHistory([(3, 5, 7)]).rules is None
    policy(rules).choose(FrameHistory([(3, 5, 7)]), RNG())
    policy(rules).choose(_window(((1, 2),), GameRules.nim(31)), RNG())
    assert checked == [(3, 5, 7), (1, 2)]


class TestPreservingReply:
    def test_mirror_pair(self):
        assert preserving_reply(Position((1, 1)), Position((0, 1))) == GameMove(1, 0)

    def test_worked_example(self):
        assert preserving_reply(Position((2, 5, 7)), Position((2, 1, 7))) == GameMove(2, 3)

    def test_none_when_no_reply(self):
        assert preserving_reply(Position((1,)), Position((0,))) is None

    def test_contract_checked(self):
        with pytest.raises(ContractViolationError):
            preserving_reply(Position((1, 1)), Position((0, 0)))
        with pytest.raises(ContractViolationError):
            preserving_reply(Position((1, 1)), Position((1, 1)))

    def test_restores_zero_everywhere(self):
        for pb in itertools.product(range(6), repeat=3):
            p = Position(pb)
            if nim_sum(p) != 0:
                continue
            for m in legal_moves(p, NIM):
                q = apply_move(p, m, NIM)
                if not any(q.heaps):
                    continue
                reply = preserving_reply(p, q)
                assert reply is not None
                assert nim_sum(apply_move(q, reply, NIM)) == 0


class TestRollout:
    def test_terminal_start_wins_immediately(self):
        assert _fast_rollout((0, 0), 10) is True

    def test_preserved_pair_always_wins(self):
        # two objects take two plies, whatever the opponent does
        assert _fast_rollout((1, 1), 2) is True

    def test_nonzero_start_fails(self):
        assert _fast_rollout((2, 2, 1), 50) is False

    def test_ply_cap_distinct_outcome(self):
        # a rollout stopped by the cap is not a win
        assert _fast_rollout((4, 4), 1) is False
        assert _fast_rollout((1, 1), 1) is False


@settings(max_examples=300, deadline=None)
@given(
    heaps=st.lists(st.integers(0, 31), min_size=1, max_size=6).map(tuple),
    ply_cap=st.integers(1, 200),
)
def test_rollout_outcomes_follow_the_start_value(heaps, ply_cap):
    """The claims of the ``_fast_rollout`` docstring, and the bound of the
    opponent that empties a heap on each of its plies."""
    win = _fast_rollout(heaps, ply_cap)
    zero = nim_sum(Position(heaps)) == 0
    assert isinstance(win, bool)
    if win:
        assert zero
    if zero and ply_cap >= sum(heaps):
        assert win
    if zero and ply_cap >= 2 * sum(1 for h in heaps if h):
        assert win


@pytest.mark.parametrize(
    "heaps, move",
    [
        ((255, 255), GameMove(0, 0)),  # lost: the first candidate
        ((1,) * 16, GameMove(0, 0)),
        ((15,) * 4, GameMove(0, 0)),
        ((1,) * 12 + (15,), GameMove(12, 0)),  # the one zeroing move
    ],
)
def test_decides_at_the_exhaustive_cap_bound(heaps, move):
    # each board has exactly 2**16 states; the probes are never cut, so the
    # budget changes no move
    agent = MultiFrameAgent(RolloutBudget(exhaustive_cap=2**16))
    assert agent.choose(hist(heaps), random.Random(0)) == move


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_exact_regime_plays_the_oracle_move(data):
    heaps = tuple(data.draw(st.lists(st.integers(0, 12), min_size=1, max_size=4)))
    assume(any(heaps))
    budget = RolloutBudget(
        exhaustive_cap=data.draw(st.sampled_from((0, 1, 64, 2**16))),
        ply_cap=data.draw(st.integers(1, 50)),
    )
    # no probe is cut, so every budget plays the same move
    agent = MultiFrameAgent(budget)
    # the lowest winning move, else the first non-empty heap emptied
    assert agent.choose(hist(heaps), RNG()) == OracleAgent(NIM).choose(hist(heaps), RNG())


def test_plays_the_oracle_move_on_every_small_board():
    """Differential against the perfect player on every non-terminal board
    of 1-4 heaps of 0..7: under the default budget every child has room
    for every ply, so the search finds the lowest winning move, and
    without one it empties the first non-empty heap."""
    agent = MultiFrameAgent()
    oracle = OracleAgent(NIM)
    boards = 0
    for n in range(1, 5):
        for heaps in itertools.product(range(8), repeat=n):
            if any(heaps):
                assert agent.choose(hist(heaps), RNG()) == oracle.choose(hist(heaps), RNG()), heaps
                boards += 1
    assert boards == 4676


def test_decides_every_small_board_without_the_nim_sum(monkeypatch):
    """The search computes no global NIM sum: with every helper that folds
    all heaps patched to raise, a fresh agent still plays the oracle's
    move on every non-terminal board of 1-4 heaps of 0..7."""
    oracle = OracleAgent(NIM)
    boards = [
        heaps
        for n in range(1, 5)
        for heaps in itertools.product(range(8), repeat=n)
        if any(heaps)
    ]
    want = {heaps: oracle.choose(hist(heaps), RNG()) for heaps in boards}
    assert len(want) == 4676

    def parity(*args, **kwargs):
        raise AssertionError("the search computed a global NIM sum")

    for module, name in [
        (nimcore.nimber, "nim_sum"),
        (nimcore.nimber, "_xor_fold"),
        (nimcore.nimber, "winning_moves"),
        (nimcore.agents, "_xor_fold"),
        (nimcore.agents, "winning_moves"),
    ]:
        if hasattr(module, name):
            monkeypatch.setattr(module, name, parity)
    monkeypatch.setattr(OracleAgent, "choose", parity)
    agent = MultiFrameAgent()
    for heaps in boards:
        assert agent.choose(hist(heaps), RNG()) == want[heaps], heaps


def _large_boards(count, seed=31):
    """Seeded non-terminal boards of 1-30 heaps of up to 1-20 bits."""
    rng = random.Random(seed)
    boards = []
    while len(boards) < count:
        bits = rng.randint(1, 20)
        heaps = tuple(rng.randrange(1 << bits) for _ in range(rng.randint(1, 30)))
        if any(heaps):
            boards.append(heaps)
    return boards


def test_plays_the_oracle_move_on_large_boards():
    """Differential against the perfect player where one probe per
    candidate would cost up to a million probes a decision."""
    oracle = OracleAgent(GameRules.nim(2**20))
    for heaps in _large_boards(600):
        assert MultiFrameAgent().choose(hist(heaps), RNG()) == oracle.choose(hist(heaps), RNG())


def test_a_decision_costs_at_most_n_l_plus_one_probes(monkeypatch):
    probes = []
    rollout = nimcore.agents._fast_rollout
    monkeypatch.setattr(
        nimcore.agents, "_fast_rollout", lambda pb, cap: probes.append(pb) or rollout(pb, cap)
    )
    boards = _large_boards(300, seed=32) + [(1, 2**24, 2**24 + 3), (2**20 - 1,) * 30, (1,) * 30]
    for heaps in boards:
        probes.clear()
        MultiFrameAgent()._decide(heaps)
        assert 0 < len(probes) <= len(heaps) * max(heaps).bit_length() + 1, heaps


class TestMultiFrameAgent:
    def test_exhaustive_picks_zeroing_move(self):
        agent = MultiFrameAgent(RolloutBudget(exhaustive_cap=1024))
        move = agent.choose(hist((3, 5, 7)), RNG())
        assert move in {GameMove(0, 2), GameMove(1, 4), GameMove(2, 6)}

    @pytest.mark.parametrize(
        "heaps, move",
        [
            # the lowest winning move, 0:1, under the smallest budget: the
            # probes are never cut, so the budget changes no move
            ((2, 2, 3), GameMove(0, 1)),
            ((2, 6, 7), GameMove(0, 1)),
        ],
    )
    def test_plays_a_candidate_its_cut_probe_proves(self, heaps, move):
        agent = MultiFrameAgent(RolloutBudget(exhaustive_cap=0, ply_cap=4))
        assert agent.choose(hist(heaps), RNG()) == move

    def test_losing_position_falls_back(self):
        agent = MultiFrameAgent(RolloutBudget(exhaustive_cap=1024))
        move = agent.choose(hist((4, 4)), RNG())
        assert move in legal_moves(Position((4, 4)), NIM)

    def test_single_move(self):
        agent = MultiFrameAgent()
        assert agent.choose(hist((1,)), RNG()) == GameMove(0, 0)

    def test_terminal_rejected(self):
        with pytest.raises(IllegalMoveError):
            MultiFrameAgent().choose(hist((0,)), RNG())


def _spy_on_search(agent):
    """The list of positions ``agent`` searches from now on."""
    searches = []
    decide = agent._decide
    agent._decide = lambda heaps: searches.append(heaps) or decide(heaps)
    return searches


def _spied_choose(agent, *frames):
    """(the agent's move on the window ``frames``, whether it searched)."""
    searches = _spy_on_search(agent)
    return agent.choose(hist(*frames), RNG()), bool(searches)


def _proving(budget, a):
    """An agent that has searched a parent of the zero position ``a``:
    raising heap 0 makes ``a`` the parent's lowest winning move, which the
    search proves."""
    agent = MultiFrameAgent(budget)
    agent.choose(hist((a[0] + 1,) + a[1:]), RNG())
    return agent


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_restore_reply_is_the_searched_move(data):
    rest = data.draw(st.lists(st.integers(0, 15), min_size=0, max_size=4))
    a = (functools.reduce(operator.xor, rest, 0),) + tuple(rest)  # a zero position
    assume(any(a))
    i = data.draw(st.sampled_from([j for j, c in enumerate(a) if c]))
    b = a[:i] + (data.draw(st.integers(0, a[i] - 1)),) + a[i + 1 :]
    budget = RolloutBudget(
        exhaustive_cap=data.draw(st.sampled_from((0, 1, 64, 2**16))),
        ply_cap=data.draw(st.integers(1, 2 * sum(a) + 2)),
    )
    agent = _proving(budget, a)
    # the search proves the zero child it plays under every budget, so the
    # reply answers the opponent's move from it without a search
    assert a in agent._proven
    move, searched = _spied_choose(agent, a, b)
    assert move == MultiFrameAgent(budget)._decide(b)
    assert not searched


class TestRestoreReply:
    A = (1, 2, 3)  # a zero position
    B = (1, 2, 1)  # the opponent's move from it

    def test_plays_the_reply_without_searching(self):
        agent = _proving(RolloutBudget(), self.A)
        assert self.A in agent._proven
        move, searched = _spied_choose(agent, self.A, self.B)
        assert (move, searched) == (GameMove(1, 0), False)
        # built without the named tuple's __new__, and still a GameMove
        assert type(move) is GameMove and repr(move) == repr(GameMove(1, 0))
        assert (1, 0, 1) in agent._proven
        # the reply's child qualifies in turn
        assert _spied_choose(agent, (1, 0, 1), (0, 0, 1)) == (GameMove(2, 0), False)

    @pytest.mark.parametrize(
        "budget",
        [RolloutBudget(ply_cap=6), RolloutBudget(exhaustive_cap=0, ply_cap=1)],
        ids=["ply-cap-6", "smallest"],
    )
    def test_replies_under_every_budget(self, budget):
        # the older frame may hold any number of objects: no probe is cut
        agent = _proving(budget, self.A)
        assert _spied_choose(agent, self.A, self.B) == (GameMove(1, 0), False)

    @pytest.mark.parametrize(
        "budget, window",
        [
            (RolloutBudget(ply_cap=6), (B,)),  # a one-frame window
            # a zero older frame that no probe of this agent emptied
            (RolloutBudget(exhaustive_cap=0, ply_cap=6), ((1, 0, 1), (0, 0, 1))),
            (RolloutBudget(), (A, (0, 1, 3))),  # two heaps changed
            (RolloutBudget(), (A, (1, 2, 4))),  # a heap grew
            (RolloutBudget(), (A, A)),  # nothing changed
            (RolloutBudget(), ((1, 2, 2), (1, 2, 1))),  # a non-zero older frame
            (RolloutBudget(), (A, (1, 2, 1, 3))),  # a different heap count
        ],
    )
    def test_searches_otherwise(self, budget, window):
        agent = _proving(budget, self.A)
        move, searched = _spied_choose(agent, *window)
        assert searched
        assert move == MultiFrameAgent(budget)._decide(window[-1])

    def test_searches_from_an_unproven_zero_position(self):
        assert _spied_choose(MultiFrameAgent(), self.A, self.B) == (GameMove(1, 0), True)

    def test_fires_in_a_seeded_game(self):
        from nimcore.harness import play_match

        agent = MultiFrameAgent(RolloutBudget(exhaustive_cap=1))
        searches = _spy_on_search(agent)
        record = play_match(NIM, Position((9, 11, 6, 2)), agent, OracleAgent(NIM), seed=3)
        assert record.winner == "first"
        assert searches == [(9, 11, 6, 2)]
        assert len(record.moves) > 2  # so the agent moved again without a search


class TestSingleFrameAgent:
    def test_constant_scorer_is_tie_break_minimal(self):
        from nimcore.circuits.builders import CircuitBuilder

        b = CircuitBuilder()
        b.inputs(2 * 3)
        one = b.const(1)
        circuit = b.build([one] * (2 << 3))
        agent = SingleFrameCircuitAgent(circuit, 2, 3)
        assert agent.choose(hist((5, 3)), RNG()) == GameMove(0, 0)

    def test_heuristic_agents_share_the_scorer_not_the_moves(self):
        a, b = SingleFrameCircuitAgent.heuristic(3, 3), SingleFrameCircuitAgent.heuristic(3, 3)
        assert a.circuit is b.circuit
        a.choose(hist((1, 2, 3)), RNG())
        assert a._decisions and not b._decisions

    def test_heuristic_slots_count_against_the_gate_budget(self):
        # 9 * 2**17 = 1,179,648 output slots, each a reused gate: refused
        # before any gate is built, not built for seconds and gigabytes
        with pytest.raises(GateBudgetError, match="1179648"):
            SingleFrameCircuitAgent.heuristic(9, 17)
        assert len(build_even_nonempty_scorer(9, 16).outputs) == 9 << 16

    def test_heuristic_on_single_move(self):
        agent = SingleFrameCircuitAgent.heuristic(1, 3)
        assert agent.choose(hist((1,)), RNG()) == GameMove(0, 0)

    def test_heuristic_prefers_even_nonempty(self):
        agent = SingleFrameCircuitAgent.heuristic(3, 3)
        move = agent.choose(hist((2, 3, 0)), RNG())
        result = apply_move(Position((2, 3, 0)), move, NIM)
        assert sum(1 for h in result.heaps if h) % 2 == 0

    def test_arity_mismatch_rejected(self):
        from nimcore.circuits.builders import build_even_nonempty_scorer

        circuit = build_even_nonempty_scorer(3, 3)
        with pytest.raises(EncodingError, match="takes 9 bits"):
            SingleFrameCircuitAgent(circuit, 2, 3)
        # 2 heaps of 3 bits and 3 heaps of 2 bits both take 6 input bits,
        # but have 16 and 12 candidate slots
        circuit = build_even_nonempty_scorer(2, 3)
        with pytest.raises(EncodingError, match="emits 16 scores, expected 12"):
            SingleFrameCircuitAgent(circuit, 3, 2)

    def test_no_scoring_candidate_plays_first_legal_move(self):
        from nimcore.circuits.builders import CircuitBuilder

        b = CircuitBuilder()
        b.inputs(2 * 2)
        zero = b.const(0)
        agent = SingleFrameCircuitAgent(b.build([zero] * (2 << 2)), 2, 2)
        # one agent over both orders of the same heaps: the remembered
        # move of one is illegal in the other
        for heaps, move in [((0, 3), GameMove(1, 0)), ((3, 0), GameMove(0, 0))] * 2:
            assert agent.choose(hist(heaps), RNG()) == move
        with pytest.raises(IllegalMoveError):
            agent.choose(hist((0, 0)), RNG())

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_full_scan_reference(self, data):
        n = data.draw(st.integers(1, 3), label="n")
        l = data.draw(st.integers(1, 3), label="l")
        slots = n << l
        gates = [Gate(INPUT) for _ in range(n * l)] + [Gate("CONST0"), Gate("CONST1")]
        while len(gates) < slots or data.draw(st.booleans()):
            earlier = st.integers(0, len(gates) - 1)
            kind = data.draw(st.sampled_from((AND, OR, NOT)))
            if kind == NOT:
                args = (data.draw(earlier),)
            else:
                args = tuple(data.draw(st.lists(earlier, min_size=1, max_size=4)))
            gates.append(Gate(kind, args))
        # one distinct output gate per candidate slot
        outputs = data.draw(
            st.lists(
                st.integers(0, len(gates) - 1), min_size=slots, max_size=slots, unique=True
            ),
            label="outputs",
        )
        circuit = Circuit(gates, outputs, n * l)
        heap = st.integers(0, (1 << l) - 1)
        pool = data.draw(st.lists(st.tuples(*[heap] * n), min_size=1, max_size=4))
        seq = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
        agent = SingleFrameCircuitAgent(circuit, n, l)  # reused: repeats hit its cache
        for heaps in seq:
            fresh = SingleFrameCircuitAgent(circuit, n, l)
            if not any(heaps):
                for a in (agent, fresh):
                    with pytest.raises(IllegalMoveError):
                        a.choose(hist(heaps), RNG())
                continue
            want = reference_singleframe_choice(circuit, n, l, heaps)
            assert agent.choose(hist(heaps), RNG()) == want
            assert fresh.choose(hist(heaps), RNG()) == want


    # the heuristic scorers the benchmark plays: the 9-heap one has 1,233
    # gates, and every decision reads all of its scores
    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_heuristic_matches_full_scan_reference(self, n):
        l = 5
        agent = SingleFrameCircuitAgent.heuristic(n, l)
        rng = random.Random(n)
        for _ in range(300):
            # some heaps empty, so boards with few candidates come up too
            heaps = tuple(0 if rng.random() < 0.3 else rng.randint(1, 31) for _ in range(n))
            if not any(heaps):
                continue
            want = reference_singleframe_choice(agent.circuit, n, l, heaps)
            assert agent.choose(hist(heaps), RNG()) == want


@pytest.mark.parametrize(
    "agent_class, args",
    [
        (Mirror71Agent, (2.5,)),
        (Mirror71Agent, (True,)),
        (Mirror71Agent, (0,)),
        (Mirror72Agent, (1.5, "first")),
        (Mirror72Agent, (False, "second")),
    ],
    ids=["71-float", "71-bool", "71-zero", "72-float", "72-bool"],
)
def test_mirror_pair_count_must_be_a_positive_int(agent_class, args):
    # once accepted, with names such as mirror71:True
    with pytest.raises(ValueError, match="^k must be an int >= 1, got "):
        agent_class(*args)


class TestMirror71:
    def test_opening_empties_pair_heap(self):
        agent = Mirror71Agent(2)
        assert agent.choose(hist((1, 1, 1, 1, 2)), RNG()) == GameMove(4, 0)

    def test_parity_restoration(self):
        agent = Mirror71Agent(2)
        move = agent.choose(hist((0, 1, 1, 1, 0)), RNG())
        assert move.new_count == 0
        p = apply_move(Position((0, 1, 1, 1, 0)), move, NIM)
        assert sum(1 for h in p.heaps if h == 1) % 2 == 0

    def test_second_player_branch_reduces_pair_heap(self):
        agent = Mirror71Agent(2)
        # opponent took a single: odd singles remain, take the pair heap to 1
        assert agent.choose(hist((0, 1, 1, 1, 2)), RNG()) == GameMove(4, 1)

    def test_domain_rejection(self):
        agent = Mirror71Agent(2)
        with pytest.raises(StrategyDomainError):
            agent.choose(hist((3, 1, 1, 1, 2)), RNG())
        with pytest.raises(StrategyDomainError):
            agent.choose(hist((1, 1, 2)), RNG())


class TestMirror72:
    def test_first_player_opens_on_odd_heap(self):
        agent = Mirror72Agent(2, "first")
        assert agent.choose(hist((2, 2, 2, 2, 3)), RNG()) == GameMove(4, 0)

    def test_first_player_mirrors_pair(self):
        agent = Mirror72Agent(2, "first")
        h = hist((2, 2, 2, 2, 0), (1, 2, 2, 2, 0))
        assert agent.choose(h, RNG()) == GameMove(2, 1)

    def test_second_player_step_one(self):
        agent = Mirror72Agent(2, "second")
        h = hist((2, 2, 2, 2, 3), (2, 2, 2, 2, 0))
        assert agent.choose(h, RNG()) == GameMove(0, 1)

    def test_second_player_converts_blunders(self):
        agent = Mirror72Agent(2, "second")
        h = hist((2, 2, 2, 2, 3), (2, 2, 2, 2, 1))
        move = agent.choose(h, RNG())
        after = apply_move(Position((2, 2, 2, 2, 1)), move, NIM)
        assert nim_sum(after) == 0

    def test_second_player_duplicates_in_pairs(self):
        agent = Mirror72Agent(2, "second")
        # after step one and a balanced exchange, opponent moves inside a pair
        h = hist((1, 2, 2, 2, 0), (1, 1, 2, 2, 0))
        move = agent.choose(h, RNG())
        after = apply_move(Position((1, 1, 2, 2, 0)), move, NIM)
        assert after.heaps == (1, 1, 2, 1, 0)

    def test_domain_rejection(self):
        with pytest.raises(StrategyDomainError):
            Mirror72Agent(2, "first").choose(hist((4, 2, 2, 2, 3)), RNG())
