import hashlib
import itertools
import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nimcore.agents import (
    AgentPolicy,
    FrameHistory,
    Mirror71Agent,
    Mirror72Agent,
    MultiFrameAgent,
    OracleAgent,
    RandomAgent,
    RolloutBudget,
    ScriptAgent,
)
from nimcore.circuits.builders import build_even_nonempty_scorer
from nimcore.circuits.ir import save_circuit
from nimcore.errors import (
    CircuitFormatError,
    IllegalMoveError,
    InvalidPositionError,
    NimcoreError,
)
from nimcore import agents, games, harness, verify
from nimcore.games import (
    GameMove,
    GameRules,
    Position,
    apply_move,
    grundy,
    is_terminal,
    legal_moves,
)
from nimcore.harness import (
    RNG_ALGORITHM,
    AdversaryReport,
    ExperimentConfig,
    ExperimentRow,
    MatchRecord,
    MoveDiagnostic,
    _adversary_walk,
    _draw_start,
    _SeededOnFirstDraw,
    _write_outputs,
    exhaustive_adversary,
    make_agent,
    parse_move,
    parse_rules,
    play_match,
    rows_to_csv,
    run_experiment,
)
from nimcore.nimber import nim_sum

from oracles import reference_adversary, reference_never_miss

NIM = GameRules.nim(16)
_DELETE = object()  # a config edit that removes the key

# fields of the wrong type, once accepted by a directly built config and
# then a bare TypeError mid-sweep, a letter-by-letter agent list, or 1
_WRONG_TYPES = [
    (dict(seed=1.5), "seed"),
    (dict(seed="7"), "seed"),
    (dict(seed=True), "seed"),
    (dict(games_per_cell=2.5), "games_per_cell"),
    (dict(games_per_cell=True), "games_per_cell"),
    (dict(max_heap_size=True), "max_heap_size"),
    (dict(heap_counts=[3.0]), "heap_counts"),
    (dict(heap_counts=[True]), "heap_counts"),
    (dict(heap_counts=3), "heap_counts"),
    (dict(heap_counts=range(1, 4)), "heap_counts"),  # shown by its repr
    (dict(agents="oracle"), "agents"),
    (dict(agents=["oracle", 3]), "agents"),
    (dict(opponent=3), "opponent"),
    # fields a directly built config holds as Python objects, which the
    # JSON half of test_unstartable_config_rejected cannot write (_NOT_JSON)
    (dict(rules="nim"), "rules"),
    (dict(out_dir=3), "out_dir"),
]
_NOT_JSON = ("rules", "out_dir")
_NO_BUDGET = "unknown config key 'budget'"


class BrokenAgent(AgentPolicy):
    name = "broken"

    def choose(self, history, rng):
        return GameMove(99, 0)


class DrawingAgent(AgentPolicy):
    """Draws three times per decision and plays the legal move its last
    draw picks, so a decision depends on the generator's whole stream,
    not only on its first draw."""

    name = "draws"

    def __init__(self, rules):
        self.rules = rules

    def choose(self, history, rng):
        moves = legal_moves(history.current, self.rules)
        rng.random()
        rng.randrange(5)
        return moves[rng.randrange(len(moves))]


class FlawAfter(OracleAgent):
    """A two-frame oracle that plays its lowest legal move instead when its
    window starts with the frames ``flaw`` (heap tuples, oldest first), so
    its choice reads its older frame."""

    required_frames = 2

    def __init__(self, rules, flaw):
        super().__init__(rules)
        self.flaw = flaw

    def choose(self, history, rng):
        if history.frames[: len(self.flaw)] == self.flaw:
            return min(legal_moves(history.current, self.rules))
        return super().choose(history, rng)


class TestPlayMatch:
    def test_oracle_beats_random_from_winning_start(self):
        for seed in range(5):
            record = play_match(
                NIM, Position((3, 5, 7)), OracleAgent(NIM), RandomAgent(NIM), seed
            )
            assert record.winner == "first"

    def test_oracle_mirror_from_zero_start(self):
        record = play_match(NIM, Position((1, 2, 3)), OracleAgent(NIM), OracleAgent(NIM), 0)
        assert record.winner == "second"

    def test_single_object_first_mover_wins(self):
        for agent in (OracleAgent(NIM), RandomAgent(NIM), MultiFrameAgent()):
            record = play_match(NIM, Position((1,)), agent, OracleAgent(NIM), 0)
            assert record.winner == "first"

    def test_terminal_start_rejected(self):
        with pytest.raises(IllegalMoveError):
            play_match(NIM, Position((0,)), OracleAgent(NIM), OracleAgent(NIM), 0)

    def test_forfeit_recorded_and_never_wins(self):
        record = play_match(NIM, Position((3, 5)), BrokenAgent(), OracleAgent(NIM), 0)
        assert record.winner == "second"
        assert record.forfeit and "broken" in record.forfeit

    def test_transcript_replays_to_winner(self):
        for seed in range(5):
            record = play_match(
                NIM, Position((4, 2, 6)), RandomAgent(NIM), RandomAgent(NIM), seed
            )
            p = Position(record.start)
            for m in record.moves:
                p = apply_move(p, m, NIM)
            assert record.forfeit is None and is_terminal(p, NIM)
            assert record.winner == ("first" if len(record.moves) % 2 == 1 else "second")

    def test_diagnostics_track_nim_sums(self):
        record = play_match(NIM, Position((3, 5, 7)), OracleAgent(NIM), OracleAgent(NIM), 0)
        first_moves = [d for d in record.diagnostics if d.mover == "first"]
        assert all(d.nim_sum_after == 0 for d in first_moves)


class _Plays(AgentPolicy):
    """Plays one fixed move whenever it is to move."""

    name = "plays"

    def __init__(self, move):
        self.move = move

    def choose(self, history, rng):
        return self.move


SUB134 = GameRules.subtraction([1, 3, 4], 16)
KAYLES = GameRules.kayles(16)


# each class of illegal move, on heap 1 of (3, 5), which the adversary's
# first move (on heap 0) leaves as it is, and values that are not a move
# of three ints (GameMove(0, True) would be written as "0:True")
@pytest.mark.parametrize(
    "rules, move",
    [
        (NIM, None),
        (NIM, (0, 1)),
        (NIM, GameMove(0, 1.5)),
        (NIM, GameMove("0", 1)),
        (NIM, GameMove(0, True)),
        (NIM, GameMove(2, 0)),  # heap index out of range
        (NIM, GameMove(-1, 0)),  # negative heap index
        (NIM, GameMove(1, 5)),  # does not decrease
        (NIM, GameMove(1, 7)),  # grows
        (SUB134, GameMove(1, 3)),  # removes 2, not in the set
        (NIM, GameMove(1, 1, 1)),  # a split under NIM
        (KAYLES, GameMove(1, 2, 0)),  # takes 3 pins
        (KAYLES, GameMove(1, 1, 1)),  # takes 3 pins, splitting the row
        (KAYLES, GameMove(1, 1, 3)),  # split row larger than the kept one
    ],
    ids=repr,
)
def test_illegal_move_keeps_its_message(rules, move):
    start = Position((3, 5), rules.game_id)
    with pytest.raises(IllegalMoveError) as raised:
        apply_move(start, move, rules)
    record = play_match(rules, start, _Plays(move), OracleAgent(rules), 0)
    assert record.winner == "second" and record.moves == []
    assert record.forfeit == f"first (plays): {raised.value}"
    # the agent forfeits at its first move, after the adversary's first
    report = exhaustive_adversary(rules, start, _Plays(move), role="second")
    assert report.complete and not report.agent_always_wins
    assert report.counterexample == legal_moves(start, rules)[:1]
    expected = reference_adversary(rules, start, _Plays(move), role="second")
    assert report.counterexample == expected.counterexample


def test_negative_window_forfeits():
    # required_frames below 0 is outside the contract: the window is cut
    # empty, and the agent forfeits its first move in both drivers
    agent = OracleAgent(NIM)
    agent.required_frames = -1
    record = play_match(NIM, Position((3, 5)), agent, OracleAgent(NIM), 0)
    assert record.moves == [] and record.winner == "second"
    assert record.forfeit == "first (oracle): history needs at least one frame"
    report = exhaustive_adversary(NIM, Position((3, 5)), agent)
    assert report.complete and not report.agent_always_wins and report.counterexample == []


def test_one_validation_per_choose(monkeypatch):
    # the start is validated once; each later position only by an agent
    # built for rules other than the match's own object (here equal ones),
    # and no ply builds a move generator
    counts = {"validated": 0, "chosen": 0, "generators": 0}
    validate, iter_moves = games._validate, games._iter_moves

    def counted_validate(heaps, game_id, rules):
        counts["validated"] += 1
        validate(heaps, game_id, rules)

    def counted_moves(heaps, rules):
        counts["generators"] += 1
        return iter_moves(heaps, rules)

    monkeypatch.setattr(games, "_validate", counted_validate)
    monkeypatch.setattr(agents, "_validate", counted_validate)
    monkeypatch.setattr(games, "_iter_moves", counted_moves)
    monkeypatch.setattr(harness, "_iter_moves", counted_moves)
    equal = GameRules(NIM.variant, NIM.max_heap_size)
    for rules, checked in ((equal, 1), (NIM, 0)):
        players = (OracleAgent(rules), RandomAgent(rules))
        for agent in players:
            choose = agent.choose

            def counted_choose(history, rng, choose=choose):
                counts["chosen"] += 1
                return choose(history, rng)

            agent.choose = counted_choose
        for key in counts:
            counts[key] = 0
        record = play_match(NIM, Position((3, 5, 7, 9)), *players, seed=3)
        assert record.forfeit is None and len(record.moves) >= 8
        assert counts["chosen"] == len(record.moves)
        assert counts["validated"] == checked * counts["chosen"] + 1
        assert counts["generators"] == 0


def _count_positions(monkeypatch) -> dict:
    """Count the ``Position`` objects built from now on."""
    counts = {"positions": 0}
    post_init = Position.__post_init__

    def counted(self):
        counts["positions"] += 1
        post_init(self)

    monkeypatch.setattr(Position, "__post_init__", counted)
    return counts


def test_a_match_builds_only_its_start(monkeypatch):
    # the agents are handed heap tuples: no ply builds a Position
    counts = _count_positions(monkeypatch)
    record = play_match(NIM, Position((3, 5, 7, 9)), MultiFrameAgent(), OracleAgent(NIM), 3)
    assert record.forfeit is None and len(record.moves) >= 4
    assert [d.nim_sum_before for d in record.diagnostics[1:]] == [
        d.nim_sum_after for d in record.diagnostics[:-1]
    ]
    assert counts["positions"] == 1


def _count_generators(monkeypatch) -> list:
    """The seeds of the ``random.Random`` generators built from now on."""
    seeds = []

    class Counted(random.Random):
        def __init__(self, seed=None):
            seeds.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(random, "Random", Counted)
    return seeds


def test_a_match_without_draws_seeds_no_generator(monkeypatch):
    seeds = _count_generators(monkeypatch)
    record = play_match(NIM, Position((3, 5, 7, 9)), MultiFrameAgent(), OracleAgent(NIM), 3)
    assert record.forfeit is None and len(record.moves) >= 4
    assert seeds == []
    # a match whose agent draws seeds one generator, with the match seed
    play_match(NIM, Position((3, 5, 7, 9)), OracleAgent(NIM), RandomAgent(NIM), 3)
    assert seeds == [3]


@pytest.mark.parametrize("rules", [NIM, GameRules.kayles(16)], ids=lambda r: r.game_id)
def test_a_match_replays_with_an_eager_generator(rules):
    # each agent decides again on the frames of the match, drawing from
    # random.Random(seed) built before the first ply
    for seed in range(20):
        start = Position((3, 5, 7), rules.game_id)
        players = (OracleAgent(rules), RandomAgent(rules))
        record = play_match(rules, start, *players, seed)
        assert record.forfeit is None
        rng = random.Random(seed)
        p = start
        for ply, move in enumerate(record.moves):
            assert players[ply % 2].choose(FrameHistory([p.heaps], rules.game_id), rng) == move
            p = apply_move(p, move, rules)
        assert is_terminal(p, rules)


def _reference_start(rules, heap_count, max_size, seed, winning):
    """The start drawing rule with one ``randint`` per heap and a
    ``Position`` per draw."""
    rng = random.Random(seed)
    while True:
        p = Position(tuple(rng.randint(1, max_size) for _ in range(heap_count)), rules.game_id)
        if (grundy(p, rules) != 0) if winning else not is_terminal(p, rules):
            return p


@pytest.mark.parametrize(
    "rules",
    [
        GameRules.nim(9),
        GameRules.kayles(9),
        GameRules.subtraction([1, 3, 4], 9),
        GameRules.subtraction([2, 3], 9),  # heaps of 1 have no move
    ],
    ids=lambda r: r.game_id,
)
def test_draw_start_matches_randint_per_heap(rules):
    for seed in range(150):
        heap_count = 1 + seed % 4
        max_size = 4 + seed % 6
        for winning in (True, False):
            start = _draw_start(rules, heap_count, max_size, seed, winning)
            assert start == _reference_start(rules, heap_count, max_size, seed, winning)


def test_the_adversary_walk_builds_only_its_start(monkeypatch):
    counts = _count_positions(monkeypatch)
    report = exhaustive_adversary(NIM, Position((3, 5, 7)), MultiFrameAgent())
    assert report.complete and report.agent_always_wins and report.nodes > 100
    assert counts["positions"] == 1


# (agent's rules, start of a nim(31) match, the InvalidPositionError it forfeits with)
_MISMATCHES = [
    (GameRules.kayles(16), (3, 5, 7), "position belongs to 'nim', rules are 'kayles'"),
    (GameRules.nim(7), (3, 9, 7), "heap 1 has 9 objects, above the rule bound 7"),
]


@pytest.mark.parametrize("rules, heaps, message", _MISMATCHES)
@pytest.mark.parametrize("policy", [OracleAgent, RandomAgent])
def test_agent_for_other_rules_forfeits(policy, rules, heaps, message):
    # the window carries the match's game id, which the agent checks, with
    # the heap bound, against the rules it was built for
    nim31, start = GameRules.nim(31), Position(heaps)
    record = play_match(nim31, start, policy(rules), OracleAgent(nim31), 0)
    assert record.moves == [] and record.winner == "second"
    assert record.forfeit == f"first ({policy(rules).name}): {message}"
    with pytest.raises(InvalidPositionError, match=re.escape(message)):
        policy(rules).choose(FrameHistory((heaps,), nim31.game_id), random.Random(0))
    report = exhaustive_adversary(nim31, start, policy(rules))
    assert report.complete and not report.agent_always_wins
    assert report.counterexample == []


# games where every move takes one object, for _WindowChecker
_WINDOW_GAMES = [
    (GameRules.nim(1), (1,) * 5),
    (GameRules.kayles(1), (1,) * 5),
    (GameRules.subtraction([1], 4), (3, 2, 4)),
]


class TestExhaustiveAdversary:
    def test_multiframe_always_wins(self):
        agent = MultiFrameAgent(RolloutBudget(exhaustive_cap=1024))
        report = exhaustive_adversary(NIM, Position((3, 5, 7)), agent, role="first")
        assert report.complete and report.agent_always_wins
        assert report.counterexample is None

    def test_random_policy_has_counterexample(self):
        report = exhaustive_adversary(NIM, Position((3, 5, 7)), RandomAgent(NIM), "first")
        assert report.complete and not report.agent_always_wins
        assert report.counterexample

    def test_counterexample_replays_to_agent_loss(self):
        report = exhaustive_adversary(NIM, Position((2, 2)), RandomAgent(NIM), "first")
        if report.agent_always_wins:
            pytest.skip("random policy got lucky at this size")
        p = Position((2, 2))
        from nimcore.games import apply_move

        for m in report.counterexample:
            p = apply_move(p, m, NIM)
        assert not any(p.heaps)
        assert len(report.counterexample) % 2 == 0  # adversary made the last move

    def test_terminal_rejected(self):
        with pytest.raises(IllegalMoveError):
            exhaustive_adversary(NIM, Position((0,)), OracleAgent(NIM), "first")

    @pytest.mark.parametrize("budget", [None, 2.5, True, -1])
    def test_malformed_node_budget_rejected(self, budget):
        with pytest.raises(ValueError, match="^node_budget must be an int >= 0, got "):
            exhaustive_adversary(NIM, Position((3,)), OracleAgent(NIM), node_budget=budget)

    def test_budget_partial_result(self):
        agent = MultiFrameAgent()
        report = exhaustive_adversary(NIM, Position((9, 9, 9)), agent, "first", node_budget=10)
        assert not report.complete

    def test_long_game_gives_a_report(self):
        # the first line runs about 1,500 plies deep, past any recursion limit
        rules = GameRules.nim(1)
        report = exhaustive_adversary(
            rules, Position((1,) * 1501), OracleAgent(rules), node_budget=600
        )
        assert isinstance(report, AdversaryReport)
        assert report.complete or report.nodes == 601

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_reference_walk(self, data):
        rules = data.draw(
            st.sampled_from(
                (GameRules.nim(4), GameRules.kayles(5), GameRules.subtraction([1, 3], 5))
            )
        )
        heaps = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=3).map(tuple))
        start = Position(heaps, rules.game_id)
        assume(not is_terminal(start, rules))
        script = data.draw(
            st.lists(st.builds(GameMove, st.integers(0, 3), st.integers(0, 3)), max_size=8)
        )
        older = tuple(data.draw(st.integers(0, h)) for h in heaps)
        agent = data.draw(
            st.sampled_from(
                (
                    OracleAgent(rules),
                    RandomAgent(rules),
                    MultiFrameAgent(RolloutBudget(exhaustive_cap=125)),
                    Mirror71Agent(1),
                    Mirror72Agent(1, "first"),
                    Mirror72Agent(1, "second"),
                    DrawingAgent(rules),
                    FlawAfter(rules, (older,)),
                    ScriptAgent(script),  # needs the whole transcript: no table
                )
            )
        )
        role = data.draw(st.sampled_from(("first", "second")))
        expected = reference_adversary(rules, start, agent, role)
        report = exhaustive_adversary(rules, start, agent, role)
        assert report.complete == expected.complete
        assert report.agent_always_wins == expected.agent_always_wins
        assert report.counterexample == expected.counterexample
        assert report.nodes <= expected.nodes


    def test_planted_window_flaw_is_found(self):
        # the agent faces (0,0,2,3) after several older frames and errs only
        # after (0,1,2,3): a table keyed on the current frame alone would
        # skip the flaw as proven and report that the agent always wins
        rules = GameRules.nim(3)
        start = Position((1, 2, 3, 3))
        agent = FlawAfter(rules, ((0, 1, 2, 3), (0, 0, 2, 3)))
        report = exhaustive_adversary(rules, start, agent, "first")
        assert report.complete and not report.agent_always_wins
        line = [parse_move(m) for m in ("1:1", "2:2", "0:0", "1:0", "2:0", "3:0")]
        assert report.counterexample == line
        assert reference_adversary(rules, start, agent).counterexample == line

    def test_generator_stream_matches_random0(self):
        lazy, eager = _SeededOnFirstDraw(0), random.Random(0)
        for bound in (2, 7, 1000, 3):
            assert lazy.random() == eager.random()
            assert lazy.randrange(bound) == eager.randrange(bound)
        assert lazy.getstate() == eager.getstate()

    # every winning start of the bench's certify grids, one fresh agent per
    # start; a lost table entry would raise these totals
    @pytest.mark.parametrize(
        "heaps, size, starts, nodes", [(3, 6, 300, 7056), (4, 3, 192, 2560)]
    )
    def test_certify_grid_node_counts(self, heaps, size, starts, nodes):
        rules = GameRules.nim(size)
        grid = (Position(h) for h in itertools.product(range(size + 1), repeat=heaps))
        reports = [
            exhaustive_adversary(
                rules, p, MultiFrameAgent(RolloutBudget(exhaustive_cap=343)), role="first"
            )
            for p in grid
            if nim_sum(p)
        ]
        assert len(reports) == starts
        assert all(r.complete and r.agent_always_wins for r in reports)
        assert sum(r.nodes for r in reports) == nodes

    @pytest.mark.parametrize("rules, heaps", _WINDOW_GAMES)
    @pytest.mark.parametrize("frames", [0, 1, 2, 3])
    @pytest.mark.parametrize("role", ["first", "second"])
    def test_agent_window(self, rules, heaps, frames, role):
        agent = _WindowChecker(rules, frames, sum(heaps))
        start = Position(heaps, rules.game_id)
        report = _adversary_walk(rules, start, agent, role, 500_000, lambda before, after: False)
        assert report.complete and report.agent_always_wins
        assert agent.calls


class _WindowChecker(AgentPolicy):
    """Asserts the window it is handed and plays the lowest legal move.

    Every move of the games it is walked on takes one object, so the plies
    played are the objects taken since the start of ``total`` objects."""

    def __init__(self, rules, frames, total):
        self.rules = rules
        self.required_frames = frames
        self.total = total
        self.calls = 0

    def choose(self, history, rng):
        self.calls += 1
        assert isinstance(history, FrameHistory)
        assert history.game_id == self.rules.game_id and history.rules is self.rules
        assert all(
            type(f) is tuple and all(type(h) is int for h in f) for f in history.frames
        )
        assert history.current == Position(history.frames[-1], self.rules.game_id)
        totals = [sum(f) for f in history.frames]
        assert all(a - b == 1 for a, b in zip(totals, totals[1:]))
        plies = self.total - totals[-1]
        frames = self.required_frames
        assert len(totals) == (min(frames, plies + 1) if frames >= 1 else plies + 1)
        return min(legal_moves(history.current, self.rules))


# seat pairs that mix 0 with other windows keep every frame for both seats
@pytest.mark.parametrize("rules, heaps", _WINDOW_GAMES)
@pytest.mark.parametrize("first_frames, second_frames", itertools.product(range(4), repeat=2))
def test_agent_window_in_a_match(rules, heaps, first_frames, second_frames):
    first = _WindowChecker(rules, first_frames, sum(heaps))
    second = _WindowChecker(rules, second_frames, sum(heaps))
    record = play_match(rules, Position(heaps, rules.game_id), first, second, 0)
    assert record.forfeit is None and len(record.moves) == sum(heaps)
    assert first.calls + second.calls == sum(heaps) and second.calls


class _MissAt(Mirror72Agent):
    """Mirror72 that, in the second seat, empties heap 2 at ``MISS``
    (NIM sum 3) and so leaves NIM sum 1 instead of zero."""

    MISS = (1, 1, 2, 1, 0)

    def choose(self, history, rng):
        if self.role == "second" and history.current.heaps == self.MISS:
            return GameMove(2, 0)
        return super().choose(history, rng)


class TestNeverMissRule:
    """The never-miss check: the adversary walk under the rule that the
    agent must zero every non-zero NIM sum it faces."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_reference_walk(self, data):
        rules = GameRules.nim(4)
        heaps = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=3).map(tuple))
        start = Position(heaps)
        assume(not is_terminal(start, rules))
        older = tuple(data.draw(st.integers(0, h)) for h in heaps)
        agent = data.draw(
            st.sampled_from(
                (
                    OracleAgent(rules),
                    RandomAgent(rules),
                    MultiFrameAgent(RolloutBudget(exhaustive_cap=125)),
                    Mirror71Agent(1),
                    Mirror72Agent(1, "first"),
                    Mirror72Agent(1, "second"),
                    DrawingAgent(rules),
                    FlawAfter(rules, (older,)),
                )
            )
        )
        role = data.draw(st.sampled_from(("first", "second")))
        expected = reference_never_miss(rules, start, agent, role)
        report = _adversary_walk(rules, start, agent, role, 500_000, verify._missed_a_win)
        assert report.complete
        assert report.agent_always_wins == expected.agent_always_wins
        assert report.counterexample == expected.counterexample
        assert report.nodes <= expected.nodes

    def test_planted_miss_is_found(self, monkeypatch):
        rules = GameRules.nim(3)
        start = Position((2, 2, 2, 2, 3))
        agent = _MissAt(2, "second")
        report = _adversary_walk(rules, start, agent, "second", 500_000, verify._missed_a_win)
        assert report.complete and not report.agent_always_wins
        *lead, miss = report.counterexample
        p = start
        for move in lead:
            p = apply_move(p, move, rules)
        assert p.heaps == _MissAt.MISS
        assert miss == GameMove(2, 0)
        assert report.counterexample == reference_never_miss(rules, start, agent).counterexample
        # the verify check finds it too, and passes without the flaw
        assert verify.check_mirror_strategies_exhaustive((2,))[0]
        monkeypatch.setattr(verify, "Mirror72Agent", _MissAt)
        ok, detail = verify.check_mirror_strategies_exhaustive((1, 2))
        assert not ok
        assert detail.startswith("mirror72 k=2 second role misses a win")


class TestAgentFactory:
    def test_known_specs(self):
        assert make_agent("oracle", NIM).name == "oracle"
        assert make_agent("random", NIM).name == "random"
        assert make_agent("multiframe", NIM).name == "multiframe"
        assert make_agent("mirror71:2", NIM).name == "mirror71:2"
        assert make_agent("mirror72:2:second", NIM).name == "mirror72:2:second"
        heur = make_agent("singleframe-heuristic", NIM, heap_count=3)
        assert heur.name == "singleframe-heuristic"

    def test_script_agent_plays_and_forfeits(self):
        script = make_agent("script:0:0", NIM)
        record = play_match(NIM, Position((1, 1)), script, OracleAgent(NIM), 0)
        assert record.winner == "second"  # script zeroes heap 0, oracle takes the last

        # entry 0 belongs to the opponent's ply and is never played
        second = make_agent("script:9:9;1:0", NIM)
        record = play_match(NIM, Position((1, 1)), OracleAgent(NIM), second, 0)
        assert record.forfeit is None and record.winner == "second"
        assert record.moves == [GameMove(0, 0), GameMove(1, 0)]

        exhausted = make_agent("script:", NIM)
        record = play_match(NIM, Position((2, 2)), exhausted, OracleAgent(NIM), 0)
        assert record.forfeit and record.winner == "second"

    def test_script_agent_survives_long_games(self):
        # seven scripted moves requires an untruncated transcript view
        moves = ";".join(f"{i}:0" for i in range(7))
        script = make_agent(f"script:{moves}", NIM)
        record = play_match(NIM, Position((1,) * 7), script, OracleAgent(NIM), 0)
        assert record.forfeit is None
        assert len(record.moves) == 7

    def test_unknown_spec(self):
        with pytest.raises(ValueError):
            make_agent("alphabeta", NIM)

    def test_singleframe_file_that_is_not_utf8_names_the_spec(self, tmp_path):
        circuit = tmp_path / "scorer.ac0"
        circuit.write_bytes(b"\xff\xfe\x00")
        spec = f"singleframe:{circuit}"
        message = re.escape(f"agent {spec!r} for 3 heaps: {circuit}: not UTF-8 text")
        with pytest.raises(CircuitFormatError, match=f"^{message}"):
            make_agent(spec, NIM, heap_count=3)

    @pytest.mark.parametrize("rules", [GameRules.kayles(7), GameRules.subtraction([1, 3, 4], 7)])
    def test_nim_only_agents_reject_other_rules(self, tmp_path, rules):
        circuit = tmp_path / "scorer.ac0"
        save_circuit(build_even_nonempty_scorer(3, 3), circuit)
        for spec in (
            "multiframe",
            "singleframe-heuristic",
            f"singleframe:{circuit}",
            "mirror71:1",
            "mirror72:1:first",
        ):
            make_agent(spec, GameRules.nim(7), heap_count=3)
            with pytest.raises(ValueError, match="does not play"):
                make_agent(spec, rules, heap_count=3)
        for spec in ("oracle", "random", "script:0:0"):
            make_agent(spec, rules, heap_count=3)

    def test_parse_move(self):
        assert parse_move("2:6") == GameMove(2, 6)
        assert parse_move("0:2:1") == GameMove(0, 2, 1)


class TestRules:
    def test_parse_rules(self):
        assert parse_rules("nim").game_id == "nim"
        assert parse_rules("kayles").game_id == "kayles"
        assert parse_rules("subtraction:1,2").game_id == "subtraction(1,2)"
        with pytest.raises(ValueError):
            parse_rules("chess")

    def test_malformed_removal_names_the_spec(self):
        with pytest.raises(ValueError, match="'subtraction:1,x'"):
            parse_rules("subtraction:1,x")


class TestExperiment:
    def cfg(self, tmp_path, **overrides):
        base = dict(
            rules=GameRules.nim(7),
            heap_counts=[3],
            max_heap_size=7,
            agents=["oracle", "random"],
            opponent="oracle",
            games_per_cell=3,
            seed=11,
            out_dir=str(tmp_path / "out"),
        )
        base.update(overrides)
        return ExperimentConfig(**base)

    def test_rows_and_files(self, tmp_path):
        cfg = self.cfg(tmp_path)
        rows = run_experiment(cfg)
        assert [r.agent for r in rows] == ["oracle", "random"]
        oracle_row = rows[0]
        assert oracle_row.games == 3 and oracle_row.wins == 3
        assert oracle_row.win_rate == 1.0
        csv_text = (tmp_path / "out" / "results.csv").read_text()
        assert csv_text.splitlines()[0].startswith("heap_count,agent,games")
        doc = json.loads((tmp_path / "out" / "results.json").read_text())
        assert doc["metadata"]["rng"].startswith("mersenne-twister")
        assert len(doc["matches"]) == 6

    def test_zero_games_empty_table(self, tmp_path):
        rows = run_experiment(self.cfg(tmp_path, games_per_cell=0))
        assert all(r.games == 0 and r.win_rate == 0.0 for r in rows)

    def test_byte_identical_reruns(self, tmp_path):
        a = run_experiment(self.cfg(tmp_path, out_dir=str(tmp_path / "a")))
        b = run_experiment(self.cfg(tmp_path, out_dir=str(tmp_path / "b")))
        assert (tmp_path / "a" / "results.csv").read_bytes() == (
            tmp_path / "b" / "results.csv"
        ).read_bytes()
        assert rows_to_csv(a) == rows_to_csv(b)

    def test_golden_digests(self, tmp_path):
        # pinned outputs: a change that alters every run the same way fails
        # here, where a rerun comparison cannot see it
        cfg = self.cfg(
            tmp_path,
            rules=GameRules.nim(15),
            heap_counts=[3, 5],
            max_heap_size=15,
            agents=["multiframe", "singleframe-heuristic", "random"],
            games_per_cell=4,
            seed=1,
        )
        run_experiment(cfg)
        digests = {
            name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
            for name in ("results.csv", "results.json")
        }
        assert digests == {
            "results.csv": "154b1f581f3a7a678227271e98cfcdb26e496dfada70604cb580abc15a46ae45",
            "results.json": "da38464b6d87a46ddeef5f805e3a707cb986b324d99c4a1226a4bd4526ffef89",
        }

    @pytest.mark.parametrize(
        "overrides",
        [
            # every heap is 1, so two heaps always have NIM sum 0
            dict(rules=GameRules.nim(1), max_heap_size=1, heap_counts=[3, 2]),
            dict(heap_counts=[3, 0]),
            dict(heap_counts=[-1]),
            dict(heap_counts=[3, 5, 3]),
            dict(max_heap_size=0),
            dict(max_heap_size=-1),
            # Kayles rows of one pin have value 1, like NIM heaps of one
            dict(rules=GameRules.kayles(1), max_heap_size=1, heap_counts=[2]),
            # taking 3 is the only move, so heaps below 3 all have value 0
            dict(rules=GameRules.subtraction([3], 2), max_heap_size=2, heap_counts=[3]),
            # and none of them has a move
            dict(
                rules=GameRules.subtraction([3], 2),
                max_heap_size=2,
                heap_counts=[3],
                start_mode="any",
            ),
            # NIM-only agents or opponents under other rules, and an unknown spec
            dict(rules=GameRules.kayles(7), agents=["oracle", "multiframe"]),
            dict(rules=GameRules.kayles(7), opponent="multiframe"),
            dict(rules=GameRules.subtraction([1, 3, 4], 7), agents=["singleframe-heuristic"]),
            dict(agents=["oracle", "alphabeta"]),
            # malformed agent arguments: once accepted, then a crash mid-run
            dict(agents=["oracle", "mirror72:1"]),
            dict(agents=["oracle", "mirror71:x"]),
            dict(opponent="mirror72:1:first:x"),
            dict(agents=["script:0:0;1"]),
            *(case for case, key in _WRONG_TYPES if key not in _NOT_JSON),
        ],
    )
    def test_unstartable_config_rejected(self, tmp_path, overrides):
        with pytest.raises(ValueError):
            self.cfg(tmp_path, **overrides)
        rules = overrides.get("rules", GameRules.nim(7))
        spec = rules.game_id.replace("(", ":").rstrip(")")  # subtraction(3) -> subtraction:3
        doc = {
            "rules": spec,
            "heap_counts": overrides.get("heap_counts", [3]),
            "max_heap_size": overrides.get("max_heap_size", 7),
            "agents": overrides.get("agents", ["oracle"]),
            "opponent": overrides.get("opponent", "oracle"),
            "games_per_cell": overrides.get("games_per_cell", 1),
            "seed": overrides.get("seed", 3),
            "start_mode": overrides.get("start_mode", "winning"),
        }
        with pytest.raises(ValueError):
            ExperimentConfig.from_json(doc)

    @pytest.mark.parametrize("overrides, key", _WRONG_TYPES)
    def test_wrong_field_type_names_the_field(self, tmp_path, overrides, key):
        with pytest.raises(ValueError, match=f"key '{key}' must be"):
            self.cfg(tmp_path, **overrides)

    def test_no_budget_argument(self, tmp_path):
        # a rollout budget changed no move, so a config takes none
        with pytest.raises(TypeError, match="budget"):
            self.cfg(tmp_path, agents=["multiframe"], budget=RolloutBudget(ply_cap=4))

    @pytest.mark.parametrize("role", ["agents", "opponent"])
    @pytest.mark.parametrize(
        "scorer, error",
        [
            (True, "agent '{spec}' for 4 heaps: circuit takes 9 bits, frame encoding has 12"),
            (False, "No such file"),
        ],
        ids=["3-heap-scorer", "missing-file"],
    )
    def test_singleframe_config_refused_when_built(self, tmp_path, role, scorer, error):
        # once accepted, then a crash after the 3-heap cell with no results;
        # the refusal names the spec and the heap count it failed for
        circuit = tmp_path / "scorer.ac0"
        if scorer:
            save_circuit(build_even_nonempty_scorer(3, 3), circuit)
        spec = f"singleframe:{circuit}"
        error = re.escape(error.format(spec=spec))
        agents = ["oracle", spec] if role == "agents" else ["oracle"]
        opponent = spec if role == "opponent" else "oracle"
        with pytest.raises((NimcoreError, OSError), match=error):
            self.cfg(tmp_path, heap_counts=[3, 4], agents=agents, opponent=opponent)
        doc = {
            "heap_counts": [3, 4],
            "max_heap_size": 7,
            "agents": agents,
            "opponent": opponent,
            "games_per_cell": 1,
            "seed": 3,
        }
        with pytest.raises((NimcoreError, OSError), match=error):
            ExperimentConfig.from_json(doc)

    def test_repeated_heap_count_named(self, tmp_path):
        with pytest.raises(ValueError, match="heap count 3 is listed more than once"):
            self.cfg(tmp_path, heap_counts=[3, 5, 3])

    def test_max_heap_size_above_rules_bound_rejected(self, tmp_path):
        # a JSON config builds its rules from its own max_heap_size, so only
        # a direct config can exceed the bound
        with pytest.raises(ValueError):
            self.cfg(tmp_path, rules=GameRules.nim(7), max_heap_size=20)

    @pytest.mark.parametrize("rules", [GameRules.kayles(7), GameRules.subtraction([1, 3, 4], 7)])
    def test_winning_starts_beyond_nim(self, tmp_path, rules):
        cfg = self.cfg(
            tmp_path, rules=rules, heap_counts=[2], agents=["oracle"], games_per_cell=40, seed=1
        )
        (row,) = run_experiment(cfg)
        assert row.wins == 40

    def test_kayles_sweep_on_long_rows(self, tmp_path):
        # starts and oracle moves read Grundy values of up to four rows of
        # up to 30 pins each
        cfg = self.cfg(
            tmp_path,
            rules=GameRules.kayles(30),
            heap_counts=[3, 4],
            max_heap_size=30,
            games_per_cell=10,
            seed=1,
        )
        rows = run_experiment(cfg)
        assert [(r.heap_count, r.wins) for r in rows if r.agent == "oracle"] == [(3, 10), (4, 10)]

    def test_any_start_mode_redraws_terminal_starts(self, tmp_path):
        # heaps of 1 have no move in subtraction {2, 3}
        cfg = self.cfg(
            tmp_path,
            rules=parse_rules("subtraction:2,3", 3),
            heap_counts=[2],
            max_heap_size=3,
            agents=["oracle"],
            games_per_cell=20,
            seed=1,
            start_mode="any",
        )
        (row,) = run_experiment(cfg)
        assert row.games == 20

    def test_single_object_heaps_with_odd_count_still_run(self, tmp_path):
        cfg = self.cfg(tmp_path, rules=GameRules.nim(1), max_heap_size=1, heap_counts=[1, 3])
        rows = run_experiment(cfg)
        assert [r.games for r in rows] == [3, 3, 3, 3]

    def test_config_from_json(self, tmp_path):
        doc = {
            "rules": "nim",
            "heap_counts": [3, 5],
            "max_heap_size": 7,
            "agents": ["oracle"],
            "opponent": "random",
            "games_per_cell": 1,
            "seed": 3,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        cfg = ExperimentConfig.from_file(path)
        assert cfg.heap_counts == [3, 5] and cfg.opponent == "random"

    def test_seed_mandatory(self, tmp_path):
        with pytest.raises(ValueError, match="seed"):
            ExperimentConfig.from_json(
                {"heap_counts": [3], "agents": ["oracle"], "games_per_cell": 1}
            )

    @pytest.mark.parametrize(
        "edit, key",
        [
            (dict(heap_counts=_DELETE), "heap_counts"),
            (dict(agents=_DELETE), "agents"),
            (dict(games_per_cell=_DELETE), "games_per_cell"),
            (dict(seed=_DELETE), "seed"),
            (dict(seed=None), "seed"),
            (dict(sede=3), "sede"),
            # no config sets a rollout budget, whatever it holds
            pytest.param(dict(budget={"sampels": 0}), _NO_BUDGET, id="edit6-budget"),
            pytest.param(
                dict(budget={"ply_cap": 2, "oracle_probe": True}), _NO_BUDGET, id="edit7-budget"
            ),
            (dict(budget=[8]), "budget"),
            pytest.param(dict(budget={"samples": 8}), _NO_BUDGET, id="edit9-budget"),
        ],
    )
    def test_malformed_json_config_names_the_key(self, edit, key):
        doc = {"heap_counts": [3], "agents": ["oracle"], "games_per_cell": 1, "seed": 3}
        for name, value in edit.items():
            if value is _DELETE:
                del doc[name]
            else:
                doc[name] = value
        with pytest.raises(ValueError, match=key):
            ExperimentConfig.from_json(doc)

    def test_budget_key_refused(self):
        doc = {"heap_counts": [3], "agents": ["multiframe"], "games_per_cell": 1, "seed": 3}
        ExperimentConfig.from_json(doc)
        with pytest.raises(ValueError, match=f"^{_NO_BUDGET}$"):
            ExperimentConfig.from_json({**doc, "budget": {"exhaustive_cap": 512, "ply_cap": 512}})

    def test_readme_config_builds(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Experiment config", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        cfg = ExperimentConfig.from_json(json.loads(block))
        assert cfg.rules.game_id == "nim" and cfg.heap_counts == [3, 5, 7]

    def test_replay_all_matches(self, tmp_path):
        cfg = self.cfg(tmp_path, agents=["multiframe", "random"], games_per_cell=4)
        run_experiment(cfg)
        doc = json.loads((tmp_path / "out" / "results.json").read_text())
        for match in doc["matches"]:
            p = Position(tuple(match["start"]))
            for text in match["moves"]:
                p = apply_move(p, parse_move(text), cfg.rules)
            implied = "first" if len(match["moves"]) % 2 == 1 else "second"
            assert match["forfeit"] or (is_terminal(p, cfg.rules) and implied == match["winner"])


_FUZZ_AGENTS = (
    "oracle",
    "random",
    "multiframe",
    "singleframe-heuristic",
    "mirror71:1",
    "singleframe:{scorer}",
)


@pytest.fixture(scope="session")
def scorer_3x3(tmp_path_factory):
    """A scorer file for 3 heaps of 3 bits: it fits only configs of 3 heaps
    whose rules bound heaps at 4..7."""
    path = tmp_path_factory.mktemp("scorer") / "scorer-3x3.ac0"
    save_circuit(build_even_nonempty_scorer(3, 3), path)
    return path


@settings(max_examples=60, deadline=5000)
@given(
    rules=st.sampled_from(("nim", "kayles", "subtraction:2,3")),
    rules_bound=st.integers(1, 9),
    heap_counts=st.lists(st.integers(0, 4), min_size=1, max_size=2),
    max_heap_size=st.integers(-1, 9),
    start_mode=st.sampled_from(("winning", "any")),
    agents=st.lists(st.sampled_from(_FUZZ_AGENTS), min_size=1, max_size=2),
    opponent=st.sampled_from(_FUZZ_AGENTS),
    games_per_cell=st.integers(0, 2),
)
# the scorer fits the 3-heap cell only: once accepted, then a crash at 4 heaps
@example(
    rules="nim",
    rules_bound=7,
    heap_counts=[3, 4],
    max_heap_size=7,
    start_mode="winning",
    agents=["oracle", "singleframe:{scorer}"],
    opponent="oracle",
    games_per_cell=1,
)
def test_config_fuzz_ends_in_rows_or_named_error(
    scorer_3x3,
    rules,
    rules_bound,
    heap_counts,
    max_heap_size,
    start_mode,
    agents,
    opponent,
    games_per_cell,
):
    # NIM-only agents and a scorer of one board shape are drawn under every
    # rule set and heap count: a config that cannot run must be refused
    # when it is built, never halfway through the sweep
    try:
        cfg = ExperimentConfig(
            rules=parse_rules(rules, rules_bound),
            heap_counts=heap_counts,
            max_heap_size=max_heap_size,
            agents=[spec.format(scorer=scorer_3x3) for spec in agents],
            opponent=opponent.format(scorer=scorer_3x3),
            games_per_cell=games_per_cell,
            seed=5,
            start_mode=start_mode,
        )
    except (ValueError, NimcoreError):
        return
    rows = run_experiment(cfg)
    assert [r.games for r in rows] == [games_per_cell] * len(heap_counts) * len(agents)


# quotes, backslashes, control characters, non-ASCII and astral characters
_TRICKY = st.text(st.sampled_from('"\\/\n\t\x00\x1f\x7fé☃\U0001d11e ab:') | st.characters())
_SUMS = st.none() | st.integers(0, 2**70)


@st.composite
def _match_records(draw):
    return MatchRecord(
        rules_id=draw(st.sampled_from(("nim", "kayles", "subtraction(1,3)")) | _TRICKY),
        start=tuple(draw(st.lists(st.integers(0, 300), min_size=1, max_size=4))),
        first=draw(_TRICKY),
        second=draw(st.sampled_from(("oracle", "mirror72:2:first")) | _TRICKY),
        seed=draw(st.integers(0, 2**64)),
        # split counts above zero are Kayles' three-part moves
        moves=draw(
            st.lists(st.builds(GameMove, st.integers(0, 9), st.integers(0, 99), st.integers(0, 99)))
        ),
        winner=draw(st.sampled_from(("first", "second"))),
        forfeit=draw(st.none() | _TRICKY),
        diagnostics=draw(st.lists(st.builds(MoveDiagnostic, _TRICKY, _SUMS, _SUMS), max_size=4)),
    )


@settings(max_examples=200, deadline=None)
@given(
    records=st.lists(_match_records(), max_size=3),
    games=st.integers(0, 3),
    seed=st.integers(0, 2**64),
    wins=st.lists(st.integers(0, 7), min_size=1, max_size=3),
)
def test_results_json_is_the_json_module_text(tmp_path_factory, records, games, seed, wins):
    out = tmp_path_factory.mktemp("out")
    cfg = ExperimentConfig(
        rules=GameRules.nim(7),
        heap_counts=[3],
        max_heap_size=7,
        agents=["oracle"],
        opponent="random",
        games_per_cell=games,
        seed=seed,
        out_dir=str(out),
    )
    rows = [ExperimentRow(i + 2, "oracle", 7, w, w / 7, w / 3, w % 2) for i, w in enumerate(wins)]
    matches = {(3, 0, gi): r for gi, r in enumerate(records)}
    _write_outputs(cfg, rows, matches)
    doc = {
        "metadata": {
            "rng": RNG_ALGORITHM,
            "seed": seed,
            "rules": "nim",
            "opponent": "random",
            "start_mode": "winning",
        },
        "rows": [
            {
                "heap_count": r.heap_count,
                "agent": r.agent,
                "games": r.games,
                "wins": r.wins,
                "win_rate": round(r.win_rate, 4),
                "mean_plies": round(r.mean_plies, 2),
                "preservation_failures": r.preservation_failures,
            }
            for r in rows
        ],
        "matches": [r.to_json() for r in records],
    }
    expected = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert (out / "results.json").read_text() == expected


def test_verify_suite_mutation_detection(monkeypatch):
    """Sanity of the suite itself: a tampered nim_sum must turn it red."""
    from nimcore import nimber
    from nimcore.verify import run_checks

    report = run_checks(["worked-example"], "desk")
    assert report.ok
    monkeypatch.setattr(nimber, "nim_sum", lambda p: 0)
    broken = run_checks(["worked-example"], "desk")
    assert not broken.ok


def test_verify_rejects_unknown_check_names():
    from nimcore.verify import run_checks

    with pytest.raises(ValueError, match="worked-exampel"):
        run_checks(["worked-example", "worked-exampel"], "desk")


@pytest.mark.parametrize(
    "name",
    [
        "strategy-control",
        "kayles-row-values",
        "winning-moves",
        "nimber-diff-identity",
        "threshold-popcount",
        "serialization-roundtrip",
        "exact-threshold-boundary",
        "preserving-reply-lemma",
    ],
)
def test_verify_check_green_at_desk_scale(name):
    # the checks no other test body reaches; the rest run elsewhere in tier-1
    report = verify.run_checks([name], "desk")
    assert [(r.name, r.ok) for r in report.results] == [(name, True)], report.summary_lines()


def test_determinism_check_compares_json(monkeypatch):
    run = verify.run_experiment
    runs = []

    def stamped(config):
        rows = run(config)
        runs.append(config.out_dir)
        with open(Path(config.out_dir) / "results.json", "a") as f:
            f.write(f"run {len(runs)}\n")  # the CSV stays identical
        return rows

    assert verify.check_experiment_determinism()[0]
    monkeypatch.setattr(verify, "run_experiment", stamped)
    assert verify.check_experiment_determinism() == (
        False,
        "identical configs produced different JSON bytes",
    )
