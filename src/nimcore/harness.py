"""Match driver, exhaustive adversary sweeps and seeded experiment tables.

Everything is reproducible from a seed: per-game seeds are derived with a
stable mixer, agents draw randomness only from the match generator, and
result rows are ordered by (heap count, agent, game index).
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterator, NamedTuple

from . import nimber
from ._jsondoc import expect
from .agents import (
    AgentPolicy,
    Mirror71Agent,
    Mirror72Agent,
    MultiFrameAgent,
    OracleAgent,
    RandomAgent,
    RolloutBudget,
    ScriptAgent,
    SingleFrameCircuitAgent,
    _Frames,
    _window,
)
from .circuits.ir import load_circuit
from .errors import (
    ContractViolationError,
    EncodingError,
    IllegalMoveError,
    InvalidPositionError,
    NimcoreError,
    StrategyDomainError,
)
from .games import (
    GameMove,
    GameRules,
    Position,
    Variant,
    _apply_heaps,
    _checked_heaps,
    _iter_moves,
    _no_moves,
    grundy,
    is_terminal,
)

RNG_ALGORITHM = "mersenne-twister (CPython random.Random)"
_MASK64 = (1 << 64) - 1

_AGENT_FAILURES = (
    IllegalMoveError,
    StrategyDomainError,
    EncodingError,
    ContractViolationError,
    InvalidPositionError,
)


def stable_mix(*parts: int) -> int:
    """Deterministic 64-bit hash of an int sequence (splitmix64 folding).

    Used to derive independent RNG seeds; stable across runs and
    platforms, unlike built-in hashing.
    """
    acc = 0x9E3779B97F4A7C15
    for p in parts:
        acc = _mix_step(acc, p)
    return acc


def _mix_step(acc: int, p: int) -> int:
    """``stable_mix``'s fold of one more part into ``acc``: the mix of a
    sequence is the mix of its prefix stepped with each later part."""
    acc = (acc ^ (p & _MASK64)) & _MASK64
    acc = (acc + 0x9E3779B97F4A7C15) & _MASK64
    acc = ((acc ^ (acc >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    acc = ((acc ^ (acc >> 27)) * 0x94D049BB133111EB) & _MASK64
    return acc ^ (acc >> 31)


class MoveDiagnostic(NamedTuple):
    """Outside-view instrumentation of one move (NIM only): the position
    value before and after, measured by the oracle-side NIM sum.  A named
    tuple, built on every ply."""

    mover: str
    nim_sum_before: int | None
    nim_sum_after: int | None


@dataclass
class MatchRecord:
    rules_id: str
    start: tuple[int, ...]
    first: str
    second: str
    seed: int
    moves: list[GameMove]
    winner: str  # "first" | "second"
    forfeit: str | None
    diagnostics: list[MoveDiagnostic]

    def to_json(self) -> dict:
        return {
            "rules": self.rules_id,
            "start": list(self.start),
            "first": self.first,
            "second": self.second,
            "seed": self.seed,
            "moves": [_move_text(m) for m in self.moves],
            "winner": self.winner,
            "forfeit": self.forfeit,
            "diagnostics": [
                {
                    "mover": d.mover,
                    "nim_sum_before": d.nim_sum_before,
                    "nim_sum_after": d.nim_sum_after,
                }
                for d in self.diagnostics
            ],
        }


def _move_text(m: GameMove) -> str:
    if m.split_count:
        return f"{m.heap_index}:{m.new_count}:{m.split_count}"
    return f"{m.heap_index}:{m.new_count}"


def parse_move(text: str) -> GameMove:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(f"cannot parse move {text!r}, expected heap:new[:split]")
    return GameMove(*(int(p) for p in parts))


def play_match(
    rules: GameRules,
    start: Position,
    first: AgentPolicy,
    second: AgentPolicy,
    seed: int,
) -> MatchRecord:
    """Alternating play to a terminal position; the last mover wins.

    An agent raising or returning an illegal move forfeits (the record
    carries the reason); the game never crashes on a buggy policy.
    Agents draw from ``random.Random(seed)``, which is created and seeded
    on the first draw: a match in which no agent draws seeds none.

    Only the start is validated, and it is the only ``Position`` the
    match reads.  Each ply is one ``_agent_move``, which hands the mover
    its window of heap tuples and checks its move on the newest one;
    every later position is valid, since a legal move only shrinks heaps
    (a Kayles split leaves two smaller rows).  The oracle and random
    agents validate the heaps they are handed, as their ``choose``
    contract asks, unless the window says it was cut under their own
    ``rules`` object.  The tuple of frames holds the heap tuples the agents
    read: the larger window, or every frame when an agent reads them all
    (``required_frames == 0``).

    Under NIM each ply's diagnostic value is the XOR fold of the heaps it
    leaves, carried from ply to ply rather than folded again: a move
    changes one heap, so the value after it is the value before XOR that
    heap's old and new counts.  A position of non-zero value has a move, so
    the terminal test reads the heaps only when the value is 0.  Other rule
    sets carry no value and take the closed-form terminal test on every ply.
    """
    if is_terminal(start, rules):
        raise IllegalMoveError("match needs a non-terminal start position")
    rng = _SeededOnFirstDraw(seed)
    names = (first.name, second.name)
    seats = ("first", "second")
    agents = (first, second)
    windows = (first.required_frames, second.required_frames)
    keep = max(windows) if min(windows) >= 1 else 0
    nim = rules.variant is Variant.NIM
    value = nimber.nim_sum(start) if nim else None
    frames: _Frames = (start.heaps,)
    moves: list[GameMove] = []
    diagnostics: list[MoveDiagnostic] = []
    mover = 0
    forfeit = None
    while True:
        try:
            move, heaps = _agent_move(agents[mover], frames, rules, rng)
        except _AGENT_FAILURES as exc:
            winner = seats[1 - mover]
            forfeit = f"{seats[mover]} ({names[mover]}): {exc}"
            break
        # the value after this ply is the value before the next one; a NIM
        # move changes one heap, so the fold changes by that heap's two counts
        after = value ^ frames[-1][move.heap_index] ^ move.new_count if nim else None
        diagnostics.append(MoveDiagnostic(seats[mover], value, after))
        value = after
        moves.append(move)
        frames = (frames + (heaps,))[-keep:]
        # a NIM position of non-zero value has a move, so only a zero one is tested
        if (not after and not any(heaps)) if nim else _no_moves(heaps, rules):
            winner = seats[mover]
            break
        mover = 1 - mover
    return MatchRecord(
        rules.game_id, start.heaps, names[0], names[1], seed, moves, winner, forfeit, diagnostics
    )


def _agent_move(agent: AgentPolicy, frames: _Frames, rules: GameRules, rng):
    """``agent``'s move from the newest of ``frames``, heap tuples of a
    game under ``rules``, and the heaps it leaves.  The agent is handed
    its newest ``required_frames`` frames (``[-0:]`` keeps every frame)
    as a ``FrameHistory`` of ``rules``; an empty window raises
    ``ContractViolationError``, and an illegal move, or one that is not a
    move, ``IllegalMoveError``."""
    move = agent.choose(_window(frames[-agent.required_frames :], rules), rng)
    return move, _checked_heaps(frames[-1], move, rules)


@dataclass
class AdversaryReport:
    """Outcome of an exhaustive adversary sweep.

    ``nodes`` counts the adversary moves expanded.  Subtrees already
    proven won are not expanded again, so a transposition costs no nodes.
    """

    agent_always_wins: bool
    counterexample: list[GameMove] | None
    nodes: int
    complete: bool


def exhaustive_adversary(
    rules: GameRules,
    start: Position,
    agent: AgentPolicy,
    role: str = "first",
    node_budget: int = 500_000,
) -> AdversaryReport:
    """Check the agent against every opposing line below ``start``.

    The adversary enumerates all of its moves; the agent plays its policy
    (with a fixed generator, so the sweep is deterministic).  Reports the
    first losing line as a counterexample.  Exceeding the node budget
    yields an explicit partial result instead of an answer.
    """
    # the agent loses when it faces heaps the adversary emptied
    return _adversary_walk(rules, start, agent, role, node_budget, lambda p, after: after is None)


class _SeededOnFirstDraw:
    """Stands in for ``random.Random(seed)``: the generator is created and
    seeded on the first attribute read, and that read and every later one
    go to it.  An agent that never draws never pays for the seeding."""

    _rng: random.Random | None = None

    def __init__(self, seed: int):
        self._seed = seed

    def __getattr__(self, name: str):
        rng = self._rng
        if rng is None:
            rng = self._rng = random.Random(self._seed)
        return getattr(rng, name)


def _adversary_walk(rules, start, agent, role, node_budget, fails) -> AdversaryReport:
    """Walk every adversary line below ``start`` until the agent breaks the
    rule ``fails(before, after)``, checked at each heap tuple ``before`` the
    agent faces: ``after`` is the heap tuple it moves to, or None when
    ``before`` has no moves.  An agent that raises or plays an illegal move
    breaks every rule.  ``agent_always_wins`` reports that no line broke it.

    The walk is a depth-first search on an explicit stack over heap
    tuples: its history is a tuple of heap tuples, cut to the newest
    ``required_frames`` when that is at least 1.  It builds no
    ``Position``: ``_agent_move`` cuts the agent's window from that
    history, as in a match, and hands it over with a fresh ``Random(0)``,
    seeded on first draw, so the walk is deterministic.  Only the start
    is validated: the agent's move is checked for legality on the heap
    tuple, the adversary plays generated moves, and a legal move only
    shrinks heaps, so every position below the start is valid.

    An agent with ``required_frames >= 1`` sees only its window, so the
    subtree below a node depends only on the window the rest of the walk
    can still show it (the newest ``required_frames`` frames when the
    agent moves, one fewer but at least the current frame when the
    adversary moves) and the side to move, as long as ``fails`` reads
    nothing but its two arguments.  Subtrees proven clean are keyed by
    (that window of heap tuples, side to move) and skipped when met
    again; any failure ends the walk, so skipping them changes neither
    the verdict nor the first counterexample.  An agent that reads every
    frame since the start (``required_frames == 0``) gets no table.
    """
    if role not in ("first", "second"):
        raise ValueError("role must be 'first' or 'second'")
    if type(node_budget) is not int or node_budget < 0:
        raise ValueError(f"node_budget must be an int >= 0, got {node_budget!r}")
    if is_terminal(start, rules):
        raise IllegalMoveError("adversary sweep needs a non-terminal start")
    frames = agent.required_frames
    adversary_window = max(frames - 1, 1)
    proven: set[tuple[_Frames, bool]] | None = set() if frames >= 1 else None
    line: list[GameMove] = []
    # one entry per adversary node on the path: its history, its remaining
    # moves, the table keys it proves clean once exhausted, and len(line);
    # a history grows by ``(history + (heaps,))[-frames:]``, where ``[-0:]``
    # keeps every frame
    stack: list[tuple[_Frames, Iterator[GameMove], list, int]] = []

    def open_node(history: _Frames, agent_to_move: bool) -> bool | None:
        """Play the agent's move when it is to move, then push the
        adversary node below; True or False when the line is settled
        without one, None once a node is pushed."""
        keys = []
        if agent_to_move:
            heaps = history[-1]
            if _no_moves(heaps, rules):
                return not fails(heaps, None)
            if proven is not None:
                if (history, True) in proven:
                    return True
                keys.append((history, True))
            try:
                move, nxt = _agent_move(agent, history, rules, _SeededOnFirstDraw(0))
            except _AGENT_FAILURES:
                return False
            line.append(move)
            if fails(heaps, nxt):
                return False
            history = (history + (nxt,))[-frames:]
        heaps = history[-1]
        if _no_moves(heaps, rules):
            return True  # the agent took the last object
        if proven is not None:
            keys.append((history[-adversary_window:], False))
            if keys[-1] in proven:
                proven.update(keys)
                return True
        stack.append((history, _iter_moves(heaps, rules), keys, len(line)))
        return None

    nodes = 0
    if open_node((start.heaps,), role == "first") is False:
        return AdversaryReport(False, line, nodes, complete=True)
    while stack:
        history, moves, keys, depth = stack[-1]
        del line[depth:]
        move = next(moves, None)
        if move is None:
            stack.pop()
            if proven is not None:
                proven.update(keys)
            continue
        nodes += 1
        if nodes > node_budget:
            return AdversaryReport(False, None, nodes, complete=False)
        line.append(move)
        nxt = _apply_heaps(history[-1], move)
        if open_node((history + (nxt,))[-frames:], True) is False:
            return AdversaryReport(False, line, nodes, complete=True)
    return AdversaryReport(True, None, nodes, complete=True)


@dataclass
class ExperimentConfig:
    """One tournament sweep: (heap count x agent) cells of seeded games."""

    rules: GameRules
    heap_counts: list[int]
    max_heap_size: int
    agents: list[str]
    opponent: str
    games_per_cell: int
    seed: int
    start_mode: str = "winning"  # winning | any
    out_dir: str | None = None
    # not a field, so no config sets it: it changes no move, and is kept
    # only because ``perfbench/workloads.py`` still reads it
    budget = RolloutBudget()

    def __post_init__(self):
        # the JSON types for a config built directly too; a seed is mandatory
        expect(self.rules, GameRules, "rules")
        if self.out_dir is not None:
            expect(self.out_dir, str, "out_dir")
        expect(self.heap_counts, int, "heap_counts", depth=1)
        expect(self.agents, str, "agents", depth=1)
        expect(self.opponent, str, "opponent")
        for key in ("max_heap_size", "games_per_cell", "seed"):
            expect(getattr(self, key), int, key)
        if not self.heap_counts or not self.agents:
            raise ValueError("heap_counts and agents must be non-empty")
        if self.games_per_cell < 0:
            raise ValueError("games_per_cell must be >= 0")
        if self.start_mode not in ("winning", "any"):
            raise ValueError("start_mode must be 'winning' or 'any'")
        if min(self.heap_counts) < 1:
            raise ValueError("heap counts must be >= 1")
        # a repeated count would get one row per listing, but its games are
        # keyed by count, so results.json would keep only one listing's games
        seen: set[int] = set()
        for hc in self.heap_counts:
            if hc in seen:
                raise ValueError(f"heap count {hc} is listed more than once")
            seen.add(hc)
        # build every agent of every cell and drop it: a spec that cannot
        # play some cell is refused here, not halfway through the sweep
        for hc in self.heap_counts:
            for spec in [*self.agents, self.opponent]:
                make_agent(spec, self.rules, heap_count=hc)
        if not 1 <= self.max_heap_size <= self.rules.max_heap_size:
            raise ValueError(
                f"max_heap_size must be in 1..{self.rules.max_heap_size}, "
                f"got {self.max_heap_size}"
            )
        if self.start_mode == "winning":
            self._check_winning_start_exists()
        elif all(
            is_terminal(Position((size,), self.rules.game_id), self.rules)
            for size in range(1, self.max_heap_size + 1)
        ):
            # a position has a move iff one of its heaps has one on its own
            raise ValueError(
                f"every start is terminal: no heap of size 1..{self.max_heap_size} has a move"
            )

    def _check_winning_start_exists(self) -> None:
        # A start's value is the XOR of its heaps' single-heap values.  Two
        # distinct single-heap values make a nonzero XOR at every heap
        # count; a single value v does only when v != 0 and the count is odd.
        values: set[int] = set()
        for size in range(1, self.max_heap_size + 1):
            values.add(grundy(Position((size,), self.rules.game_id), self.rules))
            if len(values) == 2:
                return
        (value,) = values
        for hc in self.heap_counts:
            if value == 0 or hc % 2 == 0:
                raise ValueError(
                    f"no winning start exists for {hc} heaps of size 1..{self.max_heap_size}: "
                    f"every such heap has Grundy value {value}"
                )

    @classmethod
    def from_json(cls, doc: dict) -> "ExperimentConfig":
        """Build a config from its JSON document.

        Raises ``ValueError`` naming the key when a required key is missing
        or null, when a key is unknown, or when a value has the wrong JSON
        type.
        """
        _check_keys(doc, "config", cls, ("heap_counts", "agents", "games_per_cell", "seed"))
        max_heap_size = expect(doc.get("max_heap_size", 255), int, "max_heap_size")
        out_dir = doc.get("out_dir")
        return cls(
            rules=parse_rules(expect(doc.get("rules", "nim"), str, "rules"), max_heap_size),
            heap_counts=doc["heap_counts"],
            max_heap_size=max_heap_size,
            agents=doc["agents"],
            opponent=doc.get("opponent", "oracle"),
            games_per_cell=doc["games_per_cell"],
            seed=doc["seed"],
            start_mode=expect(doc.get("start_mode", "winning"), str, "start_mode"),
            out_dir=None if out_dir is None else expect(out_dir, str, "out_dir"),
        )

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        return cls.from_json(json.loads(Path(path).read_text()))


def _check_keys(doc, where: str, schema, required=()) -> None:
    """A JSON object's keys are the fields of the dataclass ``schema``."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object")
    for key in required:
        if doc.get(key) is None:
            raise ValueError(f"{where} is missing key {key!r}")
    known = {f.name for f in fields(schema)}
    for key in doc:
        if key not in known:
            raise ValueError(f"unknown {where} key {key!r}")


def parse_rules(text: str, max_heap_size: int = 255) -> GameRules:
    """Parse a rules spec: ``nim``, ``kayles`` or ``subtraction:1,2``.

    Raises ``ValueError`` naming the spec when it is unknown or a
    subtraction removal is not an integer.
    """
    text = text.strip().lower()
    if text == "nim":
        return GameRules.nim(max_heap_size)
    if text == "kayles":
        return GameRules.kayles(max_heap_size)
    if text.startswith("subtraction:"):
        try:
            removals = [int(x) for x in text.split(":", 1)[1].split(",") if x]
        except ValueError:
            raise ValueError(
                f"malformed rules spec {text!r}: removals must be integers"
            ) from None
        return GameRules.subtraction(removals, max_heap_size)
    raise ValueError(f"unknown rules spec {text!r}")


# spec name -> (policy class, whether the spec goes on as ":<argument>")
_AGENT_SPECS: dict[str, tuple[type[AgentPolicy], bool]] = {
    "oracle": (OracleAgent, False),
    "random": (RandomAgent, False),
    "multiframe": (MultiFrameAgent, False),
    "singleframe-heuristic": (SingleFrameCircuitAgent, False),
    "singleframe": (SingleFrameCircuitAgent, True),
    "mirror71": (Mirror71Agent, True),
    "mirror72": (Mirror72Agent, True),
    "script": (ScriptAgent, True),
}


def make_agent(
    spec: str,
    rules: GameRules,
    *,
    heap_count: int | None = None,
    budget: RolloutBudget | None = None,
) -> AgentPolicy:
    """Build an agent from its CLI name.

    Recognized specs: ``oracle``, ``random``, ``multiframe``,
    ``singleframe-heuristic``, ``singleframe:<circuit-file>``,
    ``mirror71:<k>``, ``mirror72:<k>:<role>`` and
    ``script:<h:v[;h:v...]>``.

    A script is a whole-game transcript: entry ``i`` is the move at ply
    ``i``, counted from the start position.  Entries at the opponent's
    plies must be present but are not played; empty entries are dropped;
    running out of entries forfeits.

    Raises ``ValueError`` for an unknown agent spec, for one whose policy
    does not play ``rules.variant`` (see ``AgentPolicy.variants``), for a
    malformed ``mirror71:``, ``mirror72:`` or ``script:`` argument, and
    for a single-frame spec without ``heap_count``.  A ``singleframe:``
    file that cannot be read raises ``OSError``; one that is not UTF-8
    text or does not parse, or whose circuit does not fit ``heap_count``
    heaps, raises a ``NimcoreError`` of the same type that names the spec
    and the heap count.

    ``budget`` is ignored; ``perfbench/workloads.py`` still passes one.
    """
    name, colon, arg = spec.partition(":")
    entry = _AGENT_SPECS.get(name)
    if entry is None or entry[1] != bool(colon):
        raise ValueError(f"unknown agent spec {spec!r}")
    if rules.variant not in entry[0].variants:
        raise ValueError(f"agent {spec!r} does not play {rules.game_id}")
    try:
        if name == "mirror71":
            return Mirror71Agent(int(arg))
        if name == "mirror72":
            k, role = arg.split(":")
            return Mirror72Agent(int(k), role)
        if name == "script":
            return ScriptAgent([parse_move(part) for part in arg.split(";") if part])
    except ValueError as exc:
        raise ValueError(f"malformed agent spec {spec!r}: {exc}") from None
    if name == "oracle":
        return OracleAgent(rules)
    if name == "random":
        return RandomAgent(rules)
    if name == "multiframe":
        return MultiFrameAgent()
    if heap_count is None:
        raise ValueError(f"{name} needs the board's heap count")
    l = nimber.bit_width(rules.max_heap_size)
    if name == "singleframe-heuristic":
        return SingleFrameCircuitAgent.heuristic(heap_count, l)
    try:
        return SingleFrameCircuitAgent(load_circuit(arg), heap_count, l)
    except NimcoreError as exc:
        raise type(exc)(f"agent {spec!r} for {heap_count} heaps: {exc}") from None


@dataclass(frozen=True)
class ExperimentRow:
    heap_count: int
    agent: str
    games: int
    wins: int
    win_rate: float
    mean_plies: float
    preservation_failures: int


CSV_COLUMNS = (
    "heap_count",
    "agent",
    "games",
    "wins",
    "win_rate",
    "mean_plies",
    "preservation_failures",
)


def _draw_start(rules: GameRules, heap_count: int, max_size: int, seed: int, winning: bool) -> Position:
    """The first draw of ``heap_count`` heaps of 1..``max_size`` from
    ``random.Random(seed)`` that has a move, and a non-zero value when
    ``winning``.  Each heap is one ``randint(1, max_size)``, drawn as the
    ``randrange(1, max_size + 1)`` that ``randint`` calls.  A NIM start's
    value is the XOR fold of its heaps, so only the start returned is built
    as a ``Position``; another game's value is read by ``grundy``."""
    draw = random.Random(seed).randrange
    top = max_size + 1
    nim = rules.variant is Variant.NIM
    while True:
        heaps = tuple([draw(1, top) for _ in range(heap_count)])
        if not winning:
            found = not _no_moves(heaps, rules)
        elif nim:
            found = nimber._xor_fold(heaps) != 0
        else:
            found = grundy(Position(heaps, rules.game_id), rules) != 0
        if found:
            return Position(heaps, rules.game_id)


def _preservation_failures(record: MatchRecord) -> int:
    # squandered wins by the first seat: it held a non-zero value and left one
    count = 0
    for d in record.diagnostics:
        if d.mover != "first" or d.nim_sum_before is None:
            continue
        if d.nim_sum_before != 0 and d.nim_sum_after != 0:
            count += 1
    return count


def run_experiment(cfg: ExperimentConfig) -> list[ExperimentRow]:
    """Run the sweep; returns ordered rows and writes CSV/JSON when
    ``cfg.out_dir`` is set.  Byte-identical output for identical configs."""
    matches: dict[tuple[int, int, int], MatchRecord] = {}
    for hc in cfg.heap_counts:
        for ai, agent_spec in enumerate(cfg.agents):
            agent = make_agent(agent_spec, cfg.rules, heap_count=hc)
            opponent = make_agent(cfg.opponent, cfg.rules, heap_count=hc)
            cell = stable_mix(cfg.seed, hc, ai)
            for gi in range(cfg.games_per_cell):
                game_seed = _mix_step(cell, gi)  # stable_mix(cfg.seed, hc, ai, gi)
                start = _draw_start(
                    cfg.rules, hc, cfg.max_heap_size, game_seed, cfg.start_mode == "winning"
                )
                matches[(hc, ai, gi)] = play_match(
                    cfg.rules, start, agent, opponent, seed=game_seed
                )

    rows: list[ExperimentRow] = []
    for hc in cfg.heap_counts:
        for ai, agent_spec in enumerate(cfg.agents):
            cell_records = [matches[(hc, ai, gi)] for gi in range(cfg.games_per_cell)]
            games = len(cell_records)
            wins = sum(1 for r in cell_records if r.winner == "first")
            plies = [len(r.moves) for r in cell_records]
            failures = sum(_preservation_failures(r) for r in cell_records)
            rows.append(
                ExperimentRow(
                    hc,
                    agent_spec,
                    games,
                    wins,
                    wins / games if games else 0.0,
                    sum(plies) / games if games else 0.0,
                    failures,
                )
            )
    if cfg.out_dir is not None:
        _write_outputs(cfg, rows, matches)
    return rows


def rows_to_csv(rows: list[ExperimentRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in rows:
        writer.writerow(
            [
                r.heap_count,
                r.agent,
                r.games,
                r.wins,
                f"{r.win_rate:.4f}",
                f"{r.mean_plies:.2f}",
                r.preservation_failures,
            ]
        )
    return buf.getvalue()


def _write_outputs(cfg, rows, matches) -> None:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "results.csv").write_text(rows_to_csv(rows))
    doc = {
        "metadata": {
            "rng": RNG_ALGORITHM,
            "seed": cfg.seed,
            "rules": cfg.rules.game_id,
            "opponent": cfg.opponent,
            "start_mode": cfg.start_mode,
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
    }
    # the bytes of json.dumps(doc | {"matches": ...}, indent=2, sort_keys=True):
    # "matches" sorts first, and its records, the bulk of the file, are laid
    # out by template instead of by the pure-Python encoder indent selects.
    # They are written one at a time, so memory holds one record's text,
    # not copies of the whole file.  Plies repeat across games, so each
    # distinct diagnostic and move is rendered once per write, in caches
    # dropped when the write ends
    head = json.dumps(doc, indent=2, sort_keys=True)
    diagnostic_texts = _Rendered(_diagnostic_json)
    move_texts = _Rendered(_move_json)
    with open(out / "results.json", "w") as f:
        f.write('{\n  "matches": ')
        if matches:
            for i, key in enumerate(sorted(matches)):
                f.write(",\n" if i else "[\n")
                f.write(_record_json(matches[key], diagnostic_texts, move_texts))
            f.write("\n  ]")
        else:
            f.write("[]")
        f.write("," + head[1:] + "\n")


_json_str = json.encoder.encode_basestring_ascii  # a JSON string literal, as json.dumps writes it

_RECORD = """\
    {
      "diagnostics": %s,
      "first": %s,
      "forfeit": %s,
      "moves": %s,
      "rules": %s,
      "second": %s,
      "seed": %d,
      "start": %s,
      "winner": %s
    }"""

_DIAGNOSTIC = """{
          "mover": %s,
          "nim_sum_after": %s,
          "nim_sum_before": %s
        }"""


def _record_json(r: MatchRecord, diagnostic_texts: _Rendered, move_texts: _Rendered) -> str:
    """``r.to_json()`` as an entry of the ``matches`` list of
    ``json.dumps(..., indent=2, sort_keys=True)``, byte for byte; the
    texts of its diagnostics and moves are looked up in the two caches."""
    return _RECORD % (
        _list_json(list(map(diagnostic_texts.__getitem__, r.diagnostics))),
        _json_str(r.first),
        "null" if r.forfeit is None else _json_str(r.forfeit),
        _list_json(list(map(move_texts.__getitem__, r.moves))),
        _json_str(r.rules_id),
        _json_str(r.second),
        r.seed,
        _list_json([str(h) for h in r.start]),
        _json_str(r.winner),
    )


class _Rendered(dict):
    """JSON texts keyed by what they render, each rendered by ``render`` on
    its first lookup and kept as long as the dict.  Keys that compare equal
    share one text, which holds for the str, int and None fields of the
    moves and diagnostics a match records (no bool or float among them)."""

    def __init__(self, render):
        super().__init__()
        self.render = render

    def __missing__(self, key):
        text = self[key] = self.render(key)
        return text


def _diagnostic_json(d: MoveDiagnostic) -> str:
    # "%s" writes an int as str() does
    mover, before, after = d
    return _DIAGNOSTIC % (
        _json_str(mover),
        "null" if after is None else after,
        "null" if before is None else before,
    )


def _move_json(m: GameMove) -> str:
    return _json_str(_move_text(m))


def _list_json(items: list[str]) -> str:
    """A list of JSON texts laid out as a value of a record's key."""
    if not items:
        return "[]"
    return "[\n        " + ",\n        ".join(items) + "\n      ]"
