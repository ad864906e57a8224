"""Playing policies.

The interesting one is :class:`MultiFrameAgent`: it probes positions by
one rollout that answers every opponent move with a value-preserving
reply, computed purely from the (at most two) heaps that changed.  A
position whose rollout empties the board on the agent's move is a zero
position; the agent reads each heap's zero candidate bit by bit, one
probe per bit, and plays the first that is legal.  Neither the
rollout nor the two-frame reply the agent plays in a game computes the
global NIM sum: the rollout's simulated opponent empties the largest
heap, and the reply tests one bit of each heap.

The mirror agents implement the two paired-heap demonstration
strategies for boards of duplicated components plus one odd heap.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

from .circuits.builders import build_even_nonempty_scorer
from .circuits.encoding import PositionEncoding
from .circuits.ir import Circuit
from .errors import (
    ContractViolationError,
    EncodingError,
    IllegalMoveError,
    InvalidPositionError,
    StrategyDomainError,
)
from .games import (
    GameMove,
    GameRules,
    Position,
    Variant,
    _check_counts,
    _validate,
    apply_move,
    grundy,
    legal_moves,
)
from .nimber import NIM_ID, _require_nim, _xor_fold, winning_moves


_Frames = tuple[tuple[int, ...], ...]  # heap tuples, oldest first


class FrameHistory:
    """The window of a game's newest positions an agent is handed: their
    heap tuples, oldest first, and the id of the game they belong to.  One
    step, ``harness._agent_move``, cuts it for both drivers from the heap
    tuples they hold.

    The frames are all an agent sees: a move is the difference between
    two consecutive frames, and a window of every frame since the opening
    position has ``len(frames) - 1`` plies.  The constructor keeps each
    frame as a tuple and checks that the window has a frame, that every
    frame is iterable and every heap a count, with ``Position``'s errors;
    the heap bound and the game id are left to the agent.  The drivers cut
    their windows from heaps that a validated start and legal moves
    produced, through
    ``_window``, which checks only that a frame is left and records in
    ``rules`` the ``GameRules`` object the heaps are valid under; the
    constructor leaves ``rules`` None.  Agents read the frames as tuples;
    ``current`` builds the newest frame's ``Position`` on each read.
    """

    __slots__ = ("frames", "game_id", "rules")

    def __init__(self, frames, game_id: str = "nim"):
        window = []
        for i, heaps in enumerate(frames):
            try:
                window.append(tuple(heaps))
            except TypeError:
                raise InvalidPositionError(f"frame {i} is {heaps!r}, not a heap tuple") from None
            _check_counts(window[-1])
        if not window:
            # a ValueError; an agent whose window cuts it empty forfeits
            raise ContractViolationError("history needs at least one frame")
        self.frames: _Frames = tuple(window)
        self.game_id = game_id
        self.rules: GameRules | None = None

    @property
    def current(self) -> Position:
        return Position(self.frames[-1], self.game_id)


def _window(frames: _Frames, rules: GameRules) -> FrameHistory:
    """The window of ``frames``, heap tuples already known to be valid
    under ``rules``, built without checking them again."""
    if not frames:
        raise ContractViolationError("history needs at least one frame")
    window = object.__new__(FrameHistory)
    window.frames = frames
    window.game_id = rules.game_id
    window.rules = rules
    return window


class AgentPolicy:
    """Base playing policy.

    ``required_frames`` tells the match driver how many of the newest
    positions to hand over (0 means every position since the start).

    With ``required_frames >= 1``, ``choose`` must be a deterministic
    function of the window it is handed and the generator: the exhaustive
    adversary skips windows it has already proven won.  Caches are fine
    as long as they never change an answer.

    ``variants`` names the rule variants the policy can play;
    :func:`nimcore.harness.make_agent` rejects the others.
    """

    name = "agent"
    required_frames = 1
    variants: frozenset[Variant] = frozenset(Variant)

    def choose(self, history: FrameHistory, rng: random.Random) -> GameMove:
        """A move legal in the window's newest frame, ``history.frames[-1]``,
        a heap tuple of the game ``history.game_id``.  Stochastic policies
        draw from ``rng`` so matches replay exactly from a seed.  A policy
        that needs a ``Position`` reads ``history.current``, which builds
        one."""
        raise NotImplementedError


class OracleAgent(AgentPolicy):
    """Perfect play: a value-zero move when one exists, else the
    tie-break-minimal legal move."""

    def __init__(self, rules: GameRules):
        self.rules = rules
        self.name = "oracle"

    def choose(self, history: FrameHistory, rng: random.Random) -> GameMove:
        if self.rules.variant is Variant.NIM:
            # the lowest winning move, else the lowest legal move, off the heaps
            heaps = history.frames[-1]
            if history.rules is not self.rules:
                _validate(heaps, history.game_id, self.rules)
            s = _xor_fold(heaps)
            if s:
                for i, h in enumerate(heaps):
                    if h ^ s < h:
                        return GameMove(i, h ^ s)
            for i, h in enumerate(heaps):
                if h:
                    return GameMove(i, 0)
            raise IllegalMoveError("no legal moves from a terminal position")
        p = history.current
        moves = legal_moves(p, self.rules)
        if not moves:
            raise IllegalMoveError("no legal moves from a terminal position")
        zeroing = [m for m in moves if grundy(apply_move(p, m, self.rules), self.rules) == 0]
        return min(zeroing) if zeroing else min(moves)


class RandomAgent(AgentPolicy):
    name = "random"

    def __init__(self, rules: GameRules):
        self.rules = rules

    def choose(self, history: FrameHistory, rng: random.Random) -> GameMove:
        if self.rules.variant is Variant.NIM:
            # NIM has sum(heaps) moves; one draw picks the same move and
            # leaves the generator in the same state as indexing the list
            heaps = history.frames[-1]
            if history.rules is not self.rules:
                _validate(heaps, history.game_id, self.rules)
            total = sum(heaps)
            if not total:
                raise IllegalMoveError("no legal moves from a terminal position")
            k = rng.randrange(total)
            for i, h in enumerate(heaps):
                if k < h:
                    return GameMove(i, k)
                k -= h
        moves = legal_moves(history.current, self.rules)
        if not moves:
            raise IllegalMoveError("no legal moves from a terminal position")
        return moves[rng.randrange(len(moves))]


class ScriptAgent(AgentPolicy):
    """Plays a fixed whole-game transcript; running out of script forfeits.

    Entry ``i`` is the move at ply ``i`` of the game: the agent is handed
    every frame since the start, so ``i`` is one fewer than their number.
    Entries at the opponent's plies must be present but are never played,
    so a second-seat script needs a placeholder at ply 0.
    """

    name = "script"
    required_frames = 0  # needs every frame since the start to count plies

    def __init__(self, moves):
        self.moves = tuple(moves)

    def choose(self, history: FrameHistory, rng: random.Random) -> GameMove:
        index = len(history.frames) - 1
        if index >= len(self.moves):
            raise IllegalMoveError("scripted move list exhausted")
        return self.moves[index]


class SingleFrameCircuitAgent(AgentPolicy):
    """Scores candidate moves with a circuit over the current frame only.

    The circuit sees one encoded position and emits one score bit per
    candidate slot.  The agent plays the first legal candidate, in
    tie-break order (lowest heap, lowest new count), that scores 1, and
    the first legal move when none does.  One ``Circuit.evaluate`` gives
    every score; slots are heap-major, so the agent scans each heap's
    legal slots in order.  The move depends on the current frame alone,
    so it is remembered per heap tuple.  This is the history-free
    baseline; no optimality is claimed for it.
    """

    variants = frozenset({Variant.NIM})  # one score slot per NIM move

    def __init__(self, circuit: Circuit, n: int, l: int, name: str = "singleframe"):
        enc = PositionEncoding(n, l, frames=1)
        if circuit.input_arity != enc.frame_bits:
            raise EncodingError(
                f"circuit takes {circuit.input_arity} bits, frame encoding has {enc.frame_bits}"
            )
        if len(circuit.outputs) != enc.slot_count:
            raise EncodingError(
                f"circuit emits {len(circuit.outputs)} scores, expected {enc.slot_count} slots"
            )
        self.circuit = circuit
        self.enc = enc
        self.name = name
        # a match revisits its positions (about 38% of calls in a
        # tournament), and each miss costs a full evaluate
        self._decisions: dict[tuple[int, ...], GameMove] = {}

    @classmethod
    def heuristic(cls, n: int, l: int) -> "SingleFrameCircuitAgent":
        """The even-nonempty-heap-count heuristic baseline."""
        return cls(_even_nonempty_scorer(n, l), n, l, name="singleframe-heuristic")

    def choose(self, history: FrameHistory, rng: random.Random) -> GameMove:
        if history.game_id != NIM_ID:
            raise _foreign_window(history)
        heaps = history.frames[-1]
        move = self._decisions.get(heaps)
        if move is None:
            move = self._decide(heaps)
            self._decisions[heaps] = move
        return move

    def _decide(self, heaps: tuple[int, ...]) -> GameMove:
        # encode_heaps checks len(heaps) == n and every count < 2**l,
        # so slot (i << l) + v is in range for every legal candidate
        scores = self.circuit.evaluate(self.enc.encode_heaps(heaps))
        l = self.enc.l
        for i, c in enumerate(heaps):
            row = scores[i << l : (i << l) + c]  # heap i's legal new counts 0..c-1
            if 1 in row:
                return GameMove(i, row.index(1))
        for i, c in enumerate(heaps):
            if c:
                return GameMove(i, 0)
        raise IllegalMoveError("no legal moves from a terminal position")


@functools.cache
def _even_nonempty_scorer(n: int, l: int) -> Circuit:
    """The heuristic's scorer, built once per board shape: a ``Circuit``
    is immutable, so every agent of that shape can share it."""
    return build_even_nonempty_scorer(n, l)


def _foreign_window(history: FrameHistory) -> InvalidPositionError:
    """The error a NIM-only agent raises on a window of another game."""
    return InvalidPositionError(
        f"position belongs to {history.game_id!r}, the agent plays {NIM_ID!r}"
    )


def _diff_indices(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    return [i for i, (x, y) in enumerate(zip(a, b)) if x != y]


def _reply_restore(pb: tuple[int, ...], q: tuple[int, ...], d: int):
    """Reply from q cancelling the value change of the move pb -> q.

    Only the changed heap d and the reply heap are touched: the reply on
    heap r must satisfy (pb[d] ^ q[d]) ^ (q[r] ^ v) == 0, i.e. v is
    determined per heap and at most one candidate per heap is legal.
    Returns (heap, new_count) or None; lowest heap index wins.
    """
    delta = pb[d] ^ q[d]
    for r in range(len(q)):
        v = pb[d] if r == d else q[r] ^ delta
        if v < q[r]:
            return (r, v)
    return None


def preserving_reply(p_before: Position, q_after: Position) -> GameMove | None:
    """Reply to the opponent move (p_before -> q_after) that restores the
    value held at p_before, or None when no such reply exists.  Both
    positions must be NIM positions (else ``InvalidPositionError``)."""
    _require_nim(p_before)
    _require_nim(q_after)
    if len(p_before.heaps) != len(q_after.heaps):
        raise ContractViolationError("positions must have the same length")
    d = _diff_indices(p_before.heaps, q_after.heaps)
    if len(d) != 1:
        raise ContractViolationError(
            f"positions must differ in exactly one heap, found {len(d)} differences"
        )
    hit = _reply_restore(p_before.heaps, q_after.heaps, d[0])
    return GameMove(*hit) if hit else None


@dataclass(frozen=True)
class RolloutBudget:
    """A rollout budget that changes no move: the multi-frame agent's
    probes are never cut (see ``_fast_rollout``).  Kept, unchecked, only
    until ``perfbench/workloads.py`` stops building one and passing it to
    ``MultiFrameAgent`` and ``make_agent``."""

    exhaustive_cap: int = 512
    ply_cap: int = 512


def _fast_rollout(pb: tuple[int, ...], ply_cap: int) -> bool:
    """Whether the preserving rollout from ``pb``, the heaps the agent just
    moved to, empties the board on the agent's move within ``ply_cap`` plies.
    The opponent empties the largest heap, the lowest among equals, so a
    rollout from a zero position ends within twice its non-empty heaps in
    plies.  The reply, ``_reply_restore``'s, goes on the first heap that XOR
    the removed count lowers; none loses.

    Every reply restores the start's value and every ply takes at least one
    object, so, whatever the opponent plays: the answer is yes only from a
    start of value zero, since the empty board has value zero; and from a
    start of value zero a restoring reply always exists, so with room for
    its plies the answer is yes."""
    heaps = list(pb)
    for _ in range(ply_cap // 2):
        c = max(heaps)
        if not c:
            return True
        heaps[heaps.index(c)] = 0
        for r, h in enumerate(heaps):
            if h ^ c < h:
                heaps[r] = h ^ c
                break
        else:
            return False
    return not any(heaps)


class MultiFrameAgent(AgentPolicy):
    """Value-preserving rollout agent for NIM.

    Its probe asks: starting from a position, does one rollout, every
    reply preserving value, empty the board on the agent's move?  A yes
    proves the position a zero position, and no step of a probe computes
    the global NIM sum (see ``_fast_rollout``).  A probe is never cut:
    from a zero position it ends within twice the heaps in plies.

    Heap i has at most one zero candidate, t_i, the XOR of the other
    heaps, and the search reads its bits from the top, one probe each.
    With p the bits above bit b, the other heaps shifted right by b and
    a heap of 2p make a zero position iff bit b is 0.  The search stops on
    a heap once p exceeds the same bits of its count, and plays the first
    heap, in tie-break order, whose t_i is below its count, moving it to
    t_i.  If no heap has one, it plays the first candidate, which empties
    the first non-empty heap, as ``OracleAgent`` does without a winning
    move.  So a decision costs at most n*l + 1 probes on n heaps of at
    most l bits, the last one proving the played child when its last bit
    was inferred.

    The agent remembers the children its search proved, which are zero
    positions.  When the older of its two frames is one of them and the
    opponent has since shrunk exactly one heap, it plays the paper's
    two-frame reply instead of searching: ``_reply_restore``, read off the
    changed heap and a per-heap comparison, without the global NIM sum.
    From a zero position those restore replies are exactly the winning
    moves, at most one per heap, and both rules take the lowest heap.  So
    the reply is the move the search would return, and ``choose`` stays a
    function of its window.
    """

    name = "multiframe"
    required_frames = 2
    variants = frozenset({Variant.NIM})

    def __init__(self, budget: RolloutBudget | None = None):
        # ``budget`` is ignored; ``perfbench/workloads.py`` still passes one.

        # the zero positions the search proved: a reply from one costs no
        # probe, which keeps the exhaustive adversary's walks fast
        self._proven: set[tuple[int, ...]] = set()

    def choose(self, history: FrameHistory, rng: random.Random) -> GameMove:
        if history.game_id != NIM_ID:
            raise _foreign_window(history)
        frames = history.frames
        heaps = frames[-1]
        if not any(heaps):
            raise IllegalMoveError("no legal moves from a terminal position")
        return self._restore(frames, heaps) or self._decide(heaps)

    def _restore(self, frames: _Frames, heaps: tuple[int, ...]) -> GameMove | None:
        """The two-frame reply to the opponent's move into ``heaps``, or
        None when the window does not qualify and the search must decide."""
        if len(frames) < 2:
            return None
        pb = frames[-2]
        if pb not in self._proven or len(pb) != len(heaps):
            return None
        d = _diff_indices(pb, heaps)
        if len(d) != 1 or heaps[d[0]] >= pb[d[0]]:
            return None
        # pb is a zero position and heaps is not, so a reply exists
        r, w = _reply_restore(pb, heaps, d[0])
        self._proven.add(heaps[:r] + (w,) + heaps[r + 1 :])
        return GameMove(r, w)

    def _decide(self, heaps: tuple[int, ...]) -> GameMove:
        """The first heap's zero candidate, read bit by bit, else the first
        candidate (see the class docstring)."""
        plies = 2 * len(heaps)  # room for every ply of a probe
        top = max(heaps).bit_length()
        for i, c in enumerate(heaps):
            t = 0  # the bits of t_i above bit b, then t_i
            for b in reversed(range(top)):
                probe = [h >> b for h in heaps]
                probe[i] = 2 * t
                t = 2 * t + (not _fast_rollout(probe, plies))
                if t > c >> b:
                    break
            else:
                child = heaps[:i] + (t,) + heaps[i + 1 :]
                # an even t_i's child was the last probe; an odd one's is probed
                if t < c and (not t & 1 or _fast_rollout(child, plies)):
                    self._proven.add(child)
                    return GameMove(i, t)
        return GameMove(next(i for i, c in enumerate(heaps) if c), 0)


class Mirror71Agent(AgentPolicy):
    """Pair-parity strategy for boards of 2k single-object heaps plus one
    heap of two.

    Opening as first player empties the two-object heap, leaving an even
    number of singles; afterwards every move keeps the count of non-empty
    singles even.  Only positions reachable from that family are accepted.
    """

    variants = frozenset({Variant.NIM})

    def __init__(self, k: int):
        if type(k) is not int or k < 1:  # a bool or a float is no pair count
            raise ValueError(f"k must be an int >= 1, got {k!r}")
        self.k = k
        self.name = f"mirror71:{k}"

    def choose(self, history: FrameHistory, rng: random.Random) -> GameMove:
        if history.game_id != NIM_ID:
            raise _foreign_window(history)
        heaps = history.frames[-1]
        if len(heaps) != 2 * self.k + 1:
            raise StrategyDomainError(
                f"expected {2 * self.k + 1} heaps, got {len(heaps)}"
            )
        if any(h > 2 for h in heaps):
            raise StrategyDomainError("heaps above two objects are outside the family")
        twos = [i for i, h in enumerate(heaps) if h == 2]
        if len(twos) > 1:
            raise StrategyDomainError("more than one two-object heap")
        ones = sum(1 for h in heaps if h == 1)
        if twos:
            return GameMove(twos[0], 0) if ones % 2 == 0 else GameMove(twos[0], 1)
        for i, h in enumerate(heaps):
            if h:
                return GameMove(i, 0)
        raise IllegalMoveError("no legal moves from a terminal position")


class Mirror72Agent(AgentPolicy):
    """Duplication strategy for boards of 2k two-object heaps plus one
    heap of three (heaps i and k+i are paired; the odd heap sits last).

    First-player mode empties the odd heap, then mirrors the opponent
    inside the paired heaps.  Second-player mode starts from the losing
    side: it converts any winning position the opponent leaves, and while
    still losing it follows the scripted plan (drop the first heap to
    one, split the view into the small two-heap subgame and the remaining
    pairs, duplicate on the pairs, answer in the small subgame when the
    opponent plays there).
    """

    required_frames = 2
    variants = frozenset({Variant.NIM})

    def __init__(self, k: int, role: str = "first"):
        if type(k) is not int or k < 1:  # a bool or a float is no pair count
            raise ValueError(f"k must be an int >= 1, got {k!r}")
        if role not in ("first", "second"):
            raise ValueError("role must be 'first' or 'second'")
        self.k = k
        self.role = role
        self.name = f"mirror72:{k}:{role}"

    @property
    def initial(self) -> tuple[int, ...]:
        return (2,) * (2 * self.k) + (3,)

    def _validate(self, heaps: tuple[int, ...]) -> None:
        k = self.k
        if len(heaps) != 2 * k + 1:
            raise StrategyDomainError(f"expected {2 * k + 1} heaps, got {len(heaps)}")
        if any(h > 2 for h in heaps[:-1]) or heaps[-1] > 3:
            raise StrategyDomainError("position is outside the duplication family")

    def choose(self, history: FrameHistory, rng: random.Random) -> GameMove:
        if history.game_id != NIM_ID:
            raise _foreign_window(history)
        frames = history.frames
        heaps = frames[-1]
        self._validate(heaps)
        k = self.k
        odd = 2 * k
        if self.role == "first":
            if heaps == self.initial:
                return GameMove(odd, 0)
            for i in range(k):
                a, b = heaps[i], heaps[k + i]
                if a != b:
                    return GameMove(i if a > b else k + i, min(a, b))
            if heaps[odd]:
                return GameMove(odd, 0)
            raise StrategyDomainError("no duplication move available")

        # second player: grab any win the opponent leaves, else play the plan
        if _xor_fold(heaps):
            return min(winning_moves(Position(heaps)))
        if heaps[0] == 2:
            return GameMove(0, 1)
        last = None
        if len(frames) >= 2:
            changed = _diff_indices(frames[-2], heaps)
            if len(changed) == 1:
                last = changed[0]
        if last is not None and last not in (0, k, odd):
            partner = last + k if last < k else last - k
            if heaps[partner] > heaps[last]:
                return GameMove(partner, heaps[last])
        if last in (0, k, odd):
            for idx in (0, k, odd):
                if heaps[idx]:
                    return GameMove(idx, heaps[idx] - 1)
        for i, h in enumerate(heaps):
            if h:
                return GameMove(i, 0)
        raise IllegalMoveError("no legal moves from a terminal position")
