"""Impartial-game engine: NIM, subtraction games and Kayles.

Positions are immutable heap vectors.  Grundy numbers come from the
Sprague–Grundy sum rule: a position's value is the XOR of its heaps'
values, read from a per-heap table.  The win/loss oracle is an
independent memoized walk over whole positions, so each can cross-check
the other (and the closed-form NIM arithmetic in :mod:`nimcore.nimber`).

All operations here are pure.  Memo tables are plain dicts whose
single-key updates are atomic under the GIL, and every entry is a
deterministic function of its key, so concurrent callers always observe
bit-identical results regardless of thread count.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

from .errors import IllegalMoveError, InvalidPositionError, MemoLimitError

DEFAULT_MEMO_CAP = 1 << 22


class Variant(enum.Enum):
    NIM = "nim"
    SUBTRACTION = "subtraction"
    KAYLES = "kayles"


@dataclass(frozen=True)
class GameRules:
    """A rule set: the variant plus the heap-size bound used by encoders."""

    variant: Variant
    max_heap_size: int = 255
    removal_set: frozenset[int] | None = None

    def __post_init__(self):
        # exactly int, as for heap counts: a bool, a float or a string is no size
        if type(self.max_heap_size) is not int or self.max_heap_size < 1:
            raise ValueError(f"max_heap_size {self.max_heap_size!r} is not a positive int")
        if self.variant is Variant.SUBTRACTION:
            if not self.removal_set:
                raise ValueError("a subtraction game needs a non-empty removal set")
            for r in self.removal_set:
                if type(r) is not int or r < 1:
                    raise ValueError(f"removal {r!r} is not an int >= 1")
            object.__setattr__(self, "removal_set", frozenset(self.removal_set))
        elif self.removal_set is not None:
            raise ValueError(f"{self.variant.value} does not take a removal set")

    @cached_property
    def game_id(self) -> str:
        # computed on the first read and kept in the instance dict, which
        # the frozen dataclass's fields, equality and hash do not include
        if self.variant is Variant.SUBTRACTION:
            return "subtraction(%s)" % ",".join(map(str, sorted(self.removal_set)))
        return self.variant.value

    @classmethod
    def nim(cls, max_heap_size: int = 255) -> "GameRules":
        return cls(Variant.NIM, max_heap_size)

    @classmethod
    def subtraction(cls, removals: Iterable[int], max_heap_size: int = 255) -> "GameRules":
        return cls(Variant.SUBTRACTION, max_heap_size, frozenset(removals))

    @classmethod
    def kayles(cls, max_heap_size: int = 255) -> "GameRules":
        return cls(Variant.KAYLES, max_heap_size)


@dataclass(frozen=True)
class Position:
    """Heap-count vector plus the identifier of the rule set it belongs to.

    The heap list never shrinks during NIM or subtraction play: emptied
    heaps stay as zeros so move indices remain stable.  Kayles rows may
    split, which appends the new row at the end.
    """

    heaps: tuple[int, ...]
    game_id: str = "nim"

    def __post_init__(self):
        object.__setattr__(self, "heaps", tuple(self.heaps))
        if not self.heaps:
            raise InvalidPositionError("a position needs at least one heap")
        _check_counts(self.heaps)

    @property
    def total(self) -> int:
        return sum(self.heaps)

    @classmethod
    def from_text(cls, text: str, game_id: str = "nim") -> "Position":
        try:
            heaps = tuple(int(part) for part in text.split(","))
        except ValueError:
            raise InvalidPositionError(f"cannot parse position {text!r}") from None
        return cls(heaps, game_id)

    def to_text(self) -> str:
        return ",".join(map(str, self.heaps))


def _check_counts(heaps: tuple[int, ...]) -> None:
    for i, h in enumerate(heaps):
        # exactly int: a bool, a float or None is not a heap count
        if type(h) is not int:
            raise InvalidPositionError(f"heap {i} is {h!r}, not an int")
        if h < 0:
            raise InvalidPositionError(f"heap {i} has negative count {h}")


class GameMove(NamedTuple):
    """Reduce heap ``heap_index`` to ``new_count``.

    ``split_count`` is only used by Kayles: taking pins from the middle of
    a row leaves two rows, the in-place ``new_count`` and an appended row
    of ``split_count`` pins.  It is 0 for NIM and subtraction games.

    Field order doubles as the deterministic tie-break ordering used by
    every agent (lowest heap index, then lowest new count).  A named
    tuple: immutable, ordered and hashed as its three fields, and cheap
    to build on every ply.  Being a tuple, it also equals a plain tuple of
    the same fields, but only a ``GameMove`` is played.
    """

    heap_index: int
    new_count: int
    split_count: int = 0


# module-level aliases: reading an enum member off its class is slow
_KAYLES = Variant.KAYLES
_SUBTRACTION = Variant.SUBTRACTION


class WinLoss(enum.Enum):
    WIN = "win"
    LOSS = "loss"


def validate_position(p: Position, rules: GameRules) -> None:
    _validate(p.heaps, p.game_id, rules)


def _validate(heaps: tuple[int, ...], game_id: str, rules: GameRules) -> None:
    """The check of :func:`validate_position` on a heap tuple of
    ``game_id``.  A tuple that no ``Position`` checked may hold a heap that
    is no count, so it also refuses those, with ``Position``'s errors."""
    if game_id != rules.game_id:
        raise InvalidPositionError(
            f"position belongs to {game_id!r}, rules are {rules.game_id!r}"
        )
    bound = rules.max_heap_size
    for h in heaps:
        if type(h) is not int or not 0 <= h <= bound:
            _check_counts(heaps)
            i = next(i for i, c in enumerate(heaps) if c > bound)
            raise InvalidPositionError(
                f"heap {i} has {heaps[i]} objects, above the rule bound {bound}"
            )


def _iter_moves(heaps: tuple[int, ...], rules: GameRules) -> Iterator[GameMove]:
    variant = rules.variant
    if variant is Variant.NIM:
        for i, c in enumerate(heaps):
            for v in range(c):
                yield GameMove(i, v)
    elif variant is Variant.SUBTRACTION:
        removals = sorted(rules.removal_set)
        for i, c in enumerate(heaps):
            for r in removals:
                if r <= c:
                    yield GameMove(i, c - r)
    else:  # Kayles: remove 1 or 2 adjacent pins, possibly splitting the row
        for i, c in enumerate(heaps):
            for taken in (1, 2):
                if taken > c:
                    continue
                rest = c - taken
                # canonical split: the kept row is the larger piece
                for small in range(rest // 2 + 1):
                    yield GameMove(i, rest - small, small)


def legal_moves(p: Position, rules: GameRules) -> list[GameMove]:
    """All legal moves, duplicate-free; empty exactly at terminal positions."""
    validate_position(p, rules)
    return list(_iter_moves(p.heaps, rules))


def _no_moves(heaps: tuple[int, ...], rules: GameRules) -> bool:
    """Terminal test in closed form: under NIM and Kayles any non-empty
    heap has a move, and under a subtraction game a heap has one iff it
    holds the smallest allowed removal."""
    if rules.variant is Variant.SUBTRACTION:
        return max(heaps) < min(rules.removal_set)
    return not any(heaps)


def is_terminal(p: Position, rules: GameRules) -> bool:
    validate_position(p, rules)
    return _no_moves(p.heaps, rules)


def apply_move(p: Position, m: GameMove, rules: GameRules) -> Position:
    """Apply ``m`` to ``p``, rejecting illegal moves with a reason."""
    validate_position(p, rules)
    return Position(_checked_heaps(p.heaps, m, rules), p.game_id)


def _checked_heaps(heaps: tuple[int, ...], m: GameMove, rules: GameRules) -> tuple[int, ...]:
    """The heaps after ``m``, rejecting illegal moves with a reason.

    ``heaps`` must already be valid under ``rules``; the result then is
    too, since a legal move only shrinks a heap (a Kayles split leaves two
    smaller rows).  A move is a ``GameMove`` of three ints, not bools.
    """
    if not isinstance(m, GameMove):
        raise IllegalMoveError(f"not a move of three integers: {m!r}")
    i, new, split = m
    if not (type(i) is type(new) is type(split) is int):
        raise IllegalMoveError(f"not a move of three integers: {m!r}")
    if not 0 <= i < len(heaps):
        raise IllegalMoveError(f"heap index {i} out of range")
    old = heaps[i]
    if not 0 <= new < old:
        raise IllegalMoveError(f"heap {i} must strictly decrease ({old} -> {new})")
    variant = rules.variant
    if variant is _KAYLES:
        if not 0 <= split <= new:
            raise IllegalMoveError("kayles split must satisfy 0 <= split <= new_count")
        if old - new - split not in (1, 2):
            raise IllegalMoveError("kayles removes exactly one or two adjacent pins")
    elif split:
        raise IllegalMoveError("split moves only exist in kayles")
    elif variant is _SUBTRACTION and old - new not in rules.removal_set:
        raise IllegalMoveError(f"removal of {old - new} objects is not allowed")
    return _apply_heaps(heaps, m)


def _apply_heaps(heaps: tuple[int, ...], m: GameMove) -> tuple[int, ...]:
    """The heaps after ``m``, which the caller knows to be legal."""
    i, new, split = m
    after = heaps[:i] + (new,) + heaps[i + 1 :]
    return after + (split,) if split else after


def mex(values: Iterable[int]) -> int:
    """Minimal excludant: smallest non-negative integer absent from ``values``."""
    present = set(values)
    m = 0
    while m in present:
        m += 1
    return m


class GrundySolver:
    """Grundy-number and win/loss evaluation for one rule set.

    ``grundy`` is the XOR of per-heap values from one table keyed by heap
    size and filled bottom-up: a heap's value is the mex, over the pieces
    each move on it leaves, of the XOR of the pieces' values.  ``win_loss``
    is the independent oracle, a walk over whole positions.  Its memo keys
    are sorted heap tuples with the empty heaps dropped: every supported
    variant has permutation-invariant values and symmetric move sets, and
    an empty heap has no moves, so neither changes a value; the terminal
    key is ``()``.  Both read the non-empty pieces each move on a heap
    leaves off a per-solver table filled from the same move rules as
    :func:`legal_moves`.  The walk builds a key's successors once, each by
    splicing a piece into the key where its heap was, and sorting only a
    piece that starts below the heap before it.  It checks each successor
    against the memo as it is built: the first one already known to be a
    LOSS settles the key as a WIN, before the rest are built and without a
    stack entry.  Otherwise the key's stack entry keeps the successors not
    yet in the memo, since one known to be a WIN cannot settle the key, and
    the key is settled at the first of them found to be a LOSS, or as a
    LOSS once all are WINs.

    Tables are capacity-bounded by ``memo_cap``, an int >= 1; hitting the
    cap raises instead of silently evicting so results stay reproducible.
    """

    def __init__(self, rules: GameRules, memo_cap: int = DEFAULT_MEMO_CAP):
        # exactly int, as for GameRules.max_heap_size
        if type(memo_cap) is not int or memo_cap < 1:
            raise ValueError(f"memo_cap {memo_cap!r} is not a positive int")
        self.rules = rules
        self.memo_cap = memo_cap
        self._grundy: dict[int, int] = {}  # heap size -> value
        self._outcome: dict[tuple[int, ...], WinLoss] = {}
        self._pieces: dict[int, list[tuple[int, ...]]] = {}

    def _heap_pieces(self, c: int) -> list[tuple[int, ...]]:
        """The sorted non-empty pieces each move on a heap of ``c`` leaves."""
        pieces = self._pieces.get(c)
        if pieces is None:
            # a move's split row is never the larger piece, so each piece
            # reads sorted straight off the move
            pieces = self._pieces[c] = sorted(
                {
                    (m.split_count, m.new_count)
                    if m.split_count
                    else ((m.new_count,) if m.new_count else ())
                    for m in _iter_moves((c,), self.rules)
                }
            )
        return pieces

    def _successors(self, key: tuple[int, ...]) -> list[tuple[int, ...]] | None:
        """The successor keys of ``key`` not yet in the memo, or None at the
        first one already known to be a LOSS, before the rest are built.

        A successor already known to be a WIN is left out: it can never
        settle ``key`` as a WIN.  Each successor's memo entry is read once.
        """
        # Moves on equal heaps lead to the same keys, so each distinct heap
        # size is expanded once, at its first index.  Keys from different
        # sizes never coincide: every piece a move leaves is smaller than
        # the heap it came from.  So a piece spliced in where the heap was
        # stays below the heaps above it, and the key stays sorted whenever
        # the piece is empty or starts no lower than the heap below it; only
        # the other pieces are sorted in.
        known = self._outcome.get
        loss = WinLoss.LOSS  # a local: reading an enum member is slow
        out = []
        append = out.append
        previous = 0
        for i, c in enumerate(key):
            if c == previous:
                continue
            below, previous = previous, c
            head, tail = key[:i], key[i + 1 :]
            for piece in self._heap_pieces(c):
                if not piece or piece[0] >= below:
                    succ = head + piece + tail
                else:
                    succ = tuple(sorted(head + tail + piece))
                outcome = known(succ)
                if outcome is None:
                    append(succ)
                elif outcome is loss:
                    return None
        return out

    def _reserve(self, table: dict) -> None:
        if len(table) >= self.memo_cap:
            raise MemoLimitError(
                f"memo table reached its cap of {self.memo_cap} entries; "
                "construct a GrundySolver with a larger memo_cap"
            )

    def grundy(self, p: Position) -> int:
        validate_position(p, self.rules)
        table = self._grundy
        # Sizes are filled in increasing order, so the table's keys are
        # always 0..len-1 and every piece of a filled size is already in
        # it.  Each entry is set once, by setdefault: threads that fill
        # the same size at once all compute the same value.
        for c in range(len(table), max(p.heaps) + 1):
            self._reserve(table)
            values = set()
            for piece in self._heap_pieces(c):
                value = 0
                for h in piece:
                    value ^= table[h]
                values.add(value)
            table.setdefault(c, mex(values))
        value = 0
        for h in p.heaps:
            value ^= table[h]
        return value

    def win_loss(self, p: Position) -> WinLoss:
        """Exhaustive game-value oracle, independent of Grundy numbers.

        A position is a WIN for the player to move iff some successor is
        a LOSS; terminal positions are LOSSes (the previous mover took
        the last object).  The walk runs on one explicit stack, so deep
        games raise no ``RecursionError``, and it stops building a key's
        successors at the first one already known to be a LOSS.  It reads
        no Grundy value: it checks the sum rule, it does not use it.
        """
        validate_position(p, self.rules)
        key = tuple(sorted(h for h in p.heaps if h))
        memo = self._outcome
        if key in memo:
            return memo[key]
        # Each entry is [key, successors, cursor]; the cursor stays on an
        # unsolved successor until it is solved.  A key is settled as a WIN
        # without an entry when building its successors meets a known LOSS,
        # and an entry is settled at its first successor that is a LOSS.
        win, loss = WinLoss.WIN, WinLoss.LOSS
        stack = []
        k = key
        while True:
            succ = self._successors(k)
            if succ is None:
                self._reserve(memo)
                memo[k] = win
            else:
                stack.append([k, succ, 0])
            while stack:
                entry = stack[-1]
                k, succ, i = entry
                # each successor's entry is read once: another thread may
                # store it between two reads
                while i < len(succ) and (outcome := memo.get(succ[i])) is win:
                    i += 1
                if i < len(succ) and outcome is None:
                    entry[2] = i
                    k = succ[i]
                    break
                stack.pop()
                self._reserve(memo)
                memo[k] = win if i < len(succ) else loss
            else:
                return memo[key]


_SOLVERS: dict[GameRules, GrundySolver] = {}


def solver_for(rules: GameRules) -> GrundySolver:
    try:
        return _SOLVERS[rules]
    except KeyError:
        return _SOLVERS.setdefault(rules, GrundySolver(rules))


def grundy(p: Position, rules: GameRules) -> int:
    """Grundy number (nimber) of ``p``: the XOR of its heaps' values."""
    return solver_for(rules).grundy(p)
