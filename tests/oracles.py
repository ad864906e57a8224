"""Independent brute-force oracles for cross-checking the engine.

These are deliberately separate implementations: plain recursive mex /
win-loss over successor sets, with their own move enumeration.  They
never import engine internals beyond basic types, except the reference
walks, which drive the engine's agents and rules and differ from the
harness only in how they walk the game, and the list-based agent
choices, which read the public move list the agents no longer build.
"""

from functools import lru_cache


def nim_successors(heaps):
    out = set()
    for i, c in enumerate(heaps):
        for v in range(c):
            out.add(tuple(sorted(heaps[:i] + (v,) + heaps[i + 1 :])))
    return out


def subtraction_successors(removals):
    removals = tuple(sorted(removals))

    def succ(heaps):
        out = set()
        for i, c in enumerate(heaps):
            for r in removals:
                if r <= c:
                    out.add(tuple(sorted(heaps[:i] + (c - r,) + heaps[i + 1 :])))
        return out

    return succ


def kayles_successors(rows):
    """Rows are pin-row lengths; remove 1 or 2 adjacent pins anywhere."""
    out = set()
    rows = tuple(rows)
    for i, length in enumerate(rows):
        rest = rows[:i] + rows[i + 1 :]
        for taken in (1, 2):
            if taken > length:
                continue
            for left in range(length - taken + 1):
                right = length - taken - left
                pieces = tuple(p for p in (left, right) if p > 0)
                out.add(tuple(sorted(rest + pieces)))
    return out


def brute_mex(values):
    m = 0
    values = set(values)
    while m in values:
        m += 1
    return m


def make_brute_grundy(successors):
    @lru_cache(maxsize=None)
    def grundy(heaps):
        return brute_mex(grundy(s) for s in successors(heaps))

    return grundy


def make_brute_win(successors):
    @lru_cache(maxsize=None)
    def win(heaps):
        # terminal positions lose; otherwise win iff some successor loses
        return any(not win(s) for s in successors(heaps))

    return win


def reference_win_loss(rules, memo, heaps):
    """The win/loss walk of ``GrundySolver.win_loss`` by its rules alone,
    kept as its reference: ``memo`` maps sorted keys with the empty heaps
    dropped to a ``WinLoss`` and is filled in the order the solver fills its
    own.  Returns the outcome of ``heaps``.

    A key's replies are built from ``legal_moves`` and ``apply_move``, each
    key sorted whole.  They come in the order of the heap moved on, each
    distinct heap once, then of the sorted piece the move leaves.  Opening a
    key reads each reply's memo entry in that order and stops at the first
    one already known to be a LOSS, which settles the key as a WIN; the
    replies not yet in the memo are kept.  Each kept reply, in order, is
    read again and walked if still unknown, and the first LOSS among them
    settles the key as a WIN; otherwise the key is a LOSS.  Recursive, so
    only for short games.
    """
    from collections import Counter

    from nimcore.games import Position, WinLoss, apply_move, legal_moves

    def replies(key):
        p = Position(key or (0,), rules.game_id)
        by_piece = {}
        for move in legal_moves(p, rules):
            after = [h for h in apply_move(p, move, rules).heaps if h]
            rest = key[: move.heap_index] + key[move.heap_index + 1 :]
            piece = tuple(sorted((Counter(after) - Counter(rest)).elements()))
            by_piece[key[move.heap_index], piece] = tuple(sorted(after))
        return [by_piece[k] for k in sorted(by_piece)]

    def walk(key):
        unknown = []
        for reply in replies(key):
            outcome = memo.get(reply)
            if outcome is WinLoss.LOSS:
                memo[key] = WinLoss.WIN
                return WinLoss.WIN
            if outcome is None:
                unknown.append(reply)
        for reply in unknown:
            outcome = memo.get(reply)
            if outcome is None:
                outcome = walk(reply)
            if outcome is WinLoss.LOSS:
                memo[key] = WinLoss.WIN
                return WinLoss.WIN
        memo[key] = WinLoss.LOSS
        return WinLoss.LOSS

    key = tuple(sorted(h for h in heaps if h))
    return memo[key] if key in memo else walk(key)


brute_nim_grundy = make_brute_grundy(nim_successors)
brute_nim_win = make_brute_win(nim_successors)
brute_kayles_grundy = make_brute_grundy(kayles_successors)


def kayles_row_values(max_row):
    """Grundy values of single Kayles rows 0..max_row by the one-row
    formula: taking one or two pins leaves rows ``a`` and ``b`` with
    ``a + b`` one or two fewer, worth ``g(a) ^ g(b)``."""
    g = []
    for n in range(max_row + 1):
        rests = [rest for rest in (n - 1, n - 2) if rest >= 0]
        g.append(brute_mex(g[a] ^ g[rest - a] for rest in rests for a in range(rest + 1)))
    return g


def xor_fold(heaps):
    acc = 0
    for h in heaps:
        acc ^= h
    return acc


def popcount_at_least(bits, t):
    return 1 if sum(bits) >= t else 0


class _NodeBudgetExceeded(Exception):
    pass


def _window(history, k):
    """The agent's window: the heap tuples of the newest ``k`` positions of
    ``history``, or of all of them when ``k`` is 0 or the history is
    shorter.  A negative ``k`` is outside the agent contract and raises
    ``ContractViolationError``, as in the harness."""
    from nimcore.agents import FrameHistory
    from nimcore.errors import ContractViolationError

    if k < 0:
        raise ContractViolationError("history needs at least one frame")
    if 1 <= k < len(history):
        history = history[len(history) - k :]
    return FrameHistory(tuple(p.heaps for p in history), history[-1].game_id)


def reference_adversary(rules, start, agent, role="first", node_budget=500_000):
    """The recursive tree walk that ``harness.exhaustive_adversary``
    replaced, kept as its reference: no transpositions, the full history
    at every node, every position validated, and terminality read off the
    full move list, not the engine's closed-form test.  Recursion depth
    grows with the game length, so it is only for short games.
    """
    import random

    from nimcore.errors import IllegalMoveError
    from nimcore.games import apply_move, legal_moves
    from nimcore.harness import _AGENT_FAILURES, AdversaryReport

    if role not in ("first", "second"):
        raise ValueError("role must be 'first' or 'second'")
    if not legal_moves(start, rules):
        raise IllegalMoveError("adversary sweep needs a non-terminal start")
    nodes = 0

    def walk(history, agent_to_move):
        nonlocal nodes
        p = history[-1]
        if not legal_moves(p, rules):
            # the previous mover took the last object
            return (not agent_to_move, [])
        if agent_to_move:
            try:
                move = agent.choose(_window(history, agent.required_frames), random.Random(0))
                nxt = apply_move(p, move, rules)
            except _AGENT_FAILURES:
                return (False, [])
            ok, line = walk(history + (nxt,), False)
            return (ok, [move] + line)
        for move in legal_moves(p, rules):
            nodes += 1
            if nodes > node_budget:
                raise _NodeBudgetExceeded
            nxt = apply_move(p, move, rules)
            ok, line = walk(history + (nxt,), True)
            if not ok:
                return (False, [move] + line)
        return (True, [])

    try:
        ok, line = walk((start,), role == "first")
    except _NodeBudgetExceeded:
        return AdversaryReport(False, None, nodes, complete=False)
    return AdversaryReport(ok, None if ok else line, nodes, complete=True)


def reference_never_miss(rules, start, agent, role="second"):
    """The recursive walker behind the never-miss check before
    ``verify`` ran it as a rule on the harness walk, kept as its
    reference: every time the agent faces a non-zero NIM sum, its move
    must leave zero.  No transpositions, the full history at every node,
    every position validated, terminality read off the full move list.
    An agent that raises or plays an illegal move fails, as in the harness
    walk.  Only for short games.
    """
    import random

    from nimcore import nimber
    from nimcore.games import apply_move, legal_moves
    from nimcore.harness import _AGENT_FAILURES, AdversaryReport

    nodes = 0

    def walk(history, agent_to_move):
        nonlocal nodes
        p = history[-1]
        if not legal_moves(p, rules):
            return (True, [])
        if agent_to_move:
            try:
                move = agent.choose(_window(history, agent.required_frames), random.Random(0))
                nxt = apply_move(p, move, rules)
            except _AGENT_FAILURES:
                return (False, [])
            if nimber.nim_sum(p) != 0 and nimber.nim_sum(nxt) != 0:
                return (False, [move])
            ok, line = walk(history + (nxt,), False)
            return (ok, [move] + line)
        for move in legal_moves(p, rules):
            nodes += 1
            nxt = apply_move(p, move, rules)
            ok, line = walk(history + (nxt,), True)
            if not ok:
                return (False, [move] + line)
        return (True, [])

    ok, line = walk((start,), role == "first")
    return AdversaryReport(ok, None if ok else line, nodes, complete=True)


def reference_oracle_choice(p, rules):
    """NIM oracle move from the full move list: the lowest winning move,
    else the lowest legal move."""
    from nimcore.errors import IllegalMoveError
    from nimcore.games import legal_moves
    from nimcore.nimber import winning_moves

    moves = legal_moves(p, rules)
    if not moves:
        raise IllegalMoveError("no legal moves from a terminal position")
    wins = winning_moves(p)
    return min(wins) if wins else min(moves)


def reference_random_choice(p, rules, rng):
    """Uniform move from the full move list, one ``randrange`` draw."""
    from nimcore.errors import IllegalMoveError
    from nimcore.games import legal_moves

    moves = legal_moves(p, rules)
    if not moves:
        raise IllegalMoveError("no legal moves from a terminal position")
    return moves[rng.randrange(len(moves))]


def reference_singleframe_choice(circuit, n, l, heaps):
    """Single-frame agent move from the full score tuple, evaluated by the
    batch evaluator: the first legal candidate (lowest heap, lowest new
    count) scoring 1, else the first legal move."""
    from nimcore.circuits import PositionEncoding
    from nimcore.errors import IllegalMoveError
    from nimcore.games import GameMove

    bits = PositionEncoding(n, l, frames=1).encode_heaps(heaps)
    scores = circuit.evaluate_batch([bits])[0]
    for i, c in enumerate(heaps):
        for v in range(c):
            if scores[(i << l) + v]:
                return GameMove(i, v)
    for i, c in enumerate(heaps):
        if c:
            return GameMove(i, 0)
    raise IllegalMoveError("no legal moves from a terminal position")
