"""Closed-form NIM arithmetic and the local nimber-difference primitive.

The key identity: for two equal-length positions, XOR contributions from
identical heaps cancel, so the difference of their NIM values equals the
XOR of per-heap differences over the changed heaps only.  When at most a
constant number of heaps changed, that is a constant-size computation,
which is what makes it circuit-friendly (see ``circuits.builders``).
"""

from __future__ import annotations

from .errors import ContractViolationError, InvalidPositionError
from .games import GameMove, Position

NIM_ID = "nim"
DEFAULT_K_MAX = 2


def bit_width(max_heap_size: int) -> int:
    """Bits needed to encode every count in 0..max_heap_size (at least 1)."""
    # exactly int, as for heap counts: a bool, a float or a string is no size
    if type(max_heap_size) is not int or max_heap_size < 0:
        raise ValueError(f"max_heap_size {max_heap_size!r} is not a non-negative int")
    return max(1, max_heap_size.bit_length())


def _require_nim(p: Position) -> None:
    if p.game_id != NIM_ID:
        raise InvalidPositionError(
            f"NIM-sum arithmetic applies to NIM positions, got {p.game_id!r}"
        )


def nim_sum(p: Position) -> int:
    """Bitwise XOR fold of the heap sizes."""
    _require_nim(p)
    return _xor_fold(p.heaps)


def _xor_fold(heaps: tuple[int, ...]) -> int:
    """The NIM sum of a heap tuple, which the caller knows to be NIM heaps."""
    s = 0
    for h in heaps:
        s ^= h
    return s


def winning_moves(p: Position) -> list[GameMove]:
    """Exactly the moves that leave the opponent a zero NIM sum.

    For each heap there is at most one candidate, ``heap XOR s``, legal
    when it is an actual decrease; the list is empty iff ``p`` is losing.
    """
    _require_nim(p)
    s = _xor_fold(p.heaps)
    if s == 0:
        return []
    out = []
    for i, h in enumerate(p.heaps):
        t = h ^ s
        if t < h:
            out.append(GameMove(i, t))
    return out


def nimber_diff(p1: Position, p2: Position, k_max: int = DEFAULT_K_MAX) -> int:
    """XOR of per-heap differences over the changed heaps.

    Equals ``nim_sum(p1) ^ nim_sum(p2)`` but only touches the heaps that
    actually differ.  The bounded-difference contract is enforced eagerly:
    more than ``k_max`` changed heaps raises, because callers that rely on
    the constant-size property must notice they broke it.  Both positions
    must be NIM positions (else ``InvalidPositionError``).
    """
    _require_nim(p1)
    _require_nim(p2)
    if len(p1.heaps) != len(p2.heaps):
        raise InvalidPositionError(
            f"positions have different lengths ({len(p1.heaps)} vs {len(p2.heaps)})"
        )
    changed = [i for i, (a, b) in enumerate(zip(p1.heaps, p2.heaps)) if a != b]
    if len(changed) > k_max:
        raise ContractViolationError(
            f"positions differ in {len(changed)} heaps, above the k_max={k_max} contract"
        )
    acc = 0
    for i in changed:
        acc ^= p1.heaps[i] ^ p2.heaps[i]
    return acc
