"""Independent references the benchmark checks nimcore's outputs against.

None of these call into nimcore: they restate the game rules and circuit
semantics directly, so a fast but wrong layer cannot pass by agreeing
with itself.
"""

from __future__ import annotations

import numpy as np


def xor_fold(values) -> int:
    acc = 0
    for v in values:
        acc ^= v
    return acc


def mex(values) -> int:
    present = set(values)
    m = 0
    while m in present:
        m += 1
    return m


def kayles_row_values(max_row: int) -> list[int]:
    """Grundy value of one Kayles row of 0..max_row pins: take one or two
    adjacent pins, leaving up to two rows."""
    g = [0] * (max_row + 1)
    for n in range(1, max_row + 1):
        g[n] = mex(
            g[a] ^ g[n - taken - a]
            for taken in (1, 2)
            if taken <= n
            for a in range(n - taken + 1)
        )
    return g


def subtraction_heap_values(removals, max_heap: int) -> list[int]:
    """Grundy value of one heap of 0..max_heap objects in a subtraction game."""
    g = [0] * (max_heap + 1)
    for n in range(1, max_heap + 1):
        g[n] = mex(g[n - r] for r in removals if r <= n)
    return g


def replay_nim_game(start, moves) -> tuple[bool, str, int]:
    """Replay a NIM transcript of "heap:new" moves.

    Returns (legal and finished, winning seat, preservation failures of
    the first seat), where a preservation failure is a first-seat move
    from a non-zero NIM sum to a non-zero NIM sum.
    """
    heaps = list(start)
    failures = 0
    for ply, text in enumerate(moves):
        heap, new = (int(x) for x in text.split(":"))
        if not (0 <= heap < len(heaps) and 0 <= new < heaps[heap]):
            return False, "", failures
        before = xor_fold(heaps)
        heaps[heap] = new
        if ply % 2 == 0 and before != 0 and xor_fold(heaps) != 0:
            failures += 1
    finished = not any(heaps)
    return finished, "first" if len(moves) % 2 else "second", failures


def heap_bits(heaps: np.ndarray, l: int) -> np.ndarray:
    """(rows, n) heap sizes -> (rows, n*l) bits, heap-major, MSB first."""
    shifts = np.arange(l - 1, -1, -1)
    bits = (heaps[:, :, None] >> shifts) & 1
    return bits.reshape(heaps.shape[0], -1).astype(np.uint8)


def nimber_diff_outputs(pa: np.ndarray, pb: np.ndarray, l: int, k_max: int) -> np.ndarray:
    """Expected nimber-diff outputs: the XOR of the changed heaps' value
    differences (MSB first, zero when the contract is broken), then a
    validity bit that is 1 iff at most k_max heaps changed."""
    changed = (pa != pb).sum(axis=1)
    valid = changed <= k_max
    value = np.bitwise_xor.reduce(pa ^ pb, axis=1) * valid
    return np.concatenate(
        [heap_bits(value[:, None], l), valid[:, None].astype(np.uint8)], axis=1
    )


def validator_outputs(p1: np.ndarray, q1: np.ndarray, cur: np.ndarray, l: int) -> np.ndarray:
    """Expected move-validator scores for histories that change at most
    k_max heaps: slot (h, v) is 1 iff setting heap h of ``cur`` to v
    changes the value by exactly the (P1, Q1) difference."""
    d = np.bitwise_xor.reduce(p1 ^ q1, axis=1)
    values = np.arange(1 << l)
    hits = (cur[:, :, None] ^ values[None, None, :]) == d[:, None, None]
    return hits.reshape(cur.shape[0], -1).astype(np.uint8)


def even_nonempty_scores(heaps, l: int) -> tuple[int, ...]:
    """Expected single-frame heuristic scores: emptying heap h (v == 0)
    scores 1 iff an even number of the other heaps are non-empty; any
    other value scores the opposite."""
    nonempty = [1 if h else 0 for h in heaps]
    total = sum(nonempty)
    out = []
    for h in range(len(heaps)):
        even_rest = (total - nonempty[h]) % 2 == 0
        out.append(1 if even_rest else 0)
        out.extend([0 if even_rest else 1] * ((1 << l) - 1))
    return tuple(out)
