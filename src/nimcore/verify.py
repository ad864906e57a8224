"""Cross-module invariant suite behind the ``verify`` CLI subcommand.

Each check is a parameterized function returning (ok, detail); the
acceptance tests call the same functions at their stated scales, the CLI
runs them at "desk" (fast) or "extended" (full) scale.  Checks resolve
package functions through their modules at call time, so tampering with
one (e.g. monkeypatching the NIM sum) makes the suite fail, which keeps
the suite itself honest.
"""

from __future__ import annotations

import itertools
import random
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import games, nimber
from .agents import (
    Mirror71Agent,
    Mirror72Agent,
    MultiFrameAgent,
    OracleAgent,
    RandomAgent,
    preserving_reply,
)
from .circuits.builders import (
    build_move_validator_circuit,
    build_nimber_diff_circuit,
    threshold_at_least,
)
from .circuits.encoding import PositionEncoding, decode_value
from .circuits.ir import Circuit, Gate, parse, serialize
from .errors import (
    ContractViolationError,
    GateBudgetError,
    ThresholdCapError,
    UnsupportedModelError,
)
from .games import GameRules, Position, apply_move, legal_moves
from .harness import (
    ExperimentConfig,
    _adversary_walk,
    _preservation_failures,
    exhaustive_adversary,
    play_match,
    rows_to_csv,
    run_experiment,
    stable_mix,
)
from .models import (
    ModelKind,
    ThresholdNetwork,
    compile_to_ac0,
    eval_model,
)


# ---------------------------------------------------------------------------
# game theory checks


def check_worked_example() -> tuple[bool, str]:
    value = nimber.nim_sum(Position((3, 5, 7)))
    return value == 1, f"nim_sum((3,5,7)) = {value}"


def _nim_positions(max_heaps: int, max_size: int):
    for hc in range(1, max_heaps + 1):
        for heaps in itertools.product(range(max_size + 1), repeat=hc):
            yield Position(heaps)


def check_grundy_vs_nim_sum(max_heaps: int = 4, max_size: int = 8) -> tuple[bool, str]:
    """Grundy == NIM sum and the win/loss oracle agrees, exhaustively."""
    rules = GameRules.nim(max_size)
    solver = games.GrundySolver(rules)
    count = 0
    for p in _nim_positions(max_heaps, max_size):
        g = solver.grundy(p)
        if g != nimber.nim_sum(p):
            return False, f"grundy({p.heaps}) = {g} != nim_sum"
        wl = solver.win_loss(p)
        if (wl is games.WinLoss.WIN) != (g != 0):
            return False, f"win/loss oracle disagrees at {p.heaps}"
        count += 1
    return True, f"{count} positions agree"


def check_grundy_definition(max_kayles_pins: int = 12) -> tuple[bool, str]:
    """Every position's Grundy value is the mex of its successors' values,
    so terminal positions are 0.  The grids are closed under moves (Kayles
    up to the order of rows), so by induction this proves every value on
    them: NIM max 6 and subtraction {1,3,4} max 8 with 1-3 heaps, and every
    multiset of Kayles rows with at most ``max_kayles_pins`` pins.  On the
    same grids the win/loss walk, which reads no Grundy value, must find a
    WIN exactly where the value is non-zero."""
    n = max_kayles_pins
    grids = [
        (rules, [h for hc in (1, 2, 3) for h in itertools.product(range(size + 1), repeat=hc)])
        for rules, size in ((GameRules.nim(6), 6), (GameRules.subtraction({1, 3, 4}, 8), 8))
    ]
    # k rows of at most n pins in all hold at most n - k + 1 pins each
    sizes = itertools.combinations_with_replacement
    rows = (r for k in range(n + 1) for r in sizes(range(1, n - k + 2), k))
    grids.append((GameRules.kayles(n), [r or (0,) for r in rows if sum(r) <= n]))
    for rules, grid in grids:
        solver = games.GrundySolver(rules)
        for heaps in grid:
            p = Position(heaps, rules.game_id)
            children = {solver.grundy(apply_move(p, m, rules)) for m in legal_moves(p, rules)}
            value = solver.grundy(p)
            if value != min(set(range(len(children) + 1)) - children):
                return False, f"{rules.game_id} grundy{heaps} is not the mex of its successors"
            if (solver.win_loss(p) is games.WinLoss.WIN) != (value != 0):
                return False, f"{rules.game_id} win_loss{heaps} disagrees with grundy {value}"
    count = sum(len(g) for _, g in grids)
    return True, f"{count} positions equal the mex of their successors, and win/loss agrees"


def check_strategy_control(max_heaps: int = 4, max_size: int = 8) -> tuple[bool, str]:
    """Non-zero positions have a zeroing move; zero positions have none."""
    rules = GameRules.nim(max_size)
    solver = games.GrundySolver(rules)
    for p in _nim_positions(max_heaps, max_size):
        moves = legal_moves(p, rules)
        child_values = [solver.grundy(apply_move(p, m, rules)) for m in moves]
        if solver.grundy(p) != 0:
            if 0 not in child_values:
                return False, f"no zeroing move from {p.heaps}"
        elif moves and 0 in child_values:
            return False, f"zero position {p.heaps} has a zeroing move"
    return True, "control lemma holds"


KAYLES_ROW_VALUES = (0, 1, 2, 3, 1, 4, 3, 2, 1)


def check_kayles_values() -> tuple[bool, str]:
    rules = GameRules.kayles(8)
    got = tuple(
        games.grundy(Position((r,), rules.game_id), rules) for r in range(9)
    )
    return got == KAYLES_ROW_VALUES, f"rows 0..8 -> {got}"


def check_winning_moves(max_heaps: int = 4, max_size: int = 8) -> tuple[bool, str]:
    rules = GameRules.nim(max_size)
    solver = games.GrundySolver(rules)
    for p in _nim_positions(max_heaps, max_size):
        wins = nimber.winning_moves(p)
        if bool(wins) != (nimber.nim_sum(p) != 0):
            return False, f"winning_moves mischaracterizes {p.heaps}"
        legal = set(legal_moves(p, rules))
        expected = {
            m for m in legal if nimber.nim_sum(apply_move(p, m, rules)) == 0
        }
        if set(wins) != expected:
            return False, f"winning_moves wrong at {p.heaps}"
        for m in wins:
            child = apply_move(p, m, rules)
            if solver.win_loss(child) is not games.WinLoss.LOSS:
                return False, f"winning move {m} from {p.heaps} does not win"
    return True, "winning-move characterization holds"


def check_nimber_diff_identity(
    samples: int = 10_000,
    ks: tuple[int, ...] = (1, 2, 3),
    max_size: int = 255,
    seed: int = 20_240_101,
) -> tuple[bool, str]:
    rng = random.Random(seed)
    for _ in range(samples):
        n = rng.randint(max(ks), 12)
        base = tuple(rng.randint(0, max_size) for _ in range(n))
        k = ks[rng.randrange(len(ks))]
        other = list(base)
        for i in rng.sample(range(n), k):
            other[i] = rng.randint(0, max_size)
        p1, p2 = Position(base), Position(tuple(other))
        got = nimber.nimber_diff(p1, p2, k)
        if got != nimber.nim_sum(p1) ^ nimber.nim_sum(p2):
            return False, f"nimber_diff wrong for {base} vs {tuple(other)}"
    # the contract must be enforced, not silently computed through
    p1 = Position((1, 2, 3, 4))
    p2 = Position((0, 0, 0, 0))
    try:
        nimber.nimber_diff(p1, p2, 2)
        return False, "contract violation was not raised"
    except ContractViolationError:
        pass
    return True, f"{samples} samples agree; contract enforced"


# ---------------------------------------------------------------------------
# circuit checks


def _random_diff_rows(rng, enc2: PositionEncoding, k: int, rows: int, force_over=False):
    """Random encoded position pairs differing in <= k heaps (or > k when forced)."""
    n, l = enc2.n, enc2.l
    max_val = (1 << l) - 1
    bits = np.empty((rows, enc2.total_bits), dtype=np.uint8)
    pairs = []
    for r in range(rows):
        base = tuple(rng.randint(0, max_val) for _ in range(n))
        other = list(base)
        if force_over:
            for i in rng.sample(range(n), k + 1):
                v = rng.randint(0, max_val)
                while v == base[i]:
                    v = rng.randint(0, max_val)
                other[i] = v
        else:
            for i in rng.sample(range(n), rng.randint(0, k)):
                other[i] = rng.randint(0, max_val)
        pairs.append((base, tuple(other)))
        bits[r] = enc2.encode([base, tuple(other)])
    return pairs, bits


def _nimber_diff_mismatches(
    circuit: Circuit, enc2: PositionEncoding, k: int, samples: int, rng: random.Random
) -> tuple[list, int]:
    """Check a circuit against the local identity on random rows.

    Draws ``samples`` position pairs differing in at most ``k`` heaps and,
    when ``k < n``, a tenth as many differing in more.  Returns the pairs
    whose value bits or validity bit are wrong, and the number of
    over-changed pairs whose validity bit is set.
    """
    l = enc2.l
    pairs, bits = _random_diff_rows(rng, enc2, k, samples)
    wrong = []
    for (p1, p2), row in zip(pairs, circuit.evaluate_batch(bits)):
        expected = 0
        for a, b in zip(p1, p2):
            expected ^= a ^ b
        if decode_value(row[:l]) != expected or row[l] != 1:
            wrong.append((p1, p2))
    endorsed = 0
    if k < enc2.n:
        _, over_bits = _random_diff_rows(rng, enc2, k, max(1, samples // 10), force_over=True)
        endorsed = int(np.count_nonzero(circuit.evaluate_batch(over_bits)[:, l]))
    return wrong, endorsed


def _depth_and_size_sweep(
    build: Callable[[int], Circuit], widths: tuple[int, ...], exponent: int, slack: int
) -> tuple[bool, str]:
    """Constant depth and polynomial size across a family of circuits.

    ``build(n)`` makes the circuit of width n.  Its depth must be the same
    at every width, and its size at most ``slack * C * n**exponent``, where
    C = size / n**exponent at the smallest width.  A build refused for a
    threshold above the cap or a negative weight is a failure, not an error.
    """
    widths = tuple(sorted(widths))
    metrics = []
    for n in widths:
        try:
            metrics.append(build(n).metrics())
        except (ThresholdCapError, UnsupportedModelError) as exc:
            return False, f"n={n}: {exc}"
    depths = {n: m.depth for n, m in zip(widths, metrics)}
    if len(set(depths.values())) != 1:
        return False, f"depth varies with n: {depths}"
    base_n, base_size = widths[0], metrics[0].size
    for n, m in zip(widths, metrics):
        # size / n^e > slack * base_size / base_n^e, in integers
        if m.size * base_n**exponent > slack * base_size * n**exponent:
            coeff = base_size / base_n**exponent
            return False, (
                f"size {m.size} at n={n} exceeds {slack} * {coeff:.3f} * n^{exponent}"
            )
    return True, f"depth {metrics[0].depth} for n in {widths}"


def check_nimber_diff_circuit(
    samples_per_config: int = 2_500,
    configs: tuple[tuple[int, int, int], ...] = ((2, 3, 2), (4, 4, 2), (6, 6, 1), (8, 8, 2)),
    depth_sweep: tuple[int, ...] = (2, 4, 8, 16),
    seed: int = 7_311,
) -> tuple[bool, str]:
    """Circuit output (value bits plus validity) equals the local identity;
    depth is n-independent; size stays within the quadratic fit."""
    rng = random.Random(seed)
    total = 0
    for n, l, k in configs:
        circuit = build_nimber_diff_circuit(n, l, k)
        enc2 = PositionEncoding(n, l, frames=2)
        wrong, endorsed = _nimber_diff_mismatches(circuit, enc2, k, samples_per_config, rng)
        if wrong:
            p1, p2 = wrong[0]
            return False, f"value mismatch at n={n} l={l} for {p1} vs {p2}"
        if endorsed:
            return False, f"validity bit endorses an over-changed pair at n={n}"
        total += samples_per_config
    ok, detail = _depth_and_size_sweep(
        lambda n: build_nimber_diff_circuit(n, 4, 2), depth_sweep, exponent=2, slack=1
    )
    if not ok:
        return False, detail
    return True, f"{total} samples agree; {detail}"


def check_threshold_popcount(max_n: int = 12, max_t: int = 3) -> tuple[bool, str]:
    for n in (3, 5, 8, max_n):
        rows = np.array(
            [[(x >> i) & 1 for i in range(n)] for x in range(1 << n)], dtype=np.uint8
        )
        counts = rows.sum(axis=1)
        for t in range(min(n, max_t) + 1):
            out = threshold_at_least(n, t).evaluate_batch(rows)[:, 0]
            if not np.array_equal(out, (counts >= t).astype(np.uint8)):
                return False, f"threshold({n},{t}) disagrees with popcount"
    return True, "threshold gadgets equal popcount predicates"


def _random_circuit(rng: random.Random) -> Circuit:
    n_inputs = rng.randint(2, 6)
    gates = [Gate("INPUT") for _ in range(n_inputs)]
    gates.append(Gate("CONST0"))
    gates.append(Gate("CONST1"))
    for _ in range(rng.randint(5, 40)):
        kind = rng.choice(("AND", "OR", "NOT"))
        if kind == "NOT":
            args = (rng.randrange(len(gates)),)
        else:
            fan = rng.randint(1, min(5, len(gates)))
            args = tuple(rng.sample(range(len(gates)), fan))
        gates.append(Gate(kind, args))
    n_out = rng.randint(1, 3)
    outputs = tuple(rng.randrange(len(gates)) for _ in range(n_out))
    return Circuit(gates, outputs, n_inputs)


def check_serialization_roundtrip(circuits: int = 25, seed: int = 90) -> tuple[bool, str]:
    rng = random.Random(seed)
    for _ in range(circuits):
        c = _random_circuit(rng)
        back = parse(serialize(c))
        if back.metrics() != c.metrics():
            return False, "metrics changed across a round trip"
        rows = np.array(
            [[rng.randint(0, 1) for _ in range(c.input_arity)] for _ in range(100)],
            dtype=np.uint8,
        )
        if not np.array_equal(c.evaluate_batch(rows), back.evaluate_batch(rows)):
            return False, "outputs changed across a round trip"
        if serialize(back) != serialize(c):
            return False, "serialization is not canonical"
    return True, f"{circuits} circuits round-trip exactly"


# ---------------------------------------------------------------------------
# model checks


def _random_network(rng: random.Random) -> ThresholdNetwork:
    kind = rng.choice((ModelKind.NN, ModelKind.RNN, ModelKind.LTST))
    L = rng.randint(1, 3)
    widths = tuple(rng.randint(1, 4) for _ in range(L + 1))
    steps = 1 if kind is ModelKind.NN else rng.randint(1, 3)
    window = rng.randint(1, 2) if kind is ModelKind.LTST else 1

    def numerator():
        roll = rng.random()
        if roll < 0.55:
            return 0
        if roll < 0.85:
            return 1
        if roll < 0.96:
            return 2
        return 3

    weights = tuple(
        tuple(tuple(numerator() for _ in range(widths[l + 1])) for _ in range(widths[l]))
        for l in range(L)
    )
    thresholds = tuple(
        tuple(rng.randint(-1, 3) for _ in range(widths[l + 1])) for l in range(L)
    )
    recurrent = None
    if kind is ModelKind.RNN:
        recurrent = tuple(
            tuple(tuple(numerator() for _ in range(widths[l + 1])) for _ in range(widths[l + 1]))
            for l in range(L)
        )
    elif kind is ModelKind.LTST:
        recurrent = tuple(
            tuple(tuple(numerator() for _ in range(window)) for _ in range(widths[l + 1]))
            for l in range(L)
        )
    return ThresholdNetwork(
        kind=kind,
        widths=widths,
        q0=rng.randint(1, 4),
        p_bound=3,
        weights=weights,
        thresholds=thresholds,
        recurrent=recurrent,
        steps=steps,
        window=window,
    )


def _model_inputs(net: ThresholdNetwork, rng: random.Random, count: int):
    """All inputs when the total width is small, otherwise random draws."""
    steps = net.steps if net.kind is not ModelKind.NN else 1
    total_bits = steps * net.input_width

    def split(bits):
        frames = [
            tuple(bits[t * net.input_width : (t + 1) * net.input_width])
            for t in range(steps)
        ]
        return frames[0] if net.kind is ModelKind.NN else tuple(frames)

    if total_bits <= 10:
        for x in range(1 << total_bits):
            yield split([(x >> i) & 1 for i in range(total_bits)])
    else:
        for _ in range(count):
            yield split([rng.randint(0, 1) for _ in range(total_bits)])


def _flat_bits(net: ThresholdNetwork, model_input) -> list[int]:
    if net.kind is ModelKind.NN:
        return list(model_input)
    return [b for frame in model_input for b in frame]


def check_compiler_differential(
    models: int = 200, inputs_per_model: int = 100, seed: int = 515
) -> tuple[bool, str]:
    """Compiled circuits agree with exact evaluation; depth obeys the
    2 * layers * steps bound."""
    rng = random.Random(seed)
    built = 0
    while built < models:
        net = _random_network(rng)
        try:
            circuit = compile_to_ac0(net)
        except GateBudgetError:
            continue  # over-budget draws are resampled, the space is bounded
        steps = net.steps if net.kind is not ModelKind.NN else 1
        if circuit.metrics().depth > 2 * net.L * steps:
            return False, f"compiled depth breaks the 2*L*T bound for {net.kind.value}"
        for model_input in _model_inputs(net, rng, inputs_per_model):
            expected = eval_model(net, model_input)
            got = circuit.evaluate(_flat_bits(net, model_input))
            if tuple(got) != tuple(expected):
                return False, f"differential mismatch for a {net.kind.value} network"
        built += 1
    return True, f"{models} networks agree with their compiled circuits"


def _or_family(n: int) -> ThresholdNetwork:
    return ThresholdNetwork(
        kind=ModelKind.NN,
        widths=(n, 1),
        q0=1,
        p_bound=1,
        weights=((tuple([1]),) * n,),
        thresholds=((1,),),
    )


def _threshold2_family(n: int) -> ThresholdNetwork:
    return ThresholdNetwork(
        kind=ModelKind.NN,
        widths=(n, 1),
        q0=1,
        p_bound=2,
        weights=((tuple([1]),) * n,),
        thresholds=((2,),),
    )


def check_compiler_depth_independence(sweep=(4, 8, 16, 32)) -> tuple[bool, str]:
    """Compiled families keep one depth, and their size stays within twice
    the fit at n^e, e the family's largest threshold numerator.  The factor
    2 absorbs the lower-order terms of C(n, e): a fit at small n undershoots."""
    for family, label in ((_or_family, "or"), (_threshold2_family, "threshold-2")):
        exponent = max(
            max(th, 1) for n in sweep for layer in family(n).thresholds for th in layer
        )
        ok, detail = _depth_and_size_sweep(
            lambda n: compile_to_ac0(family(n)), sweep, exponent, slack=2
        )
        if not ok:
            return False, f"{label} family: {detail}"
    return True, "compiled depth is width-independent across sweeps"


def check_exact_threshold_boundary() -> tuple[bool, str]:
    """A weighted sum that exactly meets its threshold fires; a float
    re-implementation of the same unit underflows and does not."""
    n, q0 = 5, 3
    net = ThresholdNetwork(
        kind=ModelKind.NN,
        widths=(n, 1),
        q0=q0,
        p_bound=n,
        weights=(((1,),) * n,),
        thresholds=((n,),),  # threshold value 5/3, hit exactly by all-ones
    )
    exact = eval_model(net, (1,) * n)[0]
    float_sum = 0.0
    for _ in range(n):
        float_sum += 1 / q0  # accumulates 1 ulp short of 5/3
    float_fires = 1 if float_sum - n / q0 >= 0 else 0
    return (
        exact == 1 and float_fires == 0,
        f"exact={exact}, float reimplementation={float_fires}",
    )


# ---------------------------------------------------------------------------
# validator circuit


def check_validator_circuit(
    plans: tuple[tuple[int, int, int], ...] = ((4, 3, 3_000), (5, 4, 3_000), (6, 4, 4_000)),
    k_max: int = 2,
    seed: int = 40_912,
) -> tuple[bool, str]:
    """Validator scores equal the semantic predicate
    "local diff of (P1, Q1) equals local diff of (current, candidate)"."""
    rng = random.Random(seed)
    total = 0
    for n, l, rows in plans:
        enc = PositionEncoding(n, l, frames=3)
        circuit = build_move_validator_circuit(enc, k_max)
        max_val = (1 << l) - 1
        bits = np.empty((rows, enc.total_bits), dtype=np.uint8)
        frames = []
        for r in range(rows):
            p1 = tuple(rng.randint(0, max_val) for _ in range(n))
            q1 = list(p1)
            for i in rng.sample(range(n), rng.randint(0, k_max)):
                q1[i] = rng.randint(0, max_val)
            cur = tuple(rng.randint(0, max_val) for _ in range(n))
            frames.append((p1, tuple(q1), cur))
            bits[r] = enc.encode([p1, tuple(q1), cur])
        out = circuit.evaluate_batch(bits)
        for (p1, q1, cur), row in zip(frames, out):
            d = 0
            for a, b in zip(p1, q1):
                d ^= a ^ b
            for h in range(n):
                for v in range(1 << l):
                    expected = 1 if (cur[h] ^ v) == d else 0
                    if row[enc.candidate_slot(h, v)] != expected:
                        return (
                            False,
                            f"validator differs at n={n} l={l} {p1}/{q1}/{cur} slot ({h},{v})",
                        )
        total += rows
    return True, f"{total} instances agree across {len(plans)} layouts"


# ---------------------------------------------------------------------------
# agent mastery


def check_preserving_reply_lemma(max_heaps: int = 3, max_size: int = 6) -> tuple[bool, str]:
    """From a zero position, every opponent move has a preserving reply
    that restores the zero value."""
    rules = GameRules.nim(max_size)
    for pb in _nim_positions(max_heaps, max_size):
        if nimber.nim_sum(pb) != 0:
            continue
        for m in legal_moves(pb, rules):
            q = apply_move(pb, m, rules)
            reply = preserving_reply(pb, q)
            if reply is None:
                return False, f"no preserving reply for {pb.heaps} -> {q.heaps}"
            if nimber.nim_sum(apply_move(q, reply, rules)) != 0:
                return False, f"reply from {q.heaps} does not restore zero"
    return True, "zero positions always have a restoring reply"


def check_strong_mastery_exhaustive(
    max_heaps: int = 3, max_size: int = 6
) -> tuple[bool, str]:
    """The multi-frame agent beats every opposing line from every winning
    position at this scale."""
    rules = GameRules.nim(max_size)
    agent = MultiFrameAgent()
    starts = 0
    for p in _nim_positions(max_heaps, max_size):
        if nimber.nim_sum(p) == 0 or not any(p.heaps):
            continue
        report = exhaustive_adversary(rules, p, agent, role="first")
        if not report.complete or not report.agent_always_wins:
            return False, f"agent loses a line from {p.heaps}: {report.counterexample}"
        starts += 1
    return True, f"all {starts} winning starts are won against every line"


def check_scaled_mastery(
    games_per_opponent: int = 500,
    heap_count: int = 7,
    max_size: int = 15,
    seed: int = 606_060,
) -> tuple[bool, str]:
    rules = GameRules.nim(max_size)
    agent = MultiFrameAgent()
    opponents = {"random": RandomAgent(rules), "oracle": OracleAgent(rules)}
    rng = random.Random(seed)
    played = 0
    for label, opponent in sorted(opponents.items()):
        for g in range(games_per_opponent):
            while True:
                heaps = tuple(rng.randint(1, max_size) for _ in range(heap_count))
                if nimber.nim_sum(Position(heaps)) != 0:
                    break
            record = play_match(
                rules, Position(heaps), agent, opponent, seed=stable_mix(seed, played)
            )
            if record.winner != "first":
                return False, f"lost to {label} from {heaps} (game {g})"
            if _preservation_failures(record):
                return False, f"non-preserving move vs {label} from {heaps}"
            played += 1
    return True, (
        f"{played} seeded games on heaps of 1..{max_size} won without preservation failures"
    )


def _all_green(results) -> tuple[bool, str]:
    """The first failing ``(ok, detail)`` of ``results``, else every
    detail joined."""
    details = []
    for ok, detail in results:
        if not ok:
            return ok, detail
        details.append(detail)
    return True, "; ".join(details)


def _missed_a_win(before: tuple[int, ...], after: tuple[int, ...] | None) -> bool:
    """The never-miss rule on heap tuples: the agent faced a non-zero NIM sum and left one."""
    return after is not None and (
        nimber.nim_sum(Position(before)) != 0 and nimber.nim_sum(Position(after)) != 0
    )


def check_mirror_strategies_exhaustive(k_values=(1, 2)) -> tuple[bool, str]:
    """From its start each strategy wins every line in the first seat, and
    in the second seat zeroes every non-zero position it faces."""
    rules = GameRules.nim(3)
    for k in k_values:
        start71 = Position((1,) * (2 * k) + (2,))
        start72 = Position((2,) * (2 * k) + (3,))
        for name, start, agent, role in (
            ("mirror71", start71, Mirror71Agent(k), "first"),
            ("mirror71", start71, Mirror71Agent(k), "second"),
            ("mirror72", start72, Mirror72Agent(k, "first"), "first"),
            ("mirror72", start72, Mirror72Agent(k, "second"), "second"),
        ):
            if role == "first":
                report = exhaustive_adversary(rules, start, agent, role)
            else:
                report = _adversary_walk(rules, start, agent, role, 500_000, _missed_a_win)
            label = f"{name} k={k} {role} role"
            if not report.complete:
                return False, f"{label}: no verdict within {report.nodes} nodes"
            if not report.agent_always_wins:
                broke = "loses" if role == "first" else "misses a win"
                return False, f"{label} {broke} on the line {report.counterexample}"
    return True, f"both strategies verified exhaustively for k in {tuple(k_values)}"


def check_mirror_strategies_random(
    k_values=tuple(range(1, 11)), games: int = 200, seed: int = 11_422
) -> tuple[bool, str]:
    rules = GameRules.nim(3)
    for k in k_values:
        start71 = Position((1,) * (2 * k) + (2,))
        start72 = Position((2,) * (2 * k) + (3,))
        opponent = RandomAgent(rules)
        for g in range(games):
            record = play_match(
                rules, start71, Mirror71Agent(k), opponent, seed=seed + 31 * k + g
            )
            if record.winner != "first":
                return False, f"mirror71 k={k} lost seeded game {g}"
            record = play_match(
                rules, start72, Mirror72Agent(k, "first"), opponent, seed=seed + 77 * k + g
            )
            if record.winner != "first":
                return False, f"mirror72 k={k} (first) lost seeded game {g}"
            # second role: must win exactly the games where the opponent blundered
            record = play_match(
                rules, start72, opponent, Mirror72Agent(k, "second"), seed=seed + 99 * k + g
            )
            blundered = any(
                d.mover == "first" and d.nim_sum_after != 0 for d in record.diagnostics
            )
            if blundered and record.winner != "second":
                return False, f"mirror72 k={k} (second) missed a win in game {g}"
            if not blundered and record.winner != "first":
                return False, f"mirror72 k={k} (second) won impossibly in game {g}"
    return True, f"seeded mirror games pass for k in {k_values[0]}..{k_values[-1]}"


def check_experiment_determinism() -> tuple[bool, str]:
    with tempfile.TemporaryDirectory() as tmp:
        cfg = dict(
            rules=GameRules.nim(7),
            heap_counts=[3],
            max_heap_size=7,
            agents=["oracle", "random"],
            opponent="oracle",
            games_per_cell=3,
            seed=99,
        )
        rows_a = run_experiment(ExperimentConfig(**cfg, out_dir=f"{tmp}/a"))
        rows_b = run_experiment(ExperimentConfig(**cfg, out_dir=f"{tmp}/b"))
        csv_a = (Path(f"{tmp}/a/results.csv").read_bytes(), rows_to_csv(rows_a))
        csv_b = (Path(f"{tmp}/b/results.csv").read_bytes(), rows_to_csv(rows_b))
        if csv_a != csv_b:
            return False, "identical configs produced different CSV bytes"
        json_a, json_b = (Path(f"{tmp}/{d}/results.json").read_bytes() for d in "ab")
        if json_a != json_b:
            return False, "identical configs produced different JSON bytes"
    return True, "tournament output is byte-identical across runs"


# ---------------------------------------------------------------------------
# suite assembly


@dataclass
class VerifyResult:
    name: str
    ok: bool
    detail: str


@dataclass
class VerifyReport:
    scale: str
    results: list[VerifyResult]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def summary_lines(self) -> list[str]:
        lines = [
            f"{'PASS' if r.ok else 'FAIL'} {r.name}: {r.detail}" for r in self.results
        ]
        lines.append(
            f"{'PASS' if self.ok else 'FAIL'} verify ({self.scale}): "
            f"{sum(r.ok for r in self.results)}/{len(self.results)} checks green"
        )
        return lines


def _checks(scale: str) -> list[tuple[str, Callable[[], tuple[bool, str]]]]:
    extended = scale == "extended"
    diff_samples = 10_000 if extended else 4_000
    diff_ks = (1, 2, 3) if extended else (1, 2)
    circuit_samples = 2_500 if extended else 800
    circuit_configs = (
        ((2, 3, 2), (4, 4, 2), (6, 6, 1), (8, 8, 2), (5, 4, 3))
        if extended
        else ((2, 3, 2), (4, 4, 2), (6, 6, 1), (8, 8, 2))
    )
    validator_plans = (
        ((4, 3, 3_000), (5, 4, 3_000), (6, 4, 4_000))
        if extended
        else ((4, 3, 800), (6, 4, 1_200))
    )
    model_count = 200 if extended else 60
    # (games per opponent, largest heap): the search costs probes by the
    # heaps' bit length, so large heaps are as cheap as small ones
    mastery_plans = ((500, 15), (100, 65_535)) if extended else ((40, 15),)
    mirror_games = 200 if extended else 25
    return [
        ("worked-example", check_worked_example),
        ("grundy-equals-nim-sum", check_grundy_vs_nim_sum),
        ("grundy-definition", check_grundy_definition),
        ("strategy-control", check_strategy_control),
        ("kayles-row-values", check_kayles_values),
        ("winning-moves", check_winning_moves),
        (
            "nimber-diff-identity",
            lambda: check_nimber_diff_identity(diff_samples, diff_ks),
        ),
        (
            "nimber-diff-circuit",
            lambda: check_nimber_diff_circuit(circuit_samples, circuit_configs),
        ),
        ("threshold-popcount", check_threshold_popcount),
        ("serialization-roundtrip", check_serialization_roundtrip),
        (
            "model-compiler-differential",
            lambda: check_compiler_differential(model_count, 50 if not extended else 100),
        ),
        ("model-depth-independence", check_compiler_depth_independence),
        ("exact-threshold-boundary", check_exact_threshold_boundary),
        ("move-validator-circuit", lambda: check_validator_circuit(validator_plans)),
        ("preserving-reply-lemma", check_preserving_reply_lemma),
        ("strong-mastery-exhaustive", check_strong_mastery_exhaustive),
        (
            "scaled-mastery",
            lambda: _all_green(check_scaled_mastery(g, max_size=m) for g, m in mastery_plans),
        ),
        ("mirror-strategies-exhaustive", check_mirror_strategies_exhaustive),
        (
            "mirror-strategies-random",
            lambda: check_mirror_strategies_random(games=mirror_games),
        ),
        ("experiment-determinism", check_experiment_determinism),
    ]


def run_checks(names: list[str] | None = None, scale: str = "desk") -> VerifyReport:
    """Run the checks named in ``names``, or every check when it is None.

    Raises ``ValueError`` for an unknown scale or check name, so a typo
    cannot pass as an empty green report.
    """
    if scale not in ("desk", "extended"):
        raise ValueError("scale must be 'desk' or 'extended'")
    checks = _checks(scale)
    if names is not None:
        unknown = sorted(set(names) - {name for name, _ in checks})
        if unknown:
            raise ValueError(f"unknown check names: {', '.join(unknown)}")
    results = []
    for name, fn in checks:
        if names is not None and name not in names:
            continue
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashing check is a failing check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(VerifyResult(name, ok, detail))
    return VerifyReport(scale, results)

