"""Acceptance gate: one test per criterion, at its stated scale.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS lines and the recorded demonstration table.
"""

import time

import pytest

from nimcore.games import GameRules, Position
from nimcore.harness import ExperimentConfig, RolloutBudget, rows_to_csv, run_experiment
from nimcore.nimber import nim_sum
from nimcore.verify import (
    check_compiler_depth_independence,
    check_compiler_differential,
    check_grundy_definition,
    check_grundy_vs_nim_sum,
    check_mirror_strategies_exhaustive,
    check_mirror_strategies_random,
    check_nimber_diff_circuit,
    check_scaled_mastery,
    check_strong_mastery_exhaustive,
    check_validator_circuit,
)


def report(number, name, ok, detail, started):
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number} [{name}]: {'PASS' if ok else 'FAIL'} "
          f"({detail}; {elapsed:.1f}s)")
    assert ok, detail


def test_acceptance_1_worked_example():
    t = time.perf_counter()
    value = nim_sum(Position((3, 5, 7)))
    report(1, "worked example", value == 1, f"nim_sum((3,5,7)) = {value}", t)


def test_acceptance_2_corollary_equivalence():
    t = time.perf_counter()
    ok, detail = check_grundy_vs_nim_sum(max_heaps=4, max_size=8)
    report(2, "grundy = nim-sum = win/loss, exhaustive", ok, detail, t)


def test_acceptance_2b_grundy_definition():
    t = time.perf_counter()
    ok, detail = check_grundy_definition(max_kayles_pins=12)
    report("2b", "grundy = mex of successors on NIM, subtraction and Kayles grids", ok, detail, t)


def test_acceptance_3_nimber_diff_circuit():
    t = time.perf_counter()
    ok, detail = check_nimber_diff_circuit(
        samples_per_config=2_500,
        configs=((2, 3, 2), (4, 4, 2), (6, 6, 1), (8, 8, 2)),
        depth_sweep=(2, 4, 8, 16),
    )
    report(3, "local nimber-difference circuit", ok, detail, t)


def test_acceptance_4_model_compiler():
    t = time.perf_counter()
    ok, detail = check_compiler_differential(models=200, inputs_per_model=100)
    if ok:
        ok, detail = check_compiler_depth_independence()
    report(4, "threshold-network compiler", ok, detail, t)


def test_acceptance_5_strong_mastery():
    t = time.perf_counter()
    ok, detail = check_strong_mastery_exhaustive(max_heaps=3, max_size=6)
    if ok:
        ok, detail2 = check_scaled_mastery(
            games_per_opponent=500, heap_count=7, max_size=15
        )
        detail = f"{detail}; {detail2}"
    report(5, "strong mastery", ok, detail, t)


def test_acceptance_6_mirror_strategies():
    t = time.perf_counter()
    ok, detail = check_mirror_strategies_exhaustive(k_values=(1, 2))
    if ok:
        ok, detail2 = check_mirror_strategies_random(
            k_values=tuple(range(1, 11)), games=200
        )
        detail = f"{detail}; {detail2}"
    report(6, "paired-heap strategies", ok, detail, t)


def test_acceptance_7_move_validator():
    t = time.perf_counter()
    ok, detail = check_validator_circuit(
        plans=((4, 3, 3_000), (5, 4, 3_000), (6, 4, 4_000)), k_max=2
    )
    report(7, "move-validator circuit", ok, detail, t)


def test_acceptance_8_determinism(tmp_path):
    t = time.perf_counter()
    base = dict(
        rules=GameRules.nim(15),
        heap_counts=[3, 5],
        max_heap_size=15,
        agents=["oracle", "random", "multiframe"],
        opponent="oracle",
        games_per_cell=4,
        seed=2024,
        budget=RolloutBudget(samples=2),
    )
    run_experiment(ExperimentConfig(**base, out_dir=str(tmp_path / "a")))
    run_experiment(ExperimentConfig(**base, out_dir=str(tmp_path / "b")))
    a, b = (
        [(tmp_path / d / name).read_bytes() for name in ("results.csv", "results.json")]
        for d in "ab"
    )
    report(
        8,
        "byte-identical tournaments",
        a == b,
        f"{len(a[0])} CSV and {len(a[1])} JSON bytes compared",
        t,
    )


def test_acceptance_9_demonstration(tmp_path):
    """Recorded, not pass/fail: the history-free baseline collapses as the
    board grows while the multi-frame agent stays at 100%."""
    t = time.perf_counter()
    tables = {}
    for opponent in ("oracle", "random"):
        cfg = ExperimentConfig(
            rules=GameRules.nim(15),
            heap_counts=[3, 5, 7],
            max_heap_size=15,
            agents=["multiframe", "singleframe-heuristic"],
            opponent=opponent,
            games_per_cell=20,
            seed=424_242,
            budget=RolloutBudget(samples=2),
            out_dir=str(tmp_path / opponent),
        )
        tables[opponent] = run_experiment(cfg)
    print()
    for opponent, rows in tables.items():
        print(f"--- baseline vs multiframe, {opponent} opponent, winning starts ---")
        print(rows_to_csv(rows), end="")
    multi = {r.heap_count: r.win_rate for r in tables["oracle"] if r.agent == "multiframe"}
    single = {
        r.heap_count: r.win_rate
        for r in tables["oracle"]
        if r.agent == "singleframe-heuristic"
    }
    recorded = all(single[h] <= multi[h] for h in (5, 7))
    elapsed = time.perf_counter() - t
    print(
        f"ACCEPTANCE 9 [single-frame deterioration]: RECORDED "
        f"(multiframe {multi}, single-frame {single}; {elapsed:.1f}s)"
    )
    # the multiframe rows are load-bearing; the baseline rows are the exhibit
    assert all(rate == 1.0 for rate in multi.values())
    assert recorded
