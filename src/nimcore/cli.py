"""Command-line interface.

Subcommands: ``play`` one match, ``tournament`` from a JSON config,
``compile-model`` a network description into circuit text,
``verify-circuit`` a circuit file against the semantic oracle, and
``verify`` the whole invariant suite.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .circuits.encoding import PositionEncoding
from .circuits.ir import load_circuit, save_circuit
from .errors import NimcoreError
from .games import Position
from .harness import (
    ExperimentConfig,
    make_agent,
    parse_rules,
    play_match,
    rows_to_csv,
    run_experiment,
)
from .models import compile_to_ac0, load_network
from .verify import _nimber_diff_mismatches, run_checks


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nimcore",
        description="Impartial games, constant-depth circuits and preserving rollouts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    play = sub.add_parser("play", help="play one match between two agents")
    play.add_argument("--rules", default="nim", help="nim | kayles | subtraction:1,2")
    play.add_argument("--start", required=True, help="comma-separated heap sizes, e.g. 3,5,7")
    play.add_argument("--first", required=True, help="agent spec for the first mover")
    play.add_argument("--second", required=True, help="agent spec for the second mover")
    play.add_argument("--seed", type=int, default=0)
    play.add_argument("--max-heap-size", type=int, default=None)
    play.add_argument("--record", default=None, help="write the match record as JSON")

    tour = sub.add_parser("tournament", help="run a seeded experiment sweep")
    tour.add_argument("--config", required=True, help="JSON experiment config")
    tour.add_argument("--out-dir", default=None, help="override the config's output dir")

    comp = sub.add_parser("compile-model", help="compile a model JSON file to circuit text")
    comp.add_argument("model", help="model description (JSON)")
    comp.add_argument("-o", "--output", required=True, help="circuit text output path")
    comp.add_argument("--threshold-cap", type=int, default=4)
    comp.add_argument("--gate-budget", type=int, default=1_000_000)

    vc = sub.add_parser("verify-circuit", help="check a circuit file against an oracle")
    vc.add_argument("circuit", help="circuit text file")
    vc.add_argument("--against", required=True, choices=["nimber-diff"])
    vc.add_argument("--n", type=int, required=True, help="heaps per position")
    vc.add_argument("--l", type=int, required=True, help="bits per heap")
    vc.add_argument("--k", type=int, default=2, help="changed-heap bound, 0..n")
    vc.add_argument("--samples", type=int, default=1000, help="position pairs to draw, >= 1")
    vc.add_argument("--seed", type=int, default=0)

    ver = sub.add_parser("verify", help="run the cross-module invariant suite")
    ver.add_argument("--scale", default="desk", choices=["desk", "extended"])
    return parser


def _cmd_play(args) -> int:
    start = Position.from_text(args.start)
    max_size = args.max_heap_size
    if max_size is None:
        max_size = max(255, max(start.heaps))
    rules = parse_rules(args.rules, max_size)
    start = Position(start.heaps, rules.game_id)
    first = make_agent(args.first, rules, heap_count=len(start.heaps))
    second = make_agent(args.second, rules, heap_count=len(start.heaps))
    record = play_match(rules, start, first, second, seed=args.seed)
    pos = start
    print(f"start {pos.to_text()}  ({rules.game_id}, seed {args.seed})")
    from .games import apply_move

    for i, move in enumerate(record.moves):
        seat = "first" if i % 2 == 0 else "second"
        pos = apply_move(pos, move, rules)
        print(f"{i + 1:3d}. {seat:6s} heap {move.heap_index} -> {move.new_count}"
              + (f" +row {move.split_count}" if move.split_count else "")
              + f"   {pos.to_text()}")
    if record.forfeit:
        print(f"forfeit: {record.forfeit}")
    print(f"winner: {record.winner} ({record.first if record.winner == 'first' else record.second})")
    if args.record:
        with open(args.record, "w") as fh:
            json.dump(record.to_json(), fh, indent=2)
        print(f"record written to {args.record}")
    return 0


def _cmd_tournament(args) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    if args.out_dir:
        cfg.out_dir = args.out_dir
    rows = run_experiment(cfg)
    sys.stdout.write(rows_to_csv(rows))
    if cfg.out_dir:
        print(f"results written to {cfg.out_dir}/results.csv and results.json")
    return 0


def _cmd_compile_model(args) -> int:
    net = load_network(args.model)
    circuit = compile_to_ac0(
        net, threshold_cap=args.threshold_cap, gate_budget=args.gate_budget
    )
    save_circuit(circuit, args.output)
    m = circuit.metrics()
    print(
        f"compiled {net.kind.value} (L={net.L}, T={net.steps}) to {args.output}: "
        f"depth {m.depth}, size {m.size}, max fan-in {m.fan_in_max}"
    )
    return 0


def _cmd_verify_circuit(args) -> int:
    n, l, k = args.n, args.l, args.k
    if args.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
    if not 0 <= k <= n:
        raise ValueError(f"--k must be in 0..{n} (0..--n), got {k}")
    circuit = load_circuit(args.circuit)
    enc2 = PositionEncoding(n, l, frames=2)
    if circuit.input_arity != enc2.total_bits or len(circuit.outputs) != l + 1:
        print(
            f"FAIL shape: circuit has {circuit.input_arity} inputs / "
            f"{len(circuit.outputs)} outputs, expected {enc2.total_bits} / {l + 1}"
        )
        return 1
    wrong, endorsed = _nimber_diff_mismatches(
        circuit, enc2, k, args.samples, random.Random(args.seed)
    )
    bad = len(wrong) + endorsed
    if bad:
        print(f"FAIL {bad} mismatches over {args.samples} sampled pairs")
        return 1
    print(f"PASS {args.samples} sampled pairs (n={n}, l={l}, k={k}) match the oracle")
    return 0


def _cmd_verify(args) -> int:
    report = run_checks(None, args.scale)
    for line in report.summary_lines():
        print(line)
    return 0 if report.ok else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "play":
            return _cmd_play(args)
        if args.command == "tournament":
            return _cmd_tournament(args)
        if args.command == "compile-model":
            return _cmd_compile_model(args)
        if args.command == "verify-circuit":
            return _cmd_verify_circuit(args)
        if args.command == "verify":
            return _cmd_verify(args)
    except (NimcoreError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
