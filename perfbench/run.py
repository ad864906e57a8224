"""nimcore benchmark: one command, four workloads, checked outputs.

    python3 perfbench/run.py --workload tournament --seed 1 --seconds 25 --trace 0

Run from the root of a nimcore checkout; the program is imported from
``src/``.  With ``--trace 0`` the last line of standard output is a JSON
object whose metrics are the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` they are the per-layer metrics of a traced run.  The
line before it holds the details: environment, deterministic work counts
per round, error rate, sample counts and any problems found.  The exit
code is 0 only when every output was correct.  Untraced times are scaled
to a reference machine speed by the probe in :mod:`speed`.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

from speed import BURST, SpeedProbe
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("tournament", "certify", "circuits", "solve")
SETUP_REPEATS = 7  # set-ups per run: this process plus six fresh ones
SETUP_TIMEOUT_S = 120


def load_program():
    src = ROOT / "src"
    if not (src / "nimcore" / "__init__.py").is_file():
        sys.exit(f"perfbench: no nimcore sources under {src}")
    sys.path.insert(0, str(src))
    import nimcore  # the import is part of the timed set-up

    return nimcore


def best_of_rounds(rounds, field: str) -> list[int]:
    """Each segment's fastest time over the rounds, in ns.  Every round
    repeats the same work, so a slower repeat measured interference from
    outside the program."""
    return [min(ns for _, ns in segs) for segs in zip(*(getattr(r, field) for r in rounds))]


def median_of_rounds(rounds, field: str, probe: SpeedProbe) -> list[float]:
    """Each segment's median over the rounds, in ns at the reference speed."""
    return [statistics.median(probe.scaled(*seg) for seg in segs)
            for segs in zip(*(getattr(r, field) for r in rounds))]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def fresh_setup_seconds(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-only"],
        capture_output=True,
        text=True,
        timeout=SETUP_TIMEOUT_S,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a fresh process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def layer_metrics(traced: list[dict], untraced_s: float, traced_s: float) -> dict:
    """Per-layer metrics of the traced rounds.  Counts are per round; a self
    time is the least over the traced rounds."""

    def span(name):
        return [s["spans"].get(name, {"calls": 0, "self_ns": 0}) for s in traced]

    def calls(name):
        return span(name)[0]["calls"]

    def self_s(name):
        return min(e["self_ns"] for e in span(name)) / 1e9

    def count(key):
        return traced[0]["counts"][key]

    def per(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    m = {}
    for name in ("games.legal_moves", "games.apply_move", "games.is_terminal",
                 "games.grundy", "games.win_loss", "nimber.winning_moves"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    for kind in ("multiframe", "singleframe-heuristic", "oracle", "random", "mirror71", "mirror72"):
        name = f"agents.{kind}.choose"
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
        durations = [d for e in span(name) for d in e.get("durations_ns", [])]
        m[f"agents.{kind}.choose_ms.p50"] = (
            statistics.median(durations) / 1e6 if durations else 0.0, "ms")
        m[f"agents.{kind}.choose_ms.p99"] = (
            percentile(durations, 0.99) / 1e6 if durations else 0.0, "ms")
    m["agents.multiframe.distinct_ratio"] = (
        per(traced[0]["multiframe_distinct"], calls("agents.multiframe.choose")), "ratio")
    for name in ("circuits.build", "circuits.serialize", "circuits.parse"):
        m[f"{name}.self_s"] = (self_s(name), "s")
    m["circuits.evaluate.calls"] = (calls("circuits.evaluate"), "count")
    m["circuits.evaluate.self_s"] = (self_s("circuits.evaluate"), "s")
    m["circuits.evaluate.ns_per_gate"] = (
        per(self_s("circuits.evaluate") * 1e9, count("evaluate_gates")), "ns")
    m["circuits.evaluate_batch.rows"] = (count("batch_rows"), "count")
    m["circuits.evaluate_batch.self_s"] = (self_s("circuits.evaluate_batch"), "s")
    m["circuits.evaluate_batch.ns_per_gate_row"] = (
        per(self_s("circuits.evaluate_batch") * 1e9, count("batch_gate_rows")), "ns")
    m["models.compile_to_ac0.calls"] = (calls("models.compile_to_ac0"), "count")
    m["models.compile_to_ac0.self_s"] = (self_s("models.compile_to_ac0"), "s")
    m["models.compiled_gates"] = (count("compiled_gates"), "count")
    for name in ("harness.run_experiment", "harness.make_agent", "harness.play_match"):
        m[f"{name}.self_s"] = (self_s(name), "s")
    m["harness.play_match.calls"] = (calls("harness.play_match"), "count")
    m["harness.plies"] = (count("plies"), "count")
    m["harness.forfeits"] = (count("forfeits"), "count")
    m["harness.exhaustive_adversary.calls"] = (calls("harness.exhaustive_adversary"), "count")
    m["harness.exhaustive_adversary.self_s"] = (self_s("harness.exhaustive_adversary"), "s")
    m["harness.adversary.nodes"] = (count("adversary_nodes"), "count")
    m["harness.adversary.nodes_per_start"] = (
        per(count("adversary_nodes"), calls("harness.exhaustive_adversary")), "count")
    m["harness.adversary.incomplete"] = (count("adversary_incomplete"), "count")
    m["trace.overhead"] = (1.0 - untraced_s / traced_s, "ratio")
    return m


def traced_counts(summary: dict) -> dict:
    """The parts of a round summary that must repeat exactly."""
    return {
        "calls": {name: e["calls"] for name, e in sorted(summary["spans"].items())},
        "counts": summary["counts"],
        "multiframe_distinct": summary["multiframe_distinct"],
    }


def measure(workload, seconds: float, tracer, probe) -> list[dict]:
    """Run rounds until ``seconds`` have passed.  With a tracer, odd
    rounds are traced and even rounds are not, so both kinds see the same
    machine state and their gap is the tracing overhead.  With a probe,
    the machine's speed is probed between segments and around the run."""
    if probe is not None:
        probe.run(BURST)
        workload.pace = probe.pace
    rounds = []
    deadline = perf_counter() + seconds
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        gc.collect()
        if traced:
            tracer.reset()
            tracer.install()
        try:
            rnd = workload.run_round()
        except Exception:  # the round's units are all failed; stop the run
            traceback.print_exc()
            n = workload.units_per_round
            rounds.append({"traced": traced, "attempted": n, "failed": n,
                           "problems": ["round raised"], "round": None})
            break
        finally:
            if traced:
                tracer.uninstall()
        check = workload.check(rnd)
        rnd.output = None  # keep memory flat across rounds
        problems = list(check.problems)
        summary = None
        if traced:
            summary = tracer.summarize()
            tracer.reset()
            problems += workload.crosscheck(summary, check.work)
        rounds.append({"traced": traced, "round": rnd, "attempted": rnd.attempted,
                       "failed": check.failed, "work": check.work,
                       "problems": problems, "summary": summary})
        have_untraced = any(not r["traced"] for r in rounds)
        have_traced = tracer is None or any(r["traced"] for r in rounds)
        if perf_counter() >= deadline and have_untraced and have_traced:
            break
    if probe is not None:
        probe.run(BURST)
    return rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print it (used for the setup_s samples)")
    args = parser.parse_args(argv)

    inherited = {key: os.environ.get(key) for key in ("NIMCORE_THREADS", "NIMCORE_PURE")}
    os.environ["NIMCORE_THREADS"] = "1"  # one caller, one thread

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        t0 = perf_counter()
        nimcore = load_program()
        import workloads  # after nimcore, so the program import is what is timed

        workload = workloads.WORKLOADS[args.workload](nimcore, args.seed, Path(tmp))
        setup_s = perf_counter() - t0
        if args.setup_only:
            workload.close()
            print(json.dumps({"setup_s": setup_s}))
            return 0
        try:
            return run(args, nimcore, workload, setup_s, inherited)
        finally:
            workload.close()


def run(args, nimcore, workload, setup_s: float, inherited: dict) -> int:
    setup_samples = [setup_s]
    if not args.trace:
        setup_samples += [fresh_setup_seconds(args.workload, args.seed)
                          for _ in range(SETUP_REPEATS - 1)]
    workload.prepare_references()
    tracer = probe = None
    if args.trace:
        tracer = Tracer(nimcore)
        workload.mark_unit = tracer.next_unit
    else:
        probe = SpeedProbe(workload.ELASTICITY)
    rounds = measure(workload, args.seconds, tracer, probe)

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    problems = [p for r in rounds for p in r["problems"]]
    done = [r for r in rounds if r["round"] is not None]
    works = [r["work"] for r in done]
    if any(w != works[0] for w in works):
        problems.append("work counts differ between rounds of one seed")
    untraced = [r["round"] for r in done if not r["traced"]]
    traced = [r for r in done if r["traced"]]
    if len({(len(r.segments), len(r.latencies)) for r in untraced}) > 1 or any(
        not r.latencies for r in untraced
    ):
        problems.append("the rounds of one seed were not timed the same way")
        untraced = []
    correct = failed == 0 and not problems and bool(untraced)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "backend": getattr(nimcore, "BACKEND", None),
            "inherited_NIMCORE_THREADS": inherited["NIMCORE_THREADS"],
            "inherited_NIMCORE_PURE": inherited["NIMCORE_PURE"],
            "NIMCORE_THREADS": os.environ["NIMCORE_THREADS"],
        },
        "rounds": len(rounds),
        "work_per_round": works[0] if works else None,
        "error_rate": failed / attempted if attempted else 1.0,
    }
    metrics = {}
    if untraced:
        units = untraced[0].units
        detail["untraced_round_s"] = [sum(ns for _, ns in r.segments) / 1e9 for r in untraced]
        detail["throughput_median_round"] = units / statistics.median(detail["untraced_round_s"])
        if args.trace and traced:
            round_s = sum(best_of_rounds(untraced, "segments")) / 1e9
            traced_s = sum(best_of_rounds([r["round"] for r in traced], "segments")) / 1e9
            summaries = [r["summary"] for r in traced]
            if any(traced_counts(s) != traced_counts(summaries[0]) for s in summaries):
                problems.append("traced counts differ between rounds of one seed")
                correct = False
            detail["traced_round_s"] = [sum(ns for _, ns in r["round"].segments) / 1e9
                                        for r in traced]
            detail["throughput_untraced"] = units / round_s
            detail["throughput_traced"] = units / traced_s
            metrics = layer_metrics(summaries, round_s, traced_s)
        elif not args.trace:
            round_s = sum(median_of_rounds(untraced, "segments", probe)) / 1e9
            latencies_us = [ns / 1e3 for ns in median_of_rounds(untraced, "latencies", probe)]
            detail["speed_factor"] = probe.factor()
            detail["probes"] = len(probe.values)
            detail["eval_us_samples"] = len(latencies_us)
            detail["eval_us_repeats"] = len(untraced)
            detail["setup_s_samples"] = setup_samples
            metrics = {
                "setup_s": (statistics.median(setup_samples), "s"),
                "throughput": (units / round_s, "units/s"),
                "eval_us.p50": (statistics.median(latencies_us), "us"),
                "eval_us.p99": (percentile(latencies_us, 0.99), "us"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }

    detail["problems"] = problems[:20]
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:>16.6g} {unit}")
    print(json.dumps(detail))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
