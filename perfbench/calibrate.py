"""Measure a workload's elasticity: the exponent of the speed scaling in
speed.py that makes runs at different machine speeds agree best.

    python3 perfbench/calibrate.py --workload certify --runs 8 --seconds 20

Runs the workload ``--runs`` times in this process, one seed each, with
the speed probe on, then prints for each candidate elasticity the spread
(interquartile range over median, and full range over median) of the
scaled throughput, eval_us.p50 and eval_us.p99 over the runs.  Choose the
value with the smallest spreads and set it as the workload's
``ELASTICITY``.  It takes runs on a machine whose speed varies between
them to tell the values apart; on a calm machine they all agree.
"""

from __future__ import annotations

import argparse
import os
import statistics
import tempfile
from pathlib import Path

import run
from speed import SpeedProbe

CANDIDATES = [round(0.5 + 0.05 * i, 2) for i in range(13)]  # 0.5 .. 1.1


def spread(values) -> str:
    q = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return f"{(q[2] - q[0]) / median:.3f}/{(max(values) - min(values)) / median:.3f}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=run.WORKLOAD_NAMES)
    parser.add_argument("--runs", type=int, default=8)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args()
    os.environ["NIMCORE_THREADS"] = "1"
    nimcore = run.load_program()
    import workloads

    measured = []  # (probe, untraced rounds) per run
    for seed in range(1, args.runs + 1):
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
            workload = workloads.WORKLOADS[args.workload](nimcore, seed, Path(tmp))
            try:
                workload.prepare_references()
                probe = SpeedProbe()
                rounds = run.measure(workload, args.seconds, None, probe)
            finally:
                workload.close()
        if any(r["failed"] or r["problems"] for r in rounds):
            raise SystemExit(f"seed {seed}: wrong outputs")
        measured.append((probe, [r["round"] for r in rounds]))
        print(f"seed {seed}: {len(rounds)} rounds, speed factor {probe.factor():.3f}", flush=True)

    print("elasticity  spread of throughput  eval_us.p50  eval_us.p99")
    for e in CANDIDATES:
        throughput, p50, p99 = [], [], []
        for probe, rounds in measured:
            probe.elasticity = e
            round_s = sum(run.median_of_rounds(rounds, "segments", probe))
            latencies = run.median_of_rounds(rounds, "latencies", probe)
            throughput.append(rounds[0].units / round_s)
            p50.append(statistics.median(latencies))
            p99.append(run.percentile(latencies, 0.99))
        print(f"{e:10.2f}  {spread(throughput):>20s}  {spread(p50):>11s}  {spread(p99):>11s}")


if __name__ == "__main__":
    main()
