"""Smoke tests of the benchmark: one-second runs on the default seed and on
a hold-out seed, untraced and traced.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
DEFAULT_SEED = 1
HOLDOUT_SEED = 7


def bench(workload: str, seed: int, trace: int, root: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=root,
    )
    return proc


def parse(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def assert_result(proc, names):
    assert proc.returncode == 0, proc.stderr
    detail, result = parse(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == names
    assert detail["problems"] == []
    assert detail["env"]["NIMCORE_THREADS"] == "1"
    return detail, result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_default_seed_untraced_and_traced_do_the_same_work(workload):
    detail, result = assert_result(
        bench(workload, DEFAULT_SEED, 0), [m["name"] for m in SPEC["end_to_end"]]
    )
    assert all(m["value"] > 0 for m in result["metrics"].values())
    traced, _ = assert_result(
        bench(workload, DEFAULT_SEED, 1), [m["name"] for m in SPEC["per_layer"]]
    )
    assert traced["work_per_round"] == detail["work_per_round"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_holdout_seed(workload):
    assert_result(bench(workload, HOLDOUT_SEED, 0), [m["name"] for m in SPEC["end_to_end"]])


def test_without_sources_exits_nonzero_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = bench("solve", DEFAULT_SEED, 0, root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def corrupt_tournament(rnd, workload):
    path = workload.out_dir / "results.json"
    doc = json.loads(path.read_text())
    doc["matches"][0]["moves"] = doc["matches"][0]["moves"][:-1]  # unfinished game
    path.write_text(json.dumps(doc))


def corrupt_certify(rnd, workload):
    rnd.output[0].agent_always_wins = False


def corrupt_circuits(rnd, workload):
    rnd.output[2][0][0, 0] ^= 1  # one bit of the nimber-diff batch
    rnd.output[5][0] = tuple(1 - b for b in rnd.output[5][0])  # one single call


def corrupt_solve(rnd, workload):
    value, outcome = rnd.output[0]
    rnd.output[0] = (value + 1, outcome)


@pytest.mark.parametrize(
    "workload, corrupt, wrong",
    [("tournament", corrupt_tournament, 1), ("certify", corrupt_certify, 1),
     ("circuits", corrupt_circuits, 2), ("solve", corrupt_solve, 1)],
)
def test_checks_count_wrong_units(workload, corrupt, wrong, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import nimcore
    import workloads

    w = workloads.WORKLOADS[workload](nimcore, DEFAULT_SEED, tmp_path)
    try:
        w.prepare_references()
        rnd = w.run_round()
        assert w.check(rnd).failed == 0
        corrupt(rnd, w)
        assert w.check(rnd).failed == wrong
    finally:
        w.close()


def test_speed_scaling_uses_the_probes_around_a_segment(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import speed

    probe = speed.SpeedProbe(elasticity=0.5)
    probe.times = [0, 10, 20, 30, 100, 110, 120, 130]
    slow = 4 * speed.REFERENCE_NS
    probe.values = [speed.REFERENCE_NS] * 4 + [slow] * 4
    assert probe.scaled(0, 10) == pytest.approx(10)  # probes at reference speed
    assert probe.scaled(110, 10) == pytest.approx(5)  # 4x slower probes, sqrt: 2x
    probe.elasticity = 1.0
    assert probe.scaled(110, 10) == pytest.approx(2.5)
