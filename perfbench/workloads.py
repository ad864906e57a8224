"""The four benchmark workloads.

Each workload is a closed loop driven by one caller in one thread: the
next unit is issued only after the previous one returned.  Its inputs are
drawn from the seed at set-up; a round runs the same inputs through the
program again, so every round does identical work and the deterministic
work counts of all rounds must match.

A workload has four steps:

* ``__init__`` -- set-up, timed as ``setup_s``: inputs, the program
  objects the user would build before the first unit, and lazy warm-up.
* ``prepare_references`` -- untimed: expected outputs from
  :mod:`reference`, which never calls nimcore.
* ``run_round`` -- timed: one pass over the inputs.  Returns a
  :class:`Round` whose timed work is split into segments (units, or the
  steps of a batch pipeline), the same segments in every round.  The
  ``pace`` hook is called before each segment, outside its timing; an
  untraced run probes the machine's speed there (see :mod:`speed`).
* ``check`` -- untimed, after the round's timing window closed: the
  number of wrong units, the work counts and the problems found.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from time import perf_counter_ns

import numpy as np

import reference


@dataclass
class Round:
    # (start, duration) in ns of the timed work of the round, split the same
    # way every round
    segments: list[tuple[int, int]]
    units: int  # throughput units done in the round
    attempted: int  # checked units, including latency-only calls
    latencies: list[tuple[int, int]]  # one closed-loop call each: the eval_us samples
    output: object = None


@dataclass
class Check:
    failed: int
    work: dict
    problems: list[str] = field(default_factory=list)


def _nothing() -> None:
    pass


class Workload:
    """What every workload shares; see the module docstring for the steps."""

    name = ""
    # how its time follows the speed probe's between runs (see speed.py)
    ELASTICITY = 1.0

    def __init__(self, nc):
        self.nc = nc
        # called at the start of every unit; a traced run numbers units with it
        self.mark_unit = _nothing
        # called before every timed segment; an untraced run probes speed there
        self.pace = _nothing

    def prepare_references(self) -> None:
        pass

    def close(self) -> None:
        pass


class Tournament(Workload):
    """``harness.run_experiment``: the paper's experiment table.  Unit: one
    game; latency sample: one ``play_match`` call."""

    name = "tournament"
    AGENTS = ("multiframe", "singleframe-heuristic", "random")
    HEAP_COUNTS = (3, 5, 7, 9)
    MAX_HEAP = 31
    GAMES_PER_CELL = 84  # 1008 games a round: ten beyond the 99th percentile

    def __init__(self, nc, seed: int, workdir):
        super().__init__(nc)
        harness = nc.harness
        rules = nc.games.GameRules.nim(self.MAX_HEAP)
        self.out_dir = workdir / "tournament"
        self.cfg = harness.ExperimentConfig(
            rules=rules,
            heap_counts=list(self.HEAP_COUNTS),
            max_heap_size=self.MAX_HEAP,
            agents=list(self.AGENTS),
            opponent="oracle",
            games_per_cell=self.GAMES_PER_CELL,
            seed=seed,
            start_mode="winning",
            out_dir=str(self.out_dir),
        )
        # warm-up: build every agent of the sweep and play one game with each
        start = nc.games.Position((1, 2, 4))
        for hc in self.HEAP_COUNTS:
            opponent = harness.make_agent("oracle", rules, heap_count=hc)
            for spec in self.AGENTS:
                agent = harness.make_agent(spec, rules, heap_count=hc, budget=self.cfg.budget)
                if hc == 3:
                    harness.play_match(rules, start, agent, opponent, seed=seed)
        # the unit timer: the only wrapper an untraced run installs
        self._original_play_match = harness.play_match
        self._latencies: list[tuple[int, int]] = []
        self._paced_ns = 0

        def timed_play_match(*args, **kwargs):
            t0 = perf_counter_ns()
            self.pace()
            t1 = perf_counter_ns()
            self._paced_ns += t1 - t0
            record = self._original_play_match(*args, **kwargs)
            self._latencies.append((t1, perf_counter_ns() - t1))
            return record

        harness.play_match = timed_play_match
        self._digest: str | None = None

    @property
    def units_per_round(self) -> int:
        return len(self.HEAP_COUNTS) * len(self.AGENTS) * self.GAMES_PER_CELL

    def run_round(self) -> Round:
        self._latencies = []
        self._paced_ns = 0
        t0 = perf_counter_ns()
        rows = self.nc.harness.run_experiment(self.cfg)
        elapsed = perf_counter_ns() - t0
        games = self._latencies
        # the games, then what run_experiment spends outside them and the probes
        outside = elapsed - self._paced_ns - sum(ns for _, ns in games)
        segments = games + [(t0, outside)]
        n = self.units_per_round
        return Round(segments, n, n, games, rows)

    def check(self, rnd: Round) -> Check:
        problems = []
        csv_bytes = (self.out_dir / "results.csv").read_bytes()
        digest = hashlib.sha256(csv_bytes).hexdigest()
        if self._digest is None:
            self._digest = digest
        elif digest != self._digest:
            problems.append("results.csv differs between rounds of one seed")
        for row in rnd.output:
            if row.agent == "multiframe" and (row.win_rate != 1.0 or row.preservation_failures):
                problems.append(f"multiframe row at {row.heap_count} heaps: {row}")
        matches = json.loads((self.out_dir / "results.json").read_text())["matches"]
        failed = 0
        plies = 0
        forfeits = 0
        for m in matches:
            plies += len(m["moves"])
            forfeits += m["forfeit"] is not None
            finished, winner, failures = reference.replay_nim_game(m["start"], m["moves"])
            ok = (
                reference.xor_fold(m["start"]) != 0
                and finished
                and m["forfeit"] is None
                and winner == m["winner"]
            )
            if m["first"] == "multiframe":
                ok = ok and winner == "first" and failures == 0
            failed += not ok
        if len(matches) != rnd.units:
            problems.append(f"{len(matches)} transcripts for {rnd.units} games")
            failed = max(failed, rnd.units - len(matches))
        if len(rnd.latencies) != rnd.units:
            problems.append(f"timed {len(rnd.latencies)} play_match calls for {rnd.units} games")
        work = {"games": len(matches), "plies": plies, "forfeits": forfeits, "csv_sha256": digest}
        return Check(failed, work, problems)

    def crosscheck(self, summary: dict, work: dict) -> list[str]:
        problems = []
        if summary["counts"]["plies"] != work["plies"]:
            problems.append(
                f"traced plies {summary['counts']['plies']} != transcript plies {work['plies']}"
            )
        calls = summary["spans"].get("harness.play_match", {}).get("calls", 0)
        if calls != work["games"]:
            problems.append(f"traced play_match calls {calls} != games {work['games']}")
        return problems

    def close(self) -> None:
        self.nc.harness.play_match = self._original_play_match


class Certify(Workload):
    """Exhaustive strong-mastery certificate: ``harness.exhaustive_adversary``
    over winning NIM starts, plus the mirror strategies.  Unit and latency
    sample: one start certified by a fresh agent.

    The starts are every winning start of the grids, in an order drawn from
    the seed.  A seeded subset of the grids would not do: the cost of a
    start ranges over orders of magnitude, and the work of a round varied
    by a fifth between seeds.  A fresh agent per start keeps each latency
    the cost of its own start: with one agent per round, a start's latency
    depended on which earlier starts had filled the decision cache, and the
    median moved by a sixth with the order.
    """

    name = "certify"
    ELASTICITY = 0.75  # about an eighth of its time is Random.seed hashing, in C
    GRIDS = ((3, 6), (4, 3))  # (heaps, max heap size)
    MIRROR71_K = (1, 2, 3)
    MIRROR72_K = (1, 2)

    def __init__(self, nc, seed: int, workdir):
        super().__init__(nc)
        games, agents = nc.games, nc.agents
        starts = []
        for heaps, size in self.GRIDS:
            rules = games.GameRules.nim(size)
            for start in itertools.product(range(size + 1), repeat=heaps):
                if reference.xor_fold(start):
                    starts.append((rules, games.Position(start)))
        random.Random(seed).shuffle(starts)
        self.starts = starts
        self.budget = agents.RolloutBudget(
            exhaustive_cap=max((size + 1) ** heaps for heaps, size in self.GRIDS)
        )
        mirror_rules = games.GameRules.nim(3)
        self.mirrors = [
            (mirror_rules, games.Position((1,) * (2 * k) + (2,)), agents.Mirror71Agent, (k,))
            for k in self.MIRROR71_K
        ] + [
            (mirror_rules, games.Position((2,) * (2 * k) + (3,)), agents.Mirror72Agent, (k, "first"))
            for k in self.MIRROR72_K
        ]
        # warm-up
        nc.harness.exhaustive_adversary(
            mirror_rules, games.Position((1, 2, 2)), agents.MultiFrameAgent(self.budget)
        )

    @property
    def units_per_round(self) -> int:
        return len(self.starts) + len(self.mirrors)

    def run_round(self) -> Round:
        adversary = self.nc.harness.exhaustive_adversary
        multiframe = self.nc.agents.MultiFrameAgent
        jobs = [(rules, p, multiframe, (self.budget,)) for rules, p in self.starts] + self.mirrors
        reports = []
        latencies = []
        for rules, p, agent_class, args in jobs:
            self.mark_unit()
            self.pace()
            t0 = perf_counter_ns()
            reports.append(adversary(rules, p, agent_class(*args), role="first"))
            latencies.append((t0, perf_counter_ns() - t0))
        return Round(latencies, len(jobs), len(jobs), latencies, reports)

    def check(self, rnd: Round) -> Check:
        failed = sum(not (r.complete and r.agent_always_wins) for r in rnd.output)
        problems = [f"{failed} starts not certified"] if failed else []
        work = {"starts": len(rnd.output), "adversary_nodes": sum(r.nodes for r in rnd.output)}
        return Check(failed, work, problems)

    def crosscheck(self, summary: dict, work: dict) -> list[str]:
        problems = []
        if summary["counts"]["adversary_nodes"] != work["adversary_nodes"]:
            problems.append(
                f"traced adversary nodes {summary['counts']['adversary_nodes']} "
                f"!= reported nodes {work['adversary_nodes']}"
            )
        calls = summary["spans"].get("harness.exhaustive_adversary", {}).get("calls", 0)
        if calls != work["starts"]:
            problems.append(f"traced adversary calls {calls} != starts {work['starts']}")
        return problems


# Weight numerators into one unit, per layer, and the unit threshold.  The
# seed permutes each unit's weights over its inputs, so every seed compiles
# networks of the same size.
_LAYERS = (((2, 1, 1, 1, 0, 0, 0, 0), 3), ((1, 1, 1, 1, 0, 0), 2))


def _network(nc, rng: np.random.Generator):
    """A non-negative feed-forward threshold network, 8 -> 6 -> 4."""
    widths = (8, 6, 4)
    weights = []
    for (column, _), m_out in zip(_LAYERS, widths[1:]):
        columns = [rng.permutation(column) for _ in range(m_out)]
        weights.append(np.stack(columns, axis=1).tolist())
    thresholds = [[t] * m_out for (_, t), m_out in zip(_LAYERS, widths[1:])]
    return nc.models.ThresholdNetwork(
        kind=nc.models.ModelKind.NN,
        widths=widths,
        q0=2,
        p_bound=3,
        weights=weights,
        thresholds=thresholds,
    )


def _changed_copy(rng: np.random.Generator, heaps: np.ndarray, max_changed: int, l: int):
    """Copy of ``heaps`` with 0..max_changed heaps per row redrawn."""
    rows, n = heaps.shape
    rank = np.argsort(np.argsort(rng.random((rows, n)), axis=1), axis=1)
    mask = rank < rng.integers(0, max_changed + 1, size=rows)[:, None]
    return np.where(mask, rng.integers(0, 1 << l, size=(rows, n)), heaps)


class Circuits(Workload):
    """Circuit build, text round trip and batch evaluation (including
    compiled threshold networks); throughput unit: one checked batch row.
    Beside it, a stream of single ``Circuit.evaluate`` calls on pre-built
    circuits; latency sample: one such call."""

    name = "circuits"
    ELASTICITY = 0.9
    BATCH_ROWS = 10_000
    DIFF = (8, 8, 2)  # nimber-diff n, l, k_max
    VALIDATOR = (6, 4, 2)  # move validator n, l, k_max
    SCORER = (7, 5)  # single-frame heuristic scorer n, l
    NETWORKS = 6
    MODEL_ROWS = 512
    SINGLE_CALLS = 1000  # ten beyond the 99th percentile

    def __init__(self, nc, seed: int, workdir):
        super().__init__(nc)
        rng = np.random.default_rng(seed)
        builders = nc.circuits.builders
        n, l, _ = self.DIFF
        self.diff_a = rng.integers(0, 1 << l, size=(self.BATCH_ROWS, n))
        # up to k_max + 1 changed heaps, so the validity bit is exercised
        self.diff_b = _changed_copy(rng, self.diff_a, self.DIFF[2] + 1, l)
        self.diff_rows = np.concatenate(
            [reference.heap_bits(self.diff_a, l), reference.heap_bits(self.diff_b, l)], axis=1
        )
        n, l, k = self.VALIDATOR
        self.val_p1 = rng.integers(0, 1 << l, size=(self.BATCH_ROWS, n))
        self.val_q1 = _changed_copy(rng, self.val_p1, k, l)
        self.val_cur = rng.integers(0, 1 << l, size=(self.BATCH_ROWS, n))
        self.val_rows = np.concatenate(
            [reference.heap_bits(a, l) for a in (self.val_p1, self.val_q1, self.val_cur)], axis=1
        )
        self.networks = [_network(nc, rng) for _ in range(self.NETWORKS)]
        self.model_rows = rng.integers(0, 2, size=(self.MODEL_ROWS, 8)).astype(np.uint8)

        # the single-call stream alternates the two pre-built circuits
        sn, sl = self.SCORER
        self.scorer = builders.build_even_nonempty_scorer(sn, sl)
        n, l, k = self.DIFF
        self.diff = builders.build_nimber_diff_circuit(n, l, k)
        self.singles = []
        for i in range(self.SINGLE_CALLS):
            if i % 2 == 0:
                heaps = rng.integers(0, 1 << sl, size=(1, sn))
                self.singles.append((self.scorer, heaps, reference.heap_bits(heaps, sl)[0].tolist()))
            else:
                a = rng.integers(0, 1 << l, size=(1, n))
                b = _changed_copy(rng, a, k, l)
                bits = np.concatenate([reference.heap_bits(a, l), reference.heap_bits(b, l)], axis=1)
                self.singles.append((self.diff, (a, b), bits[0].tolist()))
        # warm-up: first evaluation of each pre-built circuit
        for circuit, _, bits in self.singles[:2]:
            circuit.evaluate(bits)

    @property
    def units_per_round(self) -> int:
        return 2 * self.BATCH_ROWS + self.NETWORKS * self.MODEL_ROWS

    def prepare_references(self) -> None:
        _, l, k = self.DIFF
        self.diff_expected = reference.nimber_diff_outputs(self.diff_a, self.diff_b, l, k)
        self.val_expected = reference.validator_outputs(
            self.val_p1, self.val_q1, self.val_cur, self.VALIDATOR[1]
        )
        eval_model = self.nc.models.eval_model
        self.model_expected = [
            np.array([eval_model(net, row.tolist()) for row in self.model_rows], dtype=np.uint8)
            for net in self.networks
        ]
        self.singles_expected = []
        for circuit, inputs, _ in self.singles:
            if circuit is self.scorer:
                expected = reference.even_nonempty_scores(inputs[0].tolist(), self.SCORER[1])
            else:
                expected = tuple(reference.nimber_diff_outputs(*inputs, l, k)[0].tolist())
            self.singles_expected.append(expected)

    def run_round(self) -> Round:
        nc = self.nc
        builders, ir = nc.circuits.builders, nc.circuits.ir
        segments = []

        def step(fn, *args):
            self.pace()
            t0 = perf_counter_ns()
            result = fn(*args)
            segments.append((t0, perf_counter_ns() - t0))
            return result

        self.mark_unit()  # the batch pipeline is one unit of the trace
        encoding = nc.circuits.PositionEncoding(self.VALIDATOR[0], self.VALIDATOR[1], 3)
        built = [
            step(builders.build_nimber_diff_circuit, *self.DIFF),
            step(builders.build_move_validator_circuit, encoding, self.VALIDATOR[2]),
        ]
        parsed = [step(ir.parse, step(ir.serialize, c)) for c in built]
        batch_out = [
            step(parsed[0].evaluate_batch, self.diff_rows),
            step(parsed[1].evaluate_batch, self.val_rows),
        ]
        compiled = [step(nc.models.compile_to_ac0, net) for net in self.networks]
        model_out = [step(c.evaluate_batch, self.model_rows) for c in compiled]

        latencies = []
        single_out = []
        for circuit, _, bits in self.singles:
            self.mark_unit()
            self.pace()
            t1 = perf_counter_ns()
            single_out.append(circuit.evaluate(bits))
            latencies.append((t1, perf_counter_ns() - t1))
        output = (built, parsed, batch_out, compiled, model_out, single_out)
        return Round(
            segments, self.units_per_round, self.units_per_round + len(self.singles), latencies, output
        )

    def check(self, rnd: Round) -> Check:
        built, parsed, batch_out, compiled, model_out, single_out = rnd.output
        problems = []
        failed = 0
        expected = (self.diff_expected, self.val_expected)
        for label, b, p, out, want in zip(("nimber-diff", "validator"), built, parsed, batch_out, expected):
            if (b.gates, b.outputs, b.input_arity) != (p.gates, p.outputs, p.input_arity):
                problems.append(f"{label}: serialize/parse round trip changed the circuit")
                failed += len(want)
                continue
            wrong = int((np.asarray(out) != want).any(axis=1).sum())
            if wrong:
                problems.append(f"{label}: {wrong} batch rows differ from the reference")
            failed += wrong
        for i, (out, want) in enumerate(zip(model_out, self.model_expected)):
            wrong = int((np.asarray(out) != want).any(axis=1).sum())
            if wrong:
                problems.append(f"network {i}: {wrong} rows differ from eval_model")
            failed += wrong
        wrong = sum(tuple(got) != want for got, want in zip(single_out, self.singles_expected))
        if wrong:
            problems.append(f"{wrong} single evaluations differ from the reference")
        failed += wrong
        gate_rows = len(parsed[0].gates) * self.BATCH_ROWS + len(parsed[1].gates) * self.BATCH_ROWS
        gate_rows += sum(len(c.gates) for c in compiled) * self.MODEL_ROWS
        work = {
            "batch_rows": self.units_per_round,
            "gate_rows": gate_rows,
            "built_gates": sum(len(c.gates) for c in built),
            "compiled_gates": sum(len(c.gates) for c in compiled),
            "single_calls": len(single_out),
        }
        return Check(failed, work, problems)

    def crosscheck(self, summary: dict, work: dict) -> list[str]:
        problems = []
        counts = summary["counts"]
        if counts["batch_rows"] != work["batch_rows"]:
            problems.append(f"traced batch rows {counts['batch_rows']} != {work['batch_rows']}")
        if counts["compiled_gates"] != work["compiled_gates"]:
            problems.append(
                f"traced compiled gates {counts['compiled_gates']} != {work['compiled_gates']}"
            )
        calls = summary["spans"].get("circuits.evaluate", {}).get("calls", 0)
        if calls != work["single_calls"]:
            problems.append(f"traced evaluate calls {calls} != {work['single_calls']}")
        return problems


def _partitions(total: int, parts: int, max_part: int) -> list[tuple[int, ...]]:
    return [
        rows
        for rows in itertools.combinations_with_replacement(range(1, max_part + 1), parts)
        if sum(rows) == total
    ]


class Solve(Workload):
    """``games.GrundySolver``: ``grundy`` plus ``win_loss`` on compound
    Kayles and subtraction-game positions, each with a fresh solver (cold
    memo).  Unit and latency sample: one solved position.

    The positions are every way to split a fixed number of pins or objects
    into 3 or 4 rows; the seed draws the order of the rows in each position
    and the order of the positions.  A seeded random sample would not do:
    its work per round varied by about a sixth between seeds, because the
    cost of a cold solve depends strongly on the position.
    """

    name = "solve"
    ELASTICITY = 0.9
    KAYLES = dict(rows=(3, 4), max_row=12, total=14)
    SUBTRACTION = dict(removals=(1, 3, 4), rows=(3, 4), total=20)

    def __init__(self, nc, seed: int, workdir):
        super().__init__(nc)
        games = nc.games
        rng = random.Random(seed)
        k, s = self.KAYLES, self.SUBTRACTION
        self.kayles = games.GameRules.kayles(k["max_row"])
        self.subtraction = games.GameRules.subtraction(s["removals"], s["total"])
        self.positions = []
        for rules, spec, max_row in ((self.kayles, k, k["max_row"]), (self.subtraction, s, s["total"])):
            for parts in spec["rows"]:
                for rows in _partitions(spec["total"], parts, max_row):
                    rows = list(rows)
                    rng.shuffle(rows)
                    self.positions.append((rules, games.Position(tuple(rows), rules.game_id)))
        rng.shuffle(self.positions)
        # warm-up on a throwaway solver
        for rules in (self.kayles, self.subtraction):
            games.GrundySolver(rules).grundy(games.Position((3, 4), rules.game_id))

    @property
    def units_per_round(self) -> int:
        return len(self.positions)

    def prepare_references(self) -> None:
        kayles = reference.kayles_row_values(self.KAYLES["max_row"])
        subtraction = reference.subtraction_heap_values(
            self.SUBTRACTION["removals"], self.SUBTRACTION["total"]
        )
        self.expected = [
            reference.xor_fold((kayles if rules is self.kayles else subtraction)[h] for h in p.heaps)
            for rules, p in self.positions
        ]

    def run_round(self) -> Round:
        solver_class = self.nc.games.GrundySolver
        results = []
        latencies = []
        for rules, p in self.positions:
            self.mark_unit()
            self.pace()
            t0 = perf_counter_ns()
            solver = solver_class(rules)
            results.append((solver.grundy(p), solver.win_loss(p)))
            latencies.append((t0, perf_counter_ns() - t0))
        return Round(latencies, len(results), len(results), latencies, results)

    def check(self, rnd: Round) -> Check:
        win = self.nc.games.WinLoss.WIN
        failed = sum(
            value != want or (outcome is win) != (want != 0)
            for (value, outcome), want in zip(rnd.output, self.expected)
        )
        problems = [f"{failed} positions solved wrongly"] if failed else []
        work = {"positions": len(rnd.output), "solver_calls": 2 * len(rnd.output)}
        return Check(failed, work, problems)

    def crosscheck(self, summary: dict, work: dict) -> list[str]:
        problems = []
        for name in ("games.grundy", "games.win_loss"):
            calls = summary["spans"].get(name, {}).get("calls", 0)
            if calls != work["positions"]:
                problems.append(f"traced {name} calls {calls} != positions {work['positions']}")
        return problems


WORKLOADS = {w.name: w for w in (Tournament, Certify, Circuits, Solve)}
