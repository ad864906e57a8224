"""Span recorder installed around nimcore's public functions at run time.

Nothing under ``src/`` knows about it: :meth:`Tracer.install` replaces
module and class attributes with wrappers and :meth:`Tracer.uninstall`
puts the originals back.  A span holds its name, start, end, parent span
and unit id.  Spans of one round are kept in memory in flat arrays and
reduced to per-name totals when the round ends, outside the timed region.

Several nimcore modules import functions by name (``harness`` and
``agents`` hold their own ``legal_moves`` binding, for instance), so every
binding that is the same object as the home module's function is
replaced, not only the one in the home module.
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter_ns

# Class name -> agent kind used in span names.
AGENT_KINDS = {
    "MultiFrameAgent": "multiframe",
    "SingleFrameCircuitAgent": "singleframe-heuristic",
    "OracleAgent": "oracle",
    "RandomAgent": "random",
    "Mirror71Agent": "mirror71",
    "Mirror72Agent": "mirror72",
}

# Counters the hooks below fill; per round, reset by Tracer.reset().
COUNTERS = (
    "plies",
    "forfeits",
    "adversary_nodes",
    "adversary_incomplete",
    "evaluate_gates",
    "batch_rows",
    "batch_gate_rows",
    "compiled_gates",
)


def _play_match_done(tracer, args, kwargs, record):
    tracer.counts["plies"] += len(record.moves)
    tracer.counts["forfeits"] += record.forfeit is not None


def _adversary_done(tracer, args, kwargs, report):
    tracer.counts["adversary_nodes"] += report.nodes
    tracer.counts["adversary_incomplete"] += not report.complete


def _evaluate_done(tracer, args, kwargs, result):
    tracer.counts["evaluate_gates"] += len(args[0].gates)


def _evaluate_batch_done(tracer, args, kwargs, result):
    rows = len(result)
    tracer.counts["batch_rows"] += rows
    tracer.counts["batch_gate_rows"] += rows * len(args[0].gates)


def _compiled(tracer, args, kwargs, circuit):
    tracer.counts["compiled_gates"] += len(circuit.gates)


def _multiframe_choice(tracer, args, kwargs, move):
    agent, history = args[0], args[1]
    # keep the agent alive so its id is not reused within the round
    tracer.agents_seen[id(agent)] = agent
    tracer.positions.add((id(agent), tuple(history.current.heaps)))


class Tracer:
    def __init__(self, nimcore):
        self.nc = nimcore
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []
        self.unit = 0
        self.reset()

    # -- recording -------------------------------------------------------

    def next_unit(self) -> None:
        self.unit += 1

    def reset(self) -> None:
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_unit = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[int] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.agents_seen: dict[int, object] = {}
        self.positions: set = set()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, done=None, starts_unit: bool = False):
        name_id = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if starts_unit:
                tracer.unit += 1
            idx = len(tracer.span_start)
            tracer.span_name.append(name_id)
            stack = tracer._stack
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_unit.append(tracer.unit)
            tracer.span_end.append(0)
            stack.append(idx)
            tracer.span_start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.span_end[idx] = perf_counter_ns()
                stack.pop()
            if done is not None:
                done(tracer, args, kwargs, result)
            return result

        return traced

    # -- installation ----------------------------------------------------

    def _modules(self):
        nc = self.nc
        return [
            nc,
            nc.games,
            nc.nimber,
            nc.agents,
            nc.harness,
            nc.models,
            nc.circuits,
            nc.circuits.builders,
            nc.circuits.ir,
        ]

    def _patch_function(self, home, attr: str, name: str, done=None, starts_unit=False) -> None:
        original = getattr(home, attr, None)
        if original is None:
            return
        wrapper = self.wrap(name, original, done, starts_unit)
        for module in self._modules():
            if getattr(module, attr, None) is original:
                self._patched.append((module, attr, original))
                setattr(module, attr, wrapper)

    def _patch_method(self, cls, attr: str, name: str, done=None) -> None:
        original = cls.__dict__.get(attr)
        if original is None:
            return
        self._patched.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, done))

    def install(self) -> None:
        nc = self.nc
        for fn in ("legal_moves", "apply_move", "is_terminal"):
            self._patch_function(nc.games, fn, f"games.{fn}")
        for method in ("grundy", "win_loss"):
            self._patch_method(nc.games.GrundySolver, method, f"games.{method}")
        self._patch_function(nc.nimber, "winning_moves", "nimber.winning_moves")
        for cls_name, kind in AGENT_KINDS.items():
            cls = getattr(nc.agents, cls_name, None)
            if cls is not None:
                done = _multiframe_choice if kind == "multiframe" else None
                self._patch_method(cls, "choose", f"agents.{kind}.choose", done)
        for fn in (
            "build_nimber_diff_circuit",
            "build_move_validator_circuit",
            "build_even_nonempty_scorer",
        ):
            self._patch_function(nc.circuits.builders, fn, "circuits.build")
        self._patch_function(nc.circuits.ir, "serialize", "circuits.serialize")
        self._patch_function(nc.circuits.ir, "parse", "circuits.parse")
        circuit = nc.circuits.ir.Circuit
        self._patch_method(circuit, "evaluate", "circuits.evaluate", _evaluate_done)
        self._patch_method(
            circuit, "evaluate_batch", "circuits.evaluate_batch", _evaluate_batch_done
        )
        self._patch_function(nc.models, "compile_to_ac0", "models.compile_to_ac0", _compiled)
        self._patch_function(nc.harness, "run_experiment", "harness.run_experiment")
        self._patch_function(nc.harness, "make_agent", "harness.make_agent")
        # run_experiment plays its games itself, so a game starts a unit here
        self._patch_function(
            nc.harness, "play_match", "harness.play_match", _play_match_done, starts_unit=True
        )
        self._patch_function(
            nc.harness, "exhaustive_adversary", "harness.exhaustive_adversary", _adversary_done
        )

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reduction -------------------------------------------------------

    def summarize(self) -> dict:
        """Per-name calls and self time (ns), plus the span durations of
        agent decisions.

        Self time is a span's duration minus the durations of its direct
        children; one thread records, so children never overlap.
        """
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0] * n
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += dur[i]
        out: dict[str, dict] = {}
        for i in range(n):
            entry = out.get(self.names[self.span_name[i]])
            if entry is None:
                name = self.names[self.span_name[i]]
                entry = out[name] = {"calls": 0, "self_ns": 0, "durations_ns": []}
            entry["calls"] += 1
            entry["self_ns"] += dur[i] - child[i]
            entry["durations_ns"].append(dur[i])
        for name, entry in out.items():
            if not name.startswith("agents."):
                del entry["durations_ns"]
        return {
            "spans": out,
            "counts": dict(self.counts),
            "multiframe_distinct": len(self.positions),
        }
