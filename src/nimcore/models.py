"""Constant-precision threshold networks and their lowering to circuits.

Three kinds are supported: feed-forward (NN), recurrent with a one-step
lag (RNN), and lagged self-attention (LTST, each unit attends to its own
last ``window`` states).  Weights and thresholds are integer numerators
over a shared denominator q0, activation is the Heaviside step with
``step(0) == 1``.  Evaluation is exact integer arithmetic: the common
denominator cancels, so a unit fires iff the numerator-weighted input sum
reaches the threshold numerator.

The lowering turns each unit into a two-level threshold block: a weight
p/q0 contributes p fan-in copies of its source, and the unit fires iff at
least ``threshold numerator`` of the expanded inputs are 1.  That only
works for non-negative weights, which is why mixed-sign networks are
rejected rather than guessed at.
"""

from __future__ import annotations

import enum
import itertools
import json
from dataclasses import dataclass
from pathlib import Path

from ._jsondoc import expect
from .circuits.builders import DEFAULT_GATE_BUDGET, CircuitBuilder
from .circuits.ir import Circuit
from .errors import EncodingError, ThresholdCapError, UnsupportedModelError

DEFAULT_THRESHOLD_CAP = 4


class ModelKind(enum.Enum):
    NN = "nn"
    RNN = "rnn"
    LTST = "ltst"


def _t1(rows, field):
    # exactly int, as in GameRules: a float or a bool is refused, not truncated
    row = tuple(rows)
    for x in row:
        if type(x) is not int:
            raise ValueError(f"{field} entry {x!r} is not an int")
    return row


def _t2(rows, field):
    return tuple(_t1(r, field) for r in rows)


def _t3(rows, field):
    return tuple(_t2(r, field) for r in rows)


@dataclass(frozen=True)
class ThresholdNetwork:
    """Threshold network with weights and thresholds of the form p/q0.

    ``widths[0]`` is the input width; layers 1..L have ``widths[1..L]``
    units.  ``weights[l][i][j]`` is the numerator of the weight from unit
    i of layer l into unit j of layer l+1, ``thresholds[l][j]`` likewise.
    RNN recurrence uses a full within-layer matrix ``recurrent[l][k][j]``
    at lag 1; LTST units carry per-lag self weights ``recurrent[l][j][k]``
    for lags 1..window.  Hidden states before the first step are zero.
    """

    kind: ModelKind
    widths: tuple[int, ...]
    q0: int
    p_bound: int
    weights: tuple
    thresholds: tuple
    recurrent: tuple | None = None
    steps: int = 1
    window: int = 1

    def __post_init__(self):
        object.__setattr__(self, "widths", _t1(self.widths, "widths"))
        object.__setattr__(self, "weights", _t3(self.weights, "weights"))
        object.__setattr__(self, "thresholds", _t2(self.thresholds, "thresholds"))
        if self.recurrent is not None:
            object.__setattr__(self, "recurrent", _t3(self.recurrent, "recurrent"))
        for field in ("q0", "p_bound", "steps", "window"):
            value = getattr(self, field)
            if type(value) is not int:
                raise ValueError(f"{field} {value!r} is not an int")
        if len(self.widths) < 2 or any(w < 1 for w in self.widths):
            raise ValueError("widths needs an input width plus >= 1 positive layer widths")
        if self.q0 < 1 or self.p_bound < 1:
            raise ValueError("q0 and the numerator bound must be >= 1")
        if self.steps < 1 or self.window < 1:
            raise ValueError("steps and window must be >= 1")
        L = self.L
        if len(self.weights) != L or len(self.thresholds) != L:
            raise ValueError("need one weight matrix and threshold vector per layer")
        for l in range(L):
            m_in, m_out = self.widths[l], self.widths[l + 1]
            if len(self.weights[l]) != m_in or any(len(r) != m_out for r in self.weights[l]):
                raise ValueError(f"layer {l + 1} weight matrix must be {m_in}x{m_out}")
            if len(self.thresholds[l]) != m_out:
                raise ValueError(f"layer {l + 1} needs {m_out} thresholds")
        self._check_bound(itertools.chain.from_iterable(
            itertools.chain.from_iterable(self.weights)))
        self._check_bound(itertools.chain.from_iterable(self.thresholds))
        if self.kind is ModelKind.NN:
            if self.recurrent is not None:
                raise ValueError("feed-forward networks take no recurrent weights")
            if self.steps != 1:
                raise ValueError("feed-forward networks run a single step")
        else:
            if self.recurrent is None:
                raise ValueError(f"{self.kind.value} networks need recurrent weights")
            if len(self.recurrent) != L:
                raise ValueError("need one recurrent block per layer")
            for l in range(L):
                m_out = self.widths[l + 1]
                block = self.recurrent[l]
                if self.kind is ModelKind.RNN:
                    if len(block) != m_out or any(len(r) != m_out for r in block):
                        raise ValueError(f"layer {l + 1} recurrence must be {m_out}x{m_out}")
                else:
                    if len(block) != m_out or any(len(r) != self.window for r in block):
                        raise ValueError(
                            f"layer {l + 1} lag weights must be {m_out}x{self.window}"
                        )
                self._check_bound(itertools.chain.from_iterable(block))
            if self.kind is ModelKind.RNN and self.window != 1:
                raise ValueError("the RNN recurrence looks back exactly one step")

    def _check_bound(self, numerators) -> None:
        for p in numerators:
            if abs(p) > self.p_bound:
                raise ValueError(f"numerator {p} exceeds the bound {self.p_bound}")

    @property
    def L(self) -> int:
        return len(self.widths) - 1

    @property
    def input_width(self) -> int:
        return self.widths[0]


def _frames_of(net: ThresholdNetwork, inputs) -> tuple[tuple[int, ...], ...]:
    if net.kind is ModelKind.NN:
        frames = (tuple(inputs),)
    else:
        frames = tuple(tuple(f) for f in inputs)
        if len(frames) != net.steps:
            raise EncodingError(f"expected {net.steps} input frames, got {len(frames)}")
    for f in frames:
        if len(f) != net.input_width:
            raise EncodingError(
                f"input frame width {len(f)} does not match network width {net.input_width}"
            )
        if any(b not in (0, 1) for b in f):
            raise EncodingError("inputs must be binary")
    return frames


def eval_model(net: ThresholdNetwork, inputs) -> tuple[int, ...]:
    """Exact evaluation; returns the final layer at the final time step."""
    frames = _frames_of(net, inputs)
    L = net.L
    if net.kind is ModelKind.NN:
        acts = frames[0]
        for l in range(L):
            w, th = net.weights[l], net.thresholds[l]
            acts = tuple(
                1 if sum(w[i][j] * acts[i] for i in range(net.widths[l])) >= th[j] else 0
                for j in range(net.widths[l + 1])
            )
        return acts

    # temporal kinds: keep the full per-layer history, lags may reach back window steps
    history: list[list[tuple[int, ...]]] = [[] for _ in range(L)]

    def state(l: int, t: int, j: int) -> int:
        return history[l][t - 1][j] if t >= 1 else 0

    final: tuple[int, ...] = ()
    for t in range(1, net.steps + 1):
        acts = frames[t - 1]
        for l in range(L):
            w, th = net.weights[l], net.thresholds[l]
            out = []
            for j in range(net.widths[l + 1]):
                s = sum(w[i][j] * acts[i] for i in range(net.widths[l]))
                if net.kind is ModelKind.RNN:
                    rec = net.recurrent[l]
                    s += sum(
                        rec[k][j] * state(l, t - 1, k) for k in range(net.widths[l + 1])
                    )
                else:
                    lags = net.recurrent[l][j]
                    s += sum(lags[k - 1] * state(l, t - k, j) for k in range(1, net.window + 1))
                out.append(1 if s >= th[j] else 0)
            acts = tuple(out)
            history[l].append(acts)
        final = acts
    return final


def _check_compilable(net: ThresholdNetwork, threshold_cap: int) -> None:
    for l in range(net.L):
        for i, row in enumerate(net.weights[l]):
            for j, p in enumerate(row):
                if p < 0:
                    raise UnsupportedModelError(
                        f"negative weight {p} into layer {l + 1} unit {j} (from unit {i}); "
                        "the threshold lowering only covers non-negative weights"
                    )
        if net.recurrent is not None:
            for a, row in enumerate(net.recurrent[l]):
                for bcol, p in enumerate(row):
                    if p < 0:
                        raise UnsupportedModelError(
                            f"negative recurrent weight {p} in layer {l + 1} "
                            f"(row {a}, col {bcol})"
                        )
        for j, th in enumerate(net.thresholds[l]):
            if th > threshold_cap:
                raise ThresholdCapError(
                    f"layer {l + 1} unit {j} threshold {th} exceeds the cap {threshold_cap}"
                )


def _lower_unit(b: CircuitBuilder, sources: list[int], threshold: int) -> int:
    """One unit: fire iff at least ``threshold`` of the expanded inputs are 1.

    Constant sources are folded away: a constant 1 lowers the threshold."""
    live: list[int] = []
    ones = 0
    for w in sources:
        c = b.wire_const(w)
        if c is None:
            live.append(w)
        elif c == 1:
            ones += 1
    return b.at_least(live, threshold - ones)


def compile_to_ac0(
    net: ThresholdNetwork,
    *,
    threshold_cap: int = DEFAULT_THRESHOLD_CAP,
    gate_budget: int = DEFAULT_GATE_BUDGET,
) -> Circuit:
    """Lower a non-negative-weight network to a constant-depth circuit.

    Temporal networks are unrolled over their steps (zero initial states
    become constant-0 wires).  Each unit contributes at most two gate
    levels, so the compiled depth is at most 2 * L * steps and never
    depends on the layer widths.
    """
    _check_compilable(net, threshold_cap)
    b = CircuitBuilder(gate_budget)
    steps = net.steps if net.kind is not ModelKind.NN else 1
    frames = [b.inputs(net.input_width) for _ in range(steps)]
    L = net.L

    history: list[list[list[int]]] = [[] for _ in range(L)]

    def state_wire(l: int, t: int, j: int) -> int:
        return history[l][t - 1][j] if t >= 1 else b.const(0)

    outputs: list[int] = []
    for t in range(1, steps + 1):
        acts = frames[t - 1]
        for l in range(L):
            w, th = net.weights[l], net.thresholds[l]
            out = []
            for j in range(net.widths[l + 1]):
                sources: list[int] = []
                for i in range(net.widths[l]):
                    sources.extend([acts[i]] * w[i][j])
                if net.kind is ModelKind.RNN:
                    rec = net.recurrent[l]
                    for k in range(net.widths[l + 1]):
                        sources.extend([state_wire(l, t - 1, k)] * rec[k][j])
                elif net.kind is ModelKind.LTST:
                    lags = net.recurrent[l][j]
                    for k in range(1, net.window + 1):
                        sources.extend([state_wire(l, t - k, j)] * lags[k - 1])
                out.append(_lower_unit(b, sources, th[j]))
            acts = out
            history[l].append(out)
        outputs = acts
    return b.build(outputs)


def network_to_json(net: ThresholdNetwork) -> dict:
    doc = {
        "kind": net.kind.value,
        "widths": list(net.widths),
        "q0": net.q0,
        "P": net.p_bound,
        "weights": [[list(r) for r in layer] for layer in net.weights],
        "thresholds": [list(layer) for layer in net.thresholds],
        "T": net.steps,
        "K": net.window,
    }
    if net.recurrent is not None:
        doc["recurrent"] = [[list(r) for r in layer] for layer in net.recurrent]
    return doc


def network_from_json(doc: dict) -> ThresholdNetwork:
    """Build a network from its JSON document.

    Raises ``ValueError`` naming the key when a required key is missing,
    when a key is unknown, when a value has the wrong JSON type, or when
    ``kind`` is unknown.
    """
    if not isinstance(doc, dict):
        raise ValueError("model document must be a JSON object")
    for key in doc:
        if key not in ("kind", "widths", "q0", "P", "weights", "thresholds", "recurrent", "T", "K"):
            raise ValueError(f"unknown model key {key!r}")
    try:
        kind = expect(doc["kind"], str, "kind").lower()
        if kind not in {k.value for k in ModelKind}:
            raise ValueError(f"key 'kind' must be nn, rnn or ltst, got {kind!r}")
        recurrent = doc.get("recurrent")
        return ThresholdNetwork(
            kind=ModelKind(kind),
            widths=expect(doc["widths"], int, "widths", depth=1),
            q0=expect(doc["q0"], int, "q0"),
            p_bound=expect(doc["P"], int, "P"),
            weights=expect(doc["weights"], int, "weights", depth=3),
            thresholds=expect(doc["thresholds"], int, "thresholds", depth=2),
            recurrent=None if recurrent is None else expect(recurrent, int, "recurrent", depth=3),
            steps=expect(doc.get("T", 1), int, "T"),
            window=expect(doc.get("K", 1), int, "K"),
        )
    except KeyError as exc:
        raise ValueError(f"model document misses required field {exc}") from None


def load_network(path) -> ThresholdNetwork:
    return network_from_json(json.loads(Path(path).read_text()))

