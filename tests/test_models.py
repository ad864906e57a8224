import itertools
import json
import random
import re

import pytest

from nimcore import verify
from nimcore.circuits.builders import threshold_at_least
from nimcore.circuits.ir import Circuit, Gate
from nimcore.errors import (
    EncodingError,
    GateBudgetError,
    ThresholdCapError,
    UnsupportedModelError,
)
from nimcore.models import (
    ModelKind,
    ThresholdNetwork,
    compile_to_ac0,
    eval_model,
    network_from_json,
    network_to_json,
)
from nimcore.verify import _depth_and_size_sweep, _flat_bits, _model_inputs, _random_network


def nn(widths, weights, thresholds, q0=1, p_bound=4):
    return ThresholdNetwork(ModelKind.NN, widths, q0, p_bound, weights, thresholds)


class TestEval:
    def test_boundary_fires(self):
        net = nn((2, 1), (((1,), (1,)),), ((2,),))
        assert eval_model(net, (1, 1)) == (1,)
        assert eval_model(net, (1, 0)) == (0,)

    def test_rnn_latch(self):
        net = ThresholdNetwork(
            ModelKind.RNN,
            (1, 1),
            q0=1,
            p_bound=1,
            weights=((((1,),)),),
            thresholds=((1,),),
            recurrent=(((1,),),),
            steps=3,
        )
        # hand-unrolled: t1 fires from the input, later steps hold via recurrence
        assert eval_model(net, ((1,), (0,), (0,))) == (1,)
        assert eval_model(net, ((0,), (0,), (0,))) == (0,)

    def test_ltst_lags_reach_back(self):
        # unit fires at t=1 from input, then again at t=3 through the lag-2 weight
        net = ThresholdNetwork(
            ModelKind.LTST,
            (1, 1),
            q0=1,
            p_bound=1,
            weights=((((1,),)),),
            thresholds=((1,),),
            recurrent=((((0, 1),)),),
            steps=3,
            window=2,
        )
        assert eval_model(net, ((1,), (0,), (0,))) == (1,)

    def test_width_mismatch_rejected(self):
        net = nn((2, 1), (((1,), (1,)),), ((1,),))
        with pytest.raises(EncodingError):
            eval_model(net, (1, 0, 1))
        with pytest.raises(EncodingError):
            eval_model(net, (1, 2))

    def test_negative_threshold_always_fires(self):
        net = nn((1, 1), (((0,),),), ((-1,),))
        assert eval_model(net, (0,)) == (1,)


class TestValidation:
    def test_numerator_bound(self):
        with pytest.raises(ValueError):
            nn((1, 1), (((9,),),), ((0,),), p_bound=3)

    def test_rnn_needs_recurrence(self):
        with pytest.raises(ValueError):
            ThresholdNetwork(
                ModelKind.RNN, (1, 1), 1, 1, ((((1,),)),), ((1,),), steps=2
            )

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            nn((2, 1), (((1,),),), ((1,),))  # weight matrix wrong shape

    # one edit of a valid two-input, one-unit network per refused field
    @pytest.mark.parametrize(
        "edit, message",
        [
            (dict(widths=(2,)), "widths needs an input width"),
            (dict(widths=(2, 0)), "widths needs an input width"),
            (dict(q0=0), "q0 and the numerator bound must be >= 1"),
            (dict(p_bound=0), "q0 and the numerator bound must be >= 1"),
            (dict(steps=0), "steps and window must be >= 1"),
            (dict(window=0), "steps and window must be >= 1"),
            (dict(weights=()), "need one weight matrix and threshold vector per layer"),
            (dict(thresholds=()), "need one weight matrix and threshold vector per layer"),
            (dict(weights=(((1,),),)), "layer 1 weight matrix must be 2x1"),
            (dict(thresholds=((1, 1),)), "layer 1 needs 1 thresholds"),
            (dict(thresholds=((5,),)), "numerator 5 exceeds the bound 4"),
            (dict(recurrent=(((1,),),)), "feed-forward networks take no recurrent weights"),
            (dict(steps=2), "feed-forward networks run a single step"),
            (dict(kind=ModelKind.RNN), "rnn networks need recurrent weights"),
            (dict(kind=ModelKind.LTST, recurrent=()), "need one recurrent block per layer"),
            (
                dict(kind=ModelKind.RNN, recurrent=(((1, 1),),)),
                "layer 1 recurrence must be 1x1",
            ),
            (
                dict(kind=ModelKind.LTST, recurrent=(((1,),),), window=2),
                "layer 1 lag weights must be 1x2",
            ),
            (
                dict(kind=ModelKind.RNN, recurrent=(((5,),),)),
                "numerator 5 exceeds the bound 4",
            ),
            (
                dict(kind=ModelKind.RNN, recurrent=(((1,),),), window=2),
                "the RNN recurrence looks back exactly one step",
            ),
            # whole-number fields: refused, not truncated or taken as given
            (dict(widths=(2.7, 1)), "widths entry 2.7 is not an int"),
            (dict(widths=(2, True)), "widths entry True is not an int"),
            (dict(weights=(((0.5,), (1,)),)), "weights entry 0.5 is not an int"),
            (dict(weights=(((1,), (1.9,)),)), "weights entry 1.9 is not an int"),
            (dict(thresholds=((1.2,),)), "thresholds entry 1.2 is not an int"),
            (
                dict(kind=ModelKind.RNN, recurrent=(((1.0,),),)),
                "recurrent entry 1.0 is not an int",
            ),
            (dict(q0=1.5), "q0 1.5 is not an int"),
            (dict(q0=True), "q0 True is not an int"),
            (dict(p_bound=2.5), "p_bound 2.5 is not an int"),
            # a float step count once got as far as eval_model's bare TypeError
            (
                dict(kind=ModelKind.RNN, recurrent=(((1,),),), steps=2.0),
                "steps 2.0 is not an int",
            ),
            (dict(window=1.0), "window 1.0 is not an int"),
        ],
    )
    def test_refused_field_is_named(self, edit, message):
        fields = dict(
            kind=ModelKind.NN, widths=(2, 1), q0=1, p_bound=4,
            weights=(((1,), (1,)),), thresholds=((1,),),
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            ThresholdNetwork(**{**fields, **edit})

    def test_wrong_frame_count(self):
        net = ThresholdNetwork(
            ModelKind.RNN, (1, 1), 1, 1, ((((1,),)),), ((1,),), recurrent=(((1,),),), steps=2
        )
        with pytest.raises(EncodingError, match="expected 2 input frames, got 1"):
            eval_model(net, ((1,),))


class TestCompile:
    def test_and_or_neurons(self):
        and_net = nn((2, 1), (((1,), (1,)),), ((2,),))
        or_net = nn((3, 1), (((1,), (1,), (1,)),), ((1,),))
        c_and = compile_to_ac0(and_net)
        c_or = compile_to_ac0(or_net)
        assert c_and.evaluate([1, 1]) == (1,)
        assert c_and.evaluate([1, 0]) == (0,)
        for bits in itertools.product((0, 1), repeat=3):
            assert c_or.evaluate(list(bits)) == (1 if any(bits) else 0,)

    def test_negative_weight_rejected(self):
        net = nn((1, 1), (((-1,),),), ((0,),))
        with pytest.raises(UnsupportedModelError):
            compile_to_ac0(net)

    def test_negative_recurrent_weight_rejected(self):
        net = ThresholdNetwork(
            ModelKind.RNN, (1, 1), 1, 1, ((((1,),)),), ((1,),), recurrent=(((-1,),),), steps=2
        )
        with pytest.raises(UnsupportedModelError, match="negative recurrent weight -1 in layer 1"):
            compile_to_ac0(net)

    def test_threshold_cap_names_unit(self):
        net = nn((8, 1), (((1,),) * 8,), ((5,),), p_bound=5)
        with pytest.raises(ThresholdCapError, match="layer 1 unit 0"):
            compile_to_ac0(net, threshold_cap=4)

    def test_weight_replication(self):
        # weight 2/1 means two copies: a single active input meets threshold 2
        net = nn((2, 1), (((2,), (1,)),), ((2,),), p_bound=2)
        c = compile_to_ac0(net)
        for bits in itertools.product((0, 1), repeat=2):
            assert c.evaluate(list(bits)) == eval_model(net, bits)

    def test_differential_random_models(self):
        rng = random.Random(99)
        done = 0
        while done < 40:
            net = _random_network(rng)
            try:
                circuit = compile_to_ac0(net, gate_budget=200_000)
            except GateBudgetError:
                continue
            for model_input in _model_inputs(net, rng, 40):
                assert tuple(circuit.evaluate(_flat_bits(net, model_input))) == tuple(
                    eval_model(net, model_input)
                )
            done += 1

    def test_depth_bound(self):
        rng = random.Random(3)
        for _ in range(10):
            net = _random_network(rng)
            try:
                circuit = compile_to_ac0(net, gate_budget=200_000)
            except GateBudgetError:
                continue
            steps = net.steps if net.kind is not ModelKind.NN else 1
            assert circuit.metrics().depth <= 2 * net.L * steps


class TestDepthAndSizeSweep:
    def test_or_family_linear(self):
        sizes = []

        def build(n):
            circuit = compile_to_ac0(nn((n, 1), (((1,),) * n,), ((1,),)))
            sizes.append(circuit.metrics().size)
            return circuit

        ok, detail = _depth_and_size_sweep(build, (4, 8, 16), exponent=1, slack=2)
        assert ok
        assert detail == "depth 2 for n in (4, 8, 16)"
        assert sizes == [5, 9, 17]

    def test_cap_violation_reported_not_raised(self):
        def family(n):
            return nn((n, 1), (((1,),) * n,), ((6,),), p_bound=6)

        ok, detail = _depth_and_size_sweep(
            lambda n: compile_to_ac0(family(n)), (4, 8), exponent=6, slack=2
        )
        assert not ok
        assert detail.startswith("n=4: ") and "threshold" in detail

    def test_growing_depth_fails(self):
        def chain(n):  # n NOT gates in a row: depth n
            return Circuit([Gate("INPUT")] + [Gate("NOT", (i,)) for i in range(n)], (n,), 1)

        assert _depth_and_size_sweep(chain, (2, 4), exponent=1, slack=2) == (
            False,
            "depth varies with n: {2: 2, 4: 4}",
        )

    def test_size_past_the_exponent_fails(self):
        # sizes 7, 29, 121 grow as n^2, a linear fit at n=4 is 1.75 * n
        ok, detail = _depth_and_size_sweep(
            lambda n: threshold_at_least(n, 2), (4, 8, 16), exponent=1, slack=2
        )
        assert not ok
        assert detail == "size 29 at n=8 exceeds 2 * 1.750 * n^1"

    def test_both_checks_use_the_sweep(self, monkeypatch):
        monkeypatch.setattr(
            verify, "_depth_and_size_sweep", lambda *args, **kwargs: (False, "n=4: refused")
        )
        assert verify.check_nimber_diff_circuit(samples_per_config=1) == (False, "n=4: refused")
        assert verify.check_compiler_depth_independence() == (False, "or family: n=4: refused")


class TestJsonFormat:
    def test_round_trip(self):
        rng = random.Random(7)
        for _ in range(10):
            net = _random_network(rng)
            doc = network_to_json(net)
            back = network_from_json(json.loads(json.dumps(doc)))
            assert back == net

    def test_missing_field(self):
        with pytest.raises(ValueError, match="kind"):
            network_from_json({"widths": [1, 1]})


class _Runaway(BaseException):
    """Stops a check that keeps retrying after a compiler error."""


def test_compiler_differential_raises_compiler_errors(monkeypatch):
    from nimcore import verify

    calls = []

    def broken(net, **kwargs):
        calls.append(net)
        if len(calls) > 50:
            raise _Runaway("compiler errors were resampled")
        raise RuntimeError("compiler bug")

    monkeypatch.setattr(verify, "compile_to_ac0", broken)
    with pytest.raises(RuntimeError, match="compiler bug"):
        verify.check_compiler_differential(models=2, inputs_per_model=1)
    assert len(calls) == 1
