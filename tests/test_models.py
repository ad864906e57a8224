import itertools
import json
import random

import pytest

from nimcore.errors import (
    EncodingError,
    GateBudgetError,
    ThresholdCapError,
    UnsupportedModelError,
)
from nimcore.models import (
    ModelKind,
    ThresholdNetwork,
    certify_compilation,
    compile_to_ac0,
    eval_model,
    network_from_json,
    network_to_json,
)
from nimcore.verify import _model_inputs, _flat_bits, _random_network


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


class TestCertify:
    def test_or_family_linear(self):
        def family(n):
            return nn((n, 1), (((1,),) * n,), ((1,),))

        report = certify_compilation(family, (4, 8, 16))
        assert report.ok
        assert {p.depth for p in report.points} == {2}
        assert [p.size for p in report.points] == [5, 9, 17]

    def test_cap_violation_reported_not_raised(self):
        def family(n):
            return nn((n, 1), (((1,),) * n,), ((6,),), p_bound=6)

        report = certify_compilation(family, (4, 8))
        assert not report.ok
        assert any("threshold" in v for v in report.violations)


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
