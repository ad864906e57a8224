import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nimcore
from nimcore import cli, harness
from nimcore.circuits.builders import (
    build_even_nonempty_scorer,
    build_nimber_diff_circuit,
    threshold_at_least,
)
from nimcore.circuits.ir import Circuit, Gate, save_circuit
from nimcore.cli import main
from nimcore.models import ModelKind, ThresholdNetwork, network_to_json
from nimcore.verify import VerifyReport, VerifyResult


class TestPlay:
    def test_oracle_vs_random(self, capsys):
        rc = main(
            [
                "play",
                "--rules",
                "nim",
                "--start",
                "3,5,7",
                "--first",
                "oracle",
                "--second",
                "multiframe",
                "--seed",
                "7",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "winner: first" in out

    def test_record_written(self, tmp_path, capsys):
        record = tmp_path / "match.json"
        rc = main(
            [
                "play",
                "--start",
                "2,2",
                "--first",
                "oracle",
                "--second",
                "oracle",
                "--record",
                str(record),
            ]
        )
        assert rc == 0
        doc = json.loads(record.read_text())
        assert doc["winner"] == "second"  # zero start, mirroring defends

    def test_scripted_players(self, capsys):
        rc = main(
            [
                "play",
                "--start",
                "2,1",
                "--first",
                "script:0:0;1:0",
                "--second",
                "script:0:0;1:0",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "forfeit:" not in out
        assert "winner: second" in out

    def test_script_that_runs_out_forfeits(self, capsys):
        rc = main(["play", "--start", "3,5,7", "--first", "script:0:2", "--second", "oracle"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-2:] == [
            "forfeit: first (script): scripted move list exhausted",
            "winner: second (oracle)",
        ]

    def test_bad_agent_spec(self, capsys):
        rc = main(["play", "--start", "1", "--first", "nope", "--second", "oracle"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["mirror71:x", "mirror72:1:first:x", "script:0"])
    def test_malformed_agent_argument_names_the_spec(self, capsys, spec):
        rc = main(["play", "--start", "1,2,2", "--first", spec, "--second", "oracle"])
        assert rc == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error:") and repr(spec) in line

    def test_malformed_rules_spec_is_named(self, capsys):
        rc = main(
            ["play", "--rules", "subtraction:1,x", "--start", "3",
             "--first", "oracle", "--second", "oracle"]
        )
        assert rc == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error:") and "'subtraction:1,x'" in line

    @pytest.mark.parametrize(
        "flags",
        [
            ["--max-heap-size", "0"],
        ],
    )
    def test_bad_bounds_rejected(self, capsys, flags):
        rc = main(
            ["play", "--start", "3,5,7,9,11", "--first", "multiframe", "--second", "oracle"]
            + flags
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_no_rollout_budget_option(self, capsys):
        # the budget changed no move, so play offers no option for it
        with pytest.raises(SystemExit) as exc:
            main(["play", "--help"])
        assert exc.value.code == 0
        assert "-cap" not in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["play", "--start", "3,5", "--first", "multiframe", "--second", "oracle",
                  "--ply-cap", "4"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --ply-cap 4" in capsys.readouterr().err

    def test_heuristic_over_the_gate_budget_is_refused(self, capsys):
        # 2 * 2**20 output slots, each a reused gate: refused before any
        # gate is built (at 2**30 the build would need about 50 GB)
        rc = main(["play", "--start", "1,2", "--max-heap-size", str(2**20 - 1),
                   "--first", "singleframe-heuristic", "--second", "oracle"])
        assert rc == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error:") and "exceeds the budget of 1000000" in line


_CONFIG = {
    "heap_counts": [3],
    "max_heap_size": 7,
    "agents": ["oracle"],
    "games_per_cell": 1,
    "seed": 5,
}
_MODEL = {"kind": "nn", "widths": [1, 1], "q0": 1, "P": 1, "weights": [[[1]]], "thresholds": [[1]]}


class TestTournament:
    def test_runs_config(self, tmp_path, capsys):
        cfg = {
            "rules": "nim",
            "heap_counts": [3],
            "max_heap_size": 7,
            "agents": ["oracle"],
            "opponent": "random",
            "games_per_cell": 2,
            "seed": 5,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = main(["tournament", "--config", str(path), "--out-dir", str(tmp_path / "res")])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("heap_count,agent,")
        assert (tmp_path / "res" / "results.csv").exists()

    def test_config_without_seed_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"heap_counts": [3], "agents": ["oracle"], "games_per_cell": 1}))
        rc = main(["tournament", "--config", str(path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, key",
        [
            (dict(heap_counts=3), "heap_counts"),
            (dict(heap_counts=[3, True]), "heap_counts"),
            # no config sets a rollout budget
            pytest.param(
                dict(budget={"exhaustive_cap": [2]}), "unknown config key 'budget'",
                id="edit2-budget",
            ),
            pytest.param(
                dict(budget={"ply_cap": 2.5}), "unknown config key 'budget'", id="edit3-budget"
            ),
            (dict(rules=5), "rules"),
            (dict(opponent=7), "opponent"),
            (dict(agents="oracle"), "agents"),
            (dict(agents=["oracle", 1]), "agents"),
            (dict(games_per_cell=1.9), "games_per_cell"),
            (dict(seed="12"), "seed"),
            (dict(seed=True), "seed"),
            (dict(max_heap_size=[7]), "max_heap_size"),
            (dict(start_mode=0), "start_mode"),
            (dict(out_dir=1), "out_dir"),
        ],
    )
    def test_wrong_json_type_names_the_key(self, tmp_path, capsys, edit, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**_CONFIG, **edit}))
        rc = main(["tournament", "--config", str(path)])
        assert rc == 2
        assert key in capsys.readouterr().err

    def test_malformed_rules_spec_is_named(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**_CONFIG, "rules": "subtraction:2,q"}))
        rc = main(["tournament", "--config", str(path)])
        assert rc == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error:") and "'subtraction:2,q'" in line

    @pytest.mark.parametrize("scorer", [True, False], ids=["3-heap-scorer", "missing-file"])
    def test_singleframe_config_refused_before_any_game(
        self, tmp_path, capsys, monkeypatch, scorer
    ):
        circuit = tmp_path / "scorer.ac0"
        if scorer:
            save_circuit(build_even_nonempty_scorer(3, 3), circuit)
        games = []
        play_match = harness.play_match

        def counted(*args, **kwargs):
            games.append(args)
            return play_match(*args, **kwargs)

        monkeypatch.setattr(harness, "play_match", counted)
        doc = {**_CONFIG, "heap_counts": [3, 4], "agents": ["oracle", f"singleframe:{circuit}"]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        rc = main(["tournament", "--config", str(path), "--out-dir", str(tmp_path / "res")])
        assert rc == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error:")
        assert games == []
        assert not (tmp_path / "res" / "results.csv").exists()


class TestCompileModel:
    def test_compile_and_verify_output(self, tmp_path, capsys):
        net = ThresholdNetwork(
            ModelKind.NN, (3, 1), 1, 1, (((1,), (1,), (1,)),), ((1,),)
        )
        model = tmp_path / "model.json"
        model.write_text(json.dumps(network_to_json(net)))
        out = tmp_path / "or.ac0"
        rc = main(["compile-model", str(model), "-o", str(out)])
        assert rc == 0
        assert "depth 2" in capsys.readouterr().out
        from nimcore.circuits.ir import load_circuit

        c = load_circuit(out)
        assert c.evaluate([0, 1, 0]) == (1,)
        assert c.evaluate([0, 0, 0]) == (0,)

    def test_negative_weights_error(self, tmp_path, capsys):
        net_doc = {
            "kind": "nn",
            "widths": [1, 1],
            "q0": 1,
            "P": 1,
            "weights": [[[-1]]],
            "thresholds": [[0]],
        }
        model = tmp_path / "bad.json"
        model.write_text(json.dumps(net_doc))
        rc = main(["compile-model", str(model), "-o", str(tmp_path / "x.ac0")])
        assert rc == 2
        assert "negative weight" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "threshold, flags, message",
        [
            (3, ["--threshold-cap", "2"], "layer 1 unit 0 threshold 3 exceeds the cap 2"),
            (2, ["--gate-budget", "8"], "exceeds the budget of 8"),
        ],
        ids=["threshold-cap", "gate-budget"],
    )
    def test_compile_settings_refuse(self, tmp_path, capsys, threshold, flags, message):
        # C(4, 2) + 1 = 7 gates after the 4 inputs do not fit a budget of 8
        net = ThresholdNetwork(ModelKind.NN, (4, 1), 1, 3, (((1,),) * 4,), ((threshold,),))
        model = tmp_path / "model.json"
        model.write_text(json.dumps(network_to_json(net)))
        out = tmp_path / "x.ac0"
        rc = main(["compile-model", str(model), "-o", str(out), *flags])
        assert rc == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error:") and message in line
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit, key",
        [
            (dict(q0=[1]), "q0"),
            (dict(kind=3), "kind"),
            (dict(kind="cnn"), "kind"),
            (dict(widths="1,1"), "widths"),
            (dict(P=True), "P"),
            (dict(weights=[[[1.5]]]), "weights"),
            (dict(weights=[[1]]), "weights"),
            (dict(thresholds=[["1"]]), "thresholds"),
            (dict(recurrent=5), "recurrent"),
            (dict(T=1.0), "T"),
            (dict(K="2"), "K"),
            (dict(steps=3), "steps"),
        ],
    )
    def test_wrong_json_type_names_the_key(self, tmp_path, capsys, edit, key):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({**_MODEL, **edit}))
        rc = main(["compile-model", str(model), "-o", str(tmp_path / "x.ac0")])
        assert rc == 2
        assert repr(key) in capsys.readouterr().err


class TestVerifyCircuit:
    def test_good_circuit_passes(self, tmp_path, capsys):
        path = tmp_path / "nd.ac0"
        save_circuit(build_nimber_diff_circuit(4, 3, 2), path)
        rc = main(
            [
                "verify-circuit",
                str(path),
                "--against",
                "nimber-diff",
                "--n",
                "4",
                "--l",
                "3",
                "--k",
                "2",
                "--samples",
                "200",
            ]
        )
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_wrong_shape_fails(self, tmp_path, capsys):
        path = tmp_path / "nd.ac0"
        save_circuit(build_nimber_diff_circuit(4, 3, 2), path)
        rc = main(
            ["verify-circuit", str(path), "--against", "nimber-diff", "--n", "5", "--l", "3"]
        )
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_wrong_semantics_fails(self, tmp_path, capsys):
        # 24 inputs fit n=4, l=3, but one output is not the oracle's four
        path = tmp_path / "threshold.ac0"
        save_circuit(threshold_at_least(24, 1), path)
        rc = main(
            ["verify-circuit", str(path), "--against", "nimber-diff", "--n", "4", "--l", "3"]
        )
        assert rc == 1

    @pytest.mark.parametrize("flaw", ["reversed-value", "never-valid", "always-valid"])
    def test_wrong_values_fail(self, tmp_path, capsys, flaw):
        # the right shape but the wrong values: value bits least significant
        # first, or a constant validity bit
        good = build_nimber_diff_circuit(4, 3, 2)
        gates = list(good.gates) + [Gate("CONST0"), Gate("CONST1")]
        value, valid = good.outputs[:3], good.outputs[3:]
        if flaw == "reversed-value":
            value = tuple(reversed(value))
        else:
            valid = (len(gates) - (2 if flaw == "never-valid" else 1),)
        path = tmp_path / "flawed.ac0"
        save_circuit(Circuit(gates, value + valid, good.input_arity), path)
        rc = main(
            ["verify-circuit", str(path), "--against", "nimber-diff", "--n", "4", "--l", "3",
             "--samples", "200"]
        )
        assert rc == 1
        assert "mismatches over 200 sampled pairs" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags, option",
        [
            (["--samples", "0"], "--samples"),
            (["--samples", "-3"], "--samples"),
            (["--k", "4"], "--k"),
            (["--k", "-1"], "--k"),
        ],
    )
    def test_out_of_range_option_is_named(self, tmp_path, capsys, flags, option):
        path = tmp_path / "nd.ac0"
        save_circuit(build_nimber_diff_circuit(3, 2, 2), path)
        rc = main(
            ["verify-circuit", str(path), "--against", "nimber-diff", "--n", "3", "--l", "2"]
            + flags
        )
        assert rc == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("error:") and option in line
        assert "PASS" not in captured.out


class TestVerifySubcommand:
    def test_single_check_smoke(self, capsys):
        # run_checks is exercised in depth elsewhere; here just the CLI wiring
        from nimcore.verify import run_checks

        report = run_checks(["worked-example"], "desk")
        assert report.ok
        assert any("PASS worked-example" in line for line in report.summary_lines())

    def test_failing_report_exits_1(self, monkeypatch, capsys):
        report = VerifyReport("desk", [VerifyResult("worked-example", False, "broken")])
        monkeypatch.setattr(cli, "run_checks", lambda names, scale: report)
        assert main(["verify"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "FAIL worked-example: broken",
            "FAIL verify (desk): 0/1 checks green",
        ]


def test_python_dash_m_runs_the_cli():
    src = str(Path(nimcore.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    result = subprocess.run(
        [sys.executable, "-m", "nimcore", "verify", "--help"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert "--scale" in result.stdout
