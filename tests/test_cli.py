import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nimcore
from nimcore.circuits.builders import build_nimber_diff_circuit
from nimcore.circuits.ir import Circuit, Gate, save_circuit
from nimcore.cli import main
from nimcore.models import ModelKind, ThresholdNetwork, network_to_json


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

    @pytest.mark.parametrize(
        "flags",
        [
            ["--max-heap-size", "0"],
            ["--ply-cap", "0", "--exhaustive-cap", "0"],
            ["--exhaustive-cap", "-1"],
            # once a RecursionError in the multi-frame agent's sweep
            ["--exhaustive-cap", str(2**4000)],
            ["--exhaustive-cap", str(2**16 + 1)],
        ],
    )
    def test_bad_bounds_rejected(self, capsys, flags):
        rc = main(
            ["play", "--start", "3,5,7,9,11", "--first", "multiframe", "--second", "oracle"]
            + flags
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cap, shown",
        [(2**4000, "got a 1205-digit number"), (2**16 + 1, "got 65537")],
        ids=["2**4000", "2**16+1"],
    )
    def test_out_of_range_error_is_one_short_line(self, capsys, cap, shown):
        rc = main(
            ["play", "--start", "3,5", "--first", "multiframe", "--second", "oracle",
             "--exhaustive-cap", str(cap)]
        )
        assert rc == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error:") and line.endswith(shown)
        assert len(line) < 200


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
            (dict(budget={"exhaustive_cap": [2]}), "exhaustive_cap"),
            (dict(budget={"ply_cap": 2.5}), "ply_cap"),
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
        # a diff-mask circuit has the wrong output count for the oracle
        from nimcore.circuits.builders import build_diff_mask_circuit

        path = tmp_path / "mask.ac0"
        save_circuit(build_diff_mask_circuit(4, 3), path)
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


class TestVerifySubcommand:
    def test_single_check_smoke(self, capsys):
        # run_checks is exercised in depth elsewhere; here just the CLI wiring
        from nimcore.verify import run_checks

        report = run_checks(["worked-example"], "desk")
        assert report.ok
        assert any("PASS worked-example" in line for line in report.summary_lines())


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
