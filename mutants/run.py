"""A committed mutation suite: each mutant must fail its test selection.

    python3 mutants/run.py

Run from anywhere; it reads the checkout it lives in.  For every row of
``MUTANTS`` it copies ``src/``, ``tests/``, ``pyproject.toml`` and
``README.md`` to a temporary directory, replaces the row's old text, which
must occur exactly once in its file, with the new text, and runs the row's
pytest selection there.  Each selection is first run on the unmutated copy,
where it must pass.  A mutant is killed when its selection then fails.

Exits 0 when every mutant is killed, and 1 when one survives, when a row's
old text is not found exactly once, or when a selection does not pass on the
unmutated code or ends in a pytest error rather than a test failure.

Rows leave out mutants that change no answer the code gives, such as a
rollout opponent that empties the first non-empty heap instead of the
largest, or ``<=`` for ``<`` in the restore reply's test: no test can kill
those, and none should.  Selections leave out ``test_heap_table_race``
unless they need it: it takes seconds and tests the solver's threads.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pyproject.toml", "README.md")

# pytest exits 1 when tests ran and some failed; 0 when all passed; any
# other code (no test collected, an interrupted or broken run) is an error
_FAILED = 1


class Mutant(NamedTuple):
    path: str  # relative to the checkout
    old: str
    new: str
    selection: tuple[str, ...]  # pytest arguments, run from the copy's root


_AGENTS = "src/nimcore/agents.py"
_ROLLOUT = ("tests/test_agents.py", "-k", "rollout")
_RESTORE = ("tests/test_agents.py", "-k", "restore or Restore")
_HARNESS = "src/nimcore/harness.py"
_CARRIED = ("tests/test_harness.py", "-k", "carried_nim_value")

MUTANTS: tuple[Mutant, ...] = (
    # the rollout stops after half its room, or answers yes when it runs out
    Mutant(_AGENTS, "for _ in range(ply_cap // 2):", "for _ in range(ply_cap // 4):", _ROLLOUT),
    Mutant(_AGENTS, "    return not any(heaps)\n", "    return True\n", _ROLLOUT),
    # the two-frame reply when a heap other than the first changed one changed too
    Mutant(
        _AGENTS,
        "if y >= x or pb[d + 1 :] != heaps[d + 1 :]:",
        "if y >= x:",
        _RESTORE,
    ),
    # the two-frame reply from an older frame that no probe proved zero
    Mutant(
        _AGENTS,
        "if pb not in self._proven or len(pb) != len(heaps):",
        "if len(pb) != len(heaps):",
        _RESTORE,
    ),
    # the match's carried NIM value without the changed heap's old count,
    # and a match that ends at a zero value with heaps left
    Mutant(
        _HARNESS,
        "after = value ^ frames[-1][move.heap_index] ^ move.new_count if nim else None",
        "after = value ^ move.new_count if nim else None",
        _CARRIED,
    ),
    Mutant(
        _HARNESS,
        "if (not after and not any(heaps)) if nim else _no_moves(heaps, rules):",
        "if (not after) if nim else _no_moves(heaps, rules):",
        _CARRIED,
    ),
    # a config key that is not a field, such as the retired ``budget``
    Mutant(
        _HARNESS,
        'raise ValueError(f"unknown {where} key {key!r}")',
        "continue",
        ("tests/test_harness.py", "-k", "malformed_json_config or budget_key"),
    ),
    # the win/loss walk settles a key as a WIN on a successor that is not a LOSS
    Mutant(
        "src/nimcore/games.py",
        "elif outcome is loss:",
        "elif outcome is not loss:",
        ("tests/test_games.py", "-k", "(WinLoss or win_loss) and not race"),
    ),
    # the depth-and-size sweep without its depth check, or without its size check
    Mutant(
        "src/nimcore/verify.py",
        "if len(set(depths.values())) != 1:",
        "if False:",
        ("tests/test_models.py", "-k", "DepthAndSizeSweep"),
    ),
    Mutant(
        "src/nimcore/verify.py",
        "if m.size * base_n**exponent > slack * base_size * n**exponent:",
        "if False:",
        ("tests/test_models.py", "-k", "DepthAndSizeSweep"),
    ),
    # the heuristic scorer built whatever its slot count
    Mutant(
        "src/nimcore/circuits/builders.py",
        "    b.reserve(n << l)\n",
        "",
        ("tests/test_agents.py", "tests/test_cli.py", "-k", "gate_budget"),
    ),
)


def _copy(dest: Path) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(source, dest / name)


def _pytest(tree: Path, selection: tuple[str, ...]) -> int:
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *selection]
    return subprocess.run(command, cwd=tree, capture_output=True).returncode


def _apply(tree: Path, mutant: Mutant) -> str | None:
    """Apply ``mutant`` to the copy at ``tree``; the problem, or None."""
    path = tree / mutant.path
    text = path.read_text()
    found = text.count(mutant.old)
    if found != 1:
        return f"old text found {found} times in {mutant.path}"
    path.write_text(text.replace(mutant.old, mutant.new))
    return None


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory(prefix="nimcore-mutants-") as tmp:
        clean = Path(tmp) / "clean"
        _copy(clean)
        for selection in dict.fromkeys(m.selection for m in MUTANTS):
            code = _pytest(clean, selection)
            if code:
                print(f"ERROR  {' '.join(selection)} exits {code} on the unmutated code")
                bad += 1
        for i, mutant in enumerate(MUTANTS):
            tree = Path(tmp) / f"mutant{i}"
            _copy(tree)
            started = time.perf_counter()
            problem = _apply(tree, mutant)
            if problem is None:
                code = _pytest(tree, mutant.selection)
                if code == 0:
                    problem = "SURVIVED"
                elif code != _FAILED:
                    problem = f"pytest exits {code}, not a test failure"
            shutil.rmtree(tree)
            seconds = time.perf_counter() - started
            label = f"{mutant.path}: {mutant.old.strip()!r} -> {mutant.new.strip()!r}"
            print(f"{'killed' if problem is None else 'ERROR '} {seconds:5.1f}s  {label}")
            if problem is not None:
                print(f"       {problem}")
                bad += 1
    print(f"{len(MUTANTS)} mutants, {bad} problems")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
