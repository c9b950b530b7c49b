"""The golden-regen script must reproduce the checked-in goldens exactly.

If this fails, either the simulator/exporter changed (regenerate the
golden deliberately and review the diff) or the regen script drifted
from the pinning test's fixture — both need a human decision, never a
silent fix.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import equivalence_digest
import golden_regen
from test_obs_export import GOLDEN_PATH

REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "path", [p for p in golden_regen.GOLDENS if p not in golden_regen.SLOW],
    ids=lambda p: p.name)
def test_regenerate_matches_checked_in_golden(path, tmp_path):
    out = golden_regen.regenerate(path, tmp_path / path.name)
    assert out.read_bytes() == path.read_bytes()


def test_equivalence_golden_pins_the_two_corpora():
    # Regenerating it takes ~10 s, so tier-1 checks only the wiring; CI's
    # golden-drift step compares the lines themselves.
    path = equivalence_digest.EQUIVALENCE_GOLDEN_PATH
    assert path in golden_regen.GOLDENS
    assert golden_regen.SLOW == (path,)
    lines = json.loads(path.read_text(encoding="utf-8"))
    assert [ln.split()[1:3] for ln in lines] == [
        [f"seed={seed}", f"scenarios={n}"]
        for seed, n in equivalence_digest.PINNED]


def test_check_prints_each_line_that_drifted(monkeypatch, capsys):
    # The slow golden's lines stand in for a recomputation, so the
    # comparison runs without the runs behind them.
    path = equivalence_digest.EQUIVALENCE_GOLDEN_PATH
    pinned = json.loads(path.read_text(encoding="utf-8"))
    lines = dict(zip(equivalence_digest.PINNED, pinned))
    monkeypatch.setattr(equivalence_digest, "line",
                        lambda seed, n: lines[(seed, n)])
    assert golden_regen.check(path) == []
    assert golden_regen.main(["--check", str(path)]) == 0
    assert capsys.readouterr().out == f"{path.name}: no drift\n"
    drifted = "0" * 64 + "  seed=2 scenarios=150 grid=30"
    lines[(2, 150)] = drifted
    diff = golden_regen.check(path)
    assert [ln for ln in diff if ln[0] in "+-" and ln[:3] not in
            ("+++", "---")] == [f'-  "{pinned[1]}"\n', f'+  "{drifted}"\n']
    assert golden_regen.main(["--check", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.startswith(f"{path.name}: DRIFTED")
    assert f'+  "{drifted}"\n' in out and pinned[0] not in out
    assert golden_regen.main(["--check", "no-such-golden.json"]) == 2


def test_regen_script_cli_matches_golden(tmp_path):
    out = tmp_path / "cli-regen.json"
    proc = subprocess.run(
        [sys.executable, str(REPO / "tests" / "golden_regen.py"), str(out)],
        capture_output=True, text=True, check=True)
    assert str(out) in proc.stdout
    assert out.read_bytes() == GOLDEN_PATH.read_bytes()
