"""The golden-regen script must reproduce the checked-in golden exactly.

If this fails, either the simulator/exporter changed (regenerate the
golden deliberately and review the diff) or the regen script drifted
from the pinning test's fixture — both need a human decision, never a
silent fix.
"""

import json
import subprocess
import sys
from pathlib import Path

import equivalence_digest
import golden_regen
from test_golden_digests import DIGEST_GOLDEN_PATH
from test_obs_analysis import ANALYSIS_GOLDEN_PATH
from test_obs_export import GOLDEN_PATH
from test_scxnest_golden import SCXNEST_GOLDEN_PATH

REPO = Path(__file__).resolve().parent.parent


def test_regenerate_matches_checked_in_golden(tmp_path):
    out = golden_regen.regenerate(tmp_path / "regen.json")
    assert out.read_bytes() == GOLDEN_PATH.read_bytes()


def test_regenerate_analysis_matches_checked_in_golden(tmp_path):
    out = golden_regen.regenerate_analysis(tmp_path / "analysis.json")
    assert out.read_bytes() == ANALYSIS_GOLDEN_PATH.read_bytes()


def test_analysis_default_path_is_the_pinned_golden():
    assert ANALYSIS_GOLDEN_PATH.exists()
    assert ANALYSIS_GOLDEN_PATH.name == "golden_analysis.json"


def test_regenerate_scxnest_matches_checked_in_golden(tmp_path):
    out = golden_regen.regenerate_scxnest(tmp_path / "scxnest.json")
    assert out.read_bytes() == SCXNEST_GOLDEN_PATH.read_bytes()


def test_scxnest_default_path_is_the_pinned_golden():
    assert golden_regen.SCXNEST_GOLDEN_PATH == SCXNEST_GOLDEN_PATH
    assert SCXNEST_GOLDEN_PATH.exists()
    assert SCXNEST_GOLDEN_PATH.name == "golden_scxnest_analysis.json"


def test_regenerate_digests_matches_checked_in_golden(tmp_path):
    out = golden_regen.regenerate_digests(tmp_path / "digests.json")
    assert out.read_bytes() == DIGEST_GOLDEN_PATH.read_bytes()


def test_digests_default_path_is_the_pinned_golden():
    assert golden_regen.DIGEST_GOLDEN_PATH == DIGEST_GOLDEN_PATH
    assert DIGEST_GOLDEN_PATH.exists()
    assert DIGEST_GOLDEN_PATH.name == "golden_digests.json"


def test_equivalence_golden_pins_the_two_corpora():
    # Regenerating it takes ~10 s, so tier-1 checks only the wiring; CI's
    # golden-drift step compares the lines themselves.
    path = golden_regen.EQUIVALENCE_GOLDEN_PATH
    assert path == equivalence_digest.EQUIVALENCE_GOLDEN_PATH
    lines = json.loads(path.read_text(encoding="utf-8"))
    assert [ln.split()[1:3] for ln in lines] == [
        [f"seed={seed}", f"scenarios={n}"]
        for seed, n in equivalence_digest.PINNED]


def test_regen_script_cli_matches_golden(tmp_path):
    out = tmp_path / "cli-regen.json"
    proc = subprocess.run(
        [sys.executable, str(REPO / "tests" / "golden_regen.py"), str(out)],
        capture_output=True, text=True, check=True)
    assert str(out) in proc.stdout
    assert out.read_bytes() == GOLDEN_PATH.read_bytes()


def test_regen_default_path_is_the_pinned_golden():
    # Guard the wiring: without an argument the script would overwrite
    # exactly the file the pinning test reads.
    assert golden_regen.GOLDEN_PATH == GOLDEN_PATH
    assert GOLDEN_PATH.exists()
