"""Regenerate the golden files pinned by the observability tests.

* ``tests/data/golden_trace.json`` — the Perfetto trace of the pinned
  hand-built run (test_obs_export.py).
* ``tests/data/golden_analysis.json`` — the trace-analysis report of
  the fig2 reference run (test_obs_analysis.py).
* ``tests/data/golden_scxnest_analysis.json`` — the same report for the
  pinned scx_nest run (test_scxnest_golden.py).
* ``tests/data/golden_digests.json`` — result and event-log digests of
  the pinned reference runs, the bit-identity guard for engine changes
  (test_golden_digests.py).
* ``tests/data/equivalence_digests.json`` — the two pinned lines of
  ``tests/equivalence_digest.py`` (fuzz corpora plus the machine ×
  policy grid).  Too slow for tier-1 (about 10 s); CI's golden-drift
  step compares it.

Run after an *intentional* simulator, exporter or analyzer change::

    PYTHONPATH=src:tests python tests/golden_regen.py

then review the diffs under tests/data/ before committing.  An explicit
output path regenerates only the trace golden elsewhere
(test_golden_regen.py uses this to prove the script reproduces the
checked-in file byte for byte)::

    PYTHONPATH=src:tests python tests/golden_regen.py /tmp/regen.json
"""

import sys
from pathlib import Path
from typing import Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_obs_export import GOLDEN_PATH, golden_doc, golden_json  # noqa: E402
from test_obs_analysis import (ANALYSIS_GOLDEN_PATH,  # noqa: E402
                               analysis_golden_report)
from test_scxnest_golden import (SCXNEST_GOLDEN_PATH,  # noqa: E402
                                 scxnest_golden_report)
from test_golden_digests import (DIGEST_GOLDEN_PATH,  # noqa: E402
                                 digests_json, golden_digests)
from equivalence_digest import (EQUIVALENCE_GOLDEN_PATH,  # noqa: E402
                                golden_json as equivalence_json)


def regenerate(out: Optional[Path] = None) -> Path:
    """Write the golden trace to ``out`` (default: the checked-in path)."""
    out = Path(out) if out is not None else GOLDEN_PATH
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(golden_json(golden_doc()) + "\n", encoding="utf-8")
    return out


def regenerate_analysis(out: Optional[Path] = None) -> Path:
    """Write the golden analysis report (default: the checked-in path)."""
    from repro.obs.analysis import report_json
    out = Path(out) if out is not None else ANALYSIS_GOLDEN_PATH
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(report_json(analysis_golden_report(cached=False)),
                   encoding="utf-8")
    return out


def regenerate_scxnest(out: Optional[Path] = None) -> Path:
    """Write the golden scxnest analysis report (default: checked in)."""
    from repro.obs.analysis import report_json
    out = Path(out) if out is not None else SCXNEST_GOLDEN_PATH
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(report_json(scxnest_golden_report(cached=False)),
                   encoding="utf-8")
    return out


def regenerate_digests(out: Optional[Path] = None) -> Path:
    """Write the golden run digests (default: the checked-in path)."""
    out = Path(out) if out is not None else DIGEST_GOLDEN_PATH
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(digests_json(golden_digests()), encoding="utf-8")
    return out


def regenerate_equivalence(out: Optional[Path] = None) -> Path:
    """Write the pinned equivalence lines (default: the checked-in path)."""
    out = Path(out) if out is not None else EQUIVALENCE_GOLDEN_PATH
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(equivalence_json(), encoding="utf-8")
    return out


if __name__ == "__main__":
    if len(sys.argv) > 1:
        print(f"wrote {regenerate(Path(sys.argv[1]))}")
    else:
        print(f"wrote {regenerate()}")
        print(f"wrote {regenerate_analysis()}")
        print(f"wrote {regenerate_scxnest()}")
        print(f"wrote {regenerate_digests()}")
        print(f"wrote {regenerate_equivalence()}")
