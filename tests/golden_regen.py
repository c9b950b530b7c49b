"""Regenerate the golden files pinned by the tests.

:data:`GOLDENS` maps each checked-in golden to the function that builds
its exact text:

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
  policy grid).  Too slow for tier-1 (about 10 s, see :data:`SLOW`);
  CI's golden-drift step compares it.

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

from repro.obs.analysis import report_json  # noqa: E402
from test_obs_export import GOLDEN_PATH, golden_doc, golden_json  # noqa: E402
from test_obs_analysis import (ANALYSIS_GOLDEN_PATH,  # noqa: E402
                               analysis_golden_report)
from test_scxnest_golden import (SCXNEST_GOLDEN_PATH,  # noqa: E402
                                 scxnest_golden_report)
from test_golden_digests import (DIGEST_GOLDEN_PATH,  # noqa: E402
                                 digests_json, golden_digests)
from equivalence_digest import (EQUIVALENCE_GOLDEN_PATH,  # noqa: E402
                                golden_json as equivalence_json)

#: Checked-in golden -> the builder of its exact text.
GOLDENS = {
    GOLDEN_PATH: lambda: golden_json(golden_doc()) + "\n",
    ANALYSIS_GOLDEN_PATH: lambda: report_json(
        analysis_golden_report(cached=False)),
    SCXNEST_GOLDEN_PATH: lambda: report_json(
        scxnest_golden_report(cached=False)),
    DIGEST_GOLDEN_PATH: lambda: digests_json(golden_digests()),
    EQUIVALENCE_GOLDEN_PATH: equivalence_json,
}

#: Goldens too slow to regenerate in tier-1.
SLOW = (EQUIVALENCE_GOLDEN_PATH,)


def regenerate(path: Path, out: Optional[Path] = None) -> Path:
    """Write the golden ``path`` to ``out`` (default: ``path`` itself)."""
    out = Path(out) if out is not None else path
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(GOLDENS[path](), encoding="utf-8")
    return out


if __name__ == "__main__":
    if len(sys.argv) > 1:
        print(f"wrote {regenerate(GOLDEN_PATH, Path(sys.argv[1]))}")
    else:
        for path in GOLDENS:
            print(f"wrote {regenerate(path)}")
