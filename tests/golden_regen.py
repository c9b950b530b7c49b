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

``--check`` regenerates the named goldens (default: all of them) in
memory and prints, for each, ``no drift`` or the lines that differ from
the checked-in file; it exits 1 if any drifted.  CI's golden-drift step
runs it over every golden, and a change that claims bit-identity runs
it over the slow one::

    PYTHONPATH=src:tests python tests/golden_regen.py --check \\
        tests/data/equivalence_digests.json
"""

import difflib
import sys
from pathlib import Path
from typing import List, Optional

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


def check(path: Path) -> List[str]:
    """Regenerate the golden ``path`` in memory and compare it with the
    checked-in file: the unified diff of the lines that drifted, empty
    when none did."""
    pinned = path.read_text(encoding="utf-8").splitlines(keepends=True)
    fresh = GOLDENS[path]().splitlines(keepends=True)
    return list(difflib.unified_diff(pinned, fresh, f"{path.name} (pinned)",
                                     f"{path.name} (regenerated)", n=0))


def main(argv: List[str]) -> int:
    if argv[:1] == ["--check"]:
        paths = [Path(a).resolve() for a in argv[1:]] or list(GOLDENS)
        unknown = [p for p in paths if p not in GOLDENS]
        if unknown:
            print(f"error: not a golden: {unknown[0]}", file=sys.stderr)
            return 2
        drifted = 0
        for path in paths:
            diff = check(path)
            if diff:
                drifted += 1
                print(f"{path.name}: DRIFTED (if intentional, run "
                      f"tests/golden_regen.py and review the diff)")
                sys.stdout.writelines(diff)
            else:
                print(f"{path.name}: no drift")
        return 1 if drifted else 0
    if argv:
        print(f"wrote {regenerate(GOLDEN_PATH, Path(argv[0]))}")
    else:
        for path in GOLDENS:
            print(f"wrote {regenerate(path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
