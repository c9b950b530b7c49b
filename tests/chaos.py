"""Chaos hook: fault each spec's sweep worker process once.

:func:`arm` swaps this module's :func:`execute_spec` into
``repro.experiments.parallel``, and :func:`disarm` puts the real one
back.  Inside a pool worker, the first time a spec runs it takes one
fault, picked from the armed modes by the spec's content hash:

* ``crash-once`` — the worker exits at once (``os._exit``), which breaks
  the pool;
* ``hang-once`` — the worker sleeps for ten minutes, until the
  executor's ``timeout_s`` kills the pool.

A sentinel file per spec marks the fault as taken, so the retry runs
clean.  In the parent process the hook is inert, so the executor's
serial fallback cannot take itself down.  A fork-started pool inherits
the patched module, and unpickles the hook by reference.

From the command line, arm the hook and run the ``repro`` CLI::

    PYTHONPATH=src python tests/chaos.py crash-once,hang-once DIR -- \\
        compare --workload phoronix-libavif-avifenc-1 --jobs 4 --timeout 15
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence

from repro.experiments import parallel
from repro.experiments.cache import spec_key

MODES = ("crash-once", "hang-once")

_real_execute_spec = parallel.execute_spec
_armed: Sequence[str] = ()
_sentinels: Optional[Path] = None


def execute_spec(spec, *args, **kwargs):
    """``parallel.execute_spec``, after this spec's one fault in a pool
    worker."""
    if _armed and multiprocessing.parent_process() is not None:
        _fault_once(spec)
    return _real_execute_spec(spec, *args, **kwargs)


def _fault_once(spec) -> None:
    key = spec_key(spec)
    try:
        fd = os.open(_sentinels / f"{key}.tripped",
                     os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return    # this spec already took its fault: run normally
    os.close(fd)
    if _armed[int(key[:8], 16) % len(_armed)] == "crash-once":
        os._exit(23)
    time.sleep(600)


def arm(modes: str, sentinel_dir: Path) -> None:
    """Fault each spec once with one of ``modes`` (a comma list of
    :data:`MODES`), keeping one-shot sentinels under ``sentinel_dir``."""
    global _armed, _sentinels
    armed = tuple(m.strip() for m in modes.split(",") if m.strip())
    unknown = sorted(set(armed) - set(MODES))
    if not armed or unknown:
        raise ValueError(f"chaos modes must be a comma list of "
                         f"{', '.join(MODES)}; got {modes!r}")
    _sentinels = Path(sentinel_dir)
    _sentinels.mkdir(parents=True, exist_ok=True)
    _armed = armed
    parallel.execute_spec = execute_spec


def disarm() -> None:
    global _armed
    _armed = ()
    parallel.execute_spec = _real_execute_spec


def main(argv: List[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: python tests/chaos.py MODES SENTINEL_DIR -- "
              "REPRO_ARGS...", file=sys.stderr)
        return 2
    from repro.experiments.cli import main as repro_main
    arm(argv[0], Path(argv[1]))
    return repro_main(argv[3:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
