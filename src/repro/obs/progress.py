"""Sweep progress views (``--progress``).

The :class:`~repro.experiments.parallel.SweepExecutor` calls a view
directly: ``start(total)`` when a sweep begins, ``run_done(label,
outcome, wall_s)`` as each run is read from the cache, finishes or is
skipped, and ``finish(stats)`` with the sweep's stat image on every way
out of the sweep.  A run reaches the parent only when it ends, so a view
shows completions, not runs in flight.

* :class:`LiveView` — one status line redrawn in place for interactive
  terminals: done/total, throughput, ETA and cache hits.
* :class:`PlainView` — the non-TTY/CI fallback (``--progress=plain``):
  one terminal-width-clipped line per finished run plus a final summary
  line.

Both render to ``stderr`` by default and never touch ``stdout`` (result
tables stay machine-diffable).
"""

from __future__ import annotations

import shutil
import sys
import time
from typing import Any, Dict, Optional, TextIO


def _term_width(stream: TextIO) -> int:
    try:
        if stream.isatty():
            return shutil.get_terminal_size().columns
    except (ValueError, OSError):
        pass
    return 100


def _fmt_eta(seconds: float) -> str:
    if seconds < 0 or seconds != seconds:  # negative or NaN
        return "?"
    seconds = int(seconds)
    if seconds >= 3600:
        return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
    if seconds >= 60:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds}s"


class ProgressView:
    """Base class: counts completions, leaves rendering to subclasses."""

    def __init__(self, stream: Optional[TextIO] = None) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.total = 0
        self.done = 0
        self.cached = 0
        self.t0 = time.monotonic()

    def start(self, total: int) -> None:
        self.total, self.done, self.cached = total, 0, 0
        self.t0 = time.monotonic()

    def run_done(self, label: str, outcome: str,
                 wall_s: Optional[float] = None) -> None:
        """One run left the sweep: ``cached``, ``simulated``, ``retried``
        or ``skipped`` (a skipped run is not counted as done)."""
        if outcome != "skipped":
            self.done += 1
        if outcome == "cached":
            self.cached += 1

    def finish(self, stats: Dict[str, Any]) -> None:
        """The sweep ended; ``stats`` is its ``SweepStats.as_dict()``."""

    def _rate_eta(self) -> str:
        elapsed = max(time.monotonic() - self.t0, 1e-6)
        rate = self.done / elapsed
        left = self.total - self.done
        eta = _fmt_eta(left / rate) if rate > 0 else "?"
        return f"{rate:.1f} runs/s, ETA {eta}"


class PlainView(ProgressView):
    """One line per finished run; safe for CI logs and pipes."""

    def run_done(self, label: str, outcome: str,
                 wall_s: Optional[float] = None) -> None:
        super().run_done(label, outcome, wall_s)
        if outcome in ("cached", "skipped"):
            src = "cache " if outcome == "cached" else "skip  "
        else:
            src = f"{wall_s or 0.0:5.2f}s"
        line = f"[{self.done}/{self.total}] {src}  {label}"
        self.stream.write(line[:_term_width(self.stream) - 1] + "\n")
        self.stream.flush()

    def finish(self, stats: Dict[str, Any]) -> None:
        line = (f"done: {self.done}/{self.total} runs in "
                f"{stats['wall_s']:.2f}s ({stats['simulated']} simulated, "
                f"{stats['cache_hits']} cached)")
        if stats.get("interrupted"):
            line += "  INTERRUPTED"
        self.stream.write(line + "\n")
        self.stream.flush()


class LiveView(ProgressView):
    """One status line, redrawn in place for interactive terminals.

    Redraws at most ``fps`` times a second; ``finish`` draws the final
    state and ends the line.
    """

    def __init__(self, stream: Optional[TextIO] = None,
                 fps: float = 10.0) -> None:
        super().__init__(stream)
        self._min_dt = 1.0 / max(fps, 0.1)
        self._last_draw = 0.0

    def start(self, total: int) -> None:
        super().start(total)
        self._draw(force=True)

    def run_done(self, label: str, outcome: str,
                 wall_s: Optional[float] = None) -> None:
        super().run_done(label, outcome, wall_s)
        self._draw()

    def finish(self, stats: Dict[str, Any]) -> None:
        self._draw(force=True)
        self.stream.write("\n")
        self.stream.flush()

    def _draw(self, force: bool = False) -> None:
        now = time.monotonic()
        if not force and now - self._last_draw < self._min_dt:
            return
        self._last_draw = now
        pct = (100 * self.done // self.total) if self.total else 0
        line = (f"sweep {self.done}/{self.total} ({pct}%)  "
                f"{self._rate_eta()}  cache {self.cached} hit(s)")
        self.stream.write("\r\x1b[2K" + line[:_term_width(self.stream) - 1])
        self.stream.flush()


def make_view(mode: Optional[str],
              stream: Optional[TextIO] = None) -> Optional[ProgressView]:
    """Map a ``--progress`` mode to a view instance (``None`` = silent).

    ``auto`` picks :class:`LiveView` on a TTY and :class:`PlainView`
    otherwise, so ``--progress`` does the right thing both interactively
    and inside CI logs.
    """
    stream = stream if stream is not None else sys.stderr
    if mode in (None, "", "none", "off"):
        return None
    if mode == "auto":
        try:
            tty = stream.isatty()
        except (ValueError, OSError):
            tty = False
        mode = "live" if tty else "plain"
    if mode == "live":
        return LiveView(stream)
    if mode == "plain":
        return PlainView(stream)
    raise ValueError(f"unknown progress mode {mode!r} "
                     f"(expected auto, live, plain or none)")
