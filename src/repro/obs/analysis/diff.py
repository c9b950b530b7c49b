"""Cross-run diff attribution: which derived metrics moved, ranked.

* :func:`rank_moves` — the ranking core: compare two flat
  ``{name: number}`` maps and rank by relative movement.
* :func:`diff_reports` — compare two full analysis reports (from
  :func:`~repro.obs.analysis.report.analyze_run`) through that core,
  adding the per-tier latency deltas the flat maps cannot carry; with
  :func:`render_attribution` it backs ``repro obs analyze --baseline``,
  the human-readable "run A is slower than run B because…" verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

#: Movements below this relative threshold are noise, not attribution.
MIN_REL_MOVE = 1e-9


@dataclass(frozen=True)
class MetricMove:
    """One metric's movement between a baseline and a current run."""

    name: str
    base: float
    cur: float

    @property
    def delta(self) -> float:
        return self.cur - self.base

    @property
    def rel(self) -> float:
        """Relative movement; against a zero baseline the absolute delta
        is used so new activity still ranks."""
        if self.base:
            return abs(self.delta) / abs(self.base)
        return abs(self.delta)

    def render(self) -> str:
        if self.base:
            pct = self.delta / abs(self.base) * 100.0
            return f"{self.name}: {self.base:g} -> {self.cur:g} ({pct:+.1f}%)"
        return f"{self.name}: {self.base:g} -> {self.cur:g}"


def flatten_numeric(obj: Any, prefix: str = "") -> Dict[str, float]:
    """Flatten nested dicts to ``{dotted.path: number}`` (lists skipped:
    timelines and top-N tables are not comparable metric scalars)."""
    out: Dict[str, float] = {}
    if isinstance(obj, dict):
        for key in sorted(obj):
            path = f"{prefix}.{key}" if prefix else str(key)
            out.update(flatten_numeric(obj[key], path))
    elif isinstance(obj, bool):
        pass
    elif isinstance(obj, (int, float)):
        out[prefix] = float(obj)
    return out


def rank_moves(cur: Dict[str, float], base: Dict[str, float],
               top: Optional[int] = None) -> List[MetricMove]:
    """The metrics both sides carry, ranked by relative movement."""
    moves = [MetricMove(name, float(base[name]), float(cur[name]))
             for name in sorted(cur.keys() & base.keys())]
    moves = [m for m in moves if m.rel > MIN_REL_MOVE]
    moves.sort(key=lambda m: (-m.rel, m.name))
    return moves[:top] if top else moves


def _tier_latency_deltas(cur_report: Dict[str, Any],
                         base_report: Dict[str, Any]) -> List[Dict[str, Any]]:
    cur_tiers = cur_report.get("analyzers", {}) \
        .get("latency_tiers", {}).get("tiers", {})
    base_tiers = base_report.get("analyzers", {}) \
        .get("latency_tiers", {}).get("tiers", {})
    rows = []
    for tier in sorted(set(cur_tiers) | set(base_tiers)):
        c, b = cur_tiers.get(tier, {}), base_tiers.get(tier, {})
        row: Dict[str, Any] = {"tier": tier,
                               "dispatches": [b.get("n", 0), c.get("n", 0)]}
        for p in ("p50_us", "p99_us"):
            if p in c and p in b:
                row[p] = [b[p], c[p], c[p] - b[p]]
        rows.append(row)
    return rows


def diff_reports(cur_report: Dict[str, Any], base_report: Dict[str, Any],
                 top: int = 3) -> Dict[str, Any]:
    """Attribution document comparing two analysis reports.

    ``moves`` ranks every shared numeric metric (relative movement,
    most-moved first, at least the top ``top`` reported prominently);
    ``tier_latency`` carries the per-tier wakeup-latency deltas.
    """
    cur_flat = flatten_numeric(cur_report.get("analyzers", {}))
    base_flat = flatten_numeric(base_report.get("analyzers", {}))
    moves = rank_moves(cur_flat, base_flat)
    cur_span = cur_report.get("run", {}).get("makespan_us")
    base_span = base_report.get("run", {}).get("makespan_us")
    doc: Dict[str, Any] = {
        "makespan_us": [base_span, cur_span],
        "compared_metrics": len(cur_flat.keys() & base_flat.keys()),
        "top": top,
        "moves": [{"name": m.name, "base": m.base, "cur": m.cur,
                   "rel": round(m.rel, 6)} for m in moves[:max(top, 3) * 4]],
        "tier_latency": _tier_latency_deltas(cur_report, base_report),
    }
    return doc


def render_attribution(diff: Dict[str, Any],
                       cur_label: str = "current run",
                       base_label: str = "baseline run") -> str:
    """The human-readable "A is slower than B because…" report."""
    lines: List[str] = []
    base_span, cur_span = diff.get("makespan_us", [None, None])
    if cur_span is not None and base_span:
        ratio = cur_span / base_span
        if ratio > 1.0005:
            verdict = f"{cur_label} is {ratio:.2f}x slower than {base_label}"
        elif ratio < 0.9995:
            verdict = f"{cur_label} is {1 / ratio:.2f}x faster than {base_label}"
        else:
            verdict = f"{cur_label} and {base_label} have equal makespan"
        lines.append(f"{verdict} "
                     f"(makespan {base_span:,} -> {cur_span:,} µs).")
    else:
        lines.append(f"{cur_label} vs {base_label}:")
    moves = diff.get("moves", [])
    top = diff.get("top", 3)
    if moves:
        lines.append(f"top moved metrics "
                     f"(of {diff.get('compared_metrics', 0)} compared):")
        for m in moves[:top]:
            lines.append("  " + MetricMove(m["name"], m["base"],
                                           m["cur"]).render())
    else:
        lines.append("no shared metric moved — the runs look identical.")
    tier_rows = [r for r in diff.get("tier_latency", []) if "p99_us" in r]
    if tier_rows:
        lines.append("per-tier wakeup latency (p50/p99, µs):")
        for row in tier_rows:
            p50 = row.get("p50_us")
            p99 = row["p99_us"]
            b_n, c_n = row["dispatches"]
            p50_txt = (f"p50 {p50[0]} -> {p50[1]} ({p50[2]:+d})  "
                       if p50 else "")
            lines.append(f"  {row['tier']:12s} {p50_txt}"
                         f"p99 {p99[0]} -> {p99[1]} ({p99[2]:+d})  "
                         f"[{b_n} -> {c_n} dispatches]")
    return "\n".join(lines)
