"""Plain-text rendering of paper-style result tables."""

from __future__ import annotations

from typing import Dict, List, Sequence


def render_table(headers: Sequence[str], rows: Sequence[Sequence[str]],
                 title: str = "") -> str:
    """Fixed-width table with a header rule."""
    cols = len(headers)
    widths = [len(h) for h in headers]
    for row in rows:
        if len(row) != cols:
            raise ValueError("row width mismatch")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(str(cell)))
    lines: List[str] = []
    if title:
        lines.append(title)
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines.append(fmt.format(*headers))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append(fmt.format(*[str(c) for c in row]))
    return "\n".join(lines)


def pct(value: float, signed: bool = True) -> str:
    """Render a fraction as a percentage cell."""
    return f"{value:+.1%}" if signed else f"{value:.1%}"


def render_band_table(title: str, per_config: Dict[str, Dict[str, int]]) -> str:
    """Table 4-style overview: rows = scheduler configs, cols = bands."""
    from .stats import SPEEDUP_BANDS
    headers = ["scheduler"] + list(SPEEDUP_BANDS)
    rows = []
    for config, counts in per_config.items():
        total = sum(counts.values()) or 1
        rows.append([config] + [f"{counts.get(b, 0)} ({counts.get(b, 0) / total:.0%})"
                                for b in SPEEDUP_BANDS])
    return render_table(headers, rows, title=title)
