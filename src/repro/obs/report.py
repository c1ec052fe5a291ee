"""Self-contained HTML run reports for a Fock-build run.

One run -> one HTML file, no external assets: inline CSS, inline SVG
charts, and the Perfetto trace embedded as a base64 ``data:`` download
link.  The report shows

* a rank x channel communication-volume heatmap (flight recorder),
* the steal-event timeline over the virtual clock,
* per-rank load-balance bars (compute vs communication time),
* the model-vs-measured deviation table (Sec III-G validation) with
  pass / warn / fail badges.

Charts follow the repo's data-viz conventions: a single blue sequential
ramp for magnitude, two fixed categorical slots for the compute/comm
series, reserved status colors that never appear without an icon +
label, ink/surface tokens as CSS custom properties with a dark mode
selected per-token (``prefers-color-scheme`` plus a ``data-theme``
override), native tooltips on every mark, and a table view beside every
chart so no value is readable only through color.

:func:`run_report` is the driver: it executes a numeric
:func:`~repro.fock.gtfock.gtfock_build` under a tracer, checks the
flight recorder's exact-decomposition invariant, validates the run
against the performance model, and renders the page.
"""

from __future__ import annotations

import base64
import html
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.obs.flight import FlightRecorder
from repro.obs.profile import _fmt_bytes
from repro.obs.validate import FAIL, PASS, WARN, ModelValidation

# -- palette (see docs: reference data-viz palette) --------------------------

#: sequential blue ramp, steps 100..700 (magnitude encoding, both modes)
SEQ_RAMP = (
    "#cde2fb", "#b7d3f6", "#9ec5f4", "#86b6ef", "#6da7ec", "#5598e7",
    "#3987e5", "#2a78d6", "#256abf", "#1c5cab", "#184f95", "#104281",
    "#0d366b",
)

_CSS = """
:root {
  color-scheme: light;
  --surface-1: #fcfcfb;
  --page: #f9f9f7;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --text-muted: #898781;
  --grid: #e1e0d9;
  --baseline: #c3c2b7;
  --border: rgba(11, 11, 11, 0.10);
  --series-1: #2a78d6;
  --series-2: #eb6834;
  --status-good: #0ca30c;
  --status-warning: #fab219;
  --status-critical: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) {
    color-scheme: dark;
    --surface-1: #1a1a19;
    --page: #0d0d0d;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    --text-muted: #898781;
    --grid: #2c2c2a;
    --baseline: #383835;
    --border: rgba(255, 255, 255, 0.10);
    --series-1: #3987e5;
    --series-2: #d95926;
  }
}
:root[data-theme="dark"] {
  color-scheme: dark;
  --surface-1: #1a1a19;
  --page: #0d0d0d;
  --text-primary: #ffffff;
  --text-secondary: #c3c2b7;
  --text-muted: #898781;
  --grid: #2c2c2a;
  --baseline: #383835;
  --border: rgba(255, 255, 255, 0.10);
  --series-1: #3987e5;
  --series-2: #d95926;
}
* { box-sizing: border-box; }
body {
  margin: 0;
  background: var(--page);
  color: var(--text-primary);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
}
main { max-width: 960px; margin: 0 auto; padding: 24px 20px 64px; }
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 32px 0 8px; }
.subtitle { color: var(--text-secondary); margin: 0 0 20px; }
section {
  background: var(--surface-1);
  border: 1px solid var(--border);
  border-radius: 8px;
  padding: 16px;
  margin: 16px 0;
}
section > h2 { margin-top: 0; }
.caption { color: var(--text-secondary); font-size: 13px; margin: 4px 0 12px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin: 16px 0; }
.tile {
  background: var(--surface-1);
  border: 1px solid var(--border);
  border-radius: 8px;
  padding: 10px 14px;
  min-width: 116px;
}
.tile .v { font-size: 22px; }
.tile .l { color: var(--text-muted); font-size: 12px; }
svg { display: block; max-width: 100%; }
svg text { font: 12px system-ui, -apple-system, "Segoe UI", sans-serif; }
.axis-label { fill: var(--text-muted); }
.cell-hover:hover, .mark:hover { stroke: var(--text-primary); stroke-width: 1.5; }
.legend { display: flex; gap: 16px; align-items: center; margin: 0 0 8px; }
.legend .sw {
  display: inline-block; width: 12px; height: 12px; border-radius: 3px;
  vertical-align: -1px; margin-right: 6px;
}
.legend span { color: var(--text-secondary); font-size: 13px; }
table { border-collapse: collapse; width: 100%; font-variant-numeric: tabular-nums; }
th, td { text-align: right; padding: 5px 10px; border-bottom: 1px solid var(--grid); }
th { color: var(--text-muted); font-weight: 500; font-size: 12px; }
th:first-child, td:first-child { text-align: left; }
details { margin-top: 10px; }
summary { cursor: pointer; color: var(--text-secondary); font-size: 13px; }
.badge {
  display: inline-flex; align-items: center; gap: 5px;
  font-size: 12px; color: var(--text-primary);
  border: 1px solid var(--border); border-radius: 999px; padding: 1px 9px;
}
.badge .ic { font-weight: 700; }
.badge-pass .ic { color: var(--status-good); }
.badge-warn .ic { color: var(--status-warning); }
.badge-fail .ic { color: var(--status-critical); }
a { color: var(--series-1); }
footer { color: var(--text-muted); font-size: 12px; margin-top: 24px; }
"""

_BADGES = {
    PASS: ("badge-pass", "✓", "pass"),
    WARN: ("badge-warn", "!", "warn"),
    FAIL: ("badge-fail", "✕", "fail"),
}


def _badge(status: str) -> str:
    cls, icon, label = _BADGES[status]
    return (
        f'<span class="badge {cls}"><span class="ic">{icon}</span>'
        f"{label}</span>"
    )


def _esc(s: Any) -> str:
    return html.escape(str(s), quote=True)


def _tiles(pairs) -> str:
    """The headline-number row: one tile per ``(value, label)`` pair."""
    return '<div class="tiles">' + "".join(
        f'<div class="tile"><div class="v">{_esc(v)}</div>'
        f'<div class="l">{_esc(label)}</div></div>'
        for v, label in pairs
    ) + "</div>"


def _section(body: str) -> str:
    """``body`` as one card of the page; no body, no card."""
    return f"<section>{body}</section>" if body else ""


def _page(
    title: str, heading: str, subtitle: str, tiles, sections, footer: str,
    gap: str = "\n",
) -> str:
    """The document every report page is: head + inline style, heading,
    subtitle, an optional tile row, the sections and a footer, ``gap``
    apart.  ``heading`` / ``subtitle`` / ``footer`` are HTML."""
    blocks = ([_tiles(tiles)] if tiles else []) + list(sections)
    blocks.append(f"<footer>{footer}</footer>")
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{_esc(title)}</title>
<style>{_CSS}</style>
</head>
<body>
<main>
<h1>{heading}</h1>
<p class="subtitle">{subtitle}</p>
{gap.join(blocks)}
</main>
</body>
</html>
"""


def _fmt_g(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1000 or abs(v) < 0.01:
        return f"{v:.3g}"
    return f"{v:.3f}".rstrip("0").rstrip(".")


def _seq_color(value: float, vmax: float) -> str:
    """Map a magnitude to the sequential ramp (sqrt scale for spread)."""
    if vmax <= 0 or value <= 0:
        return "none"
    frac = math.sqrt(min(value / vmax, 1.0))
    return SEQ_RAMP[min(int(frac * len(SEQ_RAMP)), len(SEQ_RAMP) - 1)]


# -- charts ------------------------------------------------------------------


def heatmap_svg(chans: list[str], values: np.ndarray) -> str:
    """Rank x channel bytes heatmap (rows = ranks, sequential blue)."""
    nproc, nchan = values.shape
    cw, ch_px, left, top = 74, 26, 52, 64
    width = left + nchan * cw + 8
    height = top + nproc * ch_px + 8
    vmax = float(values.max()) if values.size else 0.0
    out = [
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img" '
        f'aria-label="bytes moved per rank and channel">'
    ]
    for j, chan in enumerate(chans):
        x = left + j * cw + cw / 2
        out.append(
            f'<text class="axis-label" x="{x}" y="{top - 10}" '
            f'text-anchor="middle" transform="rotate(-28 {x} {top - 10})">'
            f"{_esc(chan)}</text>"
        )
    for i in range(nproc):
        y = top + i * ch_px + ch_px / 2 + 4
        out.append(
            f'<text class="axis-label" x="{left - 8}" y="{y}" '
            f'text-anchor="end">r{i}</text>'
        )
        for j, chan in enumerate(chans):
            v = float(values[i, j])
            fill = _seq_color(v, vmax)
            attrs = (
                f'fill="{fill}"'
                if fill != "none"
                else 'fill="var(--surface-1)" stroke="var(--grid)"'
            )
            # 2px gap between cells via inset geometry
            out.append(
                f'<rect class="cell-hover" x="{left + j * cw + 1}" '
                f'y="{top + i * ch_px + 1}" width="{cw - 2}" '
                f'height="{ch_px - 2}" rx="3" {attrs}>'
                f"<title>rank {i} · {_esc(chan)}: {_fmt_bytes(v)}"
                f"</title></rect>"
            )
    out.append("</svg>")
    return "".join(out)


def steal_timeline_svg(
    steals: list[Any],
    finish: np.ndarray,
    nproc: int,
    path: list[dict] | None = None,
) -> str:
    """Steal events over the virtual clock, one row per rank.

    ``path`` (critical-path segments as dicts with ``proc`` / ``start``
    / ``end`` / ``kind``) overlays the chain that bounds the makespan on
    the busy tracks.
    """
    left, top, right, row_h = 44, 16, 12, 26
    plot_w = 640
    width = left + plot_w + right
    height = top + nproc * row_h + 34
    tmax = float(finish.max()) if finish.size else 0.0
    tmax = max(tmax, max((s.time for s in steals), default=0.0), 1e-30)

    def x_of(t: float) -> float:
        return left + (t / tmax) * plot_w

    def y_of(rank: int) -> float:
        return top + rank * row_h + row_h / 2

    out = [
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img" aria-label="steal-event timeline">'
    ]
    for p in range(nproc):
        y = y_of(p)
        out.append(
            f'<line x1="{left}" y1="{y}" x2="{left + plot_w}" y2="{y}" '
            f'stroke="var(--grid)"/>'
        )
        out.append(
            f'<text class="axis-label" x="{left - 8}" y="{y + 4}" '
            f'text-anchor="end">r{p}</text>'
        )
        # busy bar: rank is executing until its finish time
        fx = x_of(float(finish[p]))
        out.append(
            f'<line x1="{left}" y1="{y}" x2="{fx:.1f}" y2="{y}" '
            f'stroke="var(--baseline)" stroke-width="3" '
            f'stroke-linecap="round"><title>rank {p} busy until '
            f"{finish[p]:.3g} s</title></line>"
        )
    axis_y = top + nproc * row_h + 8
    out.append(
        f'<line x1="{left}" y1="{axis_y}" x2="{left + plot_w}" '
        f'y2="{axis_y}" stroke="var(--baseline)"/>'
    )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        x = left + frac * plot_w
        out.append(
            f'<text class="axis-label" x="{x}" y="{axis_y + 16}" '
            f'text-anchor="middle">{tmax * frac:.3g}</text>'
        )
    out.append(
        f'<text class="axis-label" x="{left + plot_w}" y="{axis_y - 6}" '
        f'text-anchor="end">virtual seconds</text>'
    )
    for s in steals:
        x = x_of(s.time)
        y_t, y_v = y_of(s.thief), y_of(s.victim)
        tip = (
            f"<title>t={s.time:.3g} s: r{s.thief} stole {s.ntasks} tasks "
            f"from r{s.victim}</title>"
        )
        out.append(
            f'<line x1="{x:.1f}" y1="{y_t}" x2="{x:.1f}" y2="{y_v}" '
            f'stroke="var(--series-1)" stroke-dasharray="3 3" opacity="0.6"/>'
        )
        out.append(
            f'<circle class="mark" cx="{x:.1f}" cy="{y_v}" r="4" '
            f'fill="var(--surface-1)" stroke="var(--series-1)" '
            f'stroke-width="2">{tip}</circle>'
        )
        out.append(
            f'<circle class="mark" cx="{x:.1f}" cy="{y_t}" r="5" '
            f'fill="var(--series-1)">{tip}</circle>'
        )
    for seg in path or []:
        y = y_of(int(seg["proc"]))
        x0, x1 = x_of(float(seg["start"])), x_of(float(seg["end"]))
        color = CRITPATH_COLORS.get(seg.get("kind", ""), "var(--series-2)")
        out.append(
            f'<line x1="{x0:.1f}" y1="{y}" x2="{max(x1, x0 + 0.8):.1f}" '
            f'y2="{y}" stroke="{color}" stroke-width="6" opacity="0.85" '
            f'stroke-linecap="butt"><title>critical path: '
            f'{_esc(seg.get("kind", "?"))} on rank {seg["proc"]}, '
            f'{float(seg["end"]) - float(seg["start"]):.3g} s</title></line>'
        )
    out.append("</svg>")
    return "".join(out)


def load_balance_svg(comp: np.ndarray, comm: np.ndarray) -> str:
    """Per-rank stacked compute + communication time bars, one y axis."""
    nproc = len(comp)
    left, top, bottom = 56, 14, 26
    bar_w = max(18, min(48, 560 // max(nproc, 1)))
    gap = 10
    plot_h = 180
    width = left + nproc * (bar_w + gap) + 16
    height = top + plot_h + bottom
    total = comp + comm
    vmax = float(total.max()) if nproc else 0.0
    vmax = vmax if vmax > 0 else 1.0

    def h_of(v: float) -> float:
        return (v / vmax) * plot_h

    out = [
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img" '
        f'aria-label="per-rank compute and communication time">'
    ]
    for frac in (0.0, 0.5, 1.0):
        y = top + plot_h - frac * plot_h
        out.append(
            f'<line x1="{left}" y1="{y:.1f}" x2="{width - 10}" '
            f'y2="{y:.1f}" stroke="var(--grid)"/>'
        )
        out.append(
            f'<text class="axis-label" x="{left - 8}" y="{y + 4:.1f}" '
            f'text-anchor="end">{vmax * frac:.3g}</text>'
        )
    worst = int(np.argmax(total)) if nproc else 0
    for p in range(nproc):
        x = left + p * (bar_w + gap) + gap / 2
        hc = h_of(float(comp[p]))
        hm = h_of(float(comm[p]))
        y0 = top + plot_h
        out.append(
            f'<rect class="mark" x="{x:.1f}" y="{y0 - hc:.1f}" '
            f'width="{bar_w}" height="{max(hc, 0.5):.1f}" rx="2" '
            f'fill="var(--series-1)"><title>rank {p} compute: '
            f"{comp[p]:.3g} s</title></rect>"
        )
        # 2px surface gap between stacked segments
        out.append(
            f'<rect class="mark" x="{x:.1f}" y="{y0 - hc - 2 - hm:.1f}" '
            f'width="{bar_w}" height="{max(hm, 0.5):.1f}" rx="2" '
            f'fill="var(--series-2)"><title>rank {p} communication: '
            f"{comm[p]:.3g} s</title></rect>"
        )
        out.append(
            f'<text class="axis-label" x="{x + bar_w / 2:.1f}" '
            f'y="{top + plot_h + 16}" text-anchor="middle">r{p}</text>'
        )
        if p == worst:  # selective direct label on the tallest bar only
            out.append(
                f'<text x="{x + bar_w / 2:.1f}" '
                f'y="{y0 - hc - hm - 8:.1f}" text-anchor="middle" '
                f'fill="var(--text-secondary)">{total[p]:.3g}s</text>'
            )
    out.append(
        f'<line x1="{left}" y1="{top + plot_h}" x2="{width - 10}" '
        f'y2="{top + plot_h}" stroke="var(--baseline)"/>'
    )
    out.append("</svg>")
    return "".join(out)


# -- tables ------------------------------------------------------------------


def _matrix_table(chans: list[str], values: np.ndarray, fmt) -> str:
    head = "".join(f"<th>{_esc(c)}</th>" for c in chans)
    rows = []
    for i in range(values.shape[0]):
        cells = "".join(f"<td>{fmt(values[i, j])}</td>" for j in range(len(chans)))
        rows.append(f"<tr><td>r{i}</td>{cells}</tr>")
    return (
        f"<table><thead><tr><th>rank</th>{head}</tr></thead>"
        f"<tbody>{''.join(rows)}</tbody></table>"
    )


def validation_table_html(v: ModelValidation) -> str:
    rows = []
    for d in v.deviations:
        rows.append(
            "<tr>"
            f"<td>{_esc(d.name)}</td>"
            f"<td>{_fmt_g(d.predicted)}</td>"
            f"<td>{_fmt_g(d.measured)}</td>"
            f"<td>{d.ratio:.3f}</td>"
            f"<td>&le; {_fmt_g(d.warn_at)} / {_fmt_g(d.fail_at)}</td>"
            f"<td>{_badge(d.status)}</td>"
            "</tr>"
        )
    return (
        "<table><thead><tr><th>metric</th><th>model</th><th>measured</th>"
        "<th>measured/model</th><th>tolerance (fold)</th><th>status</th>"
        f"</tr></thead><tbody>{''.join(rows)}</tbody></table>"
    )


# -- phase profile & hotspots ------------------------------------------------


def phase_bars_svg(phases: list[dict]) -> str:
    """Horizontal wall/CPU bars per profiled phase (sorted by wall)."""
    if not phases:
        return ""
    left, right, row_h, bar_h = 150, 70, 34, 9
    plot_w = 520
    width = left + plot_w + right
    height = 18 + len(phases) * row_h + 8
    vmax = max(max(p["wall_s"] for p in phases), 1e-12)
    out = [
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img" '
        f'aria-label="wall and CPU time per phase">'
    ]
    for i, p in enumerate(phases):
        y = 18 + i * row_h
        name = p["name"]
        wall, cpu = float(p["wall_s"]), float(p["cpu_s"])
        w_wall = (wall / vmax) * plot_w
        w_cpu = (cpu / vmax) * plot_w
        out.append(
            f'<text class="axis-label" x="{left - 8}" y="{y + 12}" '
            f'text-anchor="end">{_esc(name)}</text>'
        )
        out.append(
            f'<rect class="mark" x="{left}" y="{y}" '
            f'width="{max(w_wall, 0.5):.1f}" height="{bar_h}" rx="2" '
            f'fill="var(--series-1)"><title>{_esc(name)} wall: '
            f"{wall:.4f} s over {p['calls']} calls</title></rect>"
        )
        out.append(
            f'<rect class="mark" x="{left}" y="{y + bar_h + 2}" '
            f'width="{max(w_cpu, 0.5):.1f}" height="{bar_h}" rx="2" '
            f'fill="var(--series-2)"><title>{_esc(name)} CPU: '
            f"{cpu:.4f} s</title></rect>"
        )
        out.append(
            f'<text class="axis-label" '
            f'x="{left + max(w_wall, w_cpu) + 6:.1f}" y="{y + 14}">'
            f"{wall:.3g}s</text>"
        )
    out.append("</svg>")
    return "".join(out)


def phase_table_html(phases: list[dict]) -> str:
    rows = []
    for p in phases:
        alloc = p.get("alloc_peak_bytes", 0)
        rows.append(
            "<tr>"
            f"<td>{_esc(p['name'])}</td>"
            f"<td>{p['calls']}</td>"
            f"<td>{p['wall_s']:.4f}</td>"
            f"<td>{p['cpu_s']:.4f}</td>"
            f"<td>{p['max_wall_s']:.4f}</td>"
            f"<td>{_fmt_bytes(alloc) if alloc else '&mdash;'}</td>"
            "</tr>"
        )
    return (
        "<table><thead><tr><th>phase</th><th>calls</th><th>wall (s)</th>"
        "<th>CPU (s)</th><th>max (s)</th><th>peak alloc</th></tr></thead>"
        f"<tbody>{''.join(rows)}</tbody></table>"
    )


def hotspot_table_html(hotspots: dict) -> str:
    """The cProfile top-N table (``HotspotProfile.to_json()`` shape)."""
    rows = []
    for h in hotspots.get("hotspots", []):
        where = h["func"] if h["file"] in ("~", "") else (
            f"{h['file']}:{h['line']}:{h['func']}"
        )
        rows.append(
            "<tr>"
            f"<td><code>{_esc(where)}</code></td>"
            f"<td>{h['ncalls']}</td>"
            f"<td>{h['tottime']:.4f}</td>"
            f"<td>{h['cumtime']:.4f}</td>"
            "</tr>"
        )
    head = (
        f"{hotspots.get('total_calls', 0)} calls, "
        f"{hotspots.get('total_time', 0.0):.3f} s under cProfile"
    )
    return (
        f'<p class="caption">{_esc(head)} (sorted by cumulative '
        "time).</p>"
        "<table><thead><tr><th>location</th><th>calls</th>"
        "<th>self (s)</th><th>cumulative (s)</th></tr></thead>"
        f"<tbody>{''.join(rows)}</tbody></table>"
    )


def phase_section_html(
    phases: list[dict], hotspots: dict | None = None
) -> str:
    """The "Phase profile" report section (bars + table + hotspots)."""
    if not phases and not hotspots:
        return ""
    parts = [
        "<h2>Phase profile</h2>",
        '<p class="caption">Inclusive wall and CPU time attributed to the '
        "named pipeline phases (taxonomy: docs/OBSERVABILITY.md). Nested "
        "phases count toward their parents.</p>",
    ]
    if phases:
        parts.append(
            '<div class="legend">'
            '<span><i class="sw" style="background: var(--series-1)"></i>'
            "wall</span>"
            '<span><i class="sw" style="background: var(--series-2)"></i>'
            "CPU</span></div>"
        )
        parts.append(phase_bars_svg(phases))
        parts.append(
            "<details><summary>table view</summary>"
            + phase_table_html(phases)
            + "</details>"
        )
    if hotspots:
        parts.append("<h2>Hotspots</h2>")
        parts.append(hotspot_table_html(hotspots))
    return "".join(parts)


# -- critical path -----------------------------------------------------------

#: segment-kind palette shared by the waterfall and the timeline overlay
CRITPATH_COLORS = {
    "compute": "var(--series-1)",
    "prefetch": "#86b6ef",
    "flush": "var(--series-2)",
    "steal": "#8d5fd3",
    "blocked": "var(--status-warning)",
    "slack": "var(--baseline)",
}


def critpath_waterfall_svg(
    chains: list[list[dict]], makespan: float, path: list[dict] | None
) -> str:
    """Per-rank segment waterfall with the critical path outlined."""
    nproc = len(chains)
    left, top, right, row_h, bar_h = 44, 16, 12, 24, 14
    plot_w = 640
    width = left + plot_w + right
    height = top + nproc * row_h + 34
    tmax = max(makespan, 1e-30)
    on_path = {
        (int(s["proc"]), float(s["start"]), float(s["end"]))
        for s in path or []
    }
    out = [
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img" aria-label="per-rank waterfall">'
    ]
    for p, chain in enumerate(chains):
        y = top + p * row_h + (row_h - bar_h) / 2
        out.append(
            f'<text class="axis-label" x="{left - 8}" y="{y + bar_h - 3}" '
            f'text-anchor="end">r{p}</text>'
        )
        for seg in chain:
            s0, s1 = float(seg["start"]), float(seg["end"])
            x = left + s0 / tmax * plot_w
            w = max((s1 - s0) / tmax * plot_w, 0.6)
            kind = seg.get("kind", "?")
            color = CRITPATH_COLORS.get(kind, "var(--baseline)")
            hot = (p, s0, s1) in on_path
            stroke = (
                ' stroke="var(--text-primary)" stroke-width="1.3"'
                if hot
                else ""
            )
            tip = (
                f"<title>rank {p}: {_esc(kind)} "
                f"{_esc(seg.get('detail', ''))} [{s0:.3g}, {s1:.3g}] s"
                f"{' -- on the critical path' if hot else ''}</title>"
            )
            out.append(
                f'<rect class="cell-hover" x="{x:.1f}" y="{y:.1f}" '
                f'width="{w:.2f}" height="{bar_h}" fill="{color}"'
                f"{stroke}>{tip}</rect>"
            )
    axis_y = top + nproc * row_h + 8
    out.append(
        f'<line x1="{left}" y1="{axis_y}" x2="{left + plot_w}" '
        f'y2="{axis_y}" stroke="var(--baseline)"/>'
    )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        x = left + frac * plot_w
        out.append(
            f'<text class="axis-label" x="{x}" y="{axis_y + 16}" '
            f'text-anchor="middle">{tmax * frac:.3g}</text>'
        )
    out.append(
        f'<text class="axis-label" x="{left + plot_w}" y="{axis_y - 6}" '
        f'text-anchor="end">virtual seconds</text>'
    )
    out.append("</svg>")
    return "".join(out)


def _critpath_legend() -> str:
    return '<div class="legend">' + "".join(
        f'<span><i class="sw" style="background: {color}"></i>{kind}</span>'
        for kind, color in CRITPATH_COLORS.items()
    ) + "</div>"


def critpath_section_html(cp: dict) -> str:
    """The "Critical path" section body; ``cp`` is
    :meth:`repro.obs.critpath.CritPathAnalysis.to_json`."""
    d = cp["decomposition"]
    path = cp.get("path")
    ok_badge = _badge(PASS if d.get("ok") else FAIL)
    tiles = [
        (f"{d['makespan']:.3g} s", "makespan"),
        (f"{d['idle_fraction']:.1%}", "avg idle fraction"),
        (f"{d['max_residual']:.1e} s", "max residual"),
    ]
    if path is not None:
        tiles += [
            (f"{path['explained_ratio']:.1%}", "path explains"),
            (str(len(path["hops"])), "cross-rank hops"),
        ]
    parts = [
        "<h2>Critical path</h2>",
        '<p class="caption">Exact per-rank time decomposition '
        "(compute / comm / blocked / idle sums to the makespan per rank; "
        f"see docs/OBSERVABILITY.md#critical-path) {ok_badge}</p>",
        _tiles(tiles),
    ]
    chains = cp.get("chains")
    if chains:
        parts.append(_critpath_legend())
        parts.append(
            critpath_waterfall_svg(
                chains,
                float(d["makespan"]),
                path.get("segments") if path else None,
            )
        )
        parts.append(
            '<p class="caption">Outlined segments form the chain that '
            "bounds the makespan.</p>"
        )
    if path is not None:
        blame_rows = "".join(
            f"<tr><td>{_esc(b['kind'])}</td>"
            f"<td>{b['seconds']:.6g}</td>"
            f"<td>{b['seconds'] / d['makespan']:.1%}</td>"
            f"<td>{b['count']}</td></tr>"
            for b in path["blame"]
        )
        parts.append(
            "<h2>Blame table</h2>"
            '<p class="caption">Critical-path seconds by segment kind '
            "&mdash; shrinking the top row is the only way to shrink the "
            "makespan.</p>"
            "<table><thead><tr><th>kind</th><th>seconds</th>"
            "<th>share of makespan</th><th>segments</th></tr></thead>"
            f"<tbody>{blame_rows}</tbody></table>"
        )
    whatifs = cp.get("whatifs") or []
    if whatifs:
        def _w_badge(v: str) -> str:
            if v == "PASS":
                return _badge(PASS)
            if v == "WARN":
                return _badge(WARN)
            if v == "FAIL":
                return _badge(FAIL)
            return '<span class="badge">projected</span>'

        rows = ""
        for w in whatifs:
            resim = (
                f"{w['resim_makespan']:.6g}"
                if w.get("resim_makespan") is not None
                else "&mdash;"
            )
            err = (
                f"{w['rel_err']:.1%}"
                if w.get("rel_err") is not None
                else "&mdash;"
            )
            rows += (
                f"<tr><td>{_esc(w['name'])}"
                f'<div class="caption">{_esc(w["description"])}</div></td>'
                f"<td>{w['speedup']:.2f}&times;</td>"
                f"<td>{w['projected_makespan']:.6g}</td>"
                f"<td>{resim}</td><td>{err}</td>"
                f"<td>{_w_badge(w['verdict'])}</td></tr>"
            )
        parts.append(
            "<h2>What-if projections</h2>"
            '<p class="caption">Differential replay of the recorded '
            "per-rank structure under perturbed parameters; cross-checked "
            "scenarios carry the projection-vs-resimulation error "
            "(&le;15% pass, &le;30% warn).</p>"
            "<table><thead><tr><th>scenario</th><th>speedup</th>"
            "<th>projected (s)</th><th>re-simulated (s)</th>"
            "<th>error</th><th></th></tr></thead>"
            f"<tbody>{rows}</tbody></table>"
        )
    ranks = d.get("ranks") or []
    if ranks:
        rank_rows = "".join(
            f"<tr><td>r{r['proc']}</td><td>{r['compute']:.6g}</td>"
            f"<td>{r['comm_total']:.6g}</td><td>{r['blocked']:.6g}</td>"
            f"<td>{r['idle']:.6g}</td><td>{r['end']:.6g}</td>"
            f"<td>{r['residual']:.2e}</td></tr>"
            for r in ranks
        )
        parts.append(
            "<details><summary>per-rank decomposition</summary>"
            "<table><thead><tr><th>rank</th><th>compute (s)</th>"
            "<th>comm (s)</th><th>blocked (s)</th><th>idle (s)</th>"
            "<th>end (s)</th><th>residual</th></tr></thead>"
            f"<tbody>{rank_rows}</tbody></table></details>"
        )
    return "".join(parts)


def render_critpath_report(analysis: Any) -> str:
    """Standalone HTML page for one
    :class:`~repro.obs.critpath.CritPathAnalysis` (``repro analyze
    --report``)."""
    cp = analysis.to_json() if hasattr(analysis, "to_json") else analysis
    return _page(
        f"critpath-{cp.get('molecule') or 'run'}-{cp.get('cores', 0)}c",
        f"Critical-path analysis: {_esc(str(cp.get('molecule') or '?'))}",
        f"{_esc(str(cp.get('algorithm', 'gtfock')))} @\n"
        f"{cp.get('cores', 0)} simulated cores ({cp.get('nproc', 0)} ranks)",
        None,
        [_section(f"\n{critpath_section_html(cp)}\n")],
        "self-contained report &mdash; no external assets; generated by\n"
        "the repro critical-path analyzer (see docs/OBSERVABILITY.md)",
    )


# -- the report --------------------------------------------------------------


@dataclass
class RunReport:
    """Everything one report page needs, decoupled from how it was run."""

    title: str
    molecule: str
    basis_name: str
    nproc: int
    nbf: int
    nshells: int
    flight: FlightRecorder
    comp_time: np.ndarray
    comm_time: np.ndarray
    finish_time: np.ndarray
    steals: list[Any]
    validation: ModelValidation
    summary: dict
    #: the run's Chrome trace-event JSON, as ``Tracer.chrome_chunks``
    #: writes it; embedded verbatim as the download link
    trace: str | None = None
    notes: list[str] = field(default_factory=list)
    #: fault-injection/recovery summary (chaos runs only); see
    #: ``docs/ROBUSTNESS.md`` for the fields
    recovery: dict | None = None
    #: SCF convergence-guard summary (guarded SCF runs only):
    #: :meth:`repro.scf.guard.SCFGuard.summary` plus a ``trail`` list
    scf_guard: dict | None = None
    #: data-integrity summary (``integrity=`` runs only):
    #: :meth:`repro.runtime.sdc.IntegrityMonitor.summary`
    integrity: dict | None = None
    #: phase-profiler stats (``PhaseProfiler.to_json()``) when a profiler
    #: was installed (``--profile``); None otherwise
    phases: list[dict] | None = None
    #: cProfile top-N (``HotspotProfile.to_json()``); None unless captured
    hotspots: dict | None = None
    #: critical-path analysis (``CritPathAnalysis.to_json()``) when the
    #: build filled a :class:`~repro.fock.simulate.SimCapture`
    critpath: dict | None = None

    @property
    def load_balance(self) -> float:
        return float(self.summary.get("load_balance", 1.0))


def render_report(r: RunReport) -> str:
    """Render one :class:`RunReport` as a self-contained HTML page."""
    chans, m_bytes = r.flight.matrix("bytes")
    _, m_msgs = r.flight.matrix("msgs")

    trace_html = ""
    if r.trace is not None:
        payload = base64.b64encode(r.trace.encode("utf-8")).decode("ascii")
        trace_html = (
            "<h2>Trace</h2>"
            '<p class="caption">Chrome trace-event JSON of this run '
            "(host spans + per-rank virtual clocks). Download and open at "
            '<a href="https://ui.perfetto.dev">ui.perfetto.dev</a>.</p>'
            f'<a download="{_esc(r.title)}.trace.json" '
            f'href="data:application/json;base64,{payload}">'
            "download Perfetto trace"
            f" ({_fmt_bytes(len(payload) * 3 // 4)})</a>"
        )

    notes_html = ""
    if r.notes:
        items = "".join(f"<li>{_esc(n)}</li>" for n in r.notes)
        notes_html = f'<ul class="caption">{items}</ul>'

    recovery_html = ""
    if r.recovery is not None:
        rec = r.recovery
        inv_badge = _badge(PASS if rec.get("passed", False) else FAIL)
        rec_tiles = _tiles((
            (f"{rec.get('fock_error', 0.0):.2e}", "max |dF| vs fault-free"),
            (str(rec.get("dead_ranks", [])), "dead ranks"),
            (str(rec.get("reexecuted_tasks", 0)), "re-executed tasks"),
            (str(rec.get("recoveries", 0)), "orphan adoptions"),
            (str(rec.get("retries_total", 0)), "op retries"),
            (str(rec.get("acks_lost_total", 0)), "acks lost"),
            (_fmt_bytes(rec.get("retry_bytes", 0)), "retry bytes"),
            (f"x{rec.get('slowdown', 1.0):.2f}", "makespan vs fault-free"),
        ))
        recovery_html = (
            "<h2>Fault injection &amp; recovery</h2>"
            f'<p class="caption">Plan: <code>{_esc(rec.get("plan", ""))}'
            "</code> &mdash; chaos invariant (faulted Fock matrix equals "
            f"the fault-free one to &le; {rec.get('tolerance', 1e-12):.0e}) "
            f"{inv_badge}</p>"
            f"{rec_tiles}"
            '<p class="caption">Recovery overhead is visible above: the '
            "<code>retry</code> heatmap column carries every re-sent "
            "payload and injected delay, and re-executed tasks inflate "
            "the survivors' compute bars. See docs/ROBUSTNESS.md for the "
            "taxonomy and protocol.</p>"
        )

    path_segments = ((r.critpath or {}).get("path") or {}).get("segments")

    ops_chans = [c for c in chans if np.any(r.flight.per_rank(c, "ops"))]
    ops_html = ""
    if ops_chans:
        m_ops = np.stack(
            [r.flight.per_rank(c, "ops") for c in ops_chans], axis=1
        )
        ops_html = (
            "<h2>Scheduler atomics</h2>"
            '<p class="caption">Queue/steal-protocol operations per rank '
            "(not one-sided GA calls; kept out of the Table VI/VII "
            "counters).</p>"
            + _matrix_table(ops_chans, m_ops, lambda v: f"{int(v)}")
        )

    sections = [
        _section(f"""
<h2>Communication volume by rank and channel</h2>
<p class="caption">Bytes moved per rank on each flight-recorder channel
(sequential scale, hover any cell for the value). Per-rank channel sums
equal the run's Table VI counters exactly.</p>
{heatmap_svg(chans, m_bytes)}
<details><summary>table view (bytes and calls)</summary>
{_matrix_table(chans, m_bytes, lambda v: _fmt_bytes(v))}
<p class="caption">one-sided calls:</p>
{_matrix_table(chans, m_msgs, lambda v: f"{int(v)}")}
</details>
"""),
        _section(f"""
<h2>Steal-event timeline</h2>
<p class="caption">Each steal connects its victim (open marker) to the
thief (filled marker) at the virtual time it happened; the gray track
shows how long each rank stayed busy{
    "; the thick overlay is the critical path" if path_segments else ""}.</p>
{steal_timeline_svg(r.steals, r.finish_time, r.nproc, path=path_segments)}
<details><summary>table view</summary>
<table><thead><tr><th>t (s)</th><th>thief</th><th>victim</th>
<th>tasks</th></tr></thead><tbody>
{''.join(f"<tr><td>{s.time:.6g}</td><td>r{s.thief}</td><td>r{s.victim}</td><td>{s.ntasks}</td></tr>" for s in r.steals)}
</tbody></table></details>
"""),
        _section(f"""
<h2>Load balance</h2>
<div class="legend">
<span><i class="sw" style="background: var(--series-1)"></i>compute</span>
<span><i class="sw" style="background: var(--series-2)"></i>communication</span>
</div>
{load_balance_svg(r.comp_time, r.comm_time)}
<p class="caption">l = max/mean clock = {r.load_balance:.3f}
(Table VIII metric).</p>
<details><summary>table view</summary>
<table><thead><tr><th>rank</th><th>compute (s)</th><th>comm (s)</th>
<th>finish (s)</th></tr></thead><tbody>
{''.join(f"<tr><td>r{p}</td><td>{r.comp_time[p]:.6g}</td><td>{r.comm_time[p]:.6g}</td><td>{r.finish_time[p]:.6g}</td></tr>" for p in range(r.nproc))}
</tbody></table></details>
"""),
        _section(f"""
<h2>Model vs measured (Sec III-G)</h2>
<p class="caption">Performance-model predictions against flight-recorder
measurements; a metric warns/fails when measured/model (folded to
&ge;&nbsp;1) exceeds its documented tolerance. Measured s =
{r.validation.s_measured:.2f} victims/process.</p>
{validation_table_html(r.validation)}
{notes_html}
"""),
        _section(critpath_section_html(r.critpath) if r.critpath else ""),
        _section(recovery_html),
        _section(scf_guard_section_html(r.scf_guard) if r.scf_guard else ""),
        _section(integrity_section_html(r.integrity) if r.integrity else ""),
        _section(phase_section_html(r.phases or [], r.hotspots)),
        _section(ops_html),
        _section(trace_html),
    ]
    return _page(
        r.title,
        f"Fock-build run report: {_esc(r.title)}",
        f"{_esc(r.molecule)} / {_esc(r.basis_name)} on\n"
        f"{r.nproc} simulated processes &mdash; model validation\n"
        f"{_badge(r.validation.status)}",
        (
            (r.molecule, "molecule"),
            (r.basis_name, "basis"),
            (str(r.nproc), "processes"),
            (f"{r.nbf} / {r.nshells}", "functions / shells"),
            (str(len(r.steals)), "steals"),
            (f"{r.summary.get('makespan', 0.0):.3g} s", "makespan"),
            (f"{r.load_balance:.3f}", "load balance"),
            (f"{r.summary.get('avg_volume_mb', 0.0):.3f}", "MB / process"),
        ),
        sections,
        "self-contained report &mdash; no external assets; generated by\n"
        "the repro flight recorder (see docs/OBSERVABILITY.md)",
        gap="\n\n",
    )


# -- SCF convergence guard -----------------------------------------------------


def scf_guard_section_html(g: dict) -> str:
    """The convergence-guard section body (tiles + event trail).

    ``g`` is :meth:`repro.scf.guard.SCFGuard.summary` plus an optional
    ``trail`` (list of :meth:`GuardEvent.describe` lines).
    """
    healthy = g.get("final_state", "healthy") == "healthy"
    state_badge = _badge(PASS if healthy else WARN)
    tiles = _tiles((
        (str(g.get("events", 0)), "guard events"),
        (str(g.get("level", -1)), "ladder rung reached"),
        (_fmt_g(float(g.get("damping", 0.0))), "final damping"),
        (f"{float(g.get('level_shift', 0.0)):.3g} Ha", "final level shift"),
        (str(g.get("nonfinite", 0)), "non-finite events"),
        ("yes" if g.get("reference_eri") else "no", "reference ERI fallback"),
    ))
    by_state = g.get("by_state", {}) or {}
    by_action = g.get("by_action", {}) or {}
    counts_rows = "".join(
        f"<tr><td>{_esc(k)}</td><td>{v}</td><td>classification</td></tr>"
        for k, v in sorted(by_state.items())
    ) + "".join(
        f"<tr><td>{_esc(k)}</td><td>{v}</td><td>remediation</td></tr>"
        for k, v in sorted(by_action.items())
    )
    counts_html = (
        "<table><thead><tr><th>event</th><th>count</th><th>kind</th></tr>"
        f"</thead><tbody>{counts_rows}</tbody></table>"
        if counts_rows
        else '<p class="caption">no bad classifications: the iteration '
        "was never touched.</p>"
    )
    trail = g.get("trail", []) or []
    trail_html = ""
    if trail:
        items = "".join(f"<li><code>{_esc(line)}</code></li>" for line in trail)
        trail_html = (
            "<details><summary>event trail "
            f"({len(trail)} events)</summary><ul>{items}</ul></details>"
        )
    return (
        "<h2>SCF convergence guard</h2>"
        f'<p class="caption">Watchdog classification of the final iteration: '
        f"<strong>{_esc(g.get('final_state', 'healthy'))}</strong> "
        f"{state_badge} &mdash; metric names are listed in "
        "docs/OBSERVABILITY.md (<code>repro_scf_guard_*</code>); the "
        "remediation ladder is documented in docs/ROBUSTNESS.md.</p>"
        f"{tiles}{counts_html}{trail_html}"
    )


def integrity_section_html(d: dict) -> str:
    """The data-integrity section body (tiles + per-kind count table).

    ``d`` is :meth:`repro.runtime.sdc.IntegrityMonitor.summary`, with
    an optional ``injections`` sub-dict (chaos runs only).
    """
    detections = int(d.get("detections_total", 0))
    state_badge = _badge(PASS if detections == 0 else WARN)
    tiles = _tiles((
        (str(d.get("checks_total", 0)), "integrity checks run"),
        (str(detections), "corruptions detected"),
        (str(d.get("recoveries_total", 0)), "recoveries taken"),
        (
            str((d.get("injections") or {}).get("injections_total", 0)),
            "injections (chaos)",
        ),
    ))
    rows = "".join(
        f"<tr><td>{_esc(k)}</td><td>{v}</td><td>detector runs</td></tr>"
        for k, v in sorted((d.get("checks") or {}).items())
    ) + "".join(
        f"<tr><td>{_esc(k)}</td><td>{v}</td><td>detection</td></tr>"
        for k, v in sorted((d.get("detections") or {}).items())
    ) + "".join(
        f"<tr><td>{_esc(k)}</td><td>{v}</td><td>recovery</td></tr>"
        for k, v in sorted((d.get("recoveries") or {}).items())
    )
    counts_html = (
        "<table><thead><tr><th>name</th><th>count</th><th>kind</th></tr>"
        f"</thead><tbody>{rows}</tbody></table>"
        if rows
        else '<p class="caption">no detectors ran.</p>'
    )
    return (
        "<h2>Data integrity</h2>"
        '<p class="caption">Checksums (store CRC-32, checkpoint digests, '
        "GA payload trailers) and ABFT-style algebraic detectors "
        "(symmetry residuals, the Tr(D&middot;S)&nbsp;=&nbsp;n"
        "<sub>occ</sub> invariant) over this run: "
        f"<strong>{detections}</strong> corruption(s) detected "
        f"{state_badge} &mdash; metric names are "
        "<code>repro_integrity_*</code> (docs/OBSERVABILITY.md); threat "
        "model and recovery ladder in docs/ROBUSTNESS.md.</p>"
        f"{tiles}{counts_html}"
    )


def render_torture_report(records: list[Any]) -> str:
    """Self-contained HTML page for an SCF torture-suite run.

    ``records`` is :meth:`repro.scf.torture.TortureResult.to_json` output: one
    dict per case with ``case`` / ``status`` / ``passed`` / ``trail``.
    """
    npassed = sum(1 for rec in records if rec.get("passed"))
    nconv = sum(1 for rec in records if rec.get("converged"))
    all_pass = npassed == len(records)
    rows = []
    for rec in records:
        vanilla = rec.get("vanilla_converged")
        vanilla_s = "&mdash;" if vanilla is None else ("ok" if vanilla else "FAIL")
        energy = rec.get("energy")
        energy_s = f"{energy:.6f}" if energy is not None else "&mdash;"
        rows.append(
            "<tr>"
            f"<td>{_esc(rec.get('case', ''))}</td>"
            f"<td>{vanilla_s}</td>"
            f"<td>{_esc(rec.get('status', ''))}</td>"
            f"<td>{rec.get('iterations', 0)}</td>"
            f"<td>{energy_s}</td>"
            f"<td>{len(rec.get('trail', []))}</td>"
            f"<td>{_badge(PASS if rec.get('passed') else FAIL)}</td>"
            "</tr>"
        )
    details = []
    for rec in records:
        lines = rec.get("trail", [])
        guard = rec.get("guard") or {}
        body = (
            "".join(f"<li><code>{_esc(ln)}</code></li>" for ln in lines)
            or "<li>no guard events (healthy run)</li>"
        )
        detail_caption = _esc(rec.get("description", ""))
        if rec.get("aborted"):
            detail_caption += (
                f" &mdash; aborted: <code>{_esc(rec.get('abort_reason', ''))}"
                "</code>"
            )
        details.append(
            f"<details><summary>{_esc(rec.get('case', ''))} "
            f"({len(lines)} events, rung {guard.get('level', '&mdash;')})"
            f"</summary><p class=\"caption\">{detail_caption}</p>"
            f"<ul>{body}</ul></details>"
        )
    return _page(
        "scf-torture",
        "SCF torture suite: scf-torture",
        "convergence-guard acceptance gate: every case\n"
        "converges or terminates with a classified GuardEvent trail\n"
        f"{_badge(PASS if all_pass else FAIL)}",
        (
            (str(len(records)), "torture cases"),
            (f"{npassed}/{len(records)}", "passed the guard gate"),
            (str(nconv), "converged under guard"),
            (
                str(sum(len(rec.get("trail", [])) for rec in records)),
                "guard events",
            ),
        ),
        [
            _section(f"""
<h2>Cases</h2>
<p class="caption">"vanilla" is the same driver configuration without
the guard; "events" counts typed GuardEvents (classifications and
remediations). Ladder and classifier rules: docs/ROBUSTNESS.md.</p>
<table><thead><tr><th>case</th><th>vanilla</th><th>guarded</th>
<th>iters</th><th>energy (Ha)</th><th>events</th><th>gate</th>
</tr></thead><tbody>{''.join(rows)}</tbody></table>
"""),
            _section(f"\n<h2>Event trails</h2>\n{''.join(details)}\n"),
        ],
        "self-contained report &mdash; no external assets; generated by\n"
        "the repro SCF convergence guard (see docs/ROBUSTNESS.md)",
    )


# -- run driver --------------------------------------------------------------


def run_report(
    molecule: str = "water",
    basis_name: str = "6-31g",
    nproc: int = 4,
    with_trace: bool = True,
    scf_guard: bool = False,
) -> tuple[RunReport, Any]:
    """Run a numeric GTFock build (tau = 1e-11, the Lonestar machine) and
    assemble its :class:`RunReport`.

    With ``scf_guard=True`` a guarded RHF run of the same system is
    executed first and its convergence-guard summary (plus the event
    trail) lands in the report's "Convergence guard" section.

    Returns ``(report, build_result)``; render with
    :func:`render_report` or persist via :func:`write_report`.
    """
    # heavy imports stay local: repro.obs must import before the runtime
    from repro.fock.chaos import build_inputs
    from repro.fock.gtfock import gtfock_build
    from repro.obs.ambient import get_profiler, get_tracer
    from repro.obs.metrics import export_commstats
    from repro.obs.trace import Tracer

    engine, hcore, density, mol, _ = build_inputs(molecule, basis_name)

    guard_summary = None
    if scf_guard:
        from repro.scf.hf import RHF

        scf_result = RHF(mol, basis_name=basis_name, guard=True).run()
        guard_summary = dict(scf_result.guard_summary or {})
        guard_summary["trail"] = [
            ev.describe() for ev in scf_result.guard_events
        ]
        guard_summary["converged"] = bool(scf_result.converged)
        guard_summary["iterations"] = scf_result.iterations

    # reuse an installed (e.g. --trace) tracer so its output and the
    # embedded trace are the same run; otherwise record one locally
    ambient = get_tracer()
    if ambient.enabled:
        tracer = ambient
    elif with_trace:
        tracer = Tracer("repro-report")
    else:
        tracer = None
    from repro.fock.simulate import SimCapture
    from repro.obs.critpath import analyze

    capture = SimCapture()
    result = gtfock_build(
        engine, hcore, density, nproc, tracer=tracer, capture=capture,
    )
    # critical-path analysis of the same build (projection-only what-ifs:
    # re-simulating a numeric build would recompute real ERIs)
    analysis = analyze(capture, resim=False)
    # a --profile profiler installed around this call shows up as the
    # report's "Phase profile" section
    profiler = get_profiler()
    name = mol.name or mol.formula
    report = _report_from_build(
        result, f"{name}-{basis_name}-p{nproc}", name, basis_name, tracer,
        "model tolerances are calibrated for small test molecules; "
        "see docs/OBSERVABILITY.md for the threshold table",
        scf_guard=guard_summary,
        phases=profiler.to_json() if profiler.stats else None,
        critpath=analysis.to_json(),
    )
    export_commstats(result.stats)
    result.stats.flight.export_metrics()
    analysis.export_metrics()
    return report, result


def _report_from_build(
    result: Any, title: str, molecule: str, basis_name: str, tracer: Any,
    note: str, **sections,
) -> RunReport:
    """The :class:`RunReport` of one numeric build: its accounting,
    graded against the model; ``tracer``'s Chrome export is what the
    page embeds, ``sections`` are the optional fields."""
    from repro.model.perfmodel import PerfModel
    from repro.obs.validate import validate_run

    stats = result.stats
    s_measured = result.outcome.avg_steals_per_proc
    model = PerfModel.from_screening(result.screen, stats.config, s=s_measured)
    basis = result.screen.basis
    return RunReport(
        title=title,
        molecule=molecule,
        basis_name=basis_name,
        nproc=stats.nproc,
        nbf=basis.nbf,
        nshells=basis.nshells,
        flight=stats.flight,
        comp_time=stats.comp_time.copy(),
        comm_time=stats.comm_time.copy(),
        finish_time=result.outcome.finish_time.copy(),
        steals=result.outcome.steals,
        validation=validate_run(model, stats, s_measured=s_measured),
        summary=stats.summary(),
        trace="".join(tracer.chrome_chunks()) if tracer is not None else None,
        notes=[note],
        **sections,
    )


def chaos_report(cres: Any, tracer: Any = None) -> RunReport:
    """Assemble a :class:`RunReport` for a chaos run's *faulted* build.

    ``cres`` is a :class:`~repro.fock.chaos.ChaosResult`; the report is
    the ordinary run report of the faulted build plus the fault-
    injection/recovery section (``recovery``), with the trace of
    ``tracer`` (the one the run was recorded on) embedded.
    """
    return _report_from_build(
        cres.faulty,
        f"{cres.molecule}-{cres.basis_name}-p{cres.nproc}"
        f"-chaos-seed{cres.plan.seed}",
        cres.molecule, cres.basis_name, tracer,
        "this run executed under fault injection: model-vs-measured "
        "deviations include recovery overhead by design",
        # the gate's own payload (verdict, errors, tolerance) + the recovery
        # overhead, whose ``plan`` entry is the plan's describe() string
        recovery={**cres.to_json(), **cres.overhead},
    )


def write_report(path: str, report: RunReport) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_report(report))


# -- run-ledger report -------------------------------------------------------


def _scf_trajectory_html(snapshots: list[dict]) -> str:
    """Convergence table from the ledger's ``scf_iteration`` snapshots."""
    iters = [s for s in snapshots if s.get("label") == "scf_iteration"]
    if not iters:
        return ""
    rows = []
    prev_e = None
    for s in iters:
        e = s.get("energy")
        de = "&mdash;"
        if e is not None and prev_e is not None:
            de = f"{e - prev_e:+.3e}"
        prev_e = e
        d_change = s.get("d_change")
        e_cell = f"{e:.10f}" if e is not None else "&mdash;"
        d_cell = f"{d_change:.3e}" if d_change is not None else "&mdash;"
        rows.append(
            "<tr>"
            f"<td>{s.get('iteration', '&mdash;')}</td>"
            f"<td>{e_cell}</td>"
            f"<td>{de}</td>"
            f"<td>{d_cell}</td>"
            f"<td>{s.get('wall_s', 0.0):.3f}</td>"
            "</tr>"
        )
    return (
        "<h2>SCF trajectory</h2>"
        '<p class="caption">One ledger snapshot per SCF iteration '
        "(streamed to <code>metrics.jsonl</code> as the run executed).</p>"
        "<table><thead><tr><th>iter</th><th>energy (Ha)</th>"
        "<th>&Delta;E</th><th>max |&Delta;D|</th><th>wall (s)</th>"
        f"</tr></thead><tbody>{''.join(rows)}</tbody></table>"
    )


def render_ledger_report(record: Any) -> str:
    """Render a persisted run directory (:class:`RunRecord`) as HTML.

    After-the-fact counterpart of :func:`render_report`: everything on
    the page comes from the ledger artifacts (``manifest.json`` /
    ``metrics.jsonl`` / ``summary.json``), so ``repro report <rundir>``
    works long after the process that wrote them exited.
    """
    manifest = record.manifest
    summary = record.summary or {}
    prov = manifest.get("provenance", {})
    exit_code = summary.get("exit_code")
    ok = exit_code == 0

    tiles = [
        (str(manifest.get("command", "?")), "command"),
        (str(summary.get("molecule", manifest.get("molecule") or "&mdash;")),
         "molecule"),
        (str(summary.get("basis", manifest.get("basis") or "&mdash;")),
         "basis"),
        (f"{summary.get('wall_s', 0.0):.3g} s", "wall time"),
        (str(len(record.snapshots)), "snapshots"),
    ]
    if "energy" in summary:
        tiles.append((f"{summary['energy']:.8f}", "energy (Ha)"))
    if "iterations" in summary:
        tiles.append((str(summary["iterations"]), "SCF iterations"))

    prov_rows = "".join(
        f"<tr><td>{_esc(k)}</td><td><code>{_esc(v)}</code></td></tr>"
        for k, v in prov.items()
    )
    config = manifest.get("config", {})
    config_rows = "".join(
        f"<tr><td>{_esc(k)}</td><td><code>{_esc(v)}</code></td></tr>"
        for k, v in sorted(config.items())
    )
    integrity = summary.get("integrity")
    exit_badge = (
        _badge(PASS if ok else FAIL)
        if exit_code is not None
        else '<span class="badge">&#9202; no summary (run interrupted?)</span>'
    )
    return _page(
        record.title,
        f"Run ledger: {_esc(record.title)}",
        f"started {_esc(manifest.get('started_utc', '?'))},\n"
        f"finished {_esc(summary.get('finished_utc', '&mdash;'))} &mdash;\n"
        f"exit code {exit_code if exit_code is not None else '&mdash;'}\n"
        f"{exit_badge}",
        tiles,
        [
            _section(f"""
<h2>Provenance</h2>
<p class="caption">Recorded in <code>manifest.json</code> when the run
started; config hash <code>{_esc(manifest.get('config_hash', '?'))}</code>
is the SHA-256 of the canonicalized config below.</p>
<table><thead><tr><th>field</th><th>value</th></tr></thead>
<tbody>{prov_rows}</tbody></table>
<details><summary>resolved config ({len(config)} keys)</summary>
<table><thead><tr><th>key</th><th>value</th></tr></thead>
<tbody>{config_rows}</tbody></table></details>
"""),
            _section(_scf_trajectory_html(record.snapshots)),
            _section(
                integrity_section_html(integrity)
                if isinstance(integrity, dict) else ""
            ),
            _section(phase_section_html(record.phases or [], record.hotspots)),
        ],
        "self-contained report rendered from the run ledger at\n"
        f"<code>{_esc(record.path)}</code> (see docs/OBSERVABILITY.md)",
        gap="\n\n",
    )
