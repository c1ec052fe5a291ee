"""Self-contained HTML pages of a run directory.

Every page is one rendering of a persisted run directory (the
``manifest.json`` / ``metrics.jsonl`` / ``summary.json`` triple of
:mod:`repro.obs.manifest`): :func:`render_ledger_report` is the only page
function.  A command that asks for a page (``repro report MOLECULE``,
``--report`` on ``chaos`` / ``analyze`` / ``torture``) runs under a run
directory, records what its sections need in the summary, and the CLI
renders that directory -- so ``repro report DIR`` re-renders the same
page byte for byte, long after the process exited.

The page picks its sections from the summary keys present (the key
table is in docs/OBSERVABILITY.md): the numeric build's rank x channel
communication heatmap, steal timeline, load balance and model-vs-measured
table (``fock_build``), the critical path (``critpath_analysis``), the
chaos gate and its recovery overhead (``chaos``), the torture cases
(``torture``), the convergence guard, data integrity, phase profile and
the embedded Perfetto trace.  No external assets: inline CSS, inline
SVG, the trace as a base64 ``data:`` download link.

Charts follow the repo's data-viz conventions: a single blue sequential
ramp for magnitude, two fixed categorical slots for the compute/comm
series, reserved status colors that never appear without an icon +
label, ink/surface tokens as CSS custom properties with a dark mode
selected per-token (``prefers-color-scheme`` plus a ``data-theme``
override), native tooltips on every mark, and a table view beside every
chart so no value is readable only through color.

:func:`run_report` is the numeric-build driver behind ``repro report
MOLECULE``: it runs :func:`~repro.fock.gtfock.gtfock_build`, validates it
against the performance model and records the ``fock_build`` and
``critpath_analysis`` summary keys.
"""

from __future__ import annotations

import base64
import html
import math
from typing import Any

import numpy as np

from repro.obs.profile import _fmt_bytes
from repro.obs.validate import FAIL, PASS, WARN, ModelValidation

#: the run directory's copy of the session trace, named by the summary
TRACE_NAME = "trace.json"

# -- palette (see docs: reference data-viz palette) --------------------------

#: sequential blue ramp, steps 100..700 (magnitude encoding, both modes)
SEQ_RAMP = (
    "#cde2fb", "#b7d3f6", "#9ec5f4", "#86b6ef", "#6da7ec", "#5598e7",
    "#3987e5", "#2a78d6", "#256abf", "#1c5cab", "#184f95", "#104281",
    "#0d366b",
)

#: the dark-mode tokens, applied by ``prefers-color-scheme`` unless the
#: page says ``data-theme="light"``, and by ``data-theme="dark"``
_DARK = """
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
"""

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
  :root:where(:not([data-theme="light"])) {""" + _DARK + """}
}
:root[data-theme="dark"] {""" + _DARK + """}
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


def _table(head: list[str], rows) -> str:
    """A table: the header cells, then one ``<tr>`` per row of cells
    (all HTML)."""
    th = "".join(f"<th>{h}</th>" for h in head)
    body = "".join(
        "<tr>" + "".join(f"<td>{c}</td>" for c in row) + "</tr>" for row in rows
    )
    return f"<table><thead><tr>{th}</tr></thead><tbody>{body}</tbody></table>"


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


def _svg_open(width: float, height: float, label: str) -> str:
    return (
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img" aria-label="{label}">'
    )


def _legend(pairs) -> str:
    """A legend row: one swatch per ``(label, color)`` pair."""
    return '<div class="legend">' + "".join(
        f'<span><i class="sw" style="background: {color}"></i>{label}</span>'
        for label, color in pairs
    ) + "</div>"


def _time_axis(left: float, plot_w: float, axis_y: float, tmax: float) -> str:
    """The virtual-time x axis under a per-rank timeline: a baseline,
    five ticks and its unit."""
    ticks = "".join(
        f'<text class="axis-label" x="{left + frac * plot_w}" '
        f'y="{axis_y + 16}" text-anchor="middle">{tmax * frac:.3g}</text>'
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0)
    )
    return (
        f'<line x1="{left}" y1="{axis_y}" x2="{left + plot_w}" '
        f'y2="{axis_y}" stroke="var(--baseline)"/>{ticks}'
        f'<text class="axis-label" x="{left + plot_w}" y="{axis_y - 6}" '
        f'text-anchor="end">virtual seconds</text>'
    )


def heatmap_svg(chans: list[str], values: np.ndarray) -> str:
    """Rank x channel bytes heatmap (rows = ranks, sequential blue)."""
    nproc, nchan = values.shape
    cw, ch_px, left, top = 74, 26, 52, 64
    width = left + nchan * cw + 8
    height = top + nproc * ch_px + 8
    vmax = float(values.max()) if values.size else 0.0
    out = [_svg_open(width, height, "bytes moved per rank and channel")]
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

    ``steals`` are ``(time, thief, victim, ntasks)`` tuples; ``path``
    (critical-path segments as dicts with ``proc`` / ``start`` / ``end``
    / ``kind``) overlays the chain that bounds the makespan on the busy
    tracks.
    """
    left, top, right, row_h = 44, 16, 12, 26
    plot_w = 640
    width = left + plot_w + right
    height = top + nproc * row_h + 34
    tmax = float(finish.max()) if finish.size else 0.0
    tmax = max(tmax, max((s[0] for s in steals), default=0.0), 1e-30)

    def x_of(t: float) -> float:
        return left + (t / tmax) * plot_w

    def y_of(rank: int) -> float:
        return top + rank * row_h + row_h / 2

    out = [_svg_open(width, height, "steal-event timeline")]
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
    out.append(_time_axis(left, plot_w, top + nproc * row_h + 8, tmax))
    for time, thief, victim, ntasks in steals:
        x = x_of(time)
        y_t, y_v = y_of(thief), y_of(victim)
        tip = (
            f"<title>t={time:.3g} s: r{thief} stole {ntasks} tasks "
            f"from r{victim}</title>"
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

    out = [_svg_open(width, height, "per-rank compute and communication time")]
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
    return _table(
        ["rank"] + [_esc(c) for c in chans],
        ([f"r{i}"] + [fmt(v) for v in row] for i, row in enumerate(values)),
    )


def validation_table_html(v: dict) -> str:
    """The deviation table of :meth:`ModelValidation.to_json` ``v``."""
    return _table(
        ["metric", "model", "measured", "measured/model", "tolerance (fold)",
         "status"],
        (
            [_esc(d["name"]), _fmt_g(d["predicted"]), _fmt_g(d["measured"]),
             f"{d['ratio']:.3f}",
             f"&le; {_fmt_g(d['warn_at'])} / {_fmt_g(d['fail_at'])}",
             _badge(d["status"])]
            for d in v["deviations"]
        ),
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
    out = [_svg_open(width, height, "wall and CPU time per phase")]
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
    return _table(
        ["phase", "calls", "wall (s)", "CPU (s)", "max (s)", "peak alloc"],
        (
            [_esc(p["name"]), p["calls"], f"{p['wall_s']:.4f}",
             f"{p['cpu_s']:.4f}", f"{p['max_wall_s']:.4f}",
             _fmt_bytes(p["alloc_peak_bytes"])
             if p.get("alloc_peak_bytes") else "&mdash;"]
            for p in phases
        ),
    )


def hotspot_table_html(hotspots: dict) -> str:
    """The cProfile top-N table (``HotspotProfile.to_json()`` shape)."""
    head = (
        f"{hotspots.get('total_calls', 0)} calls, "
        f"{hotspots.get('total_time', 0.0):.3f} s under cProfile"
    )
    rows = []
    for h in hotspots.get("hotspots", []):
        where = h["func"] if h["file"] in ("~", "") else (
            f"{h['file']}:{h['line']}:{h['func']}"
        )
        rows.append([
            f"<code>{_esc(where)}</code>", h["ncalls"], f"{h['tottime']:.4f}",
            f"{h['cumtime']:.4f}",
        ])
    return (
        f'<p class="caption">{_esc(head)} (sorted by cumulative time).</p>'
        + _table(["location", "calls", "self (s)", "cumulative (s)"], rows)
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
            _legend((("wall", "var(--series-1)"), ("CPU", "var(--series-2)")))
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
    out = [_svg_open(width, height, "per-rank waterfall")]
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
    out.append(_time_axis(left, plot_w, top + nproc * row_h + 8, tmax))
    out.append("</svg>")
    return "".join(out)


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
        parts.append(_legend(CRITPATH_COLORS.items()))
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
        parts.append(
            "<h2>Blame table</h2>"
            '<p class="caption">Critical-path seconds by segment kind '
            "&mdash; shrinking the top row is the only way to shrink the "
            "makespan.</p>"
            + _table(
                ["kind", "seconds", "share of makespan", "segments"],
                (
                    [_esc(b["kind"]), f"{b['seconds']:.6g}",
                     f"{b['seconds'] / d['makespan']:.1%}", b["count"]]
                    for b in path["blame"]
                ),
            )
        )
    whatifs = cp.get("whatifs") or []
    if whatifs:
        def cell(value, fmt: str) -> str:
            return "&mdash;" if value is None else format(value, fmt)

        parts.append(
            "<h2>What-if projections</h2>"
            '<p class="caption">Differential replay of the recorded '
            "per-rank structure under perturbed parameters; cross-checked "
            "scenarios carry the projection-vs-resimulation error "
            "(&le;15% pass, &le;30% warn).</p>"
            + _table(
                ["scenario", "speedup", "projected (s)", "re-simulated (s)",
                 "error", ""],
                (
                    [f"{_esc(w['name'])}"
                     f'<div class="caption">{_esc(w["description"])}</div>',
                     f"{w['speedup']:.2f}&times;",
                     f"{w['projected_makespan']:.6g}",
                     cell(w.get("resim_makespan"), ".6g"),
                     cell(w.get("rel_err"), ".1%"),
                     # verdicts are PASS / WARN / FAIL or PROJECTED
                     _badge(w["verdict"].lower())
                     if w["verdict"].lower() in _BADGES
                     else '<span class="badge">projected</span>']
                    for w in whatifs
                ),
            )
        )
    ranks = d.get("ranks") or []
    if ranks:
        parts.append(
            "<details><summary>per-rank decomposition</summary>"
            + _table(
                ["rank", "compute (s)", "comm (s)", "blocked (s)", "idle (s)",
                 "end (s)", "residual"],
                (
                    [f"r{r['proc']}", f"{r['compute']:.6g}",
                     f"{r['comm_total']:.6g}", f"{r['blocked']:.6g}",
                     f"{r['idle']:.6g}", f"{r['end']:.6g}",
                     f"{r['residual']:.2e}"]
                    for r in ranks
                ),
            )
            + "</details>"
        )
    return "".join(parts)


# -- numeric build (``fock_build``) --------------------------------------------


def fock_build_tiles(fb: dict) -> list[tuple[str, str]]:
    return [
        (str(fb["nproc"]), "processes"),
        (f"{fb['nbf']} / {fb['nshells']}", "functions / shells"),
        (str(len(fb["steals"])), "steals"),
        (f"{fb['makespan']:.3g} s", "makespan"),
        (f"{fb['load_balance']:.3f}", "load balance"),
        (f"{fb['avg_volume_mb']:.3f}", "MB / process"),
    ]


def _flight_matrix(fb: dict, key: str) -> np.ndarray:
    fl = fb["flight"]
    return np.asarray(fl[key]).reshape(fb["nproc"], len(fl["channels"]))


def fock_build_sections_html(fb: dict, path: list[dict] | None) -> list[str]:
    """Communication heatmap, steal timeline, load balance and the
    model-vs-measured table of one numeric build (``fock_build``);
    ``path`` is the critical path to overlay on the steal timeline."""
    chans = fb["flight"]["channels"]
    m_bytes = _flight_matrix(fb, "bytes")
    comp, comm, finish = (
        np.asarray(fb[k], dtype=float)
        for k in ("comp_time", "comm_time", "finish_time")
    )
    steal_table = _table(
        ["t (s)", "thief", "victim", "tasks"],
        ([f"{t:.6g}", f"r{thief}", f"r{victim}", n]
         for t, thief, victim, n in fb["steals"]),
    )
    rank_table = _table(
        ["rank", "compute (s)", "comm (s)", "finish (s)"],
        ([f"r{p}", f"{comp[p]:.6g}", f"{comm[p]:.6g}", f"{finish[p]:.6g}"]
         for p in range(fb["nproc"])),
    )
    v = fb["validation"]
    notes = "".join(f"<li>{_esc(n)}</li>" for n in fb["notes"])
    overlay = "; the thick overlay is the critical path" if path else ""
    return [
        "<h2>Communication volume by rank and channel</h2>"
        '<p class="caption">Bytes moved per rank on each flight-recorder '
        "channel (sequential scale, hover any cell for the value). Per-rank "
        "channel sums equal the run's Table VI counters exactly.</p>"
        f"{heatmap_svg(chans, m_bytes)}"
        "<details><summary>table view (bytes and calls)</summary>"
        f"{_matrix_table(chans, m_bytes, _fmt_bytes)}"
        '<p class="caption">one-sided calls:</p>'
        f"{_matrix_table(chans, _flight_matrix(fb, 'msgs'), _fmt_int)}"
        "</details>",
        "<h2>Steal-event timeline</h2>"
        '<p class="caption">Each steal connects its victim (open marker) to '
        "the thief (filled marker) at the virtual time it happened; the gray "
        f"track shows how long each rank stayed busy{overlay}.</p>"
        f"{steal_timeline_svg(fb['steals'], finish, fb['nproc'], path=path)}"
        f"<details><summary>table view</summary>{steal_table}</details>",
        "<h2>Load balance</h2>"
        + _legend((
            ("compute", "var(--series-1)"), ("communication", "var(--series-2)")
        ))
        + f"{load_balance_svg(comp, comm)}"
        f'<p class="caption">l = max/mean clock = {fb["load_balance"]:.3f} '
        "(Table VIII metric).</p>"
        f"<details><summary>table view</summary>{rank_table}</details>",
        "<h2>Model vs measured (Sec III-G)</h2>"
        '<p class="caption">Performance-model predictions against '
        "flight-recorder measurements; a metric warns/fails when "
        "measured/model (folded to &ge;&nbsp;1) exceeds its documented "
        f"tolerance. Measured s = {v['s_measured']:.2f} victims/process. "
        f"{_badge(v['status'])}</p>"
        f"{validation_table_html(v)}"
        + (f'<ul class="caption">{notes}</ul>' if notes else ""),
    ]


def scheduler_atomics_html(fb: dict) -> str:
    """Per-rank queue/steal-protocol operations of a numeric build."""
    chans = fb["flight"]["channels"]
    m_ops = _flight_matrix(fb, "ops")
    keep = [j for j in range(len(chans)) if np.any(m_ops[:, j])]
    if not keep:
        return ""
    return (
        "<h2>Scheduler atomics</h2>"
        '<p class="caption">Queue/steal-protocol operations per rank '
        "(not one-sided GA calls; kept out of the Table VI/VII "
        "counters).</p>"
        + _matrix_table([chans[j] for j in keep], m_ops[:, keep], _fmt_int)
    )


def _fmt_int(v: float) -> str:
    return f"{int(v)}"


# -- chaos gates (``chaos``) and the torture suite (``torture``) -------------


def recovery_section_html(result: dict) -> str:
    """The runtime family's fault-injection & recovery tiles; ``result``
    is the :func:`~repro.fock.chaos.runtime_gate` record's payload, whose
    overhead ``plan`` entry is the plan's describe() string."""
    rec = {**result, **result["overhead"]}
    return (
        "<h2>Fault injection &amp; recovery</h2>"
        f'<p class="caption">Plan: <code>{_esc(rec.get("plan", ""))}'
        "</code> &mdash; chaos invariant (faulted Fock matrix equals "
        f"the fault-free one to &le; {rec.get('tolerance', 1e-12):.0e}) "
        f"{_badge(PASS if rec.get('passed', False) else FAIL)}</p>"
        + _tiles((
            (f"{rec.get('fock_error', 0.0):.2e}", "max |dF| vs fault-free"),
            (str(rec.get("dead_ranks", [])), "dead ranks"),
            (str(rec.get("reexecuted_tasks", 0)), "re-executed tasks"),
            (str(rec.get("recoveries", 0)), "orphan adoptions"),
            (str(rec.get("retries_total", 0)), "op retries"),
            (str(rec.get("acks_lost_total", 0)), "acks lost"),
            (_fmt_bytes(rec.get("retry_bytes", 0)), "retry bytes"),
            (f"x{rec.get('slowdown', 1.0):.2f}", "makespan vs fault-free"),
        ))
        + '<p class="caption">Recovery overhead is visible above: the '
        "<code>retry</code> heatmap column carries every re-sent "
        "payload and injected delay, and re-executed tasks inflate "
        "the survivors' compute bars. See docs/ROBUSTNESS.md for the "
        "taxonomy and protocol.</p>"
    )


def gate_section_html(g: dict) -> str:
    """A chaos family's gate: one row per invariant with its PASS/FAIL
    badge, then the family's detail lines."""
    invariants = g["invariants"]
    passed = all(held for _, held in invariants)
    items = "".join(f"<li><code>{_esc(line)}</code></li>" for line in g["details"])
    return (
        f"<h2>Chaos gate: {_esc(g['gate'])}</h2>"
        f'<p class="caption">{len(invariants)} invariants '
        f"{_badge(PASS if passed else FAIL)} &mdash; every gate is "
        "tabulated in docs/ROBUSTNESS.md.</p>"
        + _table(
            ["invariant", "status"],
            ([_esc(name), _badge(PASS if held else FAIL)]
             for name, held in invariants),
        )
        + f'<ul class="caption">{items}</ul>'
    )


def torture_tiles(records: list[dict]) -> list[tuple[str, str]]:
    npassed = sum(1 for rec in records if rec.get("passed"))
    return [
        (str(len(records)), "torture cases"),
        (f"{npassed}/{len(records)}", "passed the guard gate"),
        (str(sum(1 for rec in records if rec.get("converged"))),
         "converged under guard"),
        (str(sum(len(rec.get("trail", [])) for rec in records)),
         "guard events"),
    ]


def torture_sections_html(records: list[dict]) -> list[str]:
    """The cases table and the event trails of an SCF torture run;
    ``records`` is the :func:`repro.scf.torture.torture_gate` record's
    payload."""
    rows = []
    details = []
    for rec in records:
        vanilla = rec.get("vanilla_converged")
        vanilla_s = "&mdash;" if vanilla is None else ("ok" if vanilla else "FAIL")
        energy = rec.get("energy")
        energy_s = f"{energy:.6f}" if energy is not None else "&mdash;"
        lines = rec.get("trail", [])
        rows.append([
            _esc(rec.get("case", "")), vanilla_s, _esc(rec.get("status", "")),
            rec.get("iterations", 0), energy_s, len(lines),
            _badge(PASS if rec.get("passed") else FAIL),
        ])
        body = (
            "".join(f"<li><code>{_esc(ln)}</code></li>" for ln in lines)
            or "<li>no guard events (healthy run)</li>"
        )
        caption = _esc(rec.get("description", ""))
        if rec.get("aborted"):
            caption += (
                f" &mdash; aborted: <code>{_esc(rec.get('abort_reason', ''))}"
                "</code>"
            )
        guard = rec.get("guard") or {}
        details.append(
            f"<details><summary>{_esc(rec.get('case', ''))} "
            f"({len(lines)} events, rung {guard.get('level', '&mdash;')})"
            f'</summary><p class="caption">{caption}</p>'
            f"<ul>{body}</ul></details>"
        )
    return [
        "<h2>Cases</h2>"
        '<p class="caption">"vanilla" is the same driver configuration '
        'without the guard; "events" counts typed GuardEvents '
        "(classifications and remediations). Ladder and classifier rules: "
        "docs/ROBUSTNESS.md.</p>"
        + _table(
            ["case", "vanilla", "guarded", "iters", "energy (Ha)", "events",
             "gate"],
            rows,
        ),
        f"<h2>Event trails</h2>{''.join(details)}",
    ]


# -- SCF convergence guard -----------------------------------------------------


def _counts_table(what: str, groups, empty: str) -> str:
    """One ``(name, count, kind)`` row per entry of each ``(counts,
    kind)`` group, names sorted within a group; ``empty`` is the caption
    shown when no group has an entry."""
    rows = [
        [_esc(k), v, kind]
        for counts, kind in groups
        for k, v in sorted((counts or {}).items())
    ]
    if not rows:
        return f'<p class="caption">{empty}</p>'
    return _table([what, "count", "kind"], rows)


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
    counts_html = _counts_table(
        "event",
        ((g.get("by_state"), "classification"),
         (g.get("by_action"), "remediation")),
        "no bad classifications: the iteration was never touched.",
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
    counts_html = _counts_table(
        "name",
        ((d.get("checks"), "detector runs"), (d.get("detections"), "detection"),
         (d.get("recoveries"), "recovery")),
        "no detectors ran.",
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


# -- run driver --------------------------------------------------------------


def record_build(result: Any, note: str) -> ModelValidation:
    """Grade one numeric build against the performance model and record
    it as the run's ``fock_build`` summary key (JSON-native values).

    ``result`` is a :class:`~repro.fock.gtfock.GTFockBuildResult`;
    ``note`` is the caption line under the model table.  Returns the
    validation, for the caller's ``--check``.
    """
    from repro.model.perfmodel import PerfModel
    from repro.obs.ambient import get_ledger
    from repro.obs.validate import validate_run

    stats, outcome = result.stats, result.outcome
    s_measured = outcome.avg_steals_per_proc
    model = PerfModel.from_screening(result.screen, stats.config, s=s_measured)
    validation = validate_run(model, stats, s_measured=s_measured)
    summary = stats.summary()
    basis = result.screen.basis
    get_ledger().add_summary(fock_build={
        "nproc": int(stats.nproc),
        "nbf": int(basis.nbf),
        "nshells": int(basis.nshells),
        "flight": stats.flight.to_json(),
        "comp_time": stats.comp_time.tolist(),
        "comm_time": stats.comm_time.tolist(),
        "finish_time": outcome.finish_time.tolist(),
        "steals": [
            [float(s.time), int(s.thief), int(s.victim), int(s.ntasks)]
            for s in outcome.steals
        ],
        "makespan": float(summary["makespan"]),
        "load_balance": float(summary["load_balance"]),
        "avg_volume_mb": float(summary["avg_volume_mb"]),
        "validation": validation.to_json(),
        "notes": [note],
    })
    return validation


def run_report(
    molecule: str = "water",
    basis_name: str = "6-31g",
    nproc: int = 4,
    scf_guard: bool = False,
) -> ModelValidation:
    """Run a numeric GTFock build (tau = 1e-11, the Lonestar machine) on
    the session's tracer and record it in the session's run ledger:
    ``fock_build`` (:func:`record_build`) and the build's
    ``critpath_analysis``.

    With ``scf_guard=True`` a guarded RHF run of the same system is
    executed first and its convergence-guard summary (plus the event
    trail) is recorded as ``scf_guard``.

    Returns the build's validation; the page is
    :func:`render_ledger_report` of the run directory.
    """
    # heavy imports stay local: repro.obs must import before the runtime
    from repro.fock.chaos import build_inputs
    from repro.fock.gtfock import gtfock_build
    from repro.fock.simulate import SimCapture
    from repro.obs.ambient import get_ledger
    from repro.obs.critpath import analyze
    from repro.obs.metrics import export_commstats

    engine, hcore, density, mol, _ = build_inputs(molecule, basis_name)
    ledger = get_ledger()
    if scf_guard:
        from repro.scf.hf import RHF

        scf_result = RHF(mol, basis_name=basis_name, guard=True).run()
        ledger.add_summary(scf_guard={
            **(scf_result.guard_summary or {}),
            "trail": [ev.describe() for ev in scf_result.guard_events],
            "converged": bool(scf_result.converged),
            "iterations": scf_result.iterations,
        })

    capture = SimCapture()
    result = gtfock_build(engine, hcore, density, nproc, capture=capture)
    # critical-path analysis of the same build (projection-only what-ifs:
    # re-simulating a numeric build would recompute real ERIs)
    analysis = analyze(capture, resim=False)
    validation = record_build(
        result,
        "model tolerances are calibrated for small test molecules; "
        "see docs/OBSERVABILITY.md for the threshold table",
    )
    ledger.add_summary(critpath_analysis=analysis.to_json())
    export_commstats(result.stats)
    result.stats.flight.export_metrics()
    analysis.export_metrics()
    return validation


# -- the page ------------------------------------------------------------------


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
        rows.append([
            s.get("iteration", "&mdash;"), e_cell, de, d_cell,
            f"{s.get('wall_s', 0.0):.3f}",
        ])
    return (
        "<h2>SCF trajectory</h2>"
        '<p class="caption">One ledger snapshot per SCF iteration '
        "(streamed to <code>metrics.jsonl</code> as the run executed).</p>"
        + _table(
            ["iter", "energy (Ha)", "&Delta;E", "max |&Delta;D|", "wall (s)"],
            rows,
        )
    )



def _trace_html(record: Any) -> str:
    """The download link of the run directory's trace file, embedded."""
    name = (record.summary or {}).get("trace")
    path = record.path / name if name else None
    if path is None or not path.is_file():
        return ""
    payload = base64.b64encode(path.read_bytes()).decode("ascii")
    return (
        "<h2>Trace</h2>"
        '<p class="caption">Chrome trace-event JSON of this run '
        "(host spans + per-rank virtual clocks). Download and open at "
        '<a href="https://ui.perfetto.dev">ui.perfetto.dev</a>.</p>'
        f'<a download="{_esc(record.title)}.trace.json" '
        f'href="data:application/json;base64,{payload}">'
        "download Perfetto trace"
        f" ({_fmt_bytes(len(payload) * 3 // 4)})</a>"
    )


def render_ledger_report(record: Any) -> str:
    """Render a persisted run directory (:class:`RunRecord`) as HTML.

    Everything on the page comes from the directory: the header, tiles
    and Provenance from ``manifest.json``, the SCF trajectory from
    ``metrics.jsonl``, and one section per ``summary.json`` key present
    (``fock_build``, ``critpath_analysis``, ``chaos``, ``torture``,
    ``scf_guard``, ``integrity``, ``phases`` / ``hotspots``, ``trace``).
    The page names no path, so the same directory renders the same bytes
    wherever it lives.
    """
    manifest = record.manifest
    summary = record.summary or {}
    prov = manifest.get("provenance", {})
    exit_code = summary.get("exit_code")
    fb = summary.get("fock_build")
    cp = summary.get("critpath_analysis")
    gate = summary.get("chaos")
    torture = summary.get("torture")

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
    if fb:
        tiles += fock_build_tiles(fb)
    if torture is not None:
        tiles += torture_tiles(torture)

    config = manifest.get("config", {})

    def fields(head: str, pairs) -> str:
        return _table(
            [head, "value"], ([_esc(k), f"<code>{_esc(v)}</code>"] for k, v in pairs)
        )

    sections = [
        "<h2>Provenance</h2>"
        '<p class="caption">Recorded in <code>manifest.json</code> when the '
        "run started; config hash "
        f"<code>{_esc(manifest.get('config_hash', '?'))}</code> is the "
        "SHA-256 of the canonicalized config below.</p>"
        + fields("field", prov.items())
        + f"<details><summary>resolved config ({len(config)} keys)</summary>"
        + fields("key", sorted(config.items()))
        + "</details>",
        _scf_trajectory_html(record.snapshots),
    ]
    if fb:
        path = ((cp or {}).get("path") or {}).get("segments")
        sections += fock_build_sections_html(fb, path)
    if cp:
        sections.append(critpath_section_html(cp))
    if gate:
        if gate["gate"] == "chaos":  # the runtime family: recovery tiles
            sections.append(recovery_section_html(gate["result"]))
        sections.append(gate_section_html(gate))
    if torture is not None:
        sections += torture_sections_html(torture)
    for key, section in (
        ("scf_guard", scf_guard_section_html),
        ("integrity", integrity_section_html),
    ):
        if isinstance(summary.get(key), dict):
            sections.append(section(summary[key]))
    sections += [
        phase_section_html(record.phases, record.hotspots),
        scheduler_atomics_html(fb) if fb else "",
        _trace_html(record),
    ]

    if exit_code is None:
        exit_badge = (
            '<span class="badge">&#9202; no summary (run interrupted?)</span>'
        )
    else:
        exit_badge = _badge(PASS if exit_code == 0 else FAIL)
    body = "\n".join(
        [_tiles(tiles)]
        + [_section(s) for s in sections if s]
        + [
            "<footer>self-contained report rendered from a run directory "
            "(manifest.json, metrics.jsonl, summary.json; see "
            "docs/OBSERVABILITY.md)</footer>"
        ]
    )
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{_esc(record.title)}</title>
<style>{_CSS}</style>
</head>
<body>
<main>
<h1>Run ledger: {_esc(record.title)}</h1>
<p class="subtitle">started {_esc(manifest.get('started_utc', '?'))},
finished {_esc(summary.get('finished_utc', '&mdash;'))} &mdash;
exit code {exit_code if exit_code is not None else '&mdash;'}
{exit_badge}</p>
{body}
</main>
</body>
</html>
"""
