"""Tiny self-contained SVG line charts.

No plotting dependency: charts are assembled from ``<line>``, ``<text>`` and
one ``<polyline>`` per curve, so output is deterministic and diffable.
"""

from __future__ import annotations

import math
from pathlib import Path

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd")

_MARGIN_LEFT = 70.0
_MARGIN_RIGHT = 24.0
_MARGIN_TOP = 42.0
_MARGIN_BOTTOM = 52.0


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    """Tick positions at 1/2/5 x 10^k spacing covering [lo, hi]."""
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / max(target - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    step = 10.0 * mag
    for mult in (1.0, 2.0, 5.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step - 1e-9) * step
    ticks = []
    t = first
    while t <= hi + step * 1e-9:
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        t += step
    return ticks


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:g}"


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_line_chart(
    curves: list[tuple[str, list[float]]],
    *,
    title: str = "",
    x_label: str = "episode",
    y_label: str = "return",
    width: int = 800,
    height: int = 500,
) -> str:
    """Render labelled curves (y-values against their index) to SVG text.

    A non-finite value, or a y-range beyond the largest float, raises
    ``ValueError`` naming its curve."""
    if not curves:
        raise ValueError("nothing to plot")
    for label, ys in curves:
        if len(ys) == 0:
            raise ValueError(f"curve {label!r} is empty")
        if not all(map(math.isfinite, ys)):
            raise ValueError(f"curve {label!r} has a non-finite value")

    x_max = max(len(ys) - 1 for _, ys in curves)
    y_lo, lo_label = min((min(ys), label) for label, ys in curves)
    y_hi, hi_label = max((max(ys), label) for label, ys in curves)
    pad = 0.05 * (y_hi - y_lo)
    if y_lo - pad == y_lo or y_hi + pad == y_hi:
        # Flat, or so narrow that ticks would not advance: widen by 1, or
        # by 1e-12 of values past 1e12, where adding 1 changes nothing.
        widen = max(1.0, 1e-12 * max(-y_lo, y_hi))
        y_lo -= widen
        y_hi += widen
        pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad
    if not math.isfinite(y_hi - y_lo):
        raise ValueError(f"y-range of curves {lo_label!r} to {hi_label!r} overflows a float")

    plot_w = width - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = height - _MARGIN_TOP - _MARGIN_BOTTOM

    def sx(x: float) -> float:
        return _MARGIN_LEFT + plot_w * (x / max(x_max, 1))

    def sy(y: float) -> float:
        return _MARGIN_TOP + plot_h * (1.0 - (y - y_lo) / (y_hi - y_lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.1f}" y="24" font-family="sans-serif" font-size="16" '
            f'text-anchor="middle">{_esc(title)}</text>'
        )

    x0, y0 = _MARGIN_LEFT, _MARGIN_TOP + plot_h
    x1, y1 = _MARGIN_LEFT + plot_w, _MARGIN_TOP

    for t in _nice_ticks(0.0, float(x_max)):
        px = sx(t)
        parts.append(
            f'<line x1="{px:.2f}" y1="{y0:.2f}" x2="{px:.2f}" y2="{y1:.2f}" '
            f'stroke="#e0e0e0" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{y0 + 18:.2f}" font-family="sans-serif" font-size="12" '
            f'text-anchor="middle">{_fmt(t)}</text>'
        )
    for t in _nice_ticks(y_lo, y_hi):
        py = sy(t)
        parts.append(
            f'<line x1="{x0:.2f}" y1="{py:.2f}" x2="{x1:.2f}" y2="{py:.2f}" '
            f'stroke="#e0e0e0" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x0 - 8:.2f}" y="{py + 4:.2f}" font-family="sans-serif" font-size="12" '
            f'text-anchor="end">{_fmt(t)}</text>'
        )

    parts.append(
        f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x1:.2f}" y2="{y0:.2f}" '
        f'stroke="#333333" stroke-width="1.5"/>'
    )
    parts.append(
        f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x0:.2f}" y2="{y1:.2f}" '
        f'stroke="#333333" stroke-width="1.5"/>'
    )
    parts.append(
        f'<text x="{(x0 + x1) / 2:.1f}" y="{height - 12}" font-family="sans-serif" '
        f'font-size="13" text-anchor="middle">{_esc(x_label)}</text>'
    )
    parts.append(
        f'<text x="18" y="{(y0 + y1) / 2:.1f}" font-family="sans-serif" font-size="13" '
        f'text-anchor="middle" transform="rotate(-90 18 {(y0 + y1) / 2:.1f})">{_esc(y_label)}</text>'
    )

    for i, (label, ys) in enumerate(curves):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{sx(j):.2f},{sy(v):.2f}" for j, v in enumerate(ys))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.8" points="{pts}"/>'
        )

    legend_x = x0 + 12
    legend_y = y1 + 14
    for i, (label, _) in enumerate(curves):
        color = PALETTE[i % len(PALETTE)]
        ly = legend_y + 18 * i
        parts.append(
            f'<line x1="{legend_x:.1f}" y1="{ly - 4:.1f}" x2="{legend_x + 24:.1f}" '
            f'y2="{ly - 4:.1f}" stroke="{color}" stroke-width="2.5"/>'
        )
        parts.append(
            f'<text x="{legend_x + 30:.1f}" y="{ly:.1f}" font-family="sans-serif" '
            f'font-size="12">{_esc(label)}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(path, svg_text: str) -> None:
    Path(path).write_text(svg_text, encoding="utf-8")
