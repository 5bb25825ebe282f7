"""Minimal SVG line charts, written without a plotting framework.

Each data series becomes exactly one ``<path>`` element; axes, ticks and
the frame are ``<line>``/``<rect>`` elements and optional point markers
are ``<circle>`` elements, so emitted files are easy to inspect and to
assert on in tests.  NaN values split a series into visual gaps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from html import escape

import numpy as np

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf")


@dataclass
class Series:
    label: str
    x: np.ndarray
    y: np.ndarray
    dashed: bool = False
    color: str | None = None
    markers: bool = False


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _data_range(values, fixed):
    if fixed is not None:
        return float(fixed[0]), float(fixed[1])
    finite = [v for v in values if math.isfinite(v)]
    if not finite:
        return 0.0, 1.0
    lo, hi = min(finite), max(finite)
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def line_chart(series, *, title: str = "", x_label: str = "",
               y_label: str = "", width: int = 720, height: int = 480,
               x_range=None, y_range=None) -> str:
    """Render the series as an SVG document string."""
    series = list(series)
    left, right, top, bottom = 64, 16, 40, 52
    plot_w = width - left - right
    plot_h = height - top - bottom

    all_x = [float(v) for s in series for v in np.ravel(s.x)]
    all_y = [float(v) for s in series for v in np.ravel(s.y)]
    x_lo, x_hi = _data_range(all_x, x_range)
    y_lo, y_hi = _data_range(all_y, y_range)

    def sx(v):
        return left + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v):
        return top + plot_h - (v - y_lo) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#888" stroke-width="1"/>',
    ]
    if title:
        out.append(
            f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
            f'font-size="15" font-family="sans-serif">'
            f'{escape(title, quote=False)}</text>')

    # Ticks and grid labels.
    for i in range(6):
        fx = x_lo + (x_hi - x_lo) * i / 5
        px = sx(fx)
        out.append(f'<line x1="{px:.1f}" y1="{top + plot_h}" x2="{px:.1f}" '
                   f'y2="{top + plot_h + 5}" stroke="#444"/>')
        out.append(f'<text x="{px:.1f}" y="{top + plot_h + 18}" '
                   'text-anchor="middle" font-size="11" '
                   f'font-family="sans-serif">{_fmt(fx)}</text>')
        fy = y_lo + (y_hi - y_lo) * i / 5
        py = sy(fy)
        out.append(f'<line x1="{left - 5}" y1="{py:.1f}" x2="{left}" '
                   f'y2="{py:.1f}" stroke="#444"/>')
        out.append(f'<text x="{left - 8}" y="{py + 4:.1f}" '
                   'text-anchor="end" font-size="11" '
                   f'font-family="sans-serif">{_fmt(fy)}</text>')
    if x_label:
        out.append(f'<text x="{left + plot_w / 2:.1f}" y="{height - 10}" '
                   'text-anchor="middle" font-size="13" '
                   'font-family="sans-serif">'
                   f'{escape(x_label, quote=False)}</text>')
    if y_label:
        cx, cy = 16, top + plot_h / 2
        out.append(f'<text x="{cx}" y="{cy:.1f}" text-anchor="middle" '
                   f'font-size="13" font-family="sans-serif" '
                   f'transform="rotate(-90 {cx} {cy:.1f})">'
                   f'{escape(y_label, quote=False)}</text>')

    for i, s in enumerate(series):
        color = s.color or PALETTE[i % len(PALETTE)]
        dash = ' stroke-dasharray="7 4"' if s.dashed else ""
        segments = []
        current = []
        for xv, yv in zip(np.ravel(s.x), np.ravel(s.y)):
            if math.isfinite(float(xv)) and math.isfinite(float(yv)):
                current.append((sx(float(xv)), sy(float(yv))))
            elif current:
                segments.append(current)
                current = []
        if current:
            segments.append(current)
        d = " ".join(
            "M " + " L ".join(f"{px:.2f} {py:.2f}" for px, py in seg)
            for seg in segments if seg)
        out.append(f'<path d="{d}" fill="none" stroke="{color}" '
                   f'stroke-width="1.8"{dash}/>')
        if s.markers:
            for seg in segments:
                for px, py in seg:
                    out.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="3" '
                               f'fill="{color}"/>')

    # Legend, top-right inside the frame.
    for i, s in enumerate(series):
        color = s.color or PALETTE[i % len(PALETTE)]
        ly = top + 16 + 16 * i
        lx = left + plot_w - 150
        dash = ' stroke-dasharray="7 4"' if s.dashed else ""
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" '
                   f'y2="{ly - 4}" stroke="{color}" stroke-width="2"{dash}/>')
        out.append(f'<text x="{lx + 28}" y="{ly}" font-size="12" '
                   'font-family="sans-serif">'
                   f'{escape(s.label, quote=False)}</text>')

    out.append("</svg>")
    return "\n".join(out)


def write(path, svg_text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg_text)
        if not svg_text.endswith("\n"):
            fh.write("\n")
