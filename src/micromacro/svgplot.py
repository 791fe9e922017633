"""Small self-contained SVG line charts (no plotting dependency).

Output is a deterministic function of the inputs: fixed palette, fixed
geometry, coordinates rounded to 0.01 px.
"""
from __future__ import annotations

import math

import numpy as np

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf")
WIDTH, HEIGHT = 720, 460
MARGIN = {"left": 64, "right": 16, "top": 34, "bottom": 44}


def _bounds(values) -> tuple[float, float]:
    lo = float(np.min(values))
    hi = float(np.max(values))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("non-finite plot data")
    if hi == lo:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def line_chart(x, series: dict, title: str = "", xlabel: str = "",
               ylabel: str = "") -> str:
    """series maps a label to a y-array over the common x grid."""
    x = np.asarray(x, dtype=float)
    if x.size < 2:
        raise ValueError("need at least two x points")
    x0, x1 = _bounds(x)
    y0, y1 = _bounds(np.concatenate([np.asarray(y, float) for y in series.values()]))
    px0, px1 = MARGIN["left"], WIDTH - MARGIN["right"]
    py0, py1 = HEIGHT - MARGIN["bottom"], MARGIN["top"]

    def sx(v):
        return px0 + (v - x0) / (x1 - x0) * (px1 - px0)

    def sy(v):
        return py0 + (v - y0) / (y1 - y0) * (py1 - py0)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.2f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]
    axis = 'stroke="#333" stroke-width="1"'
    out.append(f'<line x1="{px0}" y1="{py0}" x2="{px1}" y2="{py0}" {axis}/>')
    out.append(f'<line x1="{px0}" y1="{py0}" x2="{px0}" y2="{py1}" {axis}/>')
    for v in np.linspace(x0, x1, 6):
        px = sx(v)
        out.append(f'<line x1="{px:.2f}" y1="{py0}" x2="{px:.2f}" '
                   f'y2="{py0 + 4}" {axis}/>')
        out.append(f'<text x="{px:.2f}" y="{py0 + 17}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="11">{v:.4g}</text>')
    for v in np.linspace(y0, y1, 6):
        py = sy(v)
        out.append(f'<line x1="{px0 - 4}" y1="{py:.2f}" x2="{px0}" '
                   f'y2="{py:.2f}" {axis}/>')
        out.append(f'<text x="{px0 - 7}" y="{py + 4:.2f}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="11">{v:.4g}</text>')
    out.append(f'<text x="{(px0 + px1) / 2:.2f}" y="{HEIGHT - 8}" '
               f'text-anchor="middle" font-family="sans-serif" '
               f'font-size="12">{xlabel}</text>')
    out.append(f'<text x="16" y="{(py0 + py1) / 2:.2f}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="12" '
               f'transform="rotate(-90 16 {(py0 + py1) / 2:.2f})">{ylabel}</text>')
    for k, (label, y) in enumerate(series.items()):
        y = np.asarray(y, dtype=float)
        color = PALETTE[k % len(PALETTE)]
        pts = " ".join(f"{sx(xi):.2f},{sy(yi):.2f}" for xi, yi in zip(x, y))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"/>')
        ly = MARGIN["top"] + 14 * k + 10
        out.append(f'<line x1="{px1 - 130}" y1="{ly - 4}" x2="{px1 - 110}" '
                   f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{px1 - 105}" y="{ly}" font-family="sans-serif" '
                   f'font-size="11">{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
