"""Minimal SVG line-chart writer: axes, tick labels, polylines, legend.

No plotting dependency; output is deterministic (fixed float formatting,
fixed element order) so figures diff cleanly between runs.
"""

from __future__ import annotations

import math

WIDTH = 760
HEIGHT = 460
MARGIN_L = 72
MARGIN_R = 150
MARGIN_T = 36
MARGIN_B = 54

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _fmt(x: float) -> str:
    return format(x, ".2f")


def _ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / 5  # about six ticks
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if step >= raw:
            break
    start = math.ceil(lo / step) * step
    out = []
    t = start
    while t <= hi + 1e-9 * step:
        out.append(0.0 if abs(t) < 1e-12 else t)
        t += step
    return out


def _tick_label(t: float) -> str:
    if t == int(t) and abs(t) < 1e6:
        return str(int(t))
    return format(t, ".4g")


def render_line_chart(path: str, x: list[float], curves: list[tuple[str, list[float]]],
                      title: str, xlabel: str, ylabel: str) -> None:
    """Write a line chart of the given curves to an SVG file."""
    xs = list(x)
    all_y = [v for _, ys in curves for v in ys if math.isfinite(v)]
    if not xs or not all_y:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(all_y), max(all_y)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(v: float) -> float:
        return MARGIN_L + (v - x_lo) / (x_hi - x_lo) * plot_w

    def py(v: float) -> float:
        return MARGIN_T + (y_hi - v) / (y_hi - y_lo) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<text x="{WIDTH // 2}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
        # frame
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#000000" stroke-width="1"/>',
    ]
    for t in _ticks(x_lo, x_hi):
        X = px(t)
        parts.append(
            f'<line x1="{_fmt(X)}" y1="{MARGIN_T + plot_h}" x2="{_fmt(X)}" '
            f'y2="{MARGIN_T + plot_h + 5}" stroke="#000000" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(X)}" y="{MARGIN_T + plot_h + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_tick_label(t)}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        Y = py(t)
        parts.append(
            f'<line x1="{MARGIN_L - 5}" y1="{_fmt(Y)}" x2="{MARGIN_L}" '
            f'y2="{_fmt(Y)}" stroke="#000000" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 8}" y="{_fmt(Y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_tick_label(t)}</text>'
        )
    yc = MARGIN_T + plot_h // 2
    parts.append(
        f'<text x="{MARGIN_L + plot_w // 2}" y="{HEIGHT - 14}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="13">{xlabel}</text>'
    )
    parts.append(
        f'<text x="18" y="{yc}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="13" transform="rotate(-90 18 {yc})">{ylabel}</text>'
    )
    for i, (label, ys) in enumerate(curves):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(
            f"{_fmt(px(a))},{_fmt(py(b))}" for a, b in zip(xs, ys)
            if math.isfinite(b)
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.6"/>'
        )
        ly = MARGIN_T + 16 + 18 * i
        lx = MARGIN_L + plot_w + 10
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.6"/>'
        )
        parts.append(
            f'<text x="{lx + 27}" y="{ly}" font-family="sans-serif" '
            f'font-size="12">{label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
