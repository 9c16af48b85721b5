"""Minimal SVG line-chart renderer: axes, tick labels, polylines, legend.

No plotting dependency; output is deterministic (fixed float formatting,
fixed element order) so figures diff cleanly between runs.
"""

from __future__ import annotations

import math

from .errors import InputError

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
    raw = (hi - lo) / 5  # about six ticks
    # a span that is zero or past the float range, or one so thin that a
    # step of it cannot move a tick at this magnitude
    if not raw > math.ulp(max(abs(lo), abs(hi))):
        raise InputError(f"cannot tick an axis from {lo!r} to {hi!r}")
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


def _line(x1, y1, x2, y2, stroke: str = "#000000", width: str = "1") -> str:
    return (f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="{stroke}" stroke-width="{width}"/>')


def _text(x, y, size: int, body: str, anchor: str | None = "middle",
          transform: str = "") -> str:
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    transform = f' transform="{transform}"' if transform else ""
    return (f'<text x="{x}" y="{y}"{anchor} font-family="sans-serif" '
            f'font-size="{size}"{transform}>{body}</text>')


def render_line_chart(x: list[float], curves: list[tuple[str, list[float]]],
                      title: str, xlabel: str, ylabel: str) -> str:
    """The SVG text of a line chart of the given curves."""
    xs = list(x)
    all_y = [v for _, ys in curves for v in ys if math.isfinite(v)]
    if not xs or not all_y:
        raise InputError("nothing to plot")
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

    bottom = MARGIN_T + plot_h
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        _text(WIDTH // 2, 22, 15, title),
        # frame
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#000000" stroke-width="1"/>',
    ]
    for t in _ticks(x_lo, x_hi):
        X = _fmt(px(t))
        parts += [_line(X, bottom, X, bottom + 5), _text(X, bottom + 18, 11, _tick_label(t))]
    for t in _ticks(y_lo, y_hi):
        Y = py(t)
        parts += [_line(MARGIN_L - 5, _fmt(Y), MARGIN_L, _fmt(Y)),
                  _text(MARGIN_L - 8, _fmt(Y + 4), 11, _tick_label(t), anchor="end")]
    yc = MARGIN_T + plot_h // 2
    parts += [_text(MARGIN_L + plot_w // 2, HEIGHT - 14, 13, xlabel),
              _text(18, yc, 13, ylabel, transform=f"rotate(-90 18 {yc})")]
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
        parts += [_line(lx, ly - 4, lx + 22, ly - 4, color, "1.6"),
                  _text(lx + 27, ly, 12, label, anchor=None)]
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
