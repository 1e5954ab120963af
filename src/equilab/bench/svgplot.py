"""Minimal deterministic SVG 1.1 line plots.

No plotting dependency: the harness needs byte-stable output for golden
tests, which rules out libraries that embed versions or timestamps.  All
coordinates are formatted with %.6g so the files are identical across
platforms that agree on binary64 arithmetic.

A series' plot coordinates are computed as numpy arrays, with the IEEE
operations of the scalar formulas in the same order (a log axis takes
`math.log10` per point).  Its polyline's "x,y x,y ..." text comes from the
compiled `format_points` on the compiled backend (std::to_chars, which is
printf's %.6g) and from "%.6g" % per coordinate on the fallback; both give
the same bytes.
"""

import math
from dataclasses import dataclass

import numpy as np

from equilab._kernels import format_points as _compiled_format_points
from equilab.errors import DimensionError

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
WIDTH, HEIGHT = 640.0, 420.0
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64.0, 16.0, 28.0, 44.0


def _escape(text):
    """Escape &, > and < for SVG text, as xml.sax.saxutils.escape does
    (without importing it: that module loads urllib, http, email and ssl)."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


@dataclass(frozen=True)
class LineSeries:
    label: str
    xs: tuple
    ys: tuple

    def __post_init__(self):
        if len(self.xs) != len(self.ys):
            raise DimensionError("xs and ys must have equal length")


def _fmt(v):
    return "%.6g" % v


def nice_ticks(lo, hi, target=5):
    """Round tick positions covering [lo, hi] using a 1-2-5 ladder."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return [0.0, 1.0]
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / max(target, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if raw <= step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks or [lo, hi]


def _plotted_points(s, log_y):
    """The (x, y) arrays of a series that the plot draws, y as plotted
    (log10 on a log axis): non-finite points, and non-positive y on a log
    axis, are dropped."""
    xs = np.asarray(s.xs, dtype=np.float64)
    ys = np.asarray(s.ys, dtype=np.float64)
    keep = np.isfinite(xs) & np.isfinite(ys)
    if log_y:
        keep &= ys > 0.0
        return xs[keep], np.array([math.log10(y) for y in ys[keep].tolist()], dtype=np.float64)
    return xs[keep], ys[keep]


def _points_text(px, py):
    """'x,y x,y ...' of the plot coordinates px and py, each "%.6g"."""
    if _compiled_format_points is not None:
        return _compiled_format_points(px, py)
    return " ".join([f"{_fmt(x)},{_fmt(y)}" for x, y in zip(px.tolist(), py.tolist())])


def emit_svg(series, *, title="", xlabel="", ylabel="", log_y=False):
    """Render line series to an SVG string.

    Non-finite points (and non-positive ones on a log axis) are dropped.
    An empty series list still yields a complete plot frame.
    """
    series = list(series)
    points = [_plotted_points(s, log_y) for s in series]
    drawn = [(xs, ys) for xs, ys in points if xs.size]
    if drawn:
        x_lo = min(float(xs.min()) for xs, _ in drawn)
        x_hi = max(float(xs.max()) for xs, _ in drawn)
        y_lo = min(float(ys.min()) for _, ys in drawn)
        y_hi = max(float(ys.max()) for _, ys in drawn)
    else:
        x_lo, x_hi, y_lo, y_hi = 0.0, 1.0, 0.0, 1.0
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        # constant series: pad so the line sits mid-plot
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    # a float or an array: the same IEEE operations, element by element
    def px(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return MARGIN_T + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
               f'width="{_fmt(WIDTH)}" height="{_fmt(HEIGHT)}" '
               f'viewBox="0 0 {_fmt(WIDTH)} {_fmt(HEIGHT)}">')
    out.append(f'<rect x="0" y="0" width="{_fmt(WIDTH)}" height="{_fmt(HEIGHT)}" fill="#ffffff"/>')
    if title:
        out.append(f'<text x="{_fmt(WIDTH / 2)}" y="18" font-family="sans-serif" '
                   f'font-size="13" text-anchor="middle">{_escape(title)}</text>')

    # axes frame
    out.append(f'<rect x="{_fmt(MARGIN_L)}" y="{_fmt(MARGIN_T)}" width="{_fmt(plot_w)}" '
               f'height="{_fmt(plot_h)}" fill="none" stroke="#000000" stroke-width="1"/>')

    for t in nice_ticks(x_lo, x_hi):
        if t < x_lo - 1e-12 or t > x_hi + 1e-12:
            continue
        x = px(t)
        out.append(f'<line x1="{_fmt(x)}" y1="{_fmt(MARGIN_T + plot_h)}" x2="{_fmt(x)}" '
                   f'y2="{_fmt(MARGIN_T + plot_h + 4)}" stroke="#000000" stroke-width="1"/>')
        out.append(f'<text x="{_fmt(x)}" y="{_fmt(MARGIN_T + plot_h + 16)}" font-family="sans-serif" '
                   f'font-size="10" text-anchor="middle">{_fmt(t)}</text>')
    if log_y:
        y_ticks = range(math.ceil(y_lo - 1e-9), math.floor(y_hi + 1e-9) + 1)
        y_tick_pairs = [(float(d), "1e%d" % d) for d in y_ticks]
        if not y_tick_pairs:
            y_tick_pairs = [(y_lo, "%.3g" % (10.0 ** y_lo)), (y_hi, "%.3g" % (10.0 ** y_hi))]
    else:
        y_tick_pairs = [(t, _fmt(t)) for t in nice_ticks(y_lo, y_hi)]
    for t, label in y_tick_pairs:
        if t < y_lo - 1e-12 or t > y_hi + 1e-12:
            continue
        y = py(t)
        out.append(f'<line x1="{_fmt(MARGIN_L - 4)}" y1="{_fmt(y)}" x2="{_fmt(MARGIN_L)}" '
                   f'y2="{_fmt(y)}" stroke="#000000" stroke-width="1"/>')
        out.append(f'<text x="{_fmt(MARGIN_L - 7)}" y="{_fmt(y + 3)}" font-family="sans-serif" '
                   f'font-size="10" text-anchor="end">{_escape(label)}</text>')

    if xlabel:
        out.append(f'<text x="{_fmt(MARGIN_L + plot_w / 2)}" y="{_fmt(HEIGHT - 8)}" '
                   f'font-family="sans-serif" font-size="11" text-anchor="middle">{_escape(xlabel)}</text>')
    if ylabel:
        cx, cy = 14.0, MARGIN_T + plot_h / 2
        out.append(f'<text x="{_fmt(cx)}" y="{_fmt(cy)}" font-family="sans-serif" font-size="11" '
                   f'text-anchor="middle" transform="rotate(-90 {_fmt(cx)} {_fmt(cy)})">{_escape(ylabel)}</text>')

    for i, (s, (xs, ys)) in enumerate(zip(series, points)):
        color = PALETTE[i % len(PALETTE)]
        if xs.size == 1:
            x0, y0 = _points_text(px(xs), py(ys)).split(",")
            out.append(f'<circle cx="{x0}" cy="{y0}" r="2.5" fill="{color}"/>')
        elif xs.size:
            out.append(f'<polyline points="{_points_text(px(xs), py(ys))}" fill="none" '
                       f'stroke="{color}" stroke-width="1.5"/>')
        # legend swatch
        ly = MARGIN_T + 10 + 14 * i
        out.append(f'<line x1="{_fmt(MARGIN_L + plot_w - 110)}" y1="{_fmt(ly)}" '
                   f'x2="{_fmt(MARGIN_L + plot_w - 90)}" y2="{_fmt(ly)}" '
                   f'stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{_fmt(MARGIN_L + plot_w - 85)}" y="{_fmt(ly + 3)}" '
                   f'font-family="sans-serif" font-size="10">{_escape(s.label)}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
