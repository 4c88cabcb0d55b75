"""Minimal self-contained SVG 1.1 charts (no external renderer).

Emits plain-text line and bar charts with axes, ticks and a legend.  Bar
values are additionally embedded verbatim in ``data-value`` attributes so
downstream checks can read back the exact numbers.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from xml.sax.saxutils import escape

WIDTH = 720
HEIGHT = 440
MARGIN_LEFT = 86
MARGIN_RIGHT = 24
MARGIN_TOP = 46
MARGIN_BOTTOM = 64
# The plot area's left, top, right and bottom edges.
PLOT_AREA = (MARGIN_LEFT, MARGIN_TOP, WIDTH - MARGIN_RIGHT, HEIGHT - MARGIN_BOTTOM)
TARGET_TICKS = 5

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _nice_step(span: float) -> float:
    raw = span / TARGET_TICKS
    magnitude = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * magnitude:
            return mult * magnitude
    return 10.0 * magnitude


def _ticks(lo: float, hi: float) -> list[float]:
    step = _nice_step(hi - lo)
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + 1e-9 * step:
        ticks.append(0.0 if value == 0 else value)
        value += step
    return ticks


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _escape(text: str) -> str:
    return escape(text, {'"': "&quot;"})


def _axis_range(lo: float, hi: float) -> tuple[float, float]:
    """[lo, hi] widened to at least 2**-40 of its magnitude (and of 1e-250), so
    that ticks, spaced a fifth of the range or more, are distinct floats."""
    least = 2.0**-40 * max(abs(lo), abs(hi), 1e-250)
    if hi - lo < least:
        lo, hi = lo - least, hi + least
    if not math.isfinite(hi - lo):
        raise ValueError("the axis range exceeds the largest float")
    return lo, hi


def _canvas(title: str, xlabel: str, ylabel: str) -> list[str]:
    """The chart's opening SVG fragments; the chart appends the rest and closes the tag."""
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{_escape(title)}</text>',
        f'<text x="{(MARGIN_LEFT + WIDTH - MARGIN_RIGHT) / 2}" y="{HEIGHT - 14}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="12">{_escape(xlabel)}</text>',
        f'<text x="18" y="{(MARGIN_TOP + HEIGHT - MARGIN_BOTTOM) / 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" transform="rotate(-90 18 '
        f'{(MARGIN_TOP + HEIGHT - MARGIN_BOTTOM) / 2})">{_escape(ylabel)}</text>',
    ]


def _axes(canvas: list[str], x_lo, x_hi, y_lo, y_hi) -> tuple:
    x_lo, x_hi = _axis_range(x_lo, x_hi)
    y_lo, y_hi = _axis_range(y_lo, y_hi)
    left, top, right, bottom = PLOT_AREA

    def to_x(v: float) -> float:
        return left + (v - x_lo) / (x_hi - x_lo) * (right - left)

    def to_y(v: float) -> float:
        return bottom - (v - y_lo) / (y_hi - y_lo) * (bottom - top)

    canvas.append(
        f'<rect x="{left}" y="{top}" width="{right - left}" height="{bottom - top}" '
        f'fill="none" stroke="#444" stroke-width="1"/>'
    )
    for tick in _ticks(x_lo, x_hi):
        px = to_x(tick)
        canvas.append(f'<line x1="{px:.2f}" y1="{bottom}" x2="{px:.2f}" y2="{bottom + 5}" stroke="#444"/>')
        canvas.append(
            f'<text x="{px:.2f}" y="{bottom + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(tick)}</text>'
        )
    for tick in _ticks(y_lo, y_hi):
        py = to_y(tick)
        canvas.append(f'<line x1="{left - 5}" y1="{py:.2f}" x2="{left}" y2="{py:.2f}" stroke="#444"/>')
        canvas.append(
            f'<text x="{left - 9}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(tick)}</text>'
        )
        canvas.append(
            f'<line x1="{left}" y1="{py:.2f}" x2="{right}" y2="{py:.2f}" '
            f'stroke="#ddd" stroke-width="0.5"/>'
        )
    return to_x, to_y


def line_chart(
    series: Sequence[tuple[str, Sequence[tuple[float, float]]]],
    title: str,
    xlabel: str,
    ylabel: str,
) -> str:
    """Line chart with one polyline per (label, points) series."""
    points = [p for _, pts in series for p in pts]
    if not points:
        raise ValueError("nothing to plot")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_lo == x_hi:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    canvas = _canvas(title, xlabel, ylabel)
    to_x, to_y = _axes(canvas, x_lo, x_hi, y_lo, y_hi)
    for i, (label, pts) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        coords = " ".join(f"{to_x(x):.2f},{to_y(y):.2f}" for x, y in sorted(pts))
        canvas.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1.5" data-series="{_escape(label)}"/>'
        )
        ly = MARGIN_TOP + 16 + 18 * i
        lx = WIDTH - MARGIN_RIGHT - 150
        canvas.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        canvas.append(
            f'<text x="{lx + 30}" y="{ly}" font-family="sans-serif" font-size="12">{_escape(label)}</text>'
        )
    return "\n".join(canvas) + "\n</svg>\n"


def bar_chart(
    bars: Sequence[tuple[str, float]], title: str, ylabel: str
) -> str:
    """Bar chart; each bar carries its exact value in a data-value attribute."""
    if not bars:
        raise ValueError("nothing to plot")
    y_hi = max(0.0, max(value for _, value in bars))
    y_lo = min(0.0, min(value for _, value in bars))
    if y_lo == y_hi:
        y_hi = y_lo + 1.0
    y_hi *= 1.08

    canvas = _canvas(title, "", ylabel)
    to_x, to_y = _axes(canvas, 0.0, float(len(bars)), y_lo, y_hi)
    slot = 1.0
    for i, (label, value) in enumerate(bars):
        color = PALETTE[i % len(PALETTE)]
        x0 = to_x(i + 0.2 * slot)
        x1 = to_x(i + 0.8 * slot)
        y0 = to_y(max(value, y_lo))
        base = to_y(max(0.0, y_lo))
        canvas.append(
            f'<rect x="{x0:.2f}" y="{min(y0, base):.2f}" width="{x1 - x0:.2f}" '
            f'height="{abs(base - y0):.2f}" fill="{color}" fill-opacity="0.85" '
            f'data-label="{_escape(label)}" data-value="{value!r}"/>'
        )
        canvas.append(
            f'<text x="{(x0 + x1) / 2:.2f}" y="{min(y0, base) - 6:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(value)}</text>'
        )
        canvas.append(
            f'<text x="{(x0 + x1) / 2:.2f}" y="{HEIGHT - MARGIN_BOTTOM + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{_escape(label)}</text>'
        )
    return "\n".join(canvas) + "\n</svg>\n"
