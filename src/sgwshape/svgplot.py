"""Minimal standalone SVG emitters for line plots and heatmaps.

No plotting dependency: these write self-contained SVG documents with
fixed geometry, suitable for the curve and grid outputs of the CLI.
Output is deterministic for identical inputs.
"""

from __future__ import annotations

import math
from html import escape

from .errors import InvalidParam
from .outputs import _atomic_write_bytes

__all__ = ["line_plot", "heatmap"]

_WIDTH = 640
_HEIGHT = 420
_MARGIN_L = 64
_MARGIN_R = 24
_MARGIN_T = 36
_MARGIN_B = 48

_SERIES_COLORS = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)

_FONT = 'font-family="Helvetica,Arial,sans-serif"'
_MIDDLE = ' text-anchor="middle"'


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _text(x, y, size, content, attrs="") -> str:
    """A <text> element; `content` is escaped, so any label keeps the document well-formed."""
    return (
        f'<text x="{x}" y="{y}" {_FONT} font-size="{size}"{attrs}>'
        f"{escape(str(content), quote=False)}</text>"
    )


def _ticks(lo: float, hi: float, count: int = 5):
    """Round tick positions covering [lo, hi]."""
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / count))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (step * mult) <= count:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return ticks


def _axes(lo_x, hi_x, lo_y, hi_y, xlabel, ylabel, title, log_y=False):
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(x):
        return _MARGIN_L + (x - lo_x) / (hi_x - lo_x) * plot_w

    def sy(y):
        return _MARGIN_T + plot_h - (y - lo_y) / (hi_y - lo_y) * plot_h

    parts = [
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333333" stroke-width="1"/>'
    ]
    for t in _ticks(lo_x, hi_x):
        x = sx(t)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{_MARGIN_T + plot_h}" x2="{_fmt(x)}" '
            f'y2="{_MARGIN_T + plot_h + 5}" stroke="#333333"/>'
        )
        parts.append(_text(_fmt(x), _MARGIN_T + plot_h + 18, 11, _fmt(t), _MIDDLE))
    for t in _ticks(lo_y, hi_y):
        y = sy(t)
        label = _fmt(10.0**t) if log_y else _fmt(t)
        parts.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{_fmt(y)}" x2="{_MARGIN_L}" '
            f'y2="{_fmt(y)}" stroke="#333333"/>'
        )
        parts.append(_text(_MARGIN_L - 8, _fmt(y + 4), 11, label, ' text-anchor="end"'))
    parts += _axis_labels(plot_w, plot_h, xlabel, ylabel)
    parts.append(_text(_WIDTH / 2, 22, 15, title, _MIDDLE))
    return parts, sx, sy


def _axis_labels(plot_w, plot_h, xlabel, ylabel) -> list:
    mid_y = _MARGIN_T + plot_h / 2
    return [
        _text(_MARGIN_L + plot_w / 2, _HEIGHT - 12, 13, xlabel, _MIDDLE),
        _text(16, mid_y, 13, ylabel, f'{_MIDDLE} transform="rotate(-90 16 {mid_y})"'),
    ]


def line_plot(series, path, title="", xlabel="", ylabel="", log_y=False) -> None:
    """Write a multi-series line plot.

    Parameters
    ----------
    series : list of (label, xs, ys); every value must be finite
    path : output .svg path
    log_y : plot log10 of the y values (positive values required)
    """
    if not series:
        raise InvalidParam("line plot needs at least one series")
    clean = []
    for label, xs, ys in series:
        xs = [float(x) for x in xs]
        ys = [float(y) for y in ys]
        if len(xs) != len(ys) or not xs:
            raise InvalidParam(f"series {label!r}: x and y lengths differ or empty")
        bad = [x for x in xs + ys if not math.isfinite(x)]
        if bad:
            raise InvalidParam(f"series {label!r}: values must be finite, got {bad[0]}")
        if log_y:
            if min(ys) <= 0:
                raise InvalidParam(f"series {label!r}: log scale needs positive values")
            ys = [math.log10(y) for y in ys]
        clean.append((str(label), xs, ys))

    lo_x = min(min(xs) for _, xs, _ in clean)
    hi_x = max(max(xs) for _, xs, _ in clean)
    lo_y = min(min(ys) for _, _, ys in clean)
    hi_y = max(max(ys) for _, _, ys in clean)
    if hi_x == lo_x:
        lo_x, hi_x = lo_x - 0.5, hi_x + 0.5
    if hi_y == lo_y:
        lo_y, hi_y = lo_y - 0.5, hi_y + 0.5
    pad = 0.04 * (hi_y - lo_y)
    lo_y, hi_y = lo_y - pad, hi_y + pad

    parts, sx, sy = _axes(lo_x, hi_x, lo_y, hi_y, xlabel, ylabel, title, log_y=log_y)
    for idx, (label, xs, ys) in enumerate(clean):
        color = _SERIES_COLORS[idx % len(_SERIES_COLORS)]
        points = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = _MARGIN_T + 14 + 16 * idx
        parts.append(
            f'<line x1="{_WIDTH - _MARGIN_R - 120}" y1="{ly - 4}" '
            f'x2="{_WIDTH - _MARGIN_R - 100}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(_text(_WIDTH - _MARGIN_R - 94, ly, 11, label))
    _write_svg(path, parts)


def _viridis(u: float) -> str:
    """Small fixed gradient approximating a perceptual colormap."""
    stops = (
        (0.267, 0.005, 0.329),
        (0.283, 0.141, 0.458),
        (0.254, 0.265, 0.530),
        (0.207, 0.372, 0.553),
        (0.164, 0.471, 0.558),
        (0.128, 0.567, 0.551),
        (0.135, 0.659, 0.518),
        (0.267, 0.749, 0.441),
        (0.478, 0.821, 0.318),
        (0.741, 0.873, 0.150),
        (0.993, 0.906, 0.144),
    )
    u = min(max(u, 0.0), 1.0) * (len(stops) - 1)
    i = min(int(u), len(stops) - 2)
    w = u - i
    rgb = [stops[i][c] * (1 - w) + stops[i + 1][c] * w for c in range(3)]
    return "#" + "".join(f"{round(255 * c):02x}" for c in rgb)


def heatmap(grid, row_labels, col_labels, path, title="", xlabel="", ylabel="") -> None:
    """Write a colored grid with min/max legend.

    `grid` is a list of rows (row-major); None cells render gray, and every
    other cell must be finite.
    """
    rows = [list(r) for r in grid]
    if not rows or not rows[0]:
        raise InvalidParam("heatmap needs a non-empty grid")
    if any(len(r) != len(rows[0]) for r in rows):
        raise InvalidParam("heatmap rows must have equal lengths")
    if len(row_labels) != len(rows) or len(col_labels) != len(rows[0]):
        raise InvalidParam("heatmap label counts must match the grid")

    values = [v for r in rows for v in r if v is not None]
    if not values:
        raise InvalidParam("heatmap grid holds no values")
    bad = [v for v in values if not math.isfinite(v)]
    if bad:
        raise InvalidParam(f"heatmap values must be finite, got {bad[0]}")
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R - 60  # keep room for the scale bar
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B
    cell_w = plot_w / len(rows[0])
    cell_h = plot_h / len(rows)

    parts = [_text(_WIDTH / 2, 22, 15, title, _MIDDLE)]
    for i, row in enumerate(rows):
        for j, value in enumerate(row):
            x = _MARGIN_L + j * cell_w
            y = _MARGIN_T + i * cell_h
            color = "#bbbbbb" if value is None else _viridis((value - lo) / span)
            parts.append(
                f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(cell_w)}" '
                f'height="{_fmt(cell_h)}" fill="{color}" stroke="#ffffff" stroke-width="0.5"/>'
            )
            if value is not None:
                parts.append(_text(
                    _fmt(x + cell_w / 2), _fmt(y + cell_h / 2 + 4), 10, _fmt(value),
                    f'{_MIDDLE} fill="#ffffff"',
                ))
    for j, label in enumerate(col_labels):
        parts.append(_text(
            _fmt(_MARGIN_L + (j + 0.5) * cell_w), _MARGIN_T + plot_h + 16, 11, label, _MIDDLE
        ))
    for i, label in enumerate(row_labels):
        parts.append(_text(
            _MARGIN_L - 8, _fmt(_MARGIN_T + (i + 0.5) * cell_h + 4), 11, label,
            ' text-anchor="end"',
        ))
    parts += _axis_labels(plot_w, plot_h, xlabel, ylabel)
    # vertical scale bar
    bar_x = _MARGIN_L + plot_w + 20
    steps = 32
    for s in range(steps):
        u = 1.0 - s / (steps - 1)
        y = _MARGIN_T + s * plot_h / steps
        parts.append(
            f'<rect x="{bar_x}" y="{_fmt(y)}" width="14" height="{_fmt(plot_h / steps + 0.5)}" '
            f'fill="{_viridis(u)}"/>'
        )
    parts.append(_text(bar_x + 18, _MARGIN_T + 10, 10, _fmt(hi)))
    parts.append(_text(bar_x + 18, _MARGIN_T + plot_h, 10, _fmt(lo)))
    _write_svg(path, parts)


def _write_svg(path, parts) -> None:
    body = "\n".join(parts)
    doc = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">\n'
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>\n'
        f"{body}\n</svg>\n"
    )
    _atomic_write_bytes(path, doc.encode())
