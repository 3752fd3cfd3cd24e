"""Minimal static SVG line charts, rendered directly with no external backend."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
    "#bcbd22",
    "#e377c2",
)

_WIDTH = 720
_HEIGHT = 460
_MARGIN_LEFT = 70
_MARGIN_RIGHT = 160
_MARGIN_TOP = 40
_MARGIN_BOTTOM = 50


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def line_chart(
    series: Sequence[tuple[str, np.ndarray, np.ndarray]],
    title: str,
    x_label: str,
    y_label: str,
    log_y: bool = False,
) -> str:
    """SVG document for labelled (x, y) series.

    In log mode, y values at or below zero are dropped from their series;
    series with no positive values are skipped entirely.  Each point is
    written as f"{x:.6g},{y:.6g}" in pixels; the x text of a distinct x array
    is formatted once and shared by every series drawn on it.
    """
    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    cleaned: list[tuple[str, np.ndarray, np.ndarray]] = []
    for label, xs, ys in series:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if log_y:
            mask = ys > 0
            xs, ys = xs[mask], ys[mask]
        if xs.size:
            cleaned.append((label, xs, ys))

    if cleaned:
        x_lo = min(float(np.min(xs)) for _, xs, _ in cleaned)
        x_hi = max(float(np.max(xs)) for _, xs, _ in cleaned)
        y_vals = np.concatenate([ys for _, _, ys in cleaned])
        if log_y:
            y_lo, y_hi = float(np.min(np.log10(y_vals))), float(np.max(np.log10(y_vals)))
        else:
            y_lo, y_hi = float(np.min(y_vals)), float(np.max(y_vals))
    else:
        x_lo, x_hi, y_lo, y_hi = 0.0, 1.0, 0.0, 1.0
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi - y_lo < 1e-300:
        y_hi = y_lo + 1.0

    # pixel coordinates of a value or an array of them, one operation order for both
    def x_px(x):
        return _MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def y_px(v):
        return _MARGIN_TOP + (y_hi - v) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH // 2}" y="22" text-anchor="middle" font-family="sans-serif" '
        f'font-size="15">{title}</text>',
    ]

    axis = (
        f'<line x1="{_MARGIN_LEFT}" y1="{_MARGIN_TOP}" x2="{_MARGIN_LEFT}" '
        f'y2="{_MARGIN_TOP + plot_h}" stroke="black"/>'
        f'<line x1="{_MARGIN_LEFT}" y1="{_MARGIN_TOP + plot_h}" '
        f'x2="{_MARGIN_LEFT + plot_w}" y2="{_MARGIN_TOP + plot_h}" stroke="black"/>'
    )
    parts.append(axis)

    for tick in _ticks(x_lo, x_hi):
        px = x_px(tick)
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{_MARGIN_TOP + plot_h}" x2="{_fmt(px)}" '
            f'y2="{_MARGIN_TOP + plot_h + 5}" stroke="black"/>'
            f'<text x="{_fmt(px)}" y="{_MARGIN_TOP + plot_h + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(tick)}</text>'
        )
    for tick in _ticks(y_lo, y_hi):
        py = y_px(tick)
        label = f"1e{_fmt(tick)}" if log_y else _fmt(tick)
        parts.append(
            f'<line x1="{_MARGIN_LEFT - 5}" y1="{_fmt(py)}" x2="{_MARGIN_LEFT}" '
            f'y2="{_fmt(py)}" stroke="black"/>'
            f'<text x="{_MARGIN_LEFT - 8}" y="{_fmt(py + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{label}</text>'
        )

    parts.append(
        f'<text x="{_MARGIN_LEFT + plot_w // 2}" y="{_HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{x_label}</text>'
        f'<text x="18" y="{_MARGIN_TOP + plot_h // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 18 {_MARGIN_TOP + plot_h // 2})">{y_label}</text>'
    )

    x_text: dict[bytes, list[str]] = {}  # "x," of each distinct x array, shared by its series
    for i, (label, xs, ys) in enumerate(cleaned):
        color = _PALETTE[i % len(_PALETTE)]
        # math.log10 per point, not np.log10, which differs in the last bit on some values
        vs = np.fromiter(map(math.log10, ys.tolist()), float, ys.size) if log_y else ys
        key = xs.tobytes()
        if key not in x_text:
            x_text[key] = list(map("{:.6g},".format, x_px(xs).tolist()))
        points = " ".join(map(str.__add__, x_text[key], map("{:.6g}".format, y_px(vs).tolist())))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = _MARGIN_TOP + 14 + 16 * i
        lx = _MARGIN_LEFT + plot_w + 10
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
            f'<text x="{lx + 24}" y="{ly}" font-family="sans-serif" font-size="11">{label}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
