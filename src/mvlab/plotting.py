"""Minimal deterministic SVG line plots.

Artifacts must be bitwise-reproducible, so the writer is plain string
formatting: fixed canvas, fixed precision, no timestamps or generator
metadata. Good enough for density profiles and decay curves.
"""

from __future__ import annotations

from html import escape

import numpy as np

__all__ = ["line_plot"]

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 62, 16, 34, 46  # margins


def _fmt(v: float) -> str:
    return "%.6g" % v


def _ticks(lo: float, hi: float, n: int = 6) -> np.ndarray:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / n
    mag = 10.0 ** np.floor(np.log10(raw))
    step = min(s for s in (1 * mag, 2 * mag, 5 * mag, 10 * mag) if s >= raw)
    start = np.ceil(lo / step) * step
    return np.arange(start, hi + 0.5 * step, step)


def line_plot(
    series: list[tuple[str, np.ndarray, np.ndarray]],
    path: str,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    logy: bool = False,
) -> None:
    """Write a line plot of (label, x, y) series to an SVG file."""
    if not series:
        raise ValueError("need at least one series")
    xs = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    ys = np.concatenate([np.asarray(s[2], dtype=float) for s in series])
    if logy:
        ys = ys[ys > 0]
        if ys.size == 0:
            raise ValueError("logy plot needs positive values")
        ys = np.log10(ys)
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    def sx(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def sy(y):
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
    ]
    if title:
        out.append(
            f'<text x="{_W // 2}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{escape(title)}</text>'
        )
    ax = (
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="black" stroke-width="1"/>'
    )
    out.append(ax)
    for xt in _ticks(x_lo, x_hi):
        px = sx(xt)
        out.append(
            f'<line x1="{_fmt(px)}" y1="{_H - _MB}" x2="{_fmt(px)}" y2="{_H - _MB + 4}" stroke="black"/>'
        )
        out.append(
            f'<text x="{_fmt(px)}" y="{_H - _MB + 17}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(xt)}</text>'
        )
    for yt in _ticks(y_lo, y_hi):
        py = sy(yt)
        label = _fmt(10 ** yt) if logy else _fmt(yt)
        out.append(
            f'<line x1="{_ML - 4}" y1="{_fmt(py)}" x2="{_ML}" y2="{_fmt(py)}" stroke="black"/>'
        )
        out.append(
            f'<text x="{_ML - 7}" y="{_fmt(py + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{label}</text>'
        )
    if xlabel:
        out.append(
            f'<text x="{_W // 2}" y="{_H - 10}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{escape(xlabel)}</text>'
        )
    if ylabel:
        out.append(
            f'<text x="16" y="{_H // 2}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 16 {_H // 2})">{escape(ylabel)}</text>'
        )
    for k, (label, x, y) in enumerate(series):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if logy:
            keep = y > 0
            x, y = x[keep], np.log10(y[keep])
        pts = " ".join(f"{_fmt(sx(a))},{_fmt(sy(b))}" for a, b in zip(x, y))
        color = _COLORS[k % len(_COLORS)]
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        if label:
            ly = _MT + 16 + 16 * k
            out.append(
                f'<line x1="{_W - _MR - 120}" y1="{ly - 4}" x2="{_W - _MR - 100}" '
                f'y2="{ly - 4}" stroke="{color}" stroke-width="1.5"/>'
            )
            out.append(
                f'<text x="{_W - _MR - 95}" y="{ly}" font-family="sans-serif" '
                f'font-size="11">{escape(label)}</text>'
            )
    out.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")
