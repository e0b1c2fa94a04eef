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
    """About ``n`` round ticks in [lo, hi]; ``_span`` keeps hi above lo."""
    raw = (hi - lo) / n
    mag = 10.0 ** np.floor(np.log10(raw))
    step = min(s for s in (1 * mag, 2 * mag, 5 * mag, 10 * mag) if s >= raw)
    start = np.ceil(lo / step) * step
    return np.arange(start, hi + 0.5 * step, step)


def _text(x, y, size: int, body: str, anchor: str = "", transform: str = "") -> str:
    """One text element; every text of the plot is written here."""
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    transform = f' transform="{transform}"' if transform else ""
    return (f'<text x="{_fmt(x)}" y="{_fmt(y)}"{anchor} font-family="sans-serif" '
            f'font-size="{size}"{transform}>{escape(body)}</text>')


def _line(x1, y1, x2, y2, color: str = "") -> str:
    """One line element: a black tick, or a legend swatch drawn like its series."""
    stroke = f'"{color}" stroke-width="1.5"' if color else '"black"'
    return f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" stroke={stroke}/>'


def _span(v: np.ndarray) -> tuple[float, float]:
    """(min, max) of ``v``, widened to length 1 when the two are equal."""
    lo, hi = float(v.min()), float(v.max())
    return lo, (hi if hi != lo else lo + 1.0)


def line_plot(
    series: list[tuple[str, np.ndarray, np.ndarray]],
    path: str,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    logy: bool = False,
) -> None:
    """Write a line plot of (label, x, y) series to an SVG file.

    Under ``logy`` each series keeps its positive values only, and the y
    range is read from those; the x range always reads every x."""
    if not series:
        raise ValueError("need at least one series")
    xs = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    curves = []
    for label, x, y in series:
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        if logy:
            keep = y > 0
            x, y = x[keep], np.log10(y[keep])
        curves.append((label, x, y))
    ys = np.concatenate([y for _, _, y in curves])
    if ys.size == 0:
        raise ValueError("logy plot needs positive values" if logy else "need at least one point")
    x_lo, x_hi = _span(xs)
    y_lo, y_hi = _span(ys)
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
        out.append(_text(_W // 2, 20, 14, title, "middle"))
    out.append(
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="black" stroke-width="1"/>'
    )
    for xt in _ticks(x_lo, x_hi):
        px, label = sx(xt), _fmt(xt)
        out += [_line(px, _H - _MB, px, _H - _MB + 4), _text(px, _H - _MB + 17, 11, label, "middle")]
    for yt in _ticks(y_lo, y_hi):
        py, label = sy(yt), _fmt(10 ** yt if logy else yt)
        out += [_line(_ML - 4, py, _ML, py), _text(_ML - 7, py + 4, 11, label, "end")]
    if xlabel:
        out.append(_text(_W // 2, _H - 10, 12, xlabel, "middle"))
    if ylabel:
        out.append(_text(16, _H // 2, 12, ylabel, "middle", f"rotate(-90 16 {_H // 2})"))
    for k, (label, x, y) in enumerate(curves):
        pts = " ".join(f"{_fmt(sx(a))},{_fmt(sy(b))}" for a, b in zip(x, y))
        color = _COLORS[k % len(_COLORS)]
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        if label:
            ly = _MT + 16 + 16 * k
            out += [_line(_W - _MR - 120, ly - 4, _W - _MR - 100, ly - 4, color),
                    _text(_W - _MR - 95, ly, 11, label)]
    out.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")
