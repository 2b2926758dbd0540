"""Minimal self-contained SVG line plots for run artifacts.

Hand-rolled rather than delegating to a plotting stack so emitted files are
byte-stable across runs and environments.
"""
from __future__ import annotations

import numpy as np

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
           "#393b79", "#637939", "#8c6d31", "#843c39", "#7b4173"]

WIDTH, HEIGHT = 720, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 16, 36, 48


def _bounds(series):
    """(x0, x1, y0, y1): each axis's range over its non-NaN values (NaN where
    it has none), padded by 4% (x) and 6% (y). A flat axis at v spans 1.0, or
    |v| / 2**20 where v + 1.0 == v (|v| >= 2**53)."""
    out = []
    for axis, pad in ((0, 0.04), (1, 0.06)):
        lo = hi = np.nan  # fmin and fmax skip NaN, so it stays only if all are
        for s in series:
            v = np.asarray(s[axis], float)
            lo, hi = np.fmin.reduce(v, initial=lo), np.fmax.reduce(v, initial=hi)
        lo, hi = float(lo), float(hi)
        if hi == lo:
            hi = lo + 1.0
            if hi == lo:
                hi = lo + abs(lo) / 2**20
        out += [lo - pad * (hi - lo), hi + pad * (hi - lo)]
    return tuple(out)


def _fmt(v):
    if v == 0:
        return "0"
    mag = abs(v)
    if mag >= 1e4 or mag < 1e-3:
        return f"{v:.2e}"
    return f"{v:.4g}"


def line_plot(series, title="", xlabel="", ylabel="", dashed=()):
    """Render series [(xs, ys, color, label), ...] into an SVG string; xs and
    ys are sequences or 1-d arrays of numbers."""
    series = [s for s in series if len(s[0])]
    if not series:
        return ('<svg xmlns="http://www.w3.org/2000/svg" width="10" height="10">'
                "</svg>\n")
    x0, x1, y0, y1 = _bounds(series)
    iw = WIDTH - MARGIN_L - MARGIN_R
    ih = HEIGHT - MARGIN_T - MARGIN_B

    def pixels(xs, ys):
        """(n, 2) pixel coordinates of the points (xs, ys): ticks and polylines."""
        with np.errstate(all="ignore"):  # floats give inf - inf and 0 * inf silently
            col = MARGIN_L + (np.asarray(xs, float) - x0) / (x1 - x0) * iw
            row = MARGIN_T + ih - (np.asarray(ys, float) - y0) / (y1 - y0) * ih
        return np.stack([col, row], 1)

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
           f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
           f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
           f'<text x="{WIDTH / 2:.1f}" y="20" text-anchor="middle" '
           f'font-family="sans-serif" font-size="14">{title}</text>']
    # axes box and ticks
    out.append(f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{iw}" height="{ih}" '
               'fill="none" stroke="#333" stroke-width="1"/>')
    ticks = [(x0 + t * (x1 - x0) / 5, y0 + t * (y1 - y0) / 5) for t in range(6)]
    for (xv, yv), (px, py) in zip(ticks, pixels(*zip(*ticks)).tolist()):
        out.append(f'<line x1="{px:.1f}" y1="{MARGIN_T + ih}" '
                   f'x2="{px:.1f}" y2="{MARGIN_T + ih + 5}" stroke="#333"/>')
        out.append(f'<text x="{px:.1f}" y="{MARGIN_T + ih + 18}" '
                   'text-anchor="middle" font-family="sans-serif" '
                   f'font-size="10">{_fmt(xv)}</text>')
        out.append(f'<line x1="{MARGIN_L - 5}" y1="{py:.1f}" '
                   f'x2="{MARGIN_L}" y2="{py:.1f}" stroke="#333"/>')
        out.append(f'<text x="{MARGIN_L - 8}" y="{py + 3:.1f}" '
                   'text-anchor="end" font-family="sans-serif" '
                   f'font-size="10">{_fmt(yv)}</text>')
    out.append(f'<text x="{MARGIN_L + iw / 2:.1f}" y="{HEIGHT - 10}" '
               'text-anchor="middle" font-family="sans-serif" '
               f'font-size="12">{xlabel}</text>')
    out.append(f'<text x="16" y="{MARGIN_T + ih / 2:.1f}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="12" '
               f'transform="rotate(-90 16 {MARGIN_T + ih / 2:.1f})">{ylabel}</text>')

    for xs, ys, color, label in series:
        n = min(len(xs), len(ys))
        pts = " ".join(["%.2f,%.2f"] * n) % tuple(pixels(xs[:n], ys[:n]).ravel().tolist())
        dash = ' stroke-dasharray="6 4"' if label in dashed else ""
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"{dash}/>')
    # legend
    ly = MARGIN_T + 8
    for idx, (_, _, color, label) in enumerate(series):
        if not label:
            continue
        out.append(f'<line x1="{MARGIN_L + 10}" y1="{ly + 12 * idx:.1f}" '
                   f'x2="{MARGIN_L + 34}" y2="{ly + 12 * idx:.1f}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{MARGIN_L + 40}" y="{ly + 12 * idx + 3:.1f}" '
                   f'font-family="sans-serif" font-size="10">{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
