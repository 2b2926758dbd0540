"""Cell-by-cell artifact formatting, as `harness.emit` and `svgplot.line_plot`
did it before rows were converted with `tolist` and polylines in numpy.

The oracle for the byte identity of the emitted tables and plots: `emit`
writes the three CSV tables and the two SVG plots with one numpy scalar index
and one `repr(float(...))` per cell, and `line_plot` maps each polyline point
through the scalar `sx`/`sy` closures and formats it with two f-strings.
`attack.csv` is not here: its code did not change.

`_bounds` is the one from before a flat axis at |v| >= 2**53 got a span, so
the oracle pins the bytes of every plot that was drawn then, and raises
`ZeroDivisionError` on such an axis. It takes each axis's range over its
non-NaN values, as `svgplot._bounds` does, wherever a NaN sits.
"""
import os

from ncsred.svgplot import (HEIGHT, MARGIN_B, MARGIN_L, MARGIN_R, MARGIN_T,
                            PALETTE, WIDTH, _fmt)

#: the files `emit` writes, in the order it writes them
FILES = ("trajectories.csv", "errors.csv", "tracking.csv", "trajectories.svg",
         "errors.svg")


def _range(series, axis):
    """Smallest and largest non-NaN value on one axis; NaN if it has none."""
    values = [v for s in series for v in s[axis]]
    values = [v for v in values if v == v] or values
    return min(values), max(values)


def _bounds(series):
    xs_min, xs_max = _range(series, 0)
    ys_min, ys_max = _range(series, 1)
    if xs_max == xs_min:
        xs_max = xs_min + 1.0
    if ys_max == ys_min:
        ys_max = ys_min + 1.0
    pad_x = 0.04 * (xs_max - xs_min)
    pad_y = 0.06 * (ys_max - ys_min)
    return xs_min - pad_x, xs_max + pad_x, ys_min - pad_y, ys_max + pad_y


def _r(v):
    return repr(float(v))


def _write(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def emit(record, out_dir):
    """Write FILES for `record` into `out_dir`, one cell at a time."""
    os.makedirs(out_dir, exist_ok=True)
    N = record.n_agents

    lines = ["k,t,agent,x,vx,y,vy"]
    for k in range(record.horizon + 1):
        t = k * record.dt
        for a in range(N):
            s = record.states[k, 4 * a:4 * a + 4]
            lines.append(f"{k},{_r(t)},{a},{_r(s[0])},{_r(s[1])},{_r(s[2])},{_r(s[3])}")
    _write(os.path.join(out_dir, "trajectories.csv"), "\n".join(lines) + "\n")

    lines = ["k,pair,e"]
    for k in range(record.horizon + 1):
        for idx, (i, j) in enumerate(record.pairs):
            lines.append(f"{k},{i}-{j},{_r(record.pair_errors[k, idx])}")
    _write(os.path.join(out_dir, "errors.csv"), "\n".join(lines) + "\n")

    lines = ["k,agent,e"]
    for k in range(record.horizon + 1):
        for a in range(N):
            lines.append(f"{k},{a},{_r(record.tracking[k, a])}")
    _write(os.path.join(out_dir, "tracking.csv"), "\n".join(lines) + "\n")

    ks = list(range(record.horizon + 1))
    series = []
    for a in range(N):
        xs = record.states[:, 4 * a].tolist()
        ys = record.states[:, 4 * a + 2].tolist()
        series.append((xs, ys, PALETTE[a % len(PALETTE)], f"agent {a}"))
    _write(os.path.join(out_dir, "trajectories.svg"),
           line_plot(series, title=f"{record.mode} trajectories",
                     xlabel="x [m]", ylabel="y [m]"))

    series = []
    for idx, (i, j) in enumerate(record.pairs):
        series.append((ks, record.pair_errors[:, idx].tolist(),
                       PALETTE[idx % len(PALETTE)], f"e {i}-{j}"))
    series.append((ks, record.system_tracking.tolist(), "#000000", "tracking"))
    _write(os.path.join(out_dir, "errors.svg"),
           line_plot(series, title=f"{record.mode} errors",
                     xlabel="step", ylabel="error [m]", dashed=("tracking",)))


def line_plot(series, title="", xlabel="", ylabel="", dashed=()):
    """`svgplot.line_plot` with every polyline point mapped and formatted alone."""
    series = [s for s in series if len(s[0])]
    if not series:
        return ('<svg xmlns="http://www.w3.org/2000/svg" width="10" height="10">'
                "</svg>\n")
    x0, x1, y0, y1 = _bounds(series)
    iw = WIDTH - MARGIN_L - MARGIN_R
    ih = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x):
        return MARGIN_L + (x - x0) / (x1 - x0) * iw

    def sy(y):
        return MARGIN_T + ih - (y - y0) / (y1 - y0) * ih

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
           f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
           f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
           f'<text x="{WIDTH / 2:.1f}" y="20" text-anchor="middle" '
           f'font-family="sans-serif" font-size="14">{title}</text>']
    out.append(f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{iw}" height="{ih}" '
               'fill="none" stroke="#333" stroke-width="1"/>')
    for t in range(6):
        xv = x0 + t * (x1 - x0) / 5
        yv = y0 + t * (y1 - y0) / 5
        out.append(f'<line x1="{sx(xv):.1f}" y1="{MARGIN_T + ih}" '
                   f'x2="{sx(xv):.1f}" y2="{MARGIN_T + ih + 5}" stroke="#333"/>')
        out.append(f'<text x="{sx(xv):.1f}" y="{MARGIN_T + ih + 18}" '
                   'text-anchor="middle" font-family="sans-serif" '
                   f'font-size="10">{_fmt(xv)}</text>')
        out.append(f'<line x1="{MARGIN_L - 5}" y1="{sy(yv):.1f}" '
                   f'x2="{MARGIN_L}" y2="{sy(yv):.1f}" stroke="#333"/>')
        out.append(f'<text x="{MARGIN_L - 8}" y="{sy(yv) + 3:.1f}" '
                   'text-anchor="end" font-family="sans-serif" '
                   f'font-size="10">{_fmt(yv)}</text>')
    out.append(f'<text x="{MARGIN_L + iw / 2:.1f}" y="{HEIGHT - 10}" '
               'text-anchor="middle" font-family="sans-serif" '
               f'font-size="12">{xlabel}</text>')
    out.append(f'<text x="16" y="{MARGIN_T + ih / 2:.1f}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="12" '
               f'transform="rotate(-90 16 {MARGIN_T + ih / 2:.1f})">{ylabel}</text>')

    for idx, (xs, ys, color, label) in enumerate(series):
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        dash = ' stroke-dasharray="6 4"' if label in dashed else ""
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"{dash}/>')
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
