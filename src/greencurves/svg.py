"""Standalone SVG rendering of curves, index heat maps, disc diagrams, sweep plots.

Documents are built as plain strings with fixed float formatting, so the same
input always produces byte-identical output.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import KindMismatch

_PALETTE = {
    -3: "#08306b", -2: "#2171b5", -1: "#6baed6", 0: "#f7f7f7",
    1: "#fcae91", 2: "#fb6a4a", 3: "#cb181d",
}
_HEATMAP_CELLS = 128  # most cells a heat map draws per axis; a finer field is subsampled


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _header(w, h, x0, y0, x1, y1):
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(x1 - x0)} {_fmt(y1 - y0)}">\n'
    )


def _poly_path(points, close=True) -> str:
    cmds = []
    for k, (x, y) in enumerate(points):
        cmds.append(("M" if k == 0 else "L") + f"{_fmt(x)} {_fmt(-y)}")
    if close:
        cmds.append("Z")
    return " ".join(cmds)


def svg_curve(vertices) -> str:
    pts = [(float(x), float(y)) for x, y in vertices]
    xs = [p[0] for p in pts]
    ys = [-p[1] for p in pts]
    pad = 0.08 * max(max(xs) - min(xs), max(ys) - min(ys), 1e-9)
    out = _header(640, 640, min(xs) - pad, min(ys) - pad, max(xs) + pad, max(ys) + pad)
    out += f'<path d="{_poly_path(pts)}" fill="none" stroke="#1f6f43" stroke-width="{_fmt(pad / 12)}"/>\n'
    x0, y0 = pts[0]
    out += f'<circle cx="{_fmt(x0)}" cy="{_fmt(-y0)}" r="{_fmt(pad / 6)}" fill="#1f6f43"/>\n'
    out += "</svg>\n"
    return out


def svg_index_heatmap(field_dict: dict) -> str:
    grid = field_dict["grid"]
    values = np.asarray(field_dict["values"])
    ny, nx = values.shape
    sx = max(1, nx // _HEATMAP_CELLS)
    sy = max(1, ny // _HEATMAP_CELLS)
    values = values[::sy, ::sx]
    ny, nx = values.shape
    x0, y0 = grid["lo"]
    x1, y1 = grid["hi"]
    cw = (x1 - x0) / nx
    ch = (y1 - y0) / ny
    out = _header(640, 640, x0, -y1, x1, -y0)
    for iy in range(ny):
        for ix in range(nx):
            v = int(np.clip(values[iy, ix], -3, 3))
            if v == 0:
                continue
            x = x0 + ix * cw
            y = y0 + iy * ch
            out += (f'<rect x="{_fmt(x)}" y="{_fmt(-(y + ch))}" width="{_fmt(cw)}" '
                    f'height="{_fmt(ch)}" fill="{_PALETTE[v]}"/>\n')
    out += (f'<rect x="{_fmt(x0)}" y="{_fmt(-y1)}" width="{_fmt(x1 - x0)}" '
            f'height="{_fmt(y1 - y0)}" fill="none" stroke="#444" stroke-width="{_fmt(cw / 4)}"/>\n')
    out += "</svg>\n"
    return out


def svg_mainlemma(dump: dict) -> str:
    cx, cy = dump["disc"]["center"]
    r = dump["disc"]["radius"]
    curve = dump["curve"]
    xs = [p[0] for p in curve] + [cx - r, cx + r]
    ys = [p[1] for p in curve] + [cy - r, cy + r]
    pad = 0.15 * max(max(xs) - min(xs), max(ys) - min(ys))
    out = _header(720, 720, min(xs) - pad, -(max(ys) + pad), max(xs) + pad, -(min(ys) - pad))
    sw = pad / 14
    out += f'<path d="{_poly_path(curve)}" fill="none" stroke="#999" stroke-width="{_fmt(sw)}"/>\n'
    out += (f'<circle cx="{_fmt(cx)}" cy="{_fmt(-cy)}" r="{_fmt(r)}" fill="none" '
            f'stroke="#333" stroke-width="{_fmt(sw)}" stroke-dasharray="{_fmt(4 * sw)} {_fmt(2 * sw)}"/>\n')
    colors = ["#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#8c564b"]
    for k, comp in enumerate(dump["components"]):
        col = colors[k % len(colors)]
        out += (f'<path d="{_poly_path(comp, close=False)}" fill="none" stroke="{col}" '
                f'stroke-width="{_fmt(1.6 * sw)}"/>\n')
    for itv in dump["intervals"]:
        depth = itv["depth"]
        rr = r * (1 + 0.07 * (depth + 1))
        col = colors[itv["component"] % len(colors)]
        if not 0 <= itv["span"] <= 2 * math.pi:
            raise ValueError(f"interval span {itv['span']!r} is not an angle in [0, 2 pi]")
        n_seg = max(8, int(itv["span"] / 0.1))
        ang = itv["theta0"] + np.linspace(0, itv["span"], n_seg + 1)
        arc = [(cx + rr * math.cos(a), cy + rr * math.sin(a)) for a in ang]
        out += (f'<path d="{_poly_path(arc, close=False)}" fill="none" stroke="{col}" '
                f'stroke-width="{_fmt(sw)}"/>\n')
        mid = itv["theta0"] + itv["span"] / 2
        lx = cx + (rr + 3 * sw) * math.cos(mid)
        ly = cy + (rr + 3 * sw) * math.sin(mid)
        sign = "+" if itv["sigma"] > 0 else "-"
        out += (f'<text x="{_fmt(lx)}" y="{_fmt(-ly)}" font-size="{_fmt(5 * sw)}" '
                f'fill="{col}">G{depth}{sign}</text>\n')
    out += "</svg>\n"
    return out


def svg_sweep(table: list) -> str:
    """Log-log decay polyline of |S_II| against delta, with the bound overlaid."""
    if not table:
        raise KindMismatch("empty sweep table")
    w, h = 560, 420
    out = _header(w, h, 0, 0, w, h)
    lx = [math.log10(row["delta"]) for row in table]
    floor = 1e-300
    ly = [math.log10(max(row["s_ii_abs"], floor)) for row in table]
    lb = [math.log10(max(row["bound"], floor)) for row in table]
    x0, x1 = min(lx), max(lx)
    y0, y1 = min(ly + lb), max(ly + lb)
    y0, y1 = y0 - 0.2, y1 + 0.2

    def px(v):
        return 60 + (v - x0) / max(x1 - x0, 1e-9) * (w - 90)

    def py(v):
        return h - 50 - (v - y0) / max(y1 - y0, 1e-9) * (h - 90)

    out += f'<rect x="60" y="{_fmt(h - 50 - (h - 90))}" width="{w - 90}" height="{h - 90}" fill="none" stroke="#888"/>\n'
    for series, col, label in ((ly, "#d62728", "|S_II|"), (lb, "#1f77b4", "bound")):
        pts = " ".join(f"{_fmt(px(a))},{_fmt(py(b))}" for a, b in zip(lx, series))
        out += f'<polyline points="{pts}" fill="none" stroke="{col}" stroke-width="2"/>\n'
        for a, b in zip(lx, series):
            out += f'<circle cx="{_fmt(px(a))}" cy="{_fmt(py(b))}" r="3" fill="{col}"/>\n'
        out += (f'<text x="{_fmt(px(lx[-1]) + 6)}" y="{_fmt(py(series[-1]))}" '
                f'font-size="12" fill="{col}">{label}</text>\n')
    for a in lx:
        out += (f'<text x="{_fmt(px(a) - 14)}" y="{_fmt(h - 30)}" font-size="11" '
                f'fill="#333">1e{_fmt(a)}</text>\n')
    out += f'<text x="{w // 2 - 20}" y="{h - 8}" font-size="12" fill="#333">delta</text>\n'
    out += "</svg>\n"
    return out


def render_svg(payload, kind: str) -> str:
    """Dispatch on the declared kind; raises KindMismatch for wrong input shapes or values."""
    try:
        if kind == "curve":
            return svg_curve(payload["vertices"] if isinstance(payload, dict) else payload)
        if kind == "index-heatmap":
            return svg_index_heatmap(payload)
        if kind == "mainlemma-diagram":
            if not isinstance(payload, dict) or payload.get("kind") != "mainlemma-diagram":
                raise KeyError("kind")
            return svg_mainlemma(payload)
        if kind == "sweep-plot":
            table = payload["table"] if isinstance(payload, dict) else payload
            return svg_sweep(table)
    except (KeyError, TypeError, IndexError, ValueError, ArithmeticError) as exc:
        raise KindMismatch(f"payload does not match kind {kind!r}: {exc}") from None
    raise KindMismatch(f"unknown render kind {kind!r}")
