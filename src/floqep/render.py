"""Dependency-free SVG rendering for diagrams, contours, and curves.

Heatmaps up to 200x200 are drawn as per-cell rectangles; larger grids are
embedded as a base64 PPM raster.  All numbers are formatted with fixed
precision so identical inputs produce identical bytes.
"""

from __future__ import annotations

import base64
from pathlib import Path

import numpy as np

from .sweep import BerrySweep, EPContourSet, PhaseDiagram

_MARGIN_L = 64.0
_MARGIN_B = 46.0
_MARGIN_T = 28.0
_MARGIN_R = 20.0
_PLOT_W = 520.0
_PLOT_H = 420.0

_DARK = (8, 8, 40)
_BRIGHT = (252, 238, 80)
_FAILED = (255, 0, 255)  # a non-finite (failed) cell


def _num(x: float) -> str:
    return f"{x:.6g}"


def _lerp_color(t: float) -> tuple[int, int, int]:
    t = min(max(t, 0.0), 1.0)
    return tuple(int(round(a + t * (b - a))) for a, b in zip(_DARK, _BRIGHT))


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    return [lo + (hi - lo) * k / (n - 1) for k in range(n)]


def _axes(lines: list[str], y_label: str, xlim, ylim):
    x0, y0 = _MARGIN_L, _MARGIN_T + _PLOT_H
    x1, y1 = _MARGIN_L + _PLOT_W, _MARGIN_T
    lines.append(
        f'<rect x="{_num(x0)}" y="{_num(y1)}" width="{_num(_PLOT_W)}" '
        f'height="{_num(_PLOT_H)}" fill="none" stroke="#000000" stroke-width="1"/>'
    )
    for tx in _ticks(*xlim):
        px = x0 + (tx - xlim[0]) / (xlim[1] - xlim[0]) * _PLOT_W
        lines.append(
            f'<line x1="{_num(px)}" y1="{_num(y0)}" x2="{_num(px)}" y2="{_num(y0 + 5)}" '
            'stroke="#000000" stroke-width="1"/>'
        )
        lines.append(
            f'<text x="{_num(px)}" y="{_num(y0 + 18)}" font-size="11" '
            f'text-anchor="middle" font-family="sans-serif">{_num(tx)}</text>'
        )
    for ty in _ticks(*ylim):
        py = y0 - (ty - ylim[0]) / (ylim[1] - ylim[0]) * _PLOT_H
        lines.append(
            f'<line x1="{_num(x0 - 5)}" y1="{_num(py)}" x2="{_num(x0)}" y2="{_num(py)}" '
            'stroke="#000000" stroke-width="1"/>'
        )
        lines.append(
            f'<text x="{_num(x0 - 8)}" y="{_num(py + 4)}" font-size="11" '
            f'text-anchor="end" font-family="sans-serif">{_num(ty)}</text>'
        )
    lines.append(
        f'<text x="{_num(x0 + _PLOT_W / 2)}" y="{_num(y0 + 36)}" font-size="13" '
        'text-anchor="middle" font-family="sans-serif">gamma</text>'
    )
    lines.append(
        f'<text x="{_num(16.0)}" y="{_num(y1 + _PLOT_H / 2)}" font-size="13" '
        f'text-anchor="middle" font-family="sans-serif" '
        f'transform="rotate(-90 16 {_num(y1 + _PLOT_H / 2)})">{y_label}</text>'
    )


def _data_to_px(x, xlim):
    return _MARGIN_L + (x - xlim[0]) / (xlim[1] - xlim[0]) * _PLOT_W


def _data_to_py(y, ylim):
    return _MARGIN_T + _PLOT_H - (y - ylim[0]) / (ylim[1] - ylim[0]) * _PLOT_H


def _page(body: list[str], y_label: str, xlim, ylim, path, title) -> str:
    """One SVG page: background, optional title, ``body``, then the
    (gamma, ``y_label``) axes.  Returns the text; writes it when ``path``
    is given."""
    width = _MARGIN_L + _PLOT_W + _MARGIN_R
    height = _MARGIN_T + _PLOT_H + _MARGIN_B
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_num(width)}" '
        f'height="{_num(height)}" viewBox="0 0 {_num(width)} {_num(height)}">',
        f'<rect x="0" y="0" width="{_num(width)}" height="{_num(height)}" fill="#ffffff"/>',
    ]
    if title:
        lines.append(
            f'<text x="{_num(width / 2)}" y="18" font-size="13" text-anchor="middle" '
            f'font-family="sans-serif">{title}</text>'
        )
    lines.extend(body)
    _axes(lines, y_label, xlim, ylim)
    lines.append("</svg>")
    text = "\n".join(lines) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text


def _ppm_base64(values: np.ndarray, vmax: float) -> str:
    """P6 raster, one pixel per cell, row 0 at the top (max omega)."""
    nrow, ncol = values.shape
    header = f"P6 {ncol} {nrow} 255\n".encode()
    t = np.where(np.isfinite(values), values, 0.0) / vmax
    t = np.clip(t, 0.0, 1.0)
    rgb = np.empty((nrow, ncol, 3), dtype=np.uint8)
    for ch in range(3):
        rgb[..., ch] = np.round(_DARK[ch] + t * (_BRIGHT[ch] - _DARK[ch])).astype(np.uint8)
    rgb[~np.isfinite(values)] = _FAILED
    rgb = rgb[::-1]  # top row = largest omega
    return base64.b64encode(header + rgb.tobytes()).decode()


def heatmap_svg(
    diagram: PhaseDiagram,
    path=None,
    contours: EPContourSet | None = None,
    title: str | None = None,
) -> str:
    """Linear-scale heatmap of ``max Im eps`` over the (gamma, omega) grid.

    Optional EP contours are overlaid as polylines (diabolic points as
    circles).  Returns the SVG text; writes it when ``path`` is given.
    """
    grid = diagram.grid
    xlim = (grid.gamma_min, grid.gamma_max)
    ylim = (grid.omega_min, grid.omega_max)
    finite = diagram.values[np.isfinite(diagram.values)]
    vmax = float(finite.max()) if finite.size and finite.max() > 0 else 1.0

    lines = []
    if max(grid.gamma_count, grid.omega_count) > 200:
        payload = _ppm_base64(diagram.values, vmax)
        lines.append(
            f'<image x="{_num(_MARGIN_L)}" y="{_num(_MARGIN_T)}" '
            f'width="{_num(_PLOT_W)}" height="{_num(_PLOT_H)}" '
            'preserveAspectRatio="none" '
            f'href="data:image/x-portable-pixmap;base64,{payload}"/>'
        )
    else:
        cw = _PLOT_W / grid.gamma_count
        chh = _PLOT_H / grid.omega_count
        for j in range(grid.omega_count):
            py = _MARGIN_T + _PLOT_H - (j + 1) * chh
            for i in range(grid.gamma_count):
                v = diagram.values[j, i]
                r, g, b = _lerp_color(v / vmax) if np.isfinite(v) else _FAILED
                lines.append(
                    f'<rect x="{_num(_MARGIN_L + i * cw)}" y="{_num(py)}" '
                    f'width="{_num(cw + 0.5)}" height="{_num(chh + 0.5)}" fill="rgb({r},{g},{b})"/>'
                )
    if contours is not None:
        lines.extend(_contour_elements(contours, xlim, ylim))
    return _page(lines, "omega", xlim, ylim, path, title)


def _contour_elements(contours: EPContourSet, xlim, ylim) -> list[str]:
    out = []
    for line in contours.contours:
        pts = [
            (pt.gamma, pt.omega, pt.kind)
            for pt in line
            if xlim[0] <= pt.gamma <= xlim[1] and ylim[0] <= pt.omega <= ylim[1]
        ]
        if not pts:
            continue
        if len(pts) == 1 or pts[0][2] == "Diabolic":
            for g, w, kind in pts:
                color = "#00c8ff" if kind == "EP" else "#ff4040"
                out.append(
                    f'<circle cx="{_num(_data_to_px(g, xlim))}" '
                    f'cy="{_num(_data_to_py(w, ylim))}" r="2.2" fill="{color}"/>'
                )
        else:
            coords = " ".join(
                f"{_num(_data_to_px(g, xlim))},{_num(_data_to_py(w, ylim))}"
                for g, w, _ in pts
            )
            out.append(
                f'<polyline points="{coords}" fill="none" stroke="#00c8ff" '
                'stroke-width="1.4"/>'
            )
    return out


def contours_svg(contours: EPContourSet, xlim, ylim, path=None, title=None) -> str:
    """EP contours alone on (gamma, omega) axes."""
    return _page(_contour_elements(contours, xlim, ylim), "omega", xlim, ylim, path, title)


def berry_svg(sweep: BerrySweep, path=None, title=None) -> str:
    """Re and Im of both band phases against gamma."""
    g = np.asarray(sweep.gammas, dtype=float)
    series = [
        ("Re band 0", sweep.thetas[:, 0].real, "#1f4fd8"),
        ("Re band 1", sweep.thetas[:, 1].real, "#d8272f"),
        ("Im band 0", sweep.thetas[:, 0].imag, "#e08a00"),
        ("Im band 1", sweep.thetas[:, 1].imag, "#7a2bd8"),
    ]
    ys = np.concatenate([s[1] for s in series])
    ylo, yhi = float(ys.min()), float(ys.max())
    if yhi - ylo < 1e-12:
        ylo, yhi = ylo - 1.0, yhi + 1.0
    pad = 0.05 * (yhi - ylo)
    ylim = (ylo - pad, yhi + pad)
    xlim = (float(g[0]), float(g[-1]))

    lines = []
    if ylim[0] < 0 < ylim[1]:
        y0px = _data_to_py(0.0, ylim)
        lines.append(
            f'<line x1="{_num(_MARGIN_L)}" y1="{_num(y0px)}" '
            f'x2="{_num(_MARGIN_L + _PLOT_W)}" y2="{_num(y0px)}" '
            'stroke="#c0c0c0" stroke-width="0.8"/>'
        )
    for idx, (label, yvals, color) in enumerate(series):
        coords = " ".join(
            f"{_num(_data_to_px(x, xlim))},{_num(_data_to_py(y, ylim))}"
            for x, y in zip(g, yvals)
        )
        lines.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.6"/>'
        )
        lines.append(
            f'<text x="{_num(_MARGIN_L + _PLOT_W - 8)}" y="{_num(_MARGIN_T + 16 + 14 * idx)}" '
            f'font-size="11" text-anchor="end" font-family="sans-serif" '
            f'fill="{color}">{label}</text>'
        )
    return _page(lines, "theta", xlim, ylim, path, title)
