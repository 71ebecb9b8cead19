"""Deterministic CSV and SVG emitters.

Outputs carry no timestamps or environment data: identical inputs give
byte-identical files.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Params, Point, iterate
from .errors import ArgumentError, OrbitOverflowError


def _fmt17(v) -> str:
    """Decimal with 17 significant digits (round-trips doubles)."""
    if isinstance(v, float):
        return f"{v:.17g}"
    raw = getattr(v, "_mpf_", None)
    if raw is not None:  # what mpmath.nstr(v, 17) returns for an mpf
        from mpmath.libmp import to_str

        return to_str(raw, 17)
    import mpmath

    return mpmath.nstr(v, 17)


def emit_orbit_csv(params: Params, start: Point, n: int, path) -> None:
    """Write the forward orbit as ``n,x,y`` rows (n + 2 lines total).

    Each value is formatted once: a forward row's y is the previous
    row's x (a backward row's x is the previous row's y).
    """
    orbit, _ = iterate(params, start, n)
    if n >= 0:
        cells = list(map(_fmt17, [orbit[0][1], *(p[0] for p in orbit)]))
        pairs = zip(cells[1:], cells)
    else:
        cells = list(map(_fmt17, [orbit[0][0], *(p[1] for p in orbit)]))
        pairs = zip(cells, cells[1:])
    lines = ["n,x,y"]
    lines.extend(f"{i},{x},{y}" for i, (x, y) in enumerate(pairs))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


_SCAN_COLUMNS = ("a", "b", "rotation_value", "rotation_steps",
                 "rotation_error_bound", "rotation_snap_p", "rotation_snap_q",
                 "verdict", "periodic_q", "norm_growth",
                 "near_return_residual", "period_matrix_residual",
                 "radius_ratio", "error")


def _csv_cell(v) -> str:
    if v is None:
        return ""
    return _fmt17(v) if isinstance(v, float) else str(v)


def emit_scan_csv(records, path) -> None:
    """Write scan records (``ClassRecord``) as CSV, one row per cell.

    Floats carry 17 significant digits; absent values are empty cells.
    """
    lines = [",".join(_SCAN_COLUMNS)]
    for rec in records:
        row = rec.to_dict()
        lines.append(",".join(_csv_cell(row[c]) for c in _SCAN_COLUMNS))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


@dataclass(frozen=True)
class PlotSpec:
    """What to draw: an orbit, and optionally a certified-circle overlay."""

    params: Params
    start: Point
    n: int
    path: str
    size: tuple[int, int] = (800, 800)
    overlay: list[Point] | None = None

    def __post_init__(self):
        if self.n > 10_000_000:
            raise ArgumentError("iteration count capped at 1e7")


def _orbit_points(spec: PlotSpec) -> list[Point]:
    try:
        orbit, _ = iterate(spec.params, spec.start, spec.n)
    except OrbitOverflowError as exc:
        # divergent orbits are expected; draw the finite prefix
        orbit, _ = iterate(spec.params, spec.start, max(exc.index - 1, 0))
    return orbit


def emit_svg(spec: PlotSpec) -> None:
    """Render orbit points (0.5 px dots) and the optional overlay.

    The view window is the 1%-99% quantile bounding box of all plotted
    points with a 5% margin; the axes are drawn through the origin when
    it is inside the window.
    """
    _write_svg(spec, _orbit_points(spec))


def _write_svg(spec: PlotSpec, points: list[Point]) -> None:
    """:func:`emit_svg` with the orbit points already computed."""
    allpts = list(points)
    if spec.overlay:
        allpts.extend(spec.overlay)
    width, height = spec.size
    if allpts:
        xs = np.array([p[0] for p in allpts], dtype=float)
        ys = np.array([p[1] for p in allpts], dtype=float)
        x_lo, x_hi = (float(v) for v in np.percentile(xs, [1.0, 99.0]))
        y_lo, y_hi = (float(v) for v in np.percentile(ys, [1.0, 99.0]))
    else:
        x_lo = y_lo = -1.0
        x_hi = y_hi = 1.0
    x_span = x_hi - x_lo or 1.0
    y_span = y_hi - y_lo or 1.0
    x_lo -= 0.05 * x_span
    x_hi += 0.05 * x_span
    y_lo -= 0.05 * y_span
    y_hi += 0.05 * y_span
    x_span = x_hi - x_lo
    y_span = y_hi - y_lo

    def to_px(p: Point) -> tuple[float, float]:
        return ((p[0] - x_lo) * width / x_span,
                (y_hi - p[1]) * height / y_span)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    if x_lo < 0.0 < x_hi:
        cx = (0.0 - x_lo) * width / x_span
        parts.append(
            f'<line x1="{cx:.2f}" y1="0" x2="{cx:.2f}" y2="{height}" '
            'stroke="#999999" stroke-width="1"/>')
    if y_lo < 0.0 < y_hi:
        cy = (y_hi - 0.0) * height / y_span
        parts.append(
            f'<line x1="0" y1="{cy:.2f}" x2="{width}" y2="{cy:.2f}" '
            'stroke="#999999" stroke-width="1"/>')
    for p in points:
        if not (math.isfinite(p[0]) and math.isfinite(p[1])):
            continue
        px, py = to_px(p)
        if -1 <= px <= width + 1 and -1 <= py <= height + 1:
            parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="0.5" '
                         'fill="#1f4e79"/>')
    if spec.overlay:
        coords = " ".join(
            f"{x:.2f},{y:.2f}" for x, y in (to_px(p) for p in spec.overlay))
        parts.append(f'<polyline points="{coords}" fill="none" '
                     'stroke="#d7301f" stroke-width="1"/>')
    parts.append("</svg>")
    with open(spec.path, "w", newline="") as fh:
        fh.write("\n".join(parts) + "\n")
