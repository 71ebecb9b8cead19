"""Deterministic CSV and SVG emitters.

Outputs carry no timestamps or environment data: identical inputs give
byte-identical files.
"""
from __future__ import annotations

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
    it is inside the window.  Pixels are computed in doubles, so an
    extended-precision orbit is drawn from its float64 values.
    """
    orbit = np.array(_orbit_points(spec), dtype=float).reshape(-1, 2)
    _write_svg(spec, orbit[:, 0], orbit[:, 1])


_DOT = '<circle cx="%.2f" cy="%.2f" r="0.5" fill="#1f4e79"/>'


def _write_svg(spec: PlotSpec, xs: np.ndarray, ys: np.ndarray) -> None:
    """:func:`emit_svg` with the orbit already computed, as float64 x and
    y arrays.

    Each pixel coordinate is the per-point ``(x - x_lo) * width /
    x_span`` (and ``(y_hi - y) * height / y_span``) evaluated on the
    arrays, the same operations in the same order, and is formatted with
    ``%.2f``, the formatter of ``f"{v:.2f}"`` for floats.  A point is
    drawn when it lies within one pixel of the canvas; NaN and infinite
    coordinates pass through the arithmetic silently and never do.
    """
    overlay = np.array(spec.overlay or [], dtype=float).reshape(-1, 2)
    all_x = np.concatenate([xs, overlay[:, 0]])
    all_y = np.concatenate([ys, overlay[:, 1]])
    width, height = spec.size
    if all_x.size:
        with np.errstate(invalid="ignore"):  # inf - inf between quantiles
            x_lo, x_hi = (float(v) for v in np.percentile(all_x, [1.0, 99.0]))
            y_lo, y_hi = (float(v) for v in np.percentile(all_y, [1.0, 99.0]))
    else:
        x_lo = y_lo = -1.0
        x_hi = y_hi = 1.0
    x_span = x_hi - x_lo or 1.0
    y_span = y_hi - y_lo or 1.0
    x_lo -= 0.05 * x_span
    x_hi += 0.05 * x_span
    y_lo -= 0.05 * y_span
    y_hi += 0.05 * y_span
    # beyond 2**49 the margin can round away: keep the window nonempty
    x_span = x_hi - x_lo or 1.0
    y_span = y_hi - y_lo or 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        px = (all_x - x_lo) * width / x_span
        py = (y_hi - all_y) * height / y_span

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
    n = xs.size
    dx, dy = px[:n], py[:n]
    # a non-finite coordinate never gives a pixel inside the window
    drawn = (dx >= -1) & (dx <= width + 1) & (dy >= -1) & (dy <= height + 1)
    parts.extend(map(_DOT.__mod__, zip(dx[drawn].tolist(), dy[drawn].tolist())))
    if spec.overlay:
        coords = " ".join(map("%.2f,%.2f".__mod__,
                              zip(px[n:].tolist(), py[n:].tolist())))
        parts.append(f'<polyline points="{coords}" fill="none" '
                     'stroke="#d7301f" stroke-width="1"/>')
    parts.append("</svg>")
    with open(spec.path, "w", newline="") as fh:
        fh.write("\n".join(parts) + "\n")
