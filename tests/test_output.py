"""The array SVG writer against the per-point writer it replaced."""
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pwlin import Params, PlotSpec, emit_svg
from pwlin.output import _write_svg


def _reference_write_svg(spec, points):
    """The per-point SVG writer over a list of (x, y) tuples: the oracle
    that the array writer must reproduce byte for byte."""
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

    def to_px(p):
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


def _both(tmp_path, points, overlay=None, size=(800, 800)):
    """The array writer's and the reference writer's files."""
    got, want = tmp_path / "got.svg", tmp_path / "want.svg"
    spec = dict(params=Params(1.0, -1.0), start=(0.0, 1.0), n=len(points),
                overlay=overlay, size=size)
    xs = np.array([p[0] for p in points], dtype=float)
    ys = np.array([p[1] for p in points], dtype=float)
    _write_svg(PlotSpec(path=str(got), **spec), xs, ys)
    # the reference quantiles may meet inf - inf, as they always could
    try:
        with np.errstate(invalid="ignore", over="ignore"):
            _reference_write_svg(PlotSpec(path=str(want), **spec), points)
    except ZeroDivisionError:  # see test_svg_collapsed_window
        return got.read_text(), None
    return got.read_text(), want.read_text()


def _circle_points(count, radius=1.0):
    return [(radius * math.cos(0.37 * k), radius * math.sin(0.37 * k))
            for k in range(count)]


_CASES = {
    "plain": (_circle_points(500), None),
    "overlay": (_circle_points(500), _circle_points(50, 1.1)),
    "nan and inf points": (
        _circle_points(300) + [(math.nan, 0.2), (0.1, math.nan),
                               (math.inf, 0.0), (0.0, -math.inf),
                               (-math.inf, math.inf), (math.nan, math.nan)],
        _circle_points(20, 0.9)),
    "quantiles of infinities": (
        [(math.inf, -math.inf)] * 3 + _circle_points(50), None),
    "outside the window": (
        _circle_points(400) + [(50.0, 0.0), (0.0, -50.0), (-1.2, 1.2),
                               (1e300, -1e300), (-1e308, 1e308)],
        None),
    "empty orbit": ([], None),
    "empty orbit with overlay": ([], _circle_points(40)),
    "empty overlay list": (_circle_points(100), []),
    "all coordinates equal": ([(0.5, 0.5)] * 40, None),
    "one point": ([(2.0, -3.0)], None),
    "nan overlay": (_circle_points(100), [(math.nan, 0.0), (0.5, math.inf)]),
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_svg_matches_reference_writer(tmp_path, case):
    points, overlay = _CASES[case]
    got, want = _both(tmp_path, points, overlay)
    assert got == want


def test_svg_negative_zero_pixel(tmp_path):
    # with 202 points the 1 % quantile lies above the two smallest x, so
    # they can be placed a thousandth of a pixel left of the window edge;
    # y is constant (the ``or 1.0`` span)
    grid = [k / 200 for k in range(200)]
    lo, hi = np.percentile([-1.0, -1.0, *grid], [1.0, 99.0])
    x_lo, x_hi = lo - 0.05 * (hi - lo), hi + 0.05 * (hi - lo)
    edge = x_lo - 0.001 * (x_hi - x_lo) / 800
    points = [(edge, 0.5)] + [(x, 0.5) for x in grid]
    got, want = _both(tmp_path, points, overlay=[(edge, 0.5)])
    assert got == want
    assert '<circle cx="-0.00"' in got
    assert 'points="-0.00,' in got


@given(st.lists(st.tuples(st.floats(allow_nan=True, allow_infinity=True),
                          st.floats(allow_nan=True, allow_infinity=True)),
                max_size=30),
       st.sampled_from([None, [], [(0.0, 1.0), (1.0, 0.0), (-0.5, -0.5)]]),
       st.sampled_from([(800, 800), (3, 7), (1, 1)]))
def test_svg_matches_reference_writer_everywhere(tmp_path_factory, points,
                                                  overlay, size):
    got, want = _both(tmp_path_factory.mktemp("svg"), points, overlay, size)
    assert got == want or (want is None and "nan" not in got)


def test_svg_collapsed_window(tmp_path):
    # (x, x) is fixed when a = 2; at 1e15 the 5 % margins round away, and
    # the per-point writer divided by the zero window width.  The window
    # keeps width 1 instead, and the fixed point is drawn at its corner.
    path = tmp_path / "fixed.svg"
    emit_svg(PlotSpec(Params(2.0, -1.0), (1e15, 1e15), 10, str(path)))
    assert path.read_text().count('<circle cx="0.00" cy="0.00"') == 11
    got, want = _both(tmp_path, [(1e15, 1e15)] * 11)
    assert want is None and got == path.read_text()


def test_emit_svg_extended_precision_orbit(tmp_path):
    # an mpf orbit is drawn from its doubles; at 53 bits each mpf step
    # rounds as the float step does, so the plot is the float one
    got, want = tmp_path / "mp.svg", tmp_path / "float.svg"
    mpf = mpmath.mpf
    with mpmath.workprec(53):
        emit_svg(PlotSpec(Params(mpf("1.2"), mpf("-1.2")), (mpf(0), mpf(1)),
                          100, str(got)))
    emit_svg(PlotSpec(Params(1.2, -1.2), (0.0, 1.0), 100, str(want)))
    assert got.read_text().count("<circle") == 101
    assert got.read_bytes() == want.read_bytes()
    with mpmath.workprec(113):
        emit_svg(PlotSpec(Params(mpf("1.2"), mpf("-1.2")), (mpf(0), mpf(1)),
                          100, str(got)))
    assert got.read_text().count("<circle") == 101
