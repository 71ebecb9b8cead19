"""The array SVG writer against the per-point writer it replaced."""
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwlin import Params, PlotSpec, emit_orbit_csv, emit_svg, iterate
from pwlin.core import mpf_pair, orbit_chain
from pwlin.errors import ArgumentError, OrbitOverflowError
from pwlin.output import (SVG_BLOCK, _fmt17, _fmt17_pair, _format_rows,
                          _write_svg)


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


# ------------------- the array formatter against %.2f -------------------

_TIES = [k / 8 for k in range(-80, 81)] + [1e5 + k / 8 for k in range(8)]
# the doubles on either side of the cent ties k/200 + 0.005
_NEAR_TIES = [math.nextafter(k / 200 + 0.005, d)
              for k in range(-400, 400) for d in (-math.inf, math.inf)]
_SPECIAL = [0.0, -0.0, -1e-300, -5e-324, -0.001, -0.004999, -0.00499999999,
            math.nan, -math.nan, math.inf, -math.inf, 1e300, -1e300,
            2.0 ** 42 / 100, 2.0 ** 53, 1e15 + 0.5, 123.456, 799.999]


@pytest.mark.parametrize("values", [_TIES, _NEAR_TIES, _SPECIAL],
                         ids=["ties", "near ties", "special"])
def test_formatter_matches_percent(values):
    got = _format_rows((b"<", b">"), np.array(values, dtype=float)).decode()
    assert got == "".join("<%.2f>" % v for v in values)


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=50))
def test_formatter_matches_percent_everywhere(values):
    got = _format_rows((b"", b",", b";"), np.array(values, dtype=float),
                       -np.array(values, dtype=float)).decode()
    assert got == "".join(f"{x:.2f},{-x:.2f};" for x in values)


@pytest.mark.parametrize("size", [(3, 7), (1, 1), (800, 800)])
def test_svg_ties_match_reference_writer(tmp_path, size):
    # window edges at 0 and 1 after the margins: x = -1/18 + k/(18 * 8)
    # puts pixels on eighths, the exact ties of %.2f
    grid = [(-1 / 18 + k / 144, 1 / 18 + k / 144) for k in range(145)]
    got, want = _both(tmp_path, grid, overlay=grid[::3], size=size)
    assert got == want


def test_svg_dots_span_blocks(tmp_path):
    points = _circle_points(2 * SVG_BLOCK + 5)
    got, want = _both(tmp_path, points, overlay=_circle_points(30, 1.1))
    assert got == want
    assert got.count("<circle") == len(points)


@pytest.mark.parametrize("slopes", [(math.nan, 1.0), (1.2, -math.inf)])
def test_non_finite_slopes_write_no_file(tmp_path, slopes):
    # iterate refuses the slopes before any file is opened; the SVG used
    # to be drawn from a nan orbit
    from pwlin import emit_orbit_csv
    from pwlin.errors import DomainError

    params = Params(*slopes)
    with pytest.raises(DomainError, match="slopes must be finite"):
        emit_svg(PlotSpec(params, (0.0, 1.0), 50, str(tmp_path / "o.svg")))
    with pytest.raises(DomainError, match="slopes must be finite"):
        emit_orbit_csv(params, (0.0, 1.0), 50, tmp_path / "o.csv")
    assert list(tmp_path.iterdir()) == []


# --------------- the orbit walk behind the plot ---------------

@pytest.mark.parametrize("prec", [53, 113, 2000])
@pytest.mark.parametrize("slopes, start, n", [
    (("1.189207115002721", "-1.189207115002721"), ("0", "1"), 3000),
    # every point is a subnormal double
    (("1.189207115002721", "-1.189207115002721"), ("0", "1e-310"), -500),
    (("3", "3"), ("1", "0"), 2000),  # escapes at step 718
])
def test_mpf_svg_matches_the_iterate_oracle(tmp_path, monkeypatch, prec,
                                            slopes, start, n):
    # the mantissa path rounds each value to a double as float(mpf) does:
    # the same arrays reach the writer, and the same bytes the file
    import pwlin.output as output_mod
    from oracles import emit_svg as oracle_svg

    drawn = []
    write = output_mod._write_svg

    def recording(spec, xs, ys):
        drawn.append((xs.tobytes(), ys.tobytes()))
        write(spec, xs, ys)

    monkeypatch.setattr(output_mod, "_write_svg", recording)
    got, want = tmp_path / "got.svg", tmp_path / "want.svg"
    with mpmath.workprec(prec):
        params = Params(*map(mpmath.mpf, slopes))
        p0 = tuple(map(mpmath.mpf, start))
        emit_svg(PlotSpec(params, p0, n, str(got)))
        oracle_svg(PlotSpec(params, p0, n, str(want)))
        chain, ctx, _ = orbit_chain(params, p0, n)
    assert ctx is not None  # the mantissa path drew it
    assert drawn[0] == drawn[1]
    assert got.read_bytes() == want.read_bytes()
    xs = np.frombuffer(drawn[0][0])
    if start[1] == "1e-310":
        assert 0.0 < np.abs(xs).max() < 2.0 ** -1022
    if prec == 2000 and "." in slopes[0]:
        # 2000-bit slopes; float(m) of such a mantissa raises OverflowError
        assert max(abs(m) for m, _ in chain).bit_length() > 1024


@pytest.mark.parametrize("prec", [None, 113])
def test_iterate_csv_and_svg_agree_on_the_escape(tmp_path, prec):
    # at a = b = 3 the orbit of (1, 0) escapes at step 718: iterate and
    # the CSV writer raise that index, the writer leaving no file, and
    # the plot draws the 718 points before it
    conv = float if prec is None else mpmath.mpf
    csv = tmp_path / "o.csv"
    with mpmath.workprec(prec or 53):
        params, p0 = Params(conv(3), conv(3)), (conv(1), conv(0))
        message = "^orbit escaped at step 718$"
        with pytest.raises(OrbitOverflowError, match=message) as walked:
            iterate(params, p0, 2000)
        with pytest.raises(OrbitOverflowError, match=message) as written:
            emit_orbit_csv(params, p0, 2000, csv)
        assert walked.value.index == written.value.index == 718
        assert not csv.exists()
        orbit, _ = iterate(params, p0, 717)
        emit_svg(PlotSpec(params, p0, 2000, str(tmp_path / "escaped.svg")))
        emit_svg(PlotSpec(params, p0, 717, str(tmp_path / "prefix.svg")))
    assert len(orbit) == 718
    assert ((tmp_path / "escaped.svg").read_bytes()
            == (tmp_path / "prefix.svg").read_bytes())


def test_svg_of_an_escaping_backward_orbit_draws_its_backward_prefix(
        tmp_path):
    # the backward orbit of (0.3, 1) at a = b = 3 escapes at step 718; the
    # escaped plot is the 717-step backward one, not the forward one
    def plot(n):
        path = tmp_path / f"{n}.svg"
        emit_svg(PlotSpec(Params(3.0, 3.0), (0.3, 1.0), n, str(path)))
        return path.read_bytes()

    with pytest.raises(OrbitOverflowError, match="step 718$"):
        iterate(Params(3.0, 3.0), (0.3, 1.0), -1000)
    assert plot(-1000) == plot(-717)
    assert plot(-1000) != plot(717)


@pytest.mark.parametrize("n", [10_000_001, -10_000_001])
def test_plot_spec_caps_the_step_count_both_ways(n):
    with pytest.raises(ArgumentError, match="iteration count capped at 1e7"):
        PlotSpec(Params(1.2, -1.2), (0.0, 1.0), n, "never-written.svg")
    PlotSpec(Params(1.2, -1.2), (0.0, 1.0), n - (n > 0) + (n < 0), "x.svg")


# --------------- the orbit CSV's pair formatter against to_str ---------------


def _to_str17(m, e):
    from mpmath.libmp import from_man_exp, to_str

    return to_str(from_man_exp(m, e), 17)


def _pair_of(text):
    with mpmath.workprec(300):
        return mpf_pair(mpmath.mpf(text))


@settings(max_examples=1000)
@given(st.integers(1, 400).flatmap(
           lambda bits: st.integers(-(2 ** bits) + 1, 2 ** bits - 1)),
       st.one_of(st.integers(-3600, 3600),
                 st.sampled_from([-3501, -3500, 3500, 3501])),
       st.integers(0, 8))
def test_pair_formatter_matches_to_str(m, top, zeros):
    # top = e + bit_length decides the digit plan and the to_str
    # fallback beyond |top| > 3500; zeros > 0 gives an even mantissa, a
    # pair that walk_mpf leaves unnormalized
    m <<= zeros
    e = top - m.bit_length()
    assert _fmt17_pair(m, e) == _to_str17(m, e)


@pytest.mark.parametrize("text", [
    # to_str floors the binary value before it rounds, so a carry needs
    # the 18th digit 5 and a decimal tail above the binary rounding
    "0.9999999999999999951", "-0.9999999999999999951", "9.9999999999999999951",
    "0.999999999999999995",  # just below its decimal: no carry
    "99999999999999999.51",  # carries into 1e17: the scientific layout
    "9.9999999999999999951e-5",  # carries into 1e-4: the fixed layout
    "9.9999999999999999999e200", "1.9999999999999999951e-300",
    "99999999999999999", "999999999999999999",
    "1e-5", "1e-4", "-1.5e-5", "9.9e-5", "1e16", "1e17", "9.9e16",
    "-1.5e17", "0.1", "1", "-2.5", "3.0e300",
])
def test_pair_formatter_carries_and_layouts(text):
    m, e = _pair_of(text)
    assert _fmt17_pair(m, e) == _to_str17(m, e)


def test_pair_formatter_fixed_values():
    for e in (-5000, -100, 0, 7, 5000):
        assert _fmt17_pair(0, e) == "0.0"
    assert _fmt17_pair(10 ** 18 - 1, 0) == "1.0e+18"
    assert _fmt17_pair(-(10 ** 17 - 1), 0) == "-99999999999999999.0"
    assert _fmt17_pair(*_pair_of("0.9999999999999999951")) == "1.0"
    assert _fmt17_pair(*_pair_of("9.9999999999999999951e-5")) == "0.0001"
    assert _fmt17_pair(*_pair_of("99999999999999999.51")) == "1.0e+17"
    assert _fmt17_pair(*_pair_of("9.9e-5")) == "9.9e-5"
    assert _fmt17_pair(*_pair_of("1e16")) == "10000000000000000.0"
    assert _fmt17_pair(3, -2) == _fmt17_pair(3 << 40, -42) == "0.75"


def test_fmt17_serves_every_mpf():
    mpf = mpmath.mpf
    with mpmath.workprec(113):
        values = [mpf(0), mpf(1) / 3, -mpf(2) ** 4000, mpf("inf"),
                  -mpf("inf"), mpf("nan")]
    assert [_fmt17(v) for v in values] == [mpmath.nstr(v, 17)
                                          for v in values]
