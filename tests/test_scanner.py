"""Parameter classification, grid scans, CSV/SVG emitters."""
import math
from fractions import Fraction

import pytest

from pwlin import (
    ClassRecord,
    Params,
    PlotSpec,
    RotationEstimate,
    ScanConfig,
    Verdict,
    classify,
    emit_orbit_csv,
    emit_svg,
    iterate,
    scan,
)

from pwlin.errors import PwlinError

from conftest import C_SPECIAL


def test_classify_periodic_six():
    rec = classify(Params(1.0, 1.0), budget=10_000)
    assert rec.verdict is Verdict.PERIODIC_CANDIDATE
    assert rec.periodic_q == 6
    assert rec.evidence.period_matrix_residual <= 1e-10


def test_classify_divergent_thirteen_step():
    rec = classify(Params(C_SPECIAL, -C_SPECIAL), budget=100_000)
    assert rec.verdict is Verdict.DIVERGENT
    assert rec.rotation.snap == Fraction(1, 5)
    assert rec.evidence.norm_growth > 1e6


def test_classify_circle_candidate():
    rec = classify(Params(0.2, -0.7), budget=100_000)
    assert rec.verdict is Verdict.CIRCLE_CANDIDATE


def test_classify_budget_floor():
    with pytest.raises(ValueError):
        classify(Params(0.2, -0.7), budget=10)


def test_scan_contains_periodic_cell():
    records = scan((1.0, 1.1), (1.0, 1.1), 2, budget=5000)
    assert len(records) == 4
    hits = [r for r in records
            if r.verdict is Verdict.PERIODIC_CANDIDATE and r.periodic_q == 6]
    assert any(r.params == Params(1.0, 1.0) for r in hits)


def test_scan_half_plane_halves_records():
    full = scan((0.0, 1.0), (0.0, 1.0), 4, budget=2000)
    half = scan((0.0, 1.0), (0.0, 1.0), 4, budget=2000, half_plane=True)
    assert len(full) == 16
    assert len(half) == 10  # a >= b on a symmetric 4x4 grid


def test_scan_empty():
    assert scan((0.0, 1.0), (0.0, 1.0), 0) == []


def test_scan_resolution_cap():
    with pytest.raises(ValueError):
        scan((0.0, 1.0), (0.0, 1.0), 4096)


def test_scan_records_per_cell_errors(monkeypatch):
    # a cell failing with a domain error is marked and the scan continues
    import pwlin.scanner as scanner_mod
    from pwlin.errors import DomainError

    original = scanner_mod._decide

    def flaky(params, est, stats, config):
        if params == Params(0.0, 0.0):
            raise DomainError("synthetic cell failure")
        return original(params, est, stats, config)

    monkeypatch.setattr(scanner_mod, "_decide", flaky)
    records = scanner_mod.scan((0.0, 1.0), (0.0, 1.0), 2, budget=1500)
    assert len(records) == 4
    failed = [r for r in records if r.error is not None]
    assert len(failed) == 1
    assert failed[0].verdict is Verdict.UNDETERMINED
    assert "synthetic" in failed[0].error


def test_scan_propagates_programming_errors(monkeypatch):
    # only domain and arithmetic errors become cell markers; a bug raises
    import pwlin.scanner as scanner_mod

    def broken(params, est, stats, config):
        raise RuntimeError("synthetic bug")

    monkeypatch.setattr(scanner_mod, "_decide", broken)
    with pytest.raises(RuntimeError, match="synthetic bug"):
        scanner_mod.scan((0.0, 1.0), (0.0, 1.0), 2, budget=1500)


def _classify_cell(params, budget, config):
    """Per-cell reference: scalar classify with scan's error marker."""
    try:
        return classify(params, budget, config).to_dict()
    except (PwlinError, ArithmeticError) as exc:
        est = RotationEstimate(math.nan, budget, 1.0 / budget)
        return ClassRecord(params, est, Verdict.UNDETERMINED,
                           error=str(exc)).to_dict()


def _same_float(x, y):
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return math.isclose(x, y, rel_tol=1e-12)


def _assert_matches_classify(records, budget, config=ScanConfig()):
    for rec in records:
        got = rec.to_dict()
        want = _classify_cell(rec.params, budget, config)
        assert got.keys() == want.keys()
        for key, value in want.items():
            if isinstance(value, float):
                assert _same_float(got[key], value), (rec.params, key)
            else:
                assert got[key] == value, (rec.params, key)


@pytest.mark.parametrize("grid, budget, half_plane, config", [
    (((1.0, 1.1), (1.0, 1.1), 2), 5000, False, ScanConfig()),
    (((0.0, 1.0), (0.0, 1.0), 4), 2000, False, ScanConfig()),
    (((0.0, 1.0), (0.0, 1.0), 4), 2000, True, ScanConfig()),
    (((-1.2, 1.2), (-1.2, 1.2), 3), 4000, False, ScanConfig()),
    (((-2.5, 2.5), (-2.5, 2.5), 9), 2000, False, ScanConfig()),
    (((-2.5, 2.5), (-2.5, 2.5), 9), 2000, True, ScanConfig()),
    # no cap: norm runs end at the first overflow, as infinities
    (((-3.0, 3.0), (-3.0, 3.0), 5), 2000, False,
     ScanConfig(divergence_ratio=math.inf)),
    # a cap below the starting norm ends every norm run after one step
    (((-3.0, 3.0), (-3.0, 3.0), 3), 2000, False,
     ScanConfig(divergence_ratio=0.5)),
])
def test_scan_matches_per_cell_classify(grid, budget, half_plane, config):
    records = scan(*grid, budget=budget, half_plane=half_plane, config=config)
    _assert_matches_classify(records, budget, config)


def test_equivalence_grid_covers_all_verdicts():
    records = scan((-2.5, 2.5), (-2.5, 2.5), 9, budget=2000)
    assert {r.verdict for r in records} == set(Verdict)


@pytest.mark.parametrize("a_range, b_range, resolution", [
    ((0.0, 1e-300), (-1.0, 0.0), 2),  # a = b = 0 and a = 1e-300
    ((-1.0, 1e200), (-1.0, 1e200), 2),  # batched cells beside 1e200 ones
    ((1e100, 1e110), (-2.0, 2.0), 2),  # slopes that shorten the chunks
    ((math.inf, math.inf), (-1.0, -1.0), 1),
    ((math.nan, math.nan), (-1.0, -1.0), 1),
])
def test_scan_edge_cells_match_classify(a_range, b_range, resolution):
    records = scan(a_range, b_range, resolution, budget=2000)
    _assert_matches_classify(records, 2000)


def test_edge_cells_typed_errors():
    from pwlin.errors import DomainError, OrbitOverflowError

    with pytest.raises(OrbitOverflowError):
        classify(Params(1e200, -1.0), budget=2000)
    (rec,) = scan((1e200, 1e200), (-1.0, -1.0), 1, budget=2000)
    assert rec.verdict is Verdict.UNDETERMINED
    assert "rotation estimate is not finite" in rec.error
    for bad in (math.inf, math.nan):
        with pytest.raises(DomainError):
            classify(Params(bad, -1.0), budget=2000)
        (rec,) = scan((bad, bad), (-1.0, -1.0), 1, budget=2000)
        assert rec.verdict is Verdict.UNDETERMINED
        assert "slopes must be finite" in rec.error


def test_scan_budget_below_floor_skips_kernel(monkeypatch):
    import pwlin.scanner as scanner_mod

    def no_kernel(*args):
        raise AssertionError("kernel ran below the budget floor")

    monkeypatch.setattr(scanner_mod, "_orbit_stats", no_kernel)
    records = scanner_mod.scan((0.0, 1.0), (0.0, 1.0), 3, budget=10)
    assert len(records) == 9
    assert all(r.verdict is Verdict.UNDETERMINED for r in records)
    assert all(r.error == "budget must be at least 1000" for r in records)


def test_scan_swap_symmetry():
    # verdicts are invariant under (a, b) -> (b, a)
    records = scan((-1.2, 1.2), (-1.2, 1.2), 3, budget=4000)
    by_params = {(round(r.params.a, 9), round(r.params.b, 9)): r.verdict
                 for r in records}
    for (a, b), verdict in by_params.items():
        assert by_params[(b, a)] == verdict


def _reference_orbit_csv(params, start, n, path):
    """The orbit CSV emitter before it formatted each value once."""
    import mpmath

    def fmt17(v):
        return f"{v:.17g}" if isinstance(v, float) else mpmath.nstr(v, 17)

    orbit, _ = iterate(params, start, n)
    lines = ["n,x,y"]
    lines.extend(f"{i},{fmt17(x)},{fmt17(y)}" for i, (x, y) in enumerate(orbit))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("prec", [None, 113, 200])
@pytest.mark.parametrize("slopes, start, n", [
    ((1.189207115002721, -1.189207115002721), (0.0, 1.0), 4000),
    ((1.2, -0.5), (0.3, 0.4), 5),
    ((0.7, -1.9), (-2.5, 1e-7), 0),
    ((1.2, -1.3), (0.0, -1.0), -40),  # backward rows
])
def test_orbit_csv_matches_per_value_emitter(tmp_path, prec, slopes, start, n):
    mpmath = pytest.importorskip("mpmath")
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    with mpmath.workprec(prec or mpmath.mp.prec):
        conv = float if prec is None else mpmath.mpf
        params = Params(*map(conv, slopes))
        p0 = tuple(map(conv, start))
        emit_orbit_csv(params, p0, n, got)
        _reference_orbit_csv(params, p0, n, want)
    assert got.read_bytes() == want.read_bytes()
    assert len(got.read_text().splitlines()) == abs(n) + 2


def test_orbit_csv_row_count(tmp_path):
    path = tmp_path / "orbit.csv"
    emit_orbit_csv(Params(1.2, -0.5), (0.3, 0.4), 5, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "n,x,y"
    assert len(lines) == 7  # header + 6 points


def test_orbit_csv_zero_steps(tmp_path):
    path = tmp_path / "orbit.csv"
    emit_orbit_csv(Params(1.2, -0.5), (0.25, -1.5), 0, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1] == "0,0.25,-1.5"


def test_orbit_csv_round_trip(tmp_path):
    params = Params(1.7, -0.9)
    path = tmp_path / "orbit.csv"
    emit_orbit_csv(params, (0.123456, -0.654321), 50, path)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    x0, y0 = float(rows[0][1]), float(rows[0][2])
    orbit, _ = iterate(params, (x0, y0), 50)
    for (xs, ys), (_, x, y) in zip(orbit, rows):
        assert abs(xs - float(x)) <= 1e-15 * max(1.0, abs(xs))
        assert abs(ys - float(y)) <= 1e-15 * max(1.0, abs(ys))


def test_csv_no_trailing_whitespace(tmp_path):
    path = tmp_path / "orbit.csv"
    emit_orbit_csv(Params(0.5, 0.5), (1.0, 0.0), 3, path)
    raw = path.read_text()
    assert "\r" not in raw
    for line in raw.splitlines():
        assert line == line.rstrip()


def test_emit_csv_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_orbit_csv(Params(1.9, -0.2), (0.0, 1.0), 200, p1)
    emit_orbit_csv(Params(1.9, -0.2), (0.0, 1.0), 200, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_emit_svg_basic(tmp_path):
    path = tmp_path / "plot.svg"
    emit_svg(PlotSpec(Params(0.2, -0.7), (0.0, 1.0), 2000, str(path)))
    text = path.read_text()
    assert text.startswith("<svg ")
    assert text.rstrip().endswith("</svg>")
    assert text.count("<circle") > 1000
    assert "<line" in text  # axes


def test_emit_svg_empty_orbit(tmp_path):
    path = tmp_path / "empty.svg"
    emit_svg(PlotSpec(Params(0.2, -0.7), (0.0, 1.0), 0, str(path)))
    text = path.read_text()
    assert text.startswith("<svg ")
    assert "<line" in text


def test_emit_svg_divergent_orbit(tmp_path):
    # overflow is expected: the finite prefix is drawn
    path = tmp_path / "divergent.svg"
    emit_svg(PlotSpec(Params(3.0, 3.0), (1.0, 0.0), 100_000, str(path)))
    assert path.read_text().rstrip().endswith("</svg>")


def test_emit_svg_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    spec = dict(params=Params(1.4, -1.4), start=(0.0, 1.0), n=3000)
    emit_svg(PlotSpec(path=str(p1), **spec))
    emit_svg(PlotSpec(path=str(p2), **spec))
    assert p1.read_bytes() == p2.read_bytes()


def test_emit_svg_overlay_near_orbit(tmp_path):
    """For a certified circle the orbit cloud lies on the overlay
    polyline to 1e-6, and the overlay tracks the cloud at the cloud's
    own density."""
    import numpy as np

    from pwlin import build_invariant_circle, circle_to_polyline, orbit_relation

    a = 2.0 ** 0.25
    params = Params(a, -a)
    circle = build_invariant_circle(params, orbit_relation(params))
    poly = circle_to_polyline(circle, samples_per_arc=2048)
    orbit, _ = iterate(params, (0.0, 1.0), 20_000)
    pts = np.asarray(orbit[:: 20])
    seg_a = np.asarray(poly)
    seg_b = np.roll(seg_a, -1, axis=0)
    d = seg_b - seg_a
    len2 = np.maximum((d ** 2).sum(axis=1), 1e-300)
    rel = pts[:, None, :] - seg_a[None, :, :]
    t = np.clip((rel * d[None, :, :]).sum(axis=2) / len2, 0.0, 1.0)
    foot = seg_a[None, :, :] + t[:, :, None] * d[None, :, :]
    dist = np.sqrt(((pts[:, None, :] - foot) ** 2).sum(axis=2)).min(axis=1)
    scale = np.maximum(1.0, np.hypot(pts[:, 0], pts[:, 1]))
    assert np.all(dist <= 1e-6 * scale)
    # coarse reverse direction: overlay vertices near the orbit cloud
    cloud = np.asarray(orbit)
    for q in seg_a[:: 128]:
        assert np.min(np.hypot(cloud[:, 0] - q[0],
                               cloud[:, 1] - q[1])) <= 1e-2
    path = tmp_path / "overlay.svg"
    emit_svg(PlotSpec(params, (0.0, 1.0), 5000, str(path),
                      overlay=[tuple(p) for p in poly]))
    assert "<polyline" in path.read_text()


def test_plotspec_iteration_cap():
    with pytest.raises(ValueError):
        PlotSpec(Params(0.0, 0.0), (1.0, 0.0), 10_000_001, "x.svg")


def test_record_json_schema():
    rec = classify(Params(1.0, 1.0), budget=5000)
    d = rec.to_dict()
    assert d["schema_version"] == "v1"
    assert d["verdict"] == "periodic_candidate"
    assert d["rotation_snap_p"] == 1 and d["rotation_snap_q"] == 6
    assert isinstance(d["norm_growth"], float)
