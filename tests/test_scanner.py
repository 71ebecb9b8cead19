"""Parameter classification, grid scans, CSV/SVG emitters."""
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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

from pwlin.errors import ArgumentError, OrbitOverflowError, PwlinError
from pwlin.scanner import MIN_BUDGET

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


def test_scan_raises_argument_errors():
    # a bad config is the caller's error, not a per-cell marker
    from pwlin.errors import ArgumentError

    with pytest.raises(ArgumentError, match="q_max must be >= 1"):
        scan((0.0, 1.0), (0.0, 1.0), 2, budget=1500,
             config=ScanConfig(periodic_q_max=0))


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
        est = RotationEstimate(math.nan, budget)
        return ClassRecord(params, est, Verdict.UNDETERMINED,
                           error=str(exc)).to_dict()


def _same_float(x, y):
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return math.isclose(x, y, rel_tol=1e-12)


#: Record fields that scan and classify reduce with the same method.
_NORM_FIELDS = ("norm_growth", "near_return_residual", "radius_ratio")


def _assert_matches_classify(records, budget, config=ScanConfig()):
    for rec in records:
        got = rec.to_dict()
        want = _classify_cell(rec.params, budget, config)
        assert got.keys() == want.keys()
        for key, value in want.items():
            if key in _NORM_FIELDS and value is not None:
                assert _identical(got[key], value), (rec.params, key)
            elif isinstance(value, float):
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
    from pwlin.errors import DomainError

    # a steep slope gives a verdict: its rotation estimate used to
    # overflow to nan and raise
    rec = classify(Params(1e200, -1.0), budget=2000)
    assert rec.error is None and math.isfinite(rec.rotation.value)
    assert scan((1e200, 1e200), (-1.0, -1.0), 1, budget=2000) == [rec]
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


@pytest.mark.parametrize("budget", [0, -3])
def test_scan_budget_below_one_is_an_argument_error(monkeypatch, budget):
    import pwlin.scanner as scanner_mod

    monkeypatch.setattr(scanner_mod, "_failed_cell", None)  # never reached
    with pytest.raises(ArgumentError, match="budget must be >= 1"):
        scanner_mod.scan((0.0, 1.0), (0.0, 1.0), 3, budget=budget)


@pytest.mark.parametrize("budget", [1, MIN_BUDGET - 1])
def test_scan_budget_from_one_marks_every_cell(budget):
    records = scan((0.0, 1.0), (0.0, 1.0), 2, budget=budget)
    assert len(records) == 4
    assert all(r.verdict is Verdict.UNDETERMINED for r in records)
    assert all(r.rotation.error_bound == 1.0 / budget for r in records)


def test_scan_swap_symmetry():
    # verdicts are invariant under (a, b) -> (b, a)
    records = scan((-1.2, 1.2), (-1.2, 1.2), 3, budget=4000)
    by_params = {(round(r.params.a, 9), round(r.params.b, 9)): r.verdict
                 for r in records}
    for (a, b), verdict in by_params.items():
        assert by_params[(b, a)] == verdict


def _reference_orbit_stats(cells, budget, cap, chunk_cap=64):
    """The batched kernel as it was before per-lane thresholds: norms
    scaled element by element, masked reductions over every chunk.  The
    rotation value is the winding identity, its turns counted step by
    step in the loop."""
    import numpy as np

    from pwlin.core import OVERFLOW_LIMIT, rescale_chunk
    from pwlin.scanner import _NormStats

    n = len(cells)
    a = np.array([c.a for c in cells], dtype=float)
    b = np.array([c.b for c in cells], dtype=float)
    slope_a, slope_b = np.tile(a, 2), np.tile(b, 2)
    chunk = rescale_chunk((np.abs(a).max(), np.abs(b).max()), chunk_cap)

    buf = np.empty((chunk + 1, 2 * n))
    rows = list(buf)
    buf[0] = np.repeat([1.0, 0.0], n)
    y = np.repeat([0.0, 1.0], n)
    expo = np.zeros(2 * n, dtype=np.int64)
    nonneg = np.empty(2 * n, dtype=bool)

    turns = np.zeros(n, dtype=np.int64)

    mx, mn, near = np.ones(2 * n), np.ones(2 * n), np.full(2 * n, math.inf)
    live = np.ones(2 * n, dtype=bool)
    lanes = np.arange(2 * n)

    done = 0
    while done < budget:
        m = min(chunk, budget - done)
        x = buf[0]
        for row in rows[1:m + 1]:
            np.greater_equal(x, 0.0, out=nonneg)
            turns += ~nonneg[:n] & (y[:n] >= 0.0)  # a step from x < 0 <= y
            np.multiply(np.where(nonneg, slope_a, slope_b), x, out=row)
            np.subtract(row, y, out=row)
            x, y = row, x
        xs, ys = buf[1:m + 1], buf[:m]

        if live.any():
            with np.errstate(over="ignore"):
                h = np.hypot(xs, ys)
                r = np.ldexp(h, expo)
                escaped = np.ldexp(np.abs(xs), expo) > OVERFLOW_LIMIT
            stop = escaped | (r > cap)
            hit = live & stop.any(axis=0)
            first = stop.argmax(axis=0)
            overflow = hit & escaped[first, lanes]
            upto = np.where(hit, first + 1 - overflow, m)
            seen = live & (np.arange(m)[:, None] < upto)
            mx = np.maximum(mx, np.where(seen, r, -math.inf).max(axis=0))
            mx[overflow] = math.inf
            mn = np.minimum(mn, np.where(seen, r, math.inf).min(axis=0))
            near = np.minimum(near, np.where(seen, np.abs(xs) / h,
                                             math.inf).min(axis=0))
            live &= ~hit

        _, e = np.frexp(np.maximum(np.abs(x), np.abs(y)))
        y = np.ldexp(y, -e)
        buf[0] = np.ldexp(x, -e)
        expo += e
        done += m

    values = [(int(w) + (math.atan2(v + 0.0, u) - math.atan2(0.0, 1.0))
               / (2 * math.pi))
              / budget for w, u, v in zip(turns, buf[0, :n], y[:n])]
    mx, mn, near = mx.tolist(), mn.tolist(), near.tolist()
    return [(RotationEstimate(values[i], budget),
             _NormStats(mx[n + i], mn[n + i], near[n + i], mx[i]))
            for i in range(n)]


def _identical(x, y):
    """Exact float equality that counts nan as equal to nan."""
    return x == y or (math.isnan(x) and math.isnan(y))


def _assert_kernel_matches_reference(cells, budget, cap):
    import pwlin.scanner as scanner_mod

    got = scanner_mod._orbit_stats(cells, budget, cap)
    want = _reference_orbit_stats(cells, budget, cap)
    assert len(got) == len(want) == len(cells)
    for params, (est, stats), (est0, stats0) in zip(cells, got, want):
        assert (est.steps, est.error_bound) == (est0.steps, est0.error_bound)
        assert _identical(est.value, est0.value), params
        for field, v, v0 in zip(stats._fields, stats, stats0):
            assert _identical(v, v0), (params, field)


def _batched_cells(a_range, b_range, resolution, half_plane=False):
    """The cells of a scan grid that the batched kernel walks."""
    import pwlin.scanner as scanner_mod
    from pwlin.core import rescale_chunk

    cells = []
    for i in range(resolution):
        a = scanner_mod._grid_value(a_range, i, resolution)
        for j in range(resolution):
            b = scanner_mod._grid_value(b_range, j, resolution)
            if not (half_plane and a < b):
                cells.append(Params(a, b))
    return [c for c in cells
            if rescale_chunk((c.a, c.b), scanner_mod._CHUNK)]


_KERNEL_GRIDS = [
    # the equivalence grids
    (((1.0, 1.1), (1.0, 1.1), 2), 5000, False, 1e6),
    (((0.0, 1.0), (0.0, 1.0), 4), 2000, False, 1e6),
    (((0.0, 1.0), (0.0, 1.0), 4), 2000, True, 1e6),
    (((-1.2, 1.2), (-1.2, 1.2), 3), 4000, False, 1e6),
    (((-2.5, 2.5), (-2.5, 2.5), 9), 2000, False, 1e6),
    (((-2.5, 2.5), (-2.5, 2.5), 9), 2000, True, 1e6),
    (((-3.0, 3.0), (-3.0, 3.0), 5), 2000, False, math.inf),
    (((-3.0, 3.0), (-3.0, 3.0), 3), 2000, False, 0.5),
    # the edge grids that have batched cells
    (((0.0, 1e-300), (-1.0, 0.0), 2), 2000, False, 1e6),
    (((-1.0, 1e200), (-1.0, 1e200), 2), 2000, False, 1e6),
    (((1e100, 1e110), (-2.0, 2.0), 2), 2000, False, 1e6),
    # a wider grid without a cap and with a cap below the start
    (((-4.0, 4.0), (-4.0, 4.0), 12), 3000, False, math.inf),
    (((-4.0, 4.0), (-4.0, 4.0), 6), 1500, False, 0.5),
    # a < b on every cell: every lane walks the negated frame
    (((-2.5, 0.5), (0.6, 2.5), 5), 2000, False, 1e6),
]


@pytest.mark.parametrize("grid, budget, half_plane, cap", _KERNEL_GRIDS)
def test_kernel_matches_reference_kernel(grid, budget, half_plane, cap):
    cells = _batched_cells(*grid, half_plane)
    assert cells
    _assert_kernel_matches_reference(cells, budget, cap)


_WINDING_CELLS = [
    Params(1.2, -1.3), Params(0.2, -0.7), Params(1.0, 1.0),
    Params(C_SPECIAL, -C_SPECIAL),
    # divergent: the unrescaled float orbit of (1, 0) overflows
    Params(2.5, 2.5), Params(-2.4, -3.0),
    # zero slopes put signed zeros on the orbit; a -0.0 slope puts a
    # (x < 0, -0.0) point there, the last one when the budget is 2 mod 4
    Params(0.0, 0.0), Params(0.0, -1.0), Params(-1.0, 0.0), Params(0.0, 1.5),
    Params(-0.0, 0.0), Params(-0.0, -1.3),
]


@pytest.mark.parametrize("budget", [1000, 1002, 1003, 2000])
def test_kernel_rotation_matches_mpf_rotation_number(budget):
    """The kernel's rotation value against ``rotation_number`` on 53-bit
    mpf inputs: their steps round as the float steps do, without
    overflow or negative zeros.  A turn counted wrong would be 1/N off."""
    import mpmath

    import pwlin.scanner as scanner_mod
    from pwlin import rotation_number

    got = scanner_mod._orbit_stats(_WINDING_CELLS, budget, 1e6)
    with mpmath.workprec(53):
        mpf = mpmath.mpf
        for params, (est, _) in zip(_WINDING_CELLS, got):
            want = rotation_number(Params(mpf(params.a), mpf(params.b)),
                                   (mpf(1), mpf(0)), budget).value
            assert math.isclose(est.value, float(want), rel_tol=1e-14), params


_KERNEL_SLOPES = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, -0.0]))


@st.composite
def _kernel_cells(draw):
    """1 to 6 cells, each drawn as is, with a < b, or with a == b."""
    cells = []
    for _ in range(draw(st.integers(1, 6))):
        a, b = draw(_KERNEL_SLOPES), draw(_KERNEL_SLOPES)
        kind = draw(st.sampled_from(["drawn", "a < b", "a == b"]))
        if kind == "a < b":
            a, b = min(a, b), max(a, b)
        elif kind == "a == b":
            b = a
        cells.append(Params(a, b))
    return cells


@example(cells=[Params(-1.3, 1.2), Params(0.7, 0.7), Params(0.0, -1.2),
                Params(-0.0, 0.0), Params(0.0, 1.5), Params(-2.0, -0.0)],
         budget=398)
@settings(max_examples=300)
@given(cells=_kernel_cells(), budget=st.integers(2, 400))
def test_kernel_sign_folded_frame_matches_reference(cells, budget):
    """The kernel steps z = c * x (c = -1 where a < b) by max(a*z, b*z);
    the reference kernel steps x itself, so any bit that the frame
    changes shows here."""
    _assert_kernel_matches_reference(cells, budget, 1e6)


def _first_stop(params, start, cap, budget):
    """Step at which a norm run from ``start`` stops, and why."""
    from pwlin.core import OVERFLOW_LIMIT

    x, y = start
    for k in range(1, budget + 1):
        x, y = (params.a if x >= 0 else params.b) * x - y, x
        if abs(x) > OVERFLOW_LIMIT:
            return k, "overflow"
        if math.hypot(x, y) > cap:
            return k, "cap"
    return None


def _cap_stopping_at(params, start, k):
    """A cap between the running max before step ``k`` and the norm at
    step ``k``, so that the norm run from ``start`` stops there."""
    orbit, _ = iterate(params, start, k)
    norms = [math.hypot(*p) for p in orbit]
    below, at = max(norms[:k]), norms[k]
    assert at > below * (1 + 1e-6)
    return math.sqrt(below * at)


_OTHER_CELLS = [Params(1.2, -1.3), Params(2.05, 2.05), Params(0.0, 0.0),
                Params(-2.5, 2.5)]


@pytest.mark.parametrize("start", [(0.0, 1.0), (1.0, 0.0)])
@pytest.mark.parametrize("k", [128, 129, 256, 257])
def test_kernel_cap_stop_on_chunk_edge(start, k):
    # the kernel's chunks are 128 rows here: step 128 is a chunk's last
    # row and step 129 the next chunk's first
    import pwlin.scanner as scanner_mod
    from pwlin.core import rescale_chunk

    target = Params(2.1, 2.1)
    cells = [target, *_OTHER_CELLS]
    assert rescale_chunk((2.5, 2.5), scanner_mod._CHUNK) == 128
    cap = _cap_stopping_at(target, start, k)
    assert _first_stop(target, start, cap, 1000) == (k, "cap")
    _assert_kernel_matches_reference(cells, 1000, cap)


@pytest.mark.parametrize("t, start, k", [
    (2.3695, (1.0, 0.0), 1153),
    (2.3705, (0.0, 1.0), 1153),
    (2.3705, (1.0, 0.0), 1152),
    (2.371, (0.0, 1.0), 1152),
])
def test_kernel_overflow_stop_on_chunk_edge(t, start, k):
    target = Params(t, t)
    assert _first_stop(target, start, math.inf, 2000) == (k, "overflow")
    _assert_kernel_matches_reference([target, *_OTHER_CELLS], 2000, math.inf)


@pytest.mark.parametrize("cell, budget", [
    # the norm passes OVERFLOW_LIMIT on a chunk's last row (step 2560),
    # |x| on the next chunk's first
    (Params(2.0731, 2.0731), 3000),
    # the overflow row has the least |x| / h of the (0, 1) run
    (Params(-1.5075474858940918, 6.596467910093487), 1000),
])
def test_kernel_overflow_lanes(cell, budget):
    assert _first_stop(cell, (0.0, 1.0), math.inf, budget)[1] == "overflow"
    _assert_kernel_matches_reference([cell, *_OTHER_CELLS], budget, math.inf)


def test_multi_block_scan_matches_reference_kernel(monkeypatch):
    import pwlin.scanner as scanner_mod

    grid = ((-2.5, 2.5), (-2.5, 2.5), 9)
    monkeypatch.setattr(scanner_mod, "_BLOCK", 7)
    blocked = [r.to_dict() for r in scan(*grid, budget=2000)]
    monkeypatch.setattr(scanner_mod, "_BLOCK", 10_000)
    monkeypatch.setattr(scanner_mod, "_orbit_stats", _reference_orbit_stats)
    whole = [r.to_dict() for r in scan(*grid, budget=2000)]
    assert len(blocked) == len(whole) == 81
    for got, want in zip(blocked, whole):
        assert got.keys() == want.keys()
        for key, value in want.items():
            if isinstance(value, float):
                assert _identical(got[key], value), (want["a"], want["b"], key)
            else:
                assert got[key] == value


_STEEP_SLOPES = st.sampled_from([2.0 ** 399, -2.0 ** 399, 1e20, 1e150,
                                 1e300, math.inf, -math.inf, math.nan])


@given(a=st.one_of(st.floats(-2.5, 2.5), st.floats(-60.0, 60.0),
                   _STEEP_SLOPES),
       b=st.one_of(st.floats(-2.5, 2.5), _STEEP_SLOPES),
       q=st.integers(1, 256))
def test_period_matrix_residual_matches_oracle(a, b, q):
    """The word from ``iterate`` gives the oracle's residual whenever the
    orbit of (1, 0) stays within OVERFLOW_LIMIT.  When it escapes, the
    residual is inf; the renormalized oracle's cocycle then overflows
    to nan or exceeds 1e290, so no period verdict changes."""
    import numpy as np

    from pwlin.errors import DomainError, OrbitOverflowError
    from pwlin.scanner import _period_matrix_residual

    from oracles import period_matrix_residual

    params = Params(a, b)
    if not (math.isfinite(a) and math.isfinite(b)):
        # iterate refuses the slopes (classify refuses them first)
        with pytest.raises(DomainError, match="slopes must be finite"):
            _period_matrix_residual(params, q)
        return
    with np.errstate(over="ignore", invalid="ignore"):
        got = _period_matrix_residual(params, q)
        want = period_matrix_residual(params, q)
    try:
        iterate(params, (1.0, 0.0), q)
    except OrbitOverflowError:
        assert got == math.inf
        assert not want <= 1e290
    else:
        assert got == want or (math.isnan(got) and math.isnan(want))


def _within_ulps(x, y, n=4):
    return x == y or (math.isfinite(x) and math.isfinite(y) and
                      abs(x - y) <= n * math.ulp(max(abs(x), abs(y))))


_HUGE_SLOPES = st.sampled_from([2.0 ** 399, 1e120, 1e200, 1e300, 1.5e308,
                                -2.0 ** 399, -1e200, -1.5e308])


@settings(max_examples=200)
@given(a=st.one_of(st.floats(-2.5, 2.5), _HUGE_SLOPES),
       b=st.one_of(st.floats(-2.5, 2.5), _HUGE_SLOPES),
       cap=st.sampled_from([0.5, 1e6, math.inf]))
def test_norm_runs_match_scalar_oracle(a, b, cap):
    # the walk_chain-fed norm runs against the per-step loop that
    # classify ran before; numpy's hypot may differ from math's by ulps
    from pwlin.scanner import norm_runs

    from oracles import norm_run

    params = Params(a, b)
    got = norm_runs(params, 700, cap)
    fwd_max, fwd_min, near = norm_run(params, True, 700, cap)
    bwd_max, _, _ = norm_run(params, False, 700, cap)
    for value in got:
        assert type(value) is float
    for field, v, v0 in zip(got._fields, got,
                            (fwd_max, fwd_min, near, bwd_max)):
        assert _within_ulps(v, v0), (field, v, v0)


def test_norm_runs_mpf_slopes_match_float():
    # mpf slopes are walked in the float chunks; at 53 bits mpf
    # arithmetic is double arithmetic, so the statistics are the same
    mpmath = pytest.importorskip("mpmath")
    from pwlin.scanner import norm_runs

    for a, b, cap in [(1.2, -1.3, 1e6), (2.3, 2.3, math.inf),
                      (0.4, -2.1, 0.5), (-1.5, 2.5, 1e6)]:
        want = norm_runs(Params(a, b), 5000, cap)
        with mpmath.workprec(53):
            got = norm_runs(Params(mpmath.mpf(a), mpmath.mpf(b)), 5000, cap)
        assert got == want, (a, b, cap)


def _brute_fold(runs, chain, expo):
    """What ``runs.fold(chain, expo)`` must leave: the running
    statistics combined with every point's norm ratio and proximity from
    ``np.hypot``, each live lane cut at its stop as the kernel cuts it."""
    import numpy as np

    from pwlin.core import OVERFLOW_LIMIT

    x, y = chain[1:], chain[:-1]
    m, lanes = x.shape
    n = lanes // 2
    with np.errstate(over="ignore"):
        h = np.hypot(x, y)
        r = np.ldexp(h, expo)
        escaped = np.ldexp(np.abs(x), expo) > OVERFLOW_LIMIT
    stop = escaped | (r > runs.cap)
    hit = runs.live & stop.any(axis=0)
    first = stop.argmax(axis=0)
    overflow = hit & escaped[first, np.arange(lanes)]
    upto = np.where(hit, first + 1 - overflow, m)
    seen = runs.live & (np.arange(m)[:, None] < upto)
    mx = np.maximum(runs.mx, np.where(seen, r, -math.inf).max(axis=0))
    mx[overflow] = math.inf
    mn = np.minimum(runs.mn, np.where(seen, r, math.inf).min(axis=0)[n:])
    near = np.minimum(runs.near, np.where(seen, np.abs(x) / h,
                                          math.inf).min(axis=0)[n:])
    return mx, mn, near, runs.live & ~hit


@st.composite
def _running_stats(draw, chain):
    """A ``_NormRuns`` over the lanes of ``chain`` and per-lane
    exponents: running stats at (ties), above or below the chunk's own,
    the first chunk or a later one, some lanes stopped, and a cap at or
    above every live lane's max, as the kernel keeps it."""
    import numpy as np

    from pwlin.scanner import _NormRuns

    lanes = chain.shape[1]
    n = lanes // 2
    expo = np.array(draw(st.lists(st.integers(-600, 600), min_size=lanes,
                                  max_size=lanes)), dtype=np.int64)
    x, y = chain[1:], chain[:-1]
    h = np.hypot(x, y)
    ratios = np.ldexp(h, expo)
    prox = np.abs(x) / h
    runs = _NormRuns(n, chain.shape[0] - 1, math.inf)
    runs.fresh = draw(st.booleans())
    for j in range(lanes):
        ties = [v for v in ratios[:, j].tolist() if math.isfinite(v)] + [1.0]
        runs.mx[j] = draw(st.one_of(st.sampled_from(ties),
                                    st.floats(1.0, 1e12)))
        runs.live[j] = draw(st.booleans())
        if j >= n:
            runs.mn[j - n] = draw(st.one_of(st.sampled_from(ties),
                                            st.floats(1e-12, 1.0)))
            runs.near[j - n] = draw(st.one_of(
                st.sampled_from(prox[:, j].tolist() + [0.0, math.inf]),
                st.floats(0.0, 1.0)))
    top = max(runs.mx[runs.live].tolist(), default=1.0)
    runs.cap = draw(st.one_of(
        st.just(math.inf),
        st.sampled_from([v for v in ratios.ravel().tolist() if v >= top]
                        + [top]),
        st.floats(1.0, 2.0 ** 20).map(lambda u: top * u)))
    return runs, expo


def _assert_fold_exact(chain, data):
    import numpy as np

    runs, expo = data.draw(_running_stats(chain))
    want = _brute_fold(runs, chain, expo)
    runs.fold(chain, expo)
    for field, got, value in zip(("mx", "mn", "near", "live"),
                                 (runs.mx, runs.mn, runs.near, runs.live),
                                 want):
        assert np.array_equal(got, value), field


@settings(max_examples=200)
@given(st.data())
def test_fold_ties_and_near_axis(data):
    import numpy as np

    # point k is (chain[k + 1], chain[k]); by column: equal norms and an
    # exact zero; signed zeros; |x| / h far below the square root of the
    # smallest normal; the scale limits; one point repeated; subnormal
    # x*x where the smaller |x| / h (point 0) has the larger x*x / s
    # (point 2).  Reversed, each column is a forward and a backward lane.
    chain = np.array([
        [4.0, 5.0, 1.0, 2.0 ** -401, 1.0, 1.0],
        [3.0, 0.0, 1e-300, 2.0 ** -401, 1.0, 6.547207907092882e-161],
        [-4.0, 5.0, 2.0, 2.0 ** 401, 1.0, 1.68259525107728],
        [3.0, -0.0, 1e-200, -(2.0 ** 401), 1.0, 1.1016416011082776e-160],
        [4.0, -5.0, 0.5, 1.0, 1.0, 0.3],
        [0.0, -0.0, -1e-250, 2.0 ** -300, 1.0, 0.2],
        [5.0, 3.0, 1.5, -(2.0 ** 200), 1.0, 3.0],
        [-3.0, 4.0, 1e-170, 2.0 ** 200, 1.0, 3.0],
    ])
    x, y = chain[1:, 5], chain[:-1, 5]
    q = x ** 2 / (x ** 2 + y ** 2)
    assert q[0] > q[2] and x[0] / y[0] < x[2] / y[2]
    _assert_fold_exact(chain, data)
    _assert_fold_exact(chain[:, ::-1].copy(), data)


_COMPONENTS = st.one_of(
    st.floats(-2.0 ** 40, 2.0 ** 40, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1e-300, -1e-200, 1e-160, 2.0 ** -401,
                     3.0, -4.0, 5.0, 2.0 ** 401]),
)


@settings(max_examples=300)
@given(st.integers(1, 12), st.integers(1, 3), st.data())
def test_fold_matches_hypot_everywhere(m, n, data):
    import numpy as np

    values = data.draw(st.lists(_COMPONENTS, min_size=(m + 1) * 2 * n,
                                max_size=(m + 1) * 2 * n))
    chain = np.array(values).reshape(m + 1, 2 * n)
    # the kernel's chunks keep max(|x|, |y|) in [2**-401, 2**401]
    for k in range(m):
        small = np.maximum(np.abs(chain[k]), np.abs(chain[k + 1]))
        chain[k][small < 2.0 ** -401] = 1.0
    _assert_fold_exact(chain, data)


def test_norm_runs_norm_above_half_the_limit_does_not_stop():
    # (0, 1) -> (-1, 0) -> (-1e300, -1): a norm above OVERFLOW_LIMIT / 2,
    # a candidate of the fold, with |x| at the limit and not above it,
    # so the run goes on; the next step overflows
    from pwlin.scanner import norm_runs

    from oracles import norm_run

    params = Params(0.0, 1e300)
    got = norm_runs(params, 700, math.inf)
    assert got.fwd_max == math.inf
    assert got == (*norm_run(params, True, 700, math.inf),
                   norm_run(params, False, 700, math.inf)[0])


def test_fold_overflow_below_the_running_max_stops_the_run():
    # cap = inf and a running max of hypot(1e300, 1e300); then |x| passes
    # OVERFLOW_LIMIT at a smaller norm, which only the overflow rule
    # makes a candidate: the run stops there, uncounted, with max inf
    import numpy as np

    from pwlin.scanner import _NormRuns

    runs = _NormRuns(1, 2, math.inf)
    runs.fresh = False
    runs.mx[:] = math.hypot(1e300, 1e300)
    expo = np.full(2, 1000, dtype=np.int64)
    chain = np.ldexp(np.array([[1e299] * 2, [1.1e300] * 2, [1e299] * 2]),
                     -1000)
    assert np.hypot(chain[1], chain[0]).max() < np.ldexp(runs.mx, -1000).min()
    want = _brute_fold(runs, chain, expo)
    runs.fold(chain, expo)
    assert runs.mx.tolist() == [math.inf, math.inf]
    assert runs.live.tolist() == [False, False]
    assert (runs.mn.tolist(), runs.near.tolist()) == ([1.0], [math.inf])
    for got, value in zip((runs.mx, runs.mn, runs.near, runs.live), want):
        assert np.array_equal(got, value)


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


def _orbit_inputs(prec, slopes, start):
    """Slopes and start as floats (``prec`` None), as mpf at ``prec``
    bits, or as mpf that the walker refuses: a context that rounds
    toward -inf ("floor"), or a start with 200 bits at 53 ("wide")."""
    mpmath = pytest.importorskip("mpmath")
    if prec is None:
        return Params(*slopes), start
    if prec == "floor":
        floor = mpmath.MPContext()
        floor._prec_rounding[1] = "f"
        return Params(*map(floor.mpf, slopes)), tuple(map(floor.mpf, start))
    if prec == "wide":
        with mpmath.workprec(200):
            p0 = tuple(mpmath.mpf(v) / 3 for v in start)
        return Params(*map(mpmath.mpf, slopes)), p0
    return Params(*map(mpmath.mpf, slopes)), tuple(map(mpmath.mpf, start))


def _csv_outcome(emit, params, p0, n, path):
    """The file an emitter writes, or the escape it raises having
    opened no file."""
    try:
        emit(params, p0, n, path)
    except OrbitOverflowError as exc:
        assert not path.exists()
        return "escaped", exc.index, str(exc)
    return "written", path.read_bytes()


@pytest.mark.parametrize("prec", [None, 113, 200, "floor", "wide"])
@pytest.mark.parametrize("slopes, start, n", [
    ((1.189207115002721, -1.189207115002721), (0.0, 1.0), 4000),
    ((1.2, -0.5), (0.3, 0.4), 5),
    ((0.7, -1.9), (-2.5, 1e-7), 0),
    ((1.2, -1.3), (0.0, -1.0), -40),  # backward rows
    ((3.0, -3.0), (0.0, 1.0), 1000),  # escapes after about 720 steps
    ((3.0, -3.0), (0.0, 1.0), -1000),
])
def test_orbit_csv_matches_per_value_emitter(tmp_path, prec, slopes, start, n):
    from pwlin.core import mpf_context

    mpmath = pytest.importorskip("mpmath")
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    with mpmath.workprec(prec if isinstance(prec, int) else 53):
        params, p0 = _orbit_inputs(prec, slopes, start)
        walked = mpf_context(params.a, params.b, *p0) is not None
        assert walked == isinstance(prec, int)
        outcome = _csv_outcome(emit_orbit_csv, params, p0, n, got)
        assert outcome == _csv_outcome(_reference_orbit_csv, params, p0, n,
                                       want)
    if slopes == (3.0, -3.0):
        assert outcome[0] == "escaped"
    else:
        assert len(got.read_text().splitlines()) == abs(n) + 2


def test_orbit_csv_writes_fractions_exactly(tmp_path):
    # a Fraction orbit is exact, so its cells are p/q, not 17 digits
    path = tmp_path / "orbit.csv"
    emit_orbit_csv(Params(Fraction(6, 5), Fraction(-55, 42)),
                   (Fraction(0), Fraction(1)), 4, path)
    assert path.read_text().splitlines() == [
        "n,x,y", "0,0,1", "1,-1,0", "2,55/42,-1", "3,18/7,55/42",
        "4,373/210,18/7"]


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
    circle = build_invariant_circle(params, orbit_relation(params),
                                    n_samples=2048)
    poly = circle_to_polyline(circle)
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
