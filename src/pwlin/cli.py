"""Command-line interface.

Exit codes: 0 on success, 1 on usage or domain errors, 2 on I/O errors.
Set PWLIN_PRECISION to a bit count (> 53) to run the orbit and rotation
subcommands through the extended-precision backend.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

from .builder import _residual_walk, build_invariant_circle, circle_to_polyline
from .circle import rotation_number, snap_rational
from .core import Params
from .errors import PwlinError
from .families import FamilyId, curve_find, verify_family
from .output import PlotSpec, _write_svg, emit_orbit_csv, emit_scan_csv
from .returnmap import Ray, Sector, commutator_residual, orbit_relation, return_map
from .scanner import scan


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors: stderr + exit 1
        print(f"error: {message}", file=sys.stderr)
        self.print_usage(sys.stderr)
        raise SystemExit(1)


def _precision_bits() -> int | None:
    raw = os.environ.get("PWLIN_PRECISION")
    if not raw:
        return None
    try:
        bits = int(raw)
    except ValueError:
        raise PwlinError(f"PWLIN_PRECISION must be an integer, got {raw!r}")
    if bits <= 53:
        return None
    return bits


@contextlib.contextmanager
def _mp_scope(params: Params, point):
    """Yield the inputs, as mpmath floats at PWLIN_PRECISION bits if set.

    The precision is scoped to the with block (``mpmath.workprec``), so
    the caller formats its output at that precision and the process's
    global mpmath precision is left as it was.
    """
    bits = _precision_bits()
    if bits is None:
        yield params, point
        return
    import mpmath

    with mpmath.workprec(bits):
        mpf = mpmath.mpf
        yield (Params(mpf(params.a), mpf(params.b)),
               (mpf(point[0]), mpf(point[1])))


def _cmd_orbit(ns) -> int:
    if ns.n < 0:  # the CSV rows are numbered forward
        raise PwlinError(f"-n must be at least 0, got {ns.n}")
    with _mp_scope(Params(ns.a, ns.b), (ns.x, ns.y)) as (params, start):
        emit_orbit_csv(params, start, ns.n, ns.out)
        print(f"wrote {ns.out}")
    return 0


def _cmd_rotation(ns) -> int:
    with _mp_scope(Params(ns.a, ns.b), (1.0, 0.0)) as (params, u0):
        est = rotation_number(params, u0, ns.N)
        snap = snap_rational(est, ns.q_max)
        print(f"rotation value: {est.value!r}")
        print(f"error bound:    {est.error_bound!r}")
        print(f"snap:           {snap if snap is not None else 'none'}")
    return 0


def _cmd_return_map(ns) -> int:
    params = Params(ns.a, ns.b)
    sector = Sector(Ray.at_angle(math.radians(ns.start_deg)),
                    Ray.at_angle(math.radians(ns.end_deg)))
    rmap = return_map(params, sector, budget=ns.budget)
    print(f"sector [{ns.start_deg} deg, {ns.end_deg} deg): "
          f"{len(rmap.pieces)} linear piece(s)")
    for i, piece in enumerate(rmap.pieces):
        m = piece.matrix
        print(f"piece {i}: word {piece.word} steps {piece.steps}")
        print(f"  matrix [[{m.m11!r}, {m.m12!r}], [{m.m21!r}, {m.m22!r}]]")
    if len(rmap.pieces) == 2:
        resid = commutator_residual(rmap.pieces[0].matrix,
                                    rmap.pieces[1].matrix)
        print(f"commutator residual: {resid!r}")
    return 0


def _cmd_circle(ns) -> int:
    if ns.orbit_len < 1:  # a residual over no orbit points proves nothing
        raise PwlinError(f"--orbit-len must be at least 1, got {ns.orbit_len}")
    params = Params(ns.a, ns.b)
    relation = orbit_relation(params, max_iter=ns.max_iter)
    if relation is None or relation.lam >= 0:
        raise PwlinError(
            "no orbit relation from (0,1) to (0,-1) found; this parameter "
            "pair is outside the certified-circle families")
    circle = build_invariant_circle(params, relation, n_samples=ns.samples)
    plot_n = min(ns.orbit_len, 20000)
    # one walk gives the residual report and the plotted orbit prefix
    max_res, _, (xs, ys) = _residual_walk(circle, ns.orbit_len, (0.0, 1.0),
                                          plot_n)
    poly = circle_to_polyline(circle)
    svg_path = ns.svg or "circle.svg"
    json_path = ns.json or "circle.json"
    _write_svg(PlotSpec(params, (0.0, 1.0), plot_n, svg_path, overlay=poly),
               xs, ys)
    payload = {
        "schema_version": "v1",
        "a": params.a,
        "b": params.b,
        "relation_n": circle.n,
        "arc_count": circle.sector_count,
        "conic_class": circle.conic_class.value,
        "max_gap": circle.max_gap,
        "build_residual": circle.max_residual,
        "orbit_residual": max_res,
        "levels": [arc.level for arc in circle.arcs],
    }
    with open(json_path, "w", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{circle.sector_count} {circle.conic_class.value} arcs; "
          f"orbit residual {max_res:.3e}")
    print(f"wrote {svg_path} and {json_path}")
    return 0


def _cmd_verify_example(ns) -> int:
    family = FamilyId(ns.family)
    report = verify_family(family, ns.a, winding_steps=ns.steps)
    print(f"family {report.family}  a={report.a!r}  b={report.b!r}")
    print(f"relation index: {report.relation_index}")
    print(f"regime: {report.regime}")
    if report.rotation_closed is not None:
        print(f"rotation closed form: {report.rotation_closed!r}")
    print(f"rotation winding ({report.winding_steps} steps): "
          f"{report.rotation_winding!r}")
    for check in report.checks:
        status = "ok " if check.passed else "FAIL"
        print(f"  [{status}] {check.name}: residual {check.residual:.3e}"
              + (f" ({check.detail})" if check.detail else ""))
    for note in report.notes:
        print(f"  note: {note}")
    if ns.json:
        with open(ns.json, "w", newline="") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {ns.json}")
    return 0


def _cmd_scan(ns) -> int:
    records = scan((ns.a_min, ns.a_max), (ns.b_min, ns.b_max),
                   ns.resolution, ns.budget, half_plane=ns.half_plane)
    if ns.out.endswith(".json"):
        with open(ns.out, "w", newline="") as fh:
            json.dump({"schema_version": "v1",
                       "records": [r.to_dict() for r in records]}, fh,
                      indent=2, sort_keys=True)
            fh.write("\n")
    else:
        emit_scan_csv(records, ns.out)
    print(f"wrote {ns.out} ({len(records)} records)")
    return 0


def _slice_function(text: str):
    """Parse a one-dimensional slice of the (a, b) parameter plane.

    Supported forms: ``b=-a`` / ``b=a`` (t is a), ``b=<const>`` (t is
    a), ``a=<const>`` (t is b).
    """
    s = text.replace(" ", "")
    if s == "b=-a":
        return lambda t: (t, -t)
    if s == "b=a":
        return lambda t: (t, t)
    if s.startswith("b="):
        const = float(s[2:])
        return lambda t: (t, const)
    if s.startswith("a="):
        const = float(s[2:])
        return lambda t: (const, t)
    raise PwlinError(f"unsupported slice {text!r}; use b=-a, b=a, "
                     "b=<value> or a=<value>")


def _cmd_trace_curve(ns) -> int:
    slice_fn = _slice_function(ns.slice)
    root = curve_find(ns.k, slice_fn, (ns.bracket[0], ns.bracket[1]),
                      tol=ns.tol)
    a, b = slice_fn(root)
    print(f"slice parameter: {root!r}")
    print(f"(a, b) = ({a!r}, {b!r})")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(
        prog="pwlin",
        description="Orbits, rotation numbers, first-return maps and "
                    "piecewise-conic invariant circles of the two-slope "
                    "piecewise-linear area-preserving plane map.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("orbit", help="iterate and write a CSV orbit")
    p.add_argument("-a", "--a", type=float, required=True)
    p.add_argument("-b", "--b", type=float, required=True)
    p.add_argument("-x", "--x", type=float, required=True)
    p.add_argument("-y", "--y", type=float, required=True)
    p.add_argument("-n", "--n", type=int, required=True)
    p.add_argument("--out", default="orbit.csv")
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("rotation", help="estimate the rotation number")
    p.add_argument("-a", "--a", type=float, required=True)
    p.add_argument("-b", "--b", type=float, required=True)
    p.add_argument("-N", "--N", type=int, required=True)
    p.add_argument("--q-max", type=int, default=256)
    p.set_defaults(func=_cmd_rotation)

    p = sub.add_parser("return-map",
                       help="first-return map of an angular sector")
    p.add_argument("-a", "--a", type=float, required=True)
    p.add_argument("-b", "--b", type=float, required=True)
    p.add_argument("--start-deg", type=float, required=True)
    p.add_argument("--end-deg", type=float, required=True)
    p.add_argument("--budget", type=int, default=20000)
    p.set_defaults(func=_cmd_return_map)

    p = sub.add_parser("circle",
                       help="build a certified piecewise-conic circle")
    p.add_argument("-a", "--a", type=float, required=True)
    p.add_argument("-b", "--b", type=float, required=True)
    p.add_argument("--svg")
    p.add_argument("--json")
    p.add_argument("--samples", type=int, default=512)
    p.add_argument("--orbit-len", type=int, default=100_000)
    p.add_argument("--max-iter", type=int, default=10_000)
    p.set_defaults(func=_cmd_circle)

    p = sub.add_parser("verify-example",
                       help="re-derive one of the worked families")
    p.add_argument("--family", choices=["A", "B", "C"], required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--steps", type=int, default=200_000)
    p.add_argument("--json")
    p.set_defaults(func=_cmd_verify_example)

    p = sub.add_parser("scan", help="classify a parameter grid")
    p.add_argument("--a-min", type=float, required=True)
    p.add_argument("--a-max", type=float, required=True)
    p.add_argument("--b-min", type=float, required=True)
    p.add_argument("--b-max", type=float, required=True)
    p.add_argument("--resolution", type=int, required=True)
    p.add_argument("--budget", type=int, default=10_000)
    p.add_argument("--half-plane", action="store_true")
    p.add_argument("--out", default="scan.csv")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("trace-curve",
                       help="find a relation curve on a parameter slice")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--slice", required=True)
    p.add_argument("--bracket", type=float, nargs=2, required=True)
    p.add_argument("--tol", type=float, default=1e-13)
    p.set_defaults(func=_cmd_trace_curve)
    return parser


def cli(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return ns.func(ns)
    except PwlinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(cli())


if __name__ == "__main__":
    main()
