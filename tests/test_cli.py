"""CLI subcommands and exit codes."""
import json
import math
import os
import subprocess
import sys
import time

import pytest

import pwlin
from pwlin import (Params, PlotSpec, build_invariant_circle,
                   circle_to_polyline, emit_svg, orbit_relation)
import pwlin.cli as cli_mod
from pwlin.cli import cli

from conftest import C_SPECIAL


def test_rotation_pure(capsys):
    assert cli(["rotation", "-a", "0", "-b", "0", "-N", "1000"]) == 0
    out = capsys.readouterr().out
    assert "0.25" in out
    assert "1/4" in out


def test_orbit_csv(tmp_path, capsys):
    out = tmp_path / "orbit.csv"
    code = cli(["orbit", "-a", "1.2", "-b", "-1.3", "-x", "0", "-y", "-1",
                "-n", "5", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,x,y"
    assert len(lines) == 7


def test_verify_example(capsys):
    assert cli(["verify-example", "--family", "A", "--a", "1.2",
                "--steps", "20000"]) == 0
    out = capsys.readouterr().out
    assert "relation index: 8" in out
    assert "FAIL" not in out


def test_return_map_subcommand(capsys):
    code = cli(["return-map", "-a", "0.1", "-b", "-0.06703893950752593",
                "--start-deg", "180", "--end-deg", "270"])
    assert code == 0
    out = capsys.readouterr().out
    assert "2 linear piece(s)" in out
    assert "-++-" in out
    assert "commutator residual" in out


def test_circle_subcommand(tmp_path, capsys):
    a = repr(2.0 ** 0.25)
    svg = tmp_path / "c.svg"
    js = tmp_path / "c.json"
    code = cli(["circle", "-a", a, "-b", f"-{a}", "--svg", str(svg),
                "--json", str(js), "--orbit-len", "20000"])
    assert code == 0
    payload = json.loads(js.read_text())
    assert payload["arc_count"] == 8
    assert payload["conic_class"] == "ellipse"
    assert payload["schema_version"] == "v1"
    assert svg.read_text().startswith("<svg ")


@pytest.mark.parametrize("orbit_len", ["20000", "25000", "7"])
def test_circle_svg_is_the_emit_svg_plot(tmp_path, capsys, orbit_len):
    # the command plots the prefix of its residual walk; the SVG is the
    # one emit_svg draws from a fresh iteration of (0, 1)
    a = 2.0 ** 0.25
    svg = tmp_path / "c.svg"
    code = cli(["circle", "-a", repr(a), "-b", repr(-a), "--svg", str(svg),
                "--json", str(tmp_path / "c.json"), "--orbit-len", orbit_len])
    assert code == 0
    params = Params(a, -a)
    poly = circle_to_polyline(
        build_invariant_circle(params, orbit_relation(params)))
    want = tmp_path / "want.svg"
    emit_svg(PlotSpec(params, (0.0, 1.0), min(int(orbit_len), 20000),
                      str(want), overlay=poly))
    assert svg.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("orbit_len", ["0", "-30"])
def test_circle_rejects_empty_orbit(tmp_path, capsys, orbit_len):
    # a residual over no orbit points proves nothing: a usage error
    a = 2.0 ** 0.25
    code = cli(["circle", "-a", repr(a), "-b", repr(-a),
                "--svg", str(tmp_path / "c.svg"),
                "--json", str(tmp_path / "c.json"), "--orbit-len", orbit_len])
    assert code == 1
    assert "--orbit-len must be at least 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_circle_divergent_family_fails(capsys):
    code = cli(["circle", "-a", repr(C_SPECIAL), "-b", repr(-C_SPECIAL)])
    assert code == 1
    err = capsys.readouterr().err
    assert "asymptote" in err.lower()


def test_circle_no_relation_fails(capsys):
    code = cli(["circle", "-a", "0.2", "-b", "-0.7", "--max-iter", "500"])
    assert code == 1
    assert "no orbit relation" in capsys.readouterr().err


def test_scan_subcommand(tmp_path):
    out = tmp_path / "scan.csv"
    code = cli(["scan", "--a-min", "1.0", "--a-max", "1.1",
                "--b-min", "1.0", "--b-max", "1.1",
                "--resolution", "2", "--budget", "2000",
                "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 5
    assert "periodic_candidate" in lines[1]


def test_scan_outputs_byte_identical(tmp_path):
    args = ["scan", "--a-min", "0.9", "--a-max", "1.1", "--b-min", "0.9",
            "--b-max", "1.1", "--resolution", "2", "--budget", "1500"]
    f1, f2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert cli(args + ["--out", str(f1)]) == 0
    assert cli(args + ["--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()
    j1, j2 = tmp_path / "s1.json", tmp_path / "s2.json"
    assert cli(args + ["--out", str(j1)]) == 0
    assert cli(args + ["--out", str(j2)]) == 0
    assert j1.read_bytes() == j2.read_bytes()


def test_scan_budget_below_floor(tmp_path):
    out = tmp_path / "scan.csv"
    code = cli(["scan", "--a-min", "0", "--a-max", "1", "--b-min", "0",
                "--b-max", "1", "--resolution", "2", "--budget", "10",
                "--out", str(out)])
    assert code == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 4
    assert all(",undetermined,," in row for row in rows)
    assert all(row.endswith(",budget must be at least 1000") for row in rows)


def test_scan_json(tmp_path):
    out = tmp_path / "scan.json"
    code = cli(["scan", "--a-min", "0", "--a-max", "0", "--b-min", "0",
                "--b-max", "0", "--resolution", "1", "--budget", "1500",
                "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == "v1"
    assert payload["records"][0]["verdict"] == "periodic_candidate"


def test_trace_curve(capsys):
    code = cli(["trace-curve", "--k", "-8", "--slice", "b=-a",
                "--bracket", "1.15", "1.25"])
    assert code == 0
    assert "1.18920711500" in capsys.readouterr().out


def test_trace_curve_bad_slice(capsys):
    # an unknown form and unparseable values are usage errors, not
    # tracebacks
    for text in ("nonsense", "b=abc", "a=1.2.3"):
        code = cli(["trace-curve", "--k", "-8", "--slice", text,
                    "--bracket", "1.0", "1.2"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")


def test_trace_curve_non_finite_slice(capsys):
    # the first orbit refuses the slope; it used to escape at step 4
    code = cli(["trace-curve", "--k", "-8", "--slice", "b=inf",
                "--bracket", "1.15", "1.25"])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: slopes must be finite, got a=1.15, b=inf\n")


@pytest.mark.parametrize("args, name", [
    (["--tol", "nan"], "tol"),
    (["--tol", "-1"], "tol"),
    (["--bracket", "1.15", "nan"], "bracket"),
    (["--bracket", "1.25", "1.15"], "bracket"),
])
def test_trace_curve_bad_tol_or_bracket(capsys, args, name):
    code = cli(["trace-curve", "--k", "-8", "--slice", "b=-a",
                "--bracket", "1.15", "1.25", *args])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} must be")


@pytest.mark.parametrize("a", ["nan", "inf", "1e300"])
def test_rotation_non_finite_estimate_is_an_error(capsys, a):
    # a non-finite slope is an error line and exit 1, not a traceback;
    # a finite one, however steep, gives a finite estimate (the orbit of
    # (1, 0) at a = 1e300 used to overflow to nan)
    code = cli(["rotation", "-a", a, "-b", "1", "-N", "10"])
    captured = capsys.readouterr()
    if a == "1e300":
        assert code == 0
        assert math.isfinite(float(captured.out.split()[2]))
    else:
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            f"error: slopes must be finite, got a={a}, b=1.0\n")


def test_usage_error_exit_code(capsys):
    assert cli(["rotation", "-a", "0"]) == 1
    assert cli(["not-a-command"]) == 1


def test_io_error_exit_code(tmp_path, capsys):
    missing = tmp_path / "no" / "such" / "dir" / "o.csv"
    code = cli(["orbit", "-a", "1", "-b", "1", "-x", "0", "-y", "1",
                "-n", "3", "--out", str(missing)])
    assert code == 2


def test_precision_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PWLIN_PRECISION", "150")
    assert cli(["rotation", "-a", "0", "-b", "0", "-N", "100"]) == 0
    out = capsys.readouterr().out
    assert "0.25" in out
    monkeypatch.setenv("PWLIN_PRECISION", "junk")
    assert cli(["rotation", "-a", "0", "-b", "0", "-N", "100"]) == 1


def test_precision_env_is_scoped(tmp_path, monkeypatch, capsys):
    mpmath = pytest.importorskip("mpmath")
    before = mpmath.mp.prec
    monkeypatch.setenv("PWLIN_PRECISION", "113")
    assert cli(["rotation", "-a", "1.2", "-b", "-1.0", "-N", "200"]) == 0
    assert mpmath.mp.prec == before
    out = tmp_path / "orbit.csv"
    assert cli(["orbit", "-a", "1.2", "-b", "-1.0", "-x", "0", "-y", "1",
                "-n", "20", "--out", str(out)]) == 0
    assert mpmath.mp.prec == before
    # the value was formatted inside the scope: more digits than a double
    value = capsys.readouterr().out.splitlines()[0].split("'")[1]
    assert len(value.lstrip("0.")) > 20


def test_importing_the_cli_leaves_mpmath_unloaded():
    # mpmath is imported on the first extended-precision use: a
    # module-level import would cost every command its start-up time
    src = os.path.dirname(os.path.dirname(cli_mod.__file__))
    code = ("import sys, pwlin.cli; "
            "print(sorted(m for m in sys.modules if 'mpmath' in m))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_rotation_q_max_checked_before_the_walk(monkeypatch, capsys):
    calls = []
    real = pwlin.circle.rotation_number
    monkeypatch.setattr(pwlin.circle, "rotation_number",
                        lambda *args: calls.append(args) or real(*args))
    assert cli(["rotation", "-a", "1.2", "-b", "-1.3", "-N", "3000000",
                "--q-max", "0"]) == 1
    assert capsys.readouterr().err == "error: q_max must be >= 1\n"
    assert calls == []


def test_parser_built_once():
    assert cli_mod.build_parser() is cli_mod.build_parser()


@pytest.mark.parametrize("argv, message", [
    (["rotation", "-a", "1.2", "-b", "-1.3", "-N", "0"], "steps must be >= 1"),
    (["rotation", "-a", "1.2", "-b", "-1.3", "-N", "100", "--q-max", "0"],
     "q_max must be >= 1"),
    (["scan", "--a-min", "0", "--a-max", "1", "--b-min", "0", "--b-max", "1",
      "--resolution", "5000"], "resolution must be in [0, 2048]"),
    (["trace-curve", "--k", "0", "--slice", "b=-a", "--bracket", "1.1", "1.3"],
     "k must be nonzero"),
    (["scan", "--a-min", "0", "--a-max", "1", "--b-min", "0", "--b-max", "1",
      "--resolution", "2", "--budget", "0"], "budget must be >= 1, got 0"),
    (["scan", "--a-min", "0", "--a-max", "1", "--b-min", "0", "--b-max", "1",
      "--resolution", "2", "--budget", "-3"], "budget must be >= 1, got -3"),
    (["return-map", "-a", "0.1", "-b", "-0.06703893950752593",
      "--start-deg", "nan", "--end-deg", "270"],
     "--start-deg must be finite, got nan"),
    (["return-map", "-a", "0.1", "-b", "-0.06703893950752593",
      "--start-deg", "180", "--end-deg=-inf"],
     "--end-deg must be finite, got -inf"),
    (["circle", "-a", "1.189207115002721", "-b", "-1.189207115002721",
      "--max-iter", "0"], "max_iter must be >= 1, got 0"),
    (["return-map", "-a", "1.189207115002721", "-b", "-1.189207115002721",
      "--start-deg", "180", "--end-deg", "270", "--budget", "0"],
     "budget must be >= 1, got 0"),
])
def test_out_of_range_arguments_are_usage_errors(tmp_path, monkeypatch,
                                                capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    assert cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, b", [
    (["return-map", "-a", "nan", "-b", "-0.067", "--start-deg", "180",
      "--end-deg", "270", "--budget", "1000000"], "-0.067"),
    (["circle", "-a", "nan", "-b", "1", "--max-iter", "1000000"], "1.0"),
])
def test_non_finite_slopes_are_refused_at_once(tmp_path, monkeypatch, capsys,
                                               argv, b):
    # the NaN orbit used to be walked through the whole budget first
    monkeypatch.chdir(tmp_path)
    t0 = time.perf_counter()
    assert cli(argv) == 1
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.err == f"error: slopes must be finite, got a=nan, b={b}\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_argument_error_is_a_value_error():
    from pwlin import Params, rotation_number, scan
    from pwlin.errors import ArgumentError, PwlinError

    assert issubclass(ArgumentError, PwlinError)
    with pytest.raises(ValueError):
        rotation_number(Params(1.2, -1.3), (1.0, 0.0), 0)
    with pytest.raises(ArgumentError):
        scan((0.0, 1.0), (0.0, 1.0), 5000)


@pytest.mark.parametrize("n", ["-3", "-1"])
def test_orbit_rejects_negative_length(tmp_path, capsys, n):
    out = tmp_path / "orbit.csv"
    code = cli(["orbit", "-a", "1.2", "-b", "-1.3", "-x", "0", "-y", "1",
                "-n", n, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: -n must be at least 0, got {n}\n"
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["-a", "nan", "-b", "1", "-x", "0", "-y", "1"],
     "slopes must be finite, got a=nan, b=1.0"),
    (["-a", "1.2", "--b=-inf", "-x", "0", "-y", "1"],
     "slopes must be finite, got a=1.2, b=-inf"),
    (["-a", "1.2", "-b", "-1.3", "-x", "nan", "-y", "1"],
     "start must be finite, got x=nan, y=1.0"),
    (["-a", "1.2", "-b", "-1.3", "-x", "0", "-y", "inf"],
     "start must be finite, got x=0.0, y=inf"),
])
def test_orbit_rejects_non_finite_input(tmp_path, capsys, args, message):
    # the orbit used to be written as an all-nan CSV, with exit 0
    out = tmp_path / "n.csv"
    assert cli(["orbit", *args, "-n", "3", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not out.exists()


def test_orbit_zero_length(tmp_path):
    out = tmp_path / "orbit.csv"
    assert cli(["orbit", "-a", "1.2", "-b", "-1.3", "-x", "0", "-y", "1",
                "-n", "0", "--out", str(out)]) == 0
    assert out.read_text() == "n,x,y\n0,0,1\n"


def _reference_scan_csv(records, path):
    """The scan CSV writer as it was inlined in the CLI."""
    def cell(v):
        if v is None:
            return ""
        if isinstance(v, float):
            return f"{v:.17g}"
        return str(v)

    cols = ["a", "b", "rotation_value", "rotation_steps",
            "rotation_error_bound", "rotation_snap_p", "rotation_snap_q",
            "verdict", "periodic_q", "norm_growth",
            "near_return_residual", "period_matrix_residual",
            "radius_ratio", "error"]
    lines = [",".join(cols)]
    for row in (r.to_dict() for r in records):
        lines.append(",".join(cell(row[c]) for c in cols))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("grid, budget", [
    (((-2.5, 2.5), (-2.5, 2.5), 5), 1000),  # every verdict
    (((0.0, 1.0), (0.0, 1.0), 2), 10),  # error markers, nan values
    (((1e200, 1e200), (-1.0, -1.0), 1), 1000),  # a failed classify cell
])
def test_scan_csv_matches_inline_writer(tmp_path, grid, budget):
    from pwlin import scan

    out, want = tmp_path / "scan.csv", tmp_path / "want.csv"
    (a_lo, a_hi), (b_lo, b_hi), res = grid
    assert cli(["scan", "--a-min", repr(a_lo), "--a-max", repr(a_hi),
                "--b-min", repr(b_lo), "--b-max", repr(b_hi),
                "--resolution", str(res), "--budget", str(budget),
                "--out", str(out)]) == 0
    _reference_scan_csv(scan(*grid, budget), want)
    assert out.read_bytes() == want.read_bytes()
