"""CLI subcommands and exit codes."""
import json

import pytest

from pwlin import (Params, PlotSpec, build_invariant_circle,
                   circle_to_polyline, emit_svg, orbit_relation)
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
    code = cli(["trace-curve", "--k", "-8", "--slice", "nonsense",
                "--bracket", "1.0", "1.2"])
    assert code == 1


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
