"""Import footprint: each pwlin layer module runs on first use, and
numpy is loaded only by the commands that compute arrays.  Each check
runs in a fresh interpreter, since this process has every layer run and
numpy loaded already."""
import json
import os
import subprocess
import sys

import pytest

import pwlin

SRC = os.path.dirname(os.path.dirname(pwlin.__file__))

MODULES = ["pwlin", "pwlin.builder", "pwlin.circle", "pwlin.cli",
           "pwlin.conics", "pwlin.core", "pwlin.errors", "pwlin.families",
           "pwlin.output", "pwlin.returnmap", "pwlin.scanner"]

A = "1.189207115002721"

_RUN = """
import contextlib, io, json, os, sys, types
import pwlin, pwlin.cli

LAYERS = ["builder", "circle", "conics", "core", "families", "output",
          "returnmap", "scanner"]

def ran():
    # a registered layer is a lazy module subclass until its first use
    return [k for k in LAYERS if type(sys.modules["pwlin." + k])
            is types.ModuleType]

def run(argv, precision=None):
    if precision is None:
        os.environ.pop("PWLIN_PRECISION", None)
    else:
        os.environ["PWLIN_PRECISION"] = precision
    with contextlib.redirect_stdout(io.StringIO()) as out:
        rc = pwlin.cli.cli(argv)
    return [argv[0], rc, "numpy" in sys.modules, out.getvalue(), ran()]
"""


def _python(code, cwd):
    done = subprocess.run([sys.executable, "-c", _RUN + code],
                          capture_output=True, text=True, timeout=120,
                          cwd=cwd, env={**os.environ, "PYTHONPATH": SRC})
    assert (done.returncode, done.stderr) == (0, "")
    return json.loads(done.stdout)


def test_importing_the_cli_loads_every_module_and_no_numpy(tmp_path):
    # perfbench/tracer.py looks each traced layer up in sys.modules when
    # it installs, so importing the CLI must register every pwlin module;
    # no layer runs until its first use
    got = _python("""
print(json.dumps(['numpy' in sys.modules, sorted(m for m in sys.modules
                                                 if m.split('.')[0] == 'pwlin'),
                  ran(), [m for m in ('fractions', 'dataclasses')
                          if m in sys.modules]]))
""", tmp_path)
    assert got == [False, MODULES, [], []]


def test_commands_run_only_the_layers_they_use(tmp_path):
    got = _python(f"""
calls = [
    run(["--help"]),
    run(["orbit", "-a", "{A}", "-b", "-{A}", "-x", "0", "-y", "1",
         "-n", "50", "--out", "m.csv"], "113"),
    run(["rotation", "-a", "{A}", "-b", "-{A}", "-N", "200"], "113"),
]
print(json.dumps(calls))
""", tmp_path)
    assert [(c[0], c[1], c[4]) for c in got] == [
        ("--help", 0, []),
        ("orbit", 0, ["core", "output"]),
        ("rotation", 0, ["circle", "core", "output"])]
    assert got[0][3].startswith("usage: pwlin")


def test_public_names_resolve_to_their_layer_objects(tmp_path):
    got = _python("""
before = ran()
homes = {}
for name in pwlin.__all__:
    obj = getattr(pwlin, name)
    if name == "errors":
        homes[name] = obj is sys.modules["pwlin.errors"]
    else:
        home = sys.modules[obj.__module__]
        homes[name] = [obj.__module__, getattr(home, name) is obj]
try:
    pwlin.no_such_name
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps([before, homes, sorted(set(pwlin.__all__) - set(dir(pwlin))),
                  unknown, ran()]))
""", tmp_path)
    before, homes, undir, unknown, after = got
    assert before == []
    assert homes.pop("errors") is True
    assert homes and all(ok and mod.startswith("pwlin.")
                         for mod, ok in homes.values())
    assert undir == []
    assert unknown == "module 'pwlin' has no attribute 'no_such_name'"
    assert after == ["builder", "circle", "conics", "core", "families",
                     "output", "returnmap", "scanner"]


def test_removed_helpers_are_not_public():
    # no pwlin path called them; step, normalize, Params(b, a) and
    # Params(a, family_b(...)) say the same
    assert len(pwlin.__all__) == 51
    for name in ("s_step", "lift_displacement", "swap_conjugate",
                 "family_params"):
        assert name not in pwlin.__all__
        with pytest.raises(AttributeError):
            getattr(pwlin, name)


def test_a_rebound_layer_function_is_the_one_the_cli_calls(tmp_path):
    # perfbench/tracer.py wraps a layer function by rebinding it on its
    # module; the CLI must look it up there at call time
    got = _python("""
scanner = sys.modules["pwlin.scanner"]
real = getattr(scanner, "scan")
seen = []

def traced(*args, **kwargs):
    seen.append(args)
    return real(*args, **kwargs)

setattr(scanner, "scan", traced)
call = run(["scan", "--a-min", "-2", "--a-max", "2", "--b-min", "-2",
            "--b-max", "2", "--resolution", "2", "--out", "s.csv"])
print(json.dumps([call[1], seen]))
""", tmp_path)
    assert got == [0, [[[-2.0, 2.0], [-2.0, 2.0], 2, 10000]]]


def test_scalar_and_extended_precision_commands_never_load_numpy(tmp_path):
    got = _python(f"""
calls = [
    run(["--help"]),
    run(["orbit", "-a", "{A}", "-b", "-{A}", "-x", "0", "-y", "1",
         "-n", "500", "--out", "f.csv"]),
    run(["trace-curve", "--k", "-8", "--slice", "b=-a",
         "--bracket", "1.15", "1.25"]),
    run(["rotation", "-a", "{A}", "-b", "-{A}", "-N", "2000"], "113"),
    run(["orbit", "-a", "{A}", "-b", "-{A}", "-x", "0", "-y", "1",
         "-n", "500", "--out", "m.csv"], "113"),
    run(["rotation", "-a", "{A}", "-b", "-{A}", "-N", "200000"]),
]
print(json.dumps(calls))
""", tmp_path)
    assert [c[:3] for c in got] == [
        ["--help", 0, False], ["orbit", 0, False], ["trace-curve", 0, False],
        ["rotation", 0, False], ["orbit", 0, False], ["rotation", 0, False]]
    assert got[3][3].startswith("rotation value: mpf('0.204")
    assert got[5][3].startswith("rotation value: 0.20481723340553465\n")
    assert len((tmp_path / "m.csv").read_text().splitlines()) == 502


def test_scalar_library_calls_never_load_numpy(tmp_path):
    got = _python("""
import mpmath
from pwlin import (Params, curve_find, iterate, orbit_relation,
                   rotation_number)
a = 2.0 ** 0.25
iterate(Params(a, -a), (0.0, 1.0), 1000)
rel = orbit_relation(Params(a, -a))
root = curve_find(-8, lambda t: (t, -t), (1.15, 1.25))
rotation_number(Params(a, -a), (1.0, 0.0), 1000)
with mpmath.workprec(113):
    m = mpmath.mpf(a)
    iterate(Params(m, -m), (mpmath.mpf(0), mpmath.mpf(1)), 1000)
    rotation_number(Params(m, -m), (mpmath.mpf(1), mpmath.mpf(0)), 1000)
print(json.dumps(["numpy" in sys.modules, rel.n, root]))
""", tmp_path)
    assert got[0] is False
    assert got[1] == -8
    assert abs(got[2] - 2.0 ** 0.25) < 1e-12


def test_scan_loads_numpy_on_first_use(tmp_path):
    got = _python("""
before = "numpy" in sys.modules
call = run(["scan", "--a-min", "-2", "--a-max", "2", "--b-min", "-2",
            "--b-max", "2", "--resolution", "4", "--out", "s.csv"])
print(json.dumps([before] + call[:3]))
""", tmp_path)
    assert got == [False, "scan", 0, True]
    assert len((tmp_path / "s.csv").read_text().splitlines()) == 17


def test_conic_arcs_never_load_numpy(tmp_path):
    got = _python("""
import math
from pwlin import Mat2, Ray, Sector, arc_in_sector, invariant_form

def arc(m, start, end, anchor):
    form = invariant_form(m)
    sector = Sector(Ray.at_angle(math.radians(start)),
                    Ray.at_angle(math.radians(end)))
    return arc_in_sector(form, form(anchor), sector, anchor).conic_class.value

classes = [arc(Mat2(0.0, -1.0, 1.0, 0.0), 0, 90, (1.0, 0.0)),
           arc(Mat2(2.0, 1.0, 1.0, 1.0), 40, 110, (0.0, 1.0)),
           arc(Mat2(1.0, 1.0, 0.0, 1.0), 30, 150, (0.0, 1.0))]
print(json.dumps(["numpy" in sys.modules, classes]))
""", tmp_path)
    assert got == [False, ["ellipse", "hyperbola", "parallel_lines"]]
