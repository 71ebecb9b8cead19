"""Tests of the benchmark itself: the checker bites, inputs are seeded,
and every metric in BENCHMARK.json is printed with its unit.

    python3 -m pytest perfbench -q
"""
import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checker import FLOAT_TOL, agreement_digits, check  # noqa: E402
from workloads import WORKLOADS, cost_strata, load_refs, sequence  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _passing(workload, pick=lambda e: True):
    """A reference entry and a result record that reproduces it."""
    entry = next(e for e in load_refs(workload)["entries"] if pick(e))
    result = copy.deepcopy(entry["expect"])
    result["values"] = {"orbit_residual": 1e-13}
    if workload == "circle-cert":
        result["exact"]["conic_class"] = entry["oracle"]["regime"]
    return entry, result


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_reference_passes(workload):
    entry, result = _passing(workload, lambda e: not any(e["expect"]["exact"]["rc"]))
    assert check(workload, result, entry) == ([], 0.0)


def test_flipped_verdict_fails():
    entry, result = _passing("scan-grid")
    verdicts = result["exact"]["verdicts"]
    verdicts[0] = "divergent" if verdicts[0] != "divergent" else "circle_candidate"
    problems, _ = check("scan-grid", result, entry)
    assert problems


def test_rotation_off_by_1e6_shows():
    entry, result = _passing("scan-grid")
    values = result["floats"]["rotation_value"]
    i = next(k for k, v in enumerate(values) if float(v) > 0.01)
    values[i] = repr(float(values[i]) * (1 + 1e-6))
    problems, dev = check("scan-grid", result, entry)
    assert problems and dev > FLOAT_TOL
    assert agreement_digits(dev) < 7


def test_extended_precision_digits_are_compared():
    entry, result = _passing("mp-orbit")
    text = result["floats"]["rotation"][0]
    result["floats"]["rotation"][0] = text[:-1] + ("1" if text[-1] != "1" else "2")
    problems, dev = check("mp-orbit", result, entry)
    assert dev > 0 and not problems  # visible, and within tolerance


def test_wrong_exit_code_and_error_class_fail():
    entry, result = _passing("circle-cert",
                             lambda e: e["expect"]["exact"]["rc"] == [1])
    assert check("circle-cert", result, entry)[0] == []
    result["exact"]["error_class"] = ["PeriodicSuspectError"]
    assert check("circle-cert", result, entry)[0]
    result = copy.deepcopy(entry["expect"])
    result["values"] = {}
    result["exact"]["rc"] = [0]
    assert check("circle-cert", result, entry)[0]


def test_oracle_catches_wrong_root():
    entry, result = _passing("family-verify")
    result["floats"]["root"] = [repr(entry["oracle"]["family_b"] + 1e-8)]
    entry["expect"]["floats"]["root"] = result["floats"]["root"]
    problems, _ = check("family-verify", result, entry)
    assert any("oracle" in p for p in problems)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seeded_argv_is_deterministic(workload):
    refs = load_refs(workload)
    argv = [e["argv"] for e in sequence(refs, 7)]
    assert argv == [e["argv"] for e in sequence(load_refs(workload), 7)]
    assert argv != [e["argv"] for e in sequence(refs, 8)]
    heldout = [e["argv"] for e in sequence(refs, 7, heldout=True)]
    assert heldout and not set(map(json.dumps, heldout)) & set(map(json.dumps, argv))
    flat = json.dumps(argv)
    assert all(name not in flat for name in WORKLOADS)


def test_sequence_balances_cost_strata():
    refs = load_refs("circle-cert")
    strata = cost_strata([e for e in refs["entries"] if not e["heldout"]])
    ids = {json.dumps(e["argv"]): k for k, s in enumerate(strata) for e in s}
    seq = sequence(refs, 3)
    n, full = len(strata), min(len(s) for s in strata)
    for r in range(full):
        block = seq[r * n:(r + 1) * n]
        assert sorted(ids[json.dumps(e["argv"])] for e in block) == list(range(n))
    first_half = [ids[json.dumps(e["argv"])] for e in seq[:n // 2]]
    assert len(set(k // 2 for k in first_half)) == n // 2  # spread evenly


def _run(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "family-verify",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_unit(trace, key):
    out = _run(trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    got = {name: m["unit"] for name, m in out["metrics"].items()}
    assert got == want
