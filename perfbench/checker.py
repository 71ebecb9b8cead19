"""Compare one op's result record with its reference and oracles."""
from __future__ import annotations

import math
from decimal import Decimal, localcontext

#: Relative deviation beyond which a float output fails the op.  It is
#: far above the reordering noise (~1e-13) that a change of summation
#: order leaves, and far below any change of meaning.
FLOAT_TOL = 1e-9

#: Independent oracles.
ORBIT_RESIDUAL_MAX = 1e-8
ROOT_TOL = 1e-9


#: Deviation reported for a missing value or a finite/non-finite
#: mismatch: the largest symmetric relative deviation of two numbers.
MISMATCH = 2.0


def rel_dev(got: str, ref: str) -> float:
    """Symmetric relative deviation ``|g - r| / max(|g|, |r|)`` of two
    decimal strings: 0 when they denote the same number, at most
    ``MISMATCH`` otherwise."""
    if got == ref:
        return 0.0
    g, r = Decimal(got), Decimal(ref)
    if g.is_nan() and r.is_nan():
        return 0.0
    if not (g.is_finite() and r.is_finite()):
        return 0.0 if g == r else MISMATCH
    if g == r:
        return 0.0
    with localcontext() as ctx:
        ctx.prec = 50
        return float(abs(g - r) / max(abs(g), abs(r)))


def check(workload: str, result: dict, entry: dict) -> tuple[list[str], float]:
    """Problems found (empty when the op passes) and the largest relative
    deviation of its float outputs from the reference."""
    problems: list[str] = []
    expect = entry["expect"]
    for key, want in expect["exact"].items():
        if key == "error_class" and key not in result["exact"]:
            continue  # only known when the op ran traced
        got = result["exact"].get(key)
        if got != want:
            problems.append(f"{key}: got {got!r}, reference {want!r}")
    max_dev = 0.0
    for key, want in expect["floats"].items():
        got = result["floats"].get(key)
        if got is None or len(got) != len(want):
            problems.append(f"{key}: got {got!r}, reference {want!r}")
            max_dev = MISMATCH
            continue
        dev = max((rel_dev(g, w) for g, w in zip(got, want)), default=0.0)
        if dev > FLOAT_TOL:
            problems.append(f"{key}: relative deviation {dev:.3e}")
        max_dev = max(max_dev, dev)
    problems.extend(_oracle(workload, result, entry["oracle"]))
    return problems, max_dev


def _oracle(workload: str, result: dict, oracle: dict) -> list[str]:
    exact, values, floats = result["exact"], result["values"], result["floats"]
    out = []
    if workload == "circle-cert" and exact["rc"] == [0]:
        res = values.get("orbit_residual", math.inf)
        if not res < ORBIT_RESIDUAL_MAX:
            out.append(f"oracle: orbit_residual {res!r} >= {ORBIT_RESIDUAL_MAX}")
        if exact.get("conic_class") != oracle["regime"]:
            out.append(f"oracle: conic class {exact.get('conic_class')!r} "
                       f"!= regime {oracle['regime']!r}")
    elif workload == "family-verify":
        if exact.get("passed") is not True:
            out.append("oracle: verify-example report did not pass")
        root = floats.get("root")
        if root is None or not abs(float(root[0]) - oracle["family_b"]) <= ROOT_TOL:
            out.append(f"oracle: root {root!r} not within {ROOT_TOL} of "
                       f"family_b {oracle['family_b']!r}")
    elif workload == "mp-orbit":
        if exact.get("rows") != oracle["rows"]:
            out.append(f"oracle: orbit CSV has {exact.get('rows')} lines, "
                       f"expected {oracle['rows']}")
    return out


def agreement_digits(max_dev: float) -> float:
    """Decimal digits to which the outputs agree with the reference,
    capped at 17 (the digits of a round-tripped double)."""
    if max_dev == 0.0:
        return 17.0
    return min(17.0, max(0.0, -math.log10(max_dev)))
