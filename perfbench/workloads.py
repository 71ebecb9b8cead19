"""Workload definitions: input pools, seeded op sequences, output parsing.

Each workload owns a pool of ops.  An op is a list of ``pwlin`` argv
lists that run back to back in one process (one call for ``scan`` and
``circle``, two for the verify and mp workloads).  The pool, the
reference outputs and the oracle values are generated once, at the
commit that defines the benchmark, by ``make_refs.py`` and stored in
``refs/<workload>.json``.  A seed picks an order over the pool; it never
changes what an op means, so every op the benchmark can run has a
reference.

Pool entries are grouped into cost strata by their reference op time.
The seeded sequence deals the strata round-robin, so every run, however
short, draws the cheap and the expensive ops in the same proportion.
That keeps medians comparable across seeds while each seed still runs
different inputs.
"""
from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

REFS_DIR = Path(__file__).resolve().parent / "refs"

#: Number of cost strata per pool (groups of the reference op time).
STRATA = 16

#: Family slices used by the circle, verify and mp workloads.  The
#: a-ranges stay a little inside the open family intervals, away from
#: the poles of ``family_b`` at the interval ends.
FAMILY_RANGES = {"A": (1.02, 1.40), "B": (0.02, 0.98), "C": (1.02, 1.40)}

#: Signed relation step counts (k of ``trace-curve``) per family.
FAMILY_K = {"A": -8, "B": 10, "C": -13}

#: Bits for the extended-precision backend of the mp workload.
MP_BITS = "113"

#: Orbit length written by the mp workload's ``orbit`` call.
MP_ORBIT_STEPS = 4000


@dataclass(frozen=True)
class Workload:
    """A workload's pool sizes and the environment of its process.

    Why each workload exists is recorded in ``BENCHMARK.json``.
    """

    name: str
    pool_size: int
    heldout_size: int
    env: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w for w in (
        Workload("scan-grid", pool_size=96, heldout_size=12),
        Workload("circle-cert", pool_size=100, heldout_size=12),
        Workload("family-verify", pool_size=360, heldout_size=36),
        Workload("mp-orbit", pool_size=150, heldout_size=15,
                 env={"PWLIN_PRECISION": MP_BITS}),
    )
}


def _num(v: float) -> str:
    return repr(float(v))


def _family_points(rng: random.Random, count: int, weights: dict):
    """Seeded (family, a) pairs, a stratified along each family slice."""
    total = sum(weights.values())
    per_family = {f: count * w // total for f, w in weights.items()}
    per_family[next(iter(weights))] += count - sum(per_family.values())
    out = []
    for fam, n in per_family.items():
        lo, hi = FAMILY_RANGES[fam]
        for i in range(n):
            a = lo + (hi - lo) * (i + rng.random()) / n
            out.append((fam, round(a, 6)))
    rng.shuffle(out)
    return out


def make_pool(name: str, gen_seed: int, count: int) -> list[dict]:
    """Pool entries ``{"argv": [...], "oracle": {...}}`` for a workload.

    Needs ``pwlin`` importable (the oracles are its closed forms).
    """
    from pwlin.families import FamilyId, family_b, regime

    rng = random.Random(f"{name}/pool/{gen_seed}")
    entries = []
    if name == "scan-grid":
        side = math.isqrt(count - 1) + 1
        cells = [(i, j) for i in range(side) for j in range(side)]
        rng.shuffle(cells)
        step = 3.5 / side
        for i, j in cells[:count]:
            a0 = round(-2.0 + step * (i + rng.random()), 4)
            b0 = round(-2.0 + step * (j + rng.random()), 4)
            entries.append({"argv": [[
                "scan", "--a-min", _num(a0), "--a-max", _num(a0 + 0.5),
                "--b-min", _num(b0), "--b-max", _num(b0 + 0.5),
                "--resolution", "8", "--budget", "10000",
                "--out", "scan.csv"]], "oracle": {}})
        return entries
    if name == "circle-cert":
        for fam, a in _family_points(rng, count, {"A": 2, "B": 2, "C": 1}):
            fid = FamilyId(fam)
            b = family_b(fid, a)
            entries.append({"argv": [[
                "circle", "-a", _num(a), "-b", _num(b),
                "--svg", "circle.svg", "--json", "circle.json"]],
                "oracle": {"regime": regime(fid, a).value}})
        return entries
    if name == "family-verify":
        for fam, a in _family_points(rng, count, {"A": 1, "B": 1, "C": 1}):
            b = family_b(FamilyId(fam), a)
            # a 2e-3 wide bracket, seeded off-centre: a bracket centred on
            # family_b puts the first midpoint on the root, and bisection
            # would stop there
            lo = b - 1e-3 * (0.5 + rng.random())
            entries.append({"argv": [
                ["verify-example", "--family", fam, "--a", _num(a),
                 "--json", "verify.json"],
                ["trace-curve", "--k", str(FAMILY_K[fam]),
                 "--slice", f"a={_num(a)}",
                 "--bracket", _num(lo), _num(lo + 2e-3)]],
                "oracle": {"family_b": b}})
        return entries
    if name == "mp-orbit":
        # bounded families only: curve-C orbits overflow within the
        # orbit length, which would end the mp path early
        for fam, a in _family_points(rng, count, {"A": 1, "B": 1}):
            b = family_b(FamilyId(fam), a)
            entries.append({"argv": [
                ["rotation", "-a", _num(a), "-b", _num(b), "-N", "10000"],
                ["orbit", "-a", _num(a), "-b", _num(b), "-x", "0", "-y", "1",
                 "-n", str(MP_ORBIT_STEPS), "--out", "orbit.csv"]],
                "oracle": {"rows": MP_ORBIT_STEPS + 2}})
        return entries
    raise KeyError(name)


def output_files(name: str) -> list[str]:
    """Files an op of this workload writes into the working directory."""
    return {"scan-grid": ["scan.csv"],
            "circle-cert": ["circle.svg", "circle.json"],
            "family-verify": ["verify.json"],
            "mp-orbit": ["orbit.csv"]}[name]


def load_refs(name: str) -> dict:
    with open(REFS_DIR / f"{name}.json") as fh:
        return json.load(fh)


def cost_strata(entries: list[dict]) -> list[list[dict]]:
    """Entries in up to ``STRATA`` near-equal groups by reference cost."""
    ranked = sorted(entries, key=lambda e: e["cost_s"])
    n = min(STRATA, len(ranked))
    return [ranked[k * len(ranked) // n:(k + 1) * len(ranked) // n]
            for k in range(n)]


def _spread_order(n: int) -> list[int]:
    """0..n-1 in van der Corput order: every prefix is spread evenly."""
    bits = max(n - 1, 1).bit_length()
    return sorted(range(n), key=lambda k: int(f"{k:0{bits}b}"[::-1], 2))


def sequence(refs: dict, seed: int, heldout: bool = False) -> list[dict]:
    """Seeded op order over the pool (or over the held-out pool).

    Each round takes one op from every cost stratum, visiting the strata
    in a seeded rotation of an evenly spreading order, so that any
    prefix of the sequence samples the whole cost range evenly.
    """
    rng = random.Random(f"{refs['workload']}/seq/{seed}")
    strata = cost_strata([e for e in refs["entries"]
                          if e["heldout"] == heldout])
    for s in strata:
        rng.shuffle(s)
    n = len(strata)
    order = _spread_order(n)
    out = []
    for r in range(max(len(s) for s in strata)):
        shift = rng.randrange(n)
        picks = [strata[(k + shift) % n] for k in order]
        out.extend(s[r] for s in picks if r < len(s))
    return out


def _stderr_kind(text: str) -> str | None:
    """``error`` / ``io error`` prefix of a failing call's message."""
    return text.strip().partition("\n")[0].partition(":")[0] or None


def parse(name: str, calls: list[tuple[int, str, str]], workdir: Path) -> dict:
    """Turn one op's (exit code, stdout, stderr) list and files into a
    result record ``{"exact": {...}, "floats": {...}, "values": {...}}``.

    ``exact`` fields must equal the reference; ``floats`` are compared
    with a relative tolerance (float strings stay strings, so extended
    precision values keep every digit); ``values`` feed only the
    independent oracle checks.
    """
    rcs = [rc for rc, _, _ in calls]
    exact: dict = {"rc": rcs,
                   "stderr": [_stderr_kind(err) if rc else None
                              for rc, _, err in calls]}
    floats: dict = {}
    values: dict = {}
    if name == "scan-grid" and rcs[0] == 0:
        with open(workdir / "scan.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        exact["verdicts"] = [r["verdict"] for r in rows]
        floats["rotation_value"] = [r["rotation_value"] for r in rows]
    elif name == "circle-cert" and rcs[0] == 0:
        with open(workdir / "circle.json") as fh:
            payload = json.load(fh)
        svg = (workdir / "circle.svg").read_text()
        exact["arc_count"] = payload["arc_count"]
        exact["conic_class"] = payload["conic_class"]
        exact["svg_closed"] = svg.endswith("</svg>\n")
        floats["levels"] = [repr(v) for v in payload["levels"]]
        values["orbit_residual"] = payload["orbit_residual"]
    elif name == "family-verify":
        if rcs[0] == 0:
            with open(workdir / "verify.json") as fh:
                report = json.load(fh)
            exact["passed"] = report["passed"]
            exact["regime"] = report["regime"]
            exact["relation_index"] = report["relation_index"]
            floats["rotation_winding"] = [repr(report["rotation_winding"])]
        if rcs[1] == 0:
            line = calls[1][1].splitlines()[0]
            floats["root"] = [line.split(":", 1)[1].strip()]
    elif name == "mp-orbit":
        if rcs[0] == 0:
            line = calls[0][1].splitlines()[0]
            text = line.split(":", 1)[1].strip()
            floats["rotation"] = [text.removeprefix("mpf('").rstrip("')")]
        if rcs[1] == 0:
            lines = (workdir / "orbit.csv").read_text().splitlines()
            exact["rows"] = len(lines)
            floats["orbit_last"] = lines[-1].split(",")[1:]
    return {"exact": exact, "floats": floats, "values": values}
