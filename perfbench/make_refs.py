"""Generate the op pools and their reference outputs.

    python3 perfbench/make_refs.py [--workload NAME]

Run once, at the commit whose outputs define "correct"; the result is
stored in ``perfbench/refs/<workload>.json``.  Each pool entry records
its argv, the independent oracle values, the reference outputs (exit
codes, error classes, discrete results and float strings) and its
reference op time, from which the seeded sequences form cost strata.  A
held-out pool, drawn with another generator seed and never used unless
``run.py --heldout`` asks for it, is stored alongside for later claims.
Every workload runs in its own process, because the mp workload sets
the global mpmath precision.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checker import check  # noqa: E402
from workloads import REFS_DIR, WORKLOADS, make_pool  # noqa: E402

POOL_SEED = 1
HELDOUT_SEED = 2


def generate(name: str) -> dict:
    from tracer import Tracer
    from worker import run_op

    import mpmath
    import numpy

    wl = WORKLOADS[name]
    os.environ.update(wl.env)
    entries = []
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        workdir = Path(tmp)
        os.chdir(workdir)
        for heldout, seed, count in ((False, POOL_SEED, wl.pool_size),
                                     (True, HELDOUT_SEED, wl.heldout_size)):
            pool = make_pool(name, seed, count)
            for entry in pool:
                cost, result, problems = run_op(name, entry, workdir)
                if problems:
                    raise RuntimeError(f"{entry['argv']}: {problems}")
                if any(result["exact"]["rc"]):
                    tracer = Tracer()
                    tracer.install()
                    try:
                        _, traced, _ = run_op(name, entry, workdir, tracer)
                    finally:
                        tracer.uninstall()
                    classes = traced["exact"]["error_class"]
                else:
                    classes = [None] * len(entry["argv"])
                result["exact"]["error_class"] = classes
                entry["expect"] = {"exact": result["exact"],
                                   "floats": result["floats"]}
                entry["heldout"] = heldout
                entry["cost_s"] = round(cost, 4)
                problems, _ = check(name, result, entry)
                if problems:
                    print(f"oracle fails at {entry['argv']}: {problems}",
                          file=sys.stderr)
            entries.extend(pool)
        os.chdir(ROOT)
    return {
        "workload": name,
        "generated_with": {"python": platform.python_version(),
                           "numpy": numpy.__version__,
                           "mpmath": mpmath.__version__},
        "entries": entries,
    }


def write_refs(refs: dict) -> None:
    """Store the references, one pool entry per line."""
    head = {k: v for k, v in refs.items() if k != "entries"}
    lines = [json.dumps(e, sort_keys=True) for e in refs["entries"]]
    with open(REFS_DIR / f"{refs['workload']}.json", "w") as fh:
        fh.write(json.dumps(head, sort_keys=True)[:-1]
                 + ', "entries": [\n' + ",\n".join(lines) + "\n]}\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    args = ap.parse_args(argv)
    if args.workload is None:
        for name in WORKLOADS:
            subprocess.run([sys.executable, __file__, "--workload", name],
                           check=True)
        return 0
    sys.path.insert(0, str(ROOT / "src"))
    refs = generate(args.workload)
    REFS_DIR.mkdir(exist_ok=True)
    write_refs(refs)
    rcs = [e["expect"]["exact"]["rc"] for e in refs["entries"]]
    print(f"{args.workload}: {len(rcs)} entries, "
          f"{sum(any(r) for r in rcs)} with a nonzero exit code")
    return 0


if __name__ == "__main__":
    sys.exit(main())
