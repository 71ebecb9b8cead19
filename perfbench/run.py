"""pwlin benchmark: one seeded workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With ``--trace 0`` it prints the
end-to-end metrics: the set-up time (median of several fresh
interpreters that import ``pwlin.cli`` and generate the inputs), then
a closed loop of ops for ``--seconds`` in a workload process of its
own.  With ``--trace 1`` the same untraced loop runs first and the
same ops then run again with spans around every traced function; it
prints the per-layer metrics and the tracing overhead.  Every op is
checked against the stored references; the last stdout line is the
JSON result, the line before it gives details (tail percentile,
failures, raw deviation).
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checker import agreement_digits  # noqa: E402
from workloads import REFS_DIR, WORKLOADS  # noqa: E402

#: Timed set-up repetitions (after one untimed warm-up that also
#: compiles the bytecode caches).
SETUP_RUNS = 4
#: Samples that must lie beyond the reported tail latency.
TAIL_BEYOND = 10
#: Whole-run budget: a run must end within 180 s.
DEADLINE_S = 170.0


def _worker_cmd(args, *extra) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            *(["--heldout"] if args.heldout else []), *extra]


def _run(cmd, env, deadline) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=max(deadline - time.monotonic(), 1))


def setup_seconds(args, env, deadline) -> list[float]:
    times = []
    for i in range(SETUP_RUNS + 1):
        t0 = time.perf_counter()
        proc = _run(_worker_cmd(args, "--setup-only"), env, deadline)
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
        if i:
            times.append(dt)
    return times


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with TAIL_BEYOND samples beyond
    it: (value, percentile, samples beyond)."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - TAIL_BEYOND, 1)  # 1-based rank of the reported sample
    return ordered[k - 1], 100.0 * k / n, n - k


def end_to_end(setup: list[float], res: dict) -> tuple[dict, dict]:
    ph = res["untraced"]
    lat = ph["latencies"]
    tail_s, pct, beyond = tail(lat)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (ph["ops"] / ph["wall_s"], "ops/s"),
        "latency_tail_s": (tail_s, "s"),
        "pass_ratio": (1.0 - ph["failed"] / ph["ops"], "1"),
        "result_digits": (agreement_digits(ph["max_dev"]), "digits"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    # The median latency is printed but not bounded: on a shared host
    # whose speed switches between states for tens of seconds, a run's
    # median flips with the share of ops that fell in the fast state.
    detail = {"ops": ph["ops"],
              "latency_p50_s": {"value": statistics.median(lat), "unit": "s"},
              "tail_percentile": pct,
              "tail_samples_beyond": beyond, "fail_ratio": ph["failed"] / ph["ops"],
              "result_max_dev": ph["max_dev"], "setup_runs_s": setup,
              "problems": ph["problems"]}
    return metrics, detail


def per_layer(res: dict) -> tuple[dict, dict]:
    un, tr = res["untraced"], res["traced"]
    metrics = {k: tuple(v) for k, v in res["per_layer"].items()}
    un_op = sum(un["latencies"]) / un["ops"]
    tr_op = sum(tr["latencies"]) / tr["ops"]
    self_sum = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
    metrics.update({
        "trace.untraced_op_s": (un_op, "s/op"),
        "trace.traced_op_s": (tr_op, "s/op"),
        "trace.overhead": (1.0 - un_op / tr_op, "1"),
        "trace.self_sum_s": (self_sum, "s/op"),
        "check.fail_ratio": (tr["failed"] / tr["ops"], "1"),
        "check.result_max_dev": (tr["max_dev"], "1"),
    })
    detail = {"ops": tr["ops"], "problems": tr["problems"],
              "untraced_failed": un["failed"], "spans": res["spans"]}
    return metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--heldout", action="store_true",
                    help="run the held-out pool instead of the main pool")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "pwlin" / "__init__.py").is_file():
        print(f"no pwlin sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    if not (REFS_DIR / f"{args.workload}.json").is_file():
        print(f"no references for {args.workload}", file=sys.stderr)
        return 1
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    try:
        setup = [] if args.trace else setup_seconds(args, env, deadline)
        proc = _run(_worker_cmd(args, "--seconds", str(args.seconds),
                                "--trace", str(args.trace)), env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"workload process failed:\n{proc.stderr}", file=sys.stderr)
        return 1
    res = json.loads(proc.stdout.strip().splitlines()[-1])

    if args.trace:
        metrics, detail = per_layer(res)
        attempted = res["untraced"]["ops"] + res["traced"]["ops"]
        failed = res["untraced"]["failed"] + res["traced"]["failed"]
    else:
        metrics, detail = end_to_end(setup, res)
        attempted, failed = res["untraced"]["ops"], res["untraced"]["failed"]
    print(json.dumps({"workload": args.workload, "seed": args.seed, **detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
