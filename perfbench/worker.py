"""One workload process: a single-client closed loop of ``pwlin`` ops.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  Each op is one or two in-process ``pwlin.cli.cli(argv)``
calls; the next op starts only when the previous one has returned.
Outputs go to a scratch directory inside the checkout and are checked
against the stored references after every op.  The process prints one
JSON line with its measurements.

``--setup-only`` stops after ``import pwlin.cli`` and generating the
op sequence: that is what ``run.py`` times as the set-up.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checker import check  # noqa: E402
from workloads import WORKLOADS, load_refs, output_files, parse, sequence  # noqa: E402

#: Problems kept verbatim in the result (the rest are only counted).
MAX_PROBLEMS = 5


def run_call(argv: list[str]) -> tuple[int, str, str]:
    """One ``pwlin`` invocation in this process, as a user types it."""
    import pwlin.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = pwlin.cli.cli(list(argv))
    return rc, out.getvalue(), err.getvalue()


def run_op(workload: str, entry: dict, workdir: Path, tracer=None):
    """Run one op; return (latency_s, result or None, problems)."""
    for name in output_files(workload):
        (workdir / name).unlink(missing_ok=True)
    t0 = time.perf_counter()
    try:
        calls = [run_call(argv) for argv in entry["argv"]]
    except Exception:  # an unexpected raise is a failed op, keep looping
        calls = None
        raised = traceback.format_exc(limit=3)
    dt = time.perf_counter() - t0
    classes = None
    if tracer is not None:
        classes = tracer.error_classes()
        tracer.end_op()
    if calls is None:
        return dt, None, ["raised: " + raised]
    try:
        result = parse(workload, calls, workdir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return dt, None, [f"unreadable output: {exc!r}"]
    if classes is not None:
        result["exact"]["error_class"] = classes
    return dt, result, []


def _phase() -> dict:
    return {"ops": 0, "latencies": [], "failed": 0, "max_dev": 0.0,
            "problems": []}


def run_phase(workload: str, seq: list[dict], workdir: Path, seconds: float,
              tracer=None) -> dict:
    """Closed loop over ``seq`` (cycled) for ``seconds`` of wall time.

    With a tracer every op runs twice, untraced and traced, in an order
    that alternates from op to op, so that drifts in the host's speed
    fall on both variants alike and the tracing overhead is measured on
    identical work.
    """
    phases = {"untraced": _phase()}
    if tracer is not None:
        phases["traced"] = _phase()
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        entry = seq[i % len(seq)]
        if tracer is None:
            variants = [None]
        else:
            variants = [None, tracer] if i % 2 == 0 else [tracer, None]
        for t in variants:
            if t is not None:
                t.install()
            try:
                dt, result, found = run_op(workload, entry, workdir, t)
            finally:
                if t is not None:
                    t.uninstall()
            dev = 0.0
            if result is not None:
                found, dev = check(workload, result, entry)
            ph = phases["untraced" if t is None else "traced"]
            ph["ops"] += 1
            ph["latencies"].append(dt)
            ph["max_dev"] = max(ph["max_dev"], dev)
            if found:
                ph["failed"] += 1
                if len(ph["problems"]) < MAX_PROBLEMS:
                    ph["problems"].append(
                        f"op {i} {entry['argv']}: " + "; ".join(found))
        i += 1
    phases["untraced"]["wall_s"] = time.perf_counter() - start
    return phases


def write_spans(tracer, args) -> Path:
    """Write the traced spans, one JSON list per line:
    ``[name, start_s, end_s, parent, op]`` (parent indexes the op's spans)."""
    path = ROOT / ".bench_spans" / f"{args.workload}-seed{args.seed}.jsonl"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        fh.writelines(json.dumps(span) + "\n" for span in tracer.log)
    return path.relative_to(ROOT)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--heldout", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import pwlin
    import pwlin.cli  # noqa: F401  (the set-up being measured)

    src = (ROOT / "src").resolve()
    if src not in Path(pwlin.__file__).resolve().parents:
        print(f"pwlin imported from {pwlin.__file__}, not from {src}",
              file=sys.stderr)
        return 1
    seq = sequence(load_refs(args.workload), args.seed, args.heldout)
    if args.setup_only:
        return 0

    os.environ.update(WORKLOADS[args.workload].env)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        tracer = None
        if args.trace:
            from tracer import Tracer, per_layer_metrics

            tracer = Tracer()
        out = run_phase(args.workload, seq, workdir, args.seconds, tracer)
        out["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            out["per_layer"] = per_layer_metrics(tracer)
            out["spans"] = str(write_spans(tracer, args))
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            workdir.parent.rmdir()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
