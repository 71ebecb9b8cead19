"""Span tracing around the public functions of each ``pwlin`` layer.

The tracer replaces every binding of a listed function in the loaded
``pwlin`` modules with a wrapper (``return_map`` is bound in
``returnmap``, ``builder``, ``families`` and ``cli``, and each binding
is swapped), so calls made through module globals are caught too.  A
wrapper only records ``(name, start, end, parent, args, result,
exception)`` in memory; the amount of work a call did is read off its
arguments and result after the op, outside every timed interval.

Per-step functions (``step``, ``inverse_step``, ``s_step``,
``lift_displacement`` and the ``Mat2`` methods) are not wrapped: a
wrapper per step would swamp the numbers.  Their work is counted from
the arguments of the wrapped calls that drive them.
"""
from __future__ import annotations

import inspect
import os
import sys
import time
from collections import defaultdict

#: Traced functions per layer (a module of ``pwlin``).
LAYERS = {
    "core": ("iterate", "word_matrix"),
    "circle": ("rotation_number", "snap_rational"),
    "returnmap": ("return_map", "first_preimage_in", "orbit_relation"),
    "conics": ("arc_in_sector", "invariant_form"),
    "builder": ("build_invariant_circle", "residual_report",
                "circle_to_polyline"),
    "families": ("verify_family", "curve_find"),
    "scanner": ("scan", "classify"),
    "output": ("emit_svg", "emit_orbit_csv"),
    "cli": ("cli",),
}

VERDICTS = ("divergent", "circle_candidate", "periodic_candidate",
            "undetermined")


def _is_float_backend(*values) -> bool:
    return all(isinstance(v, (int, float)) for v in values)


def _work(name: str, args: dict, out, exc, dur: float) -> dict:
    """Work counters of one call, from its bound arguments and result."""
    if name == "core.iterate":
        n = abs(args["n"])
        return {"steps": n if exc is None else (getattr(exc, "index", 0) or 0)}
    if name == "circle.rotation_number":
        p, u = args["params"], args["u0"]
        kind = "float" if _is_float_backend(p.a, p.b, *u) else "mp"
        done = args["steps"] if exc is None else 0
        return {f"{kind}.steps": done, f"{kind}.incl_s": dur}
    if name == "returnmap.return_map":
        return {"pieces": 0 if out is None else len(out.pieces)}
    if name == "returnmap.first_preimage_in":
        return {"misses": int(exc is None and out is None)}
    if name == "conics.arc_in_sector":
        return {"samples": args["n_samples"] if exc is None else 0}
    if name == "builder.residual_report":
        return {"points": args["orbit_len"] if exc is None else 0}
    if name == "families.verify_family":
        return {"checks_failed": 0 if out is None
                else sum(not c.passed for c in out.checks)}
    if name == "scanner.scan":
        if out is None:
            return {}
        counts = {"cells": len(out),
                  "cell_errors": sum(r.error is not None for r in out)}
        for r in out:
            key = "verdict." + r.verdict.value
            counts[key] = counts.get(key, 0) + 1
        return counts
    if name == "output.emit_svg":
        return {"bytes": _size(args["spec"].path)}
    if name == "output.emit_orbit_csv":
        return {"bytes": _size(args["path"])}
    if name == "cli.cli":
        return {"exit_nonzero": int(exc is not None or out != 0)}
    return {}


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class Tracer:
    """Install wrappers, collect spans per op, aggregate per function."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object, object]] = []
        self._signatures: dict[str, inspect.Signature] = {}
        self.totals: dict[str, dict] = defaultdict(lambda: defaultdict(float))
        #: Every span of every finished op: (name, start, end, parent
        #: index within the op or -1, op id), times relative to the op.
        self.log: list[tuple[str, float, float, int, int]] = []
        self.ops = 0

    # -- wrapping ---------------------------------------------------------
    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, args, kwargs, None, exc)
                raise
            t1 = clock()
            stack.pop()
            spans[idx] = (name, t0, t1, parent, args, kwargs, out, None)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _bindings(self) -> list[tuple[object, str, object, object]]:
        """(module, attribute, original, wrapper) for every binding of a
        traced function in the loaded ``pwlin`` modules."""
        mods = [m for k, m in list(sys.modules.items())
                if (k == "pwlin" or k.startswith("pwlin.")) and m is not None]
        out = []
        for layer, funcs in LAYERS.items():
            home = sys.modules[f"pwlin.{layer}"]
            for fname in funcs:
                orig = getattr(home, fname)
                name = f"{layer}.{fname}"
                self._signatures[name] = inspect.signature(orig)
                wrapper = self._wrap(name, orig)
                out.extend((mod, attr, orig, wrapper) for mod in mods
                           for attr, val in vars(mod).items() if val is orig)
        return out

    def install(self) -> None:
        if not self._patched:
            self._patched = self._bindings()
        for mod, attr, _, wrapper in self._patched:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig, _ in self._patched:
            setattr(mod, attr, orig)

    # -- per-op aggregation ------------------------------------------------
    def error_classes(self) -> list[str | None]:
        """For each ``cli.cli`` call of the current op: None when it
        returned 0, else the class of the last failed call made directly
        under it, or ``PwlinError`` when the command raised it itself."""
        roots = [i for i, s in enumerate(self.spans) if s[3] == -1]
        failed = {}
        for _, _, _, parent, _, _, _, exc in self.spans:
            if parent in roots and exc is not None:
                failed[parent] = type(exc).__name__
        return [None if self.spans[i][6] == 0 else failed.get(i, "PwlinError")
                for i in roots]

    def end_op(self) -> None:
        """Fold the spans of one finished op into the totals and the log."""
        child = defaultdict(float)
        origin = self.spans[0][1] if self.spans else 0.0
        for name, t0, t1, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
            self.log.append((name, t0 - origin, t1 - origin, parent, self.ops))
        for i, (name, t0, t1, parent, args, kwargs, out, exc) in enumerate(
                self.spans):
            acc = self.totals[name]
            dur = t1 - t0
            acc["calls"] += 1
            acc["failed"] += exc is not None
            acc["incl_s"] += dur
            acc["self_s"] += dur - child[i]
            bound = self._signatures[name].bind(*args, **kwargs)
            bound.apply_defaults()
            for key, val in _work(name, bound.arguments, out, exc,
                                  dur).items():
                acc[key] += val
        self.spans.clear()
        self.ops += 1


def per_layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics ``name -> (value, unit)``, normalized per op
    (counts and self times) or per second of the function's inclusive
    time (rates)."""
    ops = max(tracer.ops, 1)
    out: dict[str, tuple[float, str]] = {}

    def total(fn, key):
        return tracer.totals[fn].get(key, 0.0) if fn in tracer.totals else 0.0

    def rate(fn, key, time_key="incl_s"):
        t = total(fn, time_key)
        return total(fn, key) / t if t > 0 else 0.0

    for layer, funcs in LAYERS.items():
        for f in funcs:
            fn = f"{layer}.{f}"
            out[f"{fn}.calls"] = (total(fn, "calls") / ops, "calls/op")
            out[f"{fn}.self_s"] = (total(fn, "self_s") / ops, "s/op")
            out[f"{fn}.failed"] = (total(fn, "failed") / ops, "calls/op")
    out["core.iterate.steps_per_s"] = (rate("core.iterate", "steps"), "1/s")
    rn = "circle.rotation_number"
    for kind in ("float", "mp"):
        out[f"{rn}.{kind}.steps_per_s"] = (
            rate(rn, f"{kind}.steps", f"{kind}.incl_s"), "1/s")
    calls = total("returnmap.return_map", "calls")
    out["returnmap.return_map.pieces"] = (
        total("returnmap.return_map", "pieces") / calls if calls else 0.0,
        "pieces/call")
    calls = total("returnmap.first_preimage_in", "calls")
    out["returnmap.first_preimage_in.misses"] = (
        total("returnmap.first_preimage_in", "misses") / calls if calls
        else 0.0, "1")
    out["conics.arc_in_sector.samples_per_s"] = (
        rate("conics.arc_in_sector", "samples"), "1/s")
    out["builder.residual_report.points_per_s"] = (
        rate("builder.residual_report", "points"), "1/s")
    out["families.verify_family.checks_failed"] = (
        total("families.verify_family", "checks_failed") / ops, "checks/op")
    out["scanner.scan.cells_per_s"] = (rate("scanner.scan", "cells"), "1/s")
    for v in VERDICTS:
        out[f"scanner.verdict.{v}"] = (
            total("scanner.scan", f"verdict.{v}") / ops, "cells/op")
    out["scanner.cell_errors"] = (
        total("scanner.scan", "cell_errors") / ops, "cells/op")
    for fn in ("output.emit_svg", "output.emit_orbit_csv"):
        out[f"{fn}.bytes"] = (total(fn, "bytes") / ops, "B/op")
    out["cli.cli.exit_nonzero"] = (
        total("cli.cli", "exit_nonzero") / ops, "calls/op")
    return out

