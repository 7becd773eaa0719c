"""One benchmark process: set up one workload, run its passes, check outputs.

Started by run.py, never by hand.  The protocol on standard output is one
line ``ready`` once olab is imported and the inputs are built (run.py times
set-up up to that line), then one JSON line with the per-op results.  Output
that olab itself prints goes to /dev/null.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import signal
import sys
import time

from probe import host_probe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class OverBudget(Exception):
    """An op ran past its time budget."""


def _on_alarm(_signum, _frame):
    raise OverBudget("ran past its time budget")


def _run_op(op, budget: float):
    """(seconds, host probe seconds, output, error); a failed op counts at the budget.

    The probe is timed right before and right after the op and the mean is
    returned: the host can change speed during an op of a few seconds.
    """
    before = host_probe()
    signal.setitimer(signal.ITIMER_REAL, budget)
    start = time.perf_counter()
    try:
        out, error = op.run(), None
    except Exception as exc:  # an op's failure is a measurement, not a crash
        out, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    elapsed = time.perf_counter() - start
    if error is None and elapsed > budget:
        error = "OverBudget: ran past its time budget"
    probe = (before + host_probe()) / 2
    return (budget if error else elapsed), probe, out, error


def _run_pass(ops, budget, results, references, check, tracer=None):
    """Time every op once, then check the outputs; returns the pass wall time."""
    times, outs = [], []
    if tracer is not None:
        tracer.install()
    try:
        for op in ops:
            if tracer is not None:
                tracer.run_id = op.name
            elapsed, probe, out, error = _run_op(op, budget)
            times.append(elapsed)
            outs.append((out, error))
            results[op.name]["probes"].append(probe)
    finally:
        if tracer is not None:
            tracer.uninstall()
    for op, elapsed, (out, error) in zip(ops, times, outs):
        res = results[op.name]
        res["times"].append(elapsed)
        if error is None:
            try:
                summary = op.summarize(out)
                problems, changed = check(op, summary, references.get(op.name))
            except Exception as exc:  # a malformed output is a failed check
                summary, problems, changed = None, [f"output unreadable: {type(exc).__name__}: {exc}"], False
            res["summary"] = summary
            res["digest_changed"] = res["digest_changed"] or changed
            if problems:
                error = "check failed: " + "; ".join(problems[:5])
                res["times"][-1] = budget
        if error is not None:
            res["failures"] += 1
            res["error"] = res["error"] or error
    return sum(res["times"][-1] for res in results.values())


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--op-budget", type=float, required=True)
    p.add_argument("--reference", default="")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--desk", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import olab

    if not os.path.abspath(olab.__file__).startswith(src + os.sep):
        print(f"olab imported from {olab.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads
    from tracing import Tracer

    ops = workloads.build(args.workload, args.seed, args.out_dir, desk=args.desk)
    proto = sys.stdout
    print("ready", file=proto, flush=True)
    if args.setup_only:
        return 0

    references = {}
    if args.reference:
        with open(args.reference, encoding="utf-8") as fh:
            ref = json.load(fh)
        references = {name: r for name, r in ref["ops"].items()
                      if not r["seeded"] or ref["seed"] == args.seed}
    results = {op.name: {"times": [], "probes": [], "failures": 0, "error": None, "summary": None,
                         "digest_changed": False} for op in ops}
    signal.signal(signal.SIGALRM, _on_alarm)
    walls, traced, layers = [], [], None
    started = time.perf_counter()
    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        if args.trace:
            # a first, untimed pass pays the one-time costs (lazy imports,
            # first-touch pages), which would otherwise skew the overhead
            _run_pass(ops, args.op_budget, results, references, workloads.check)
            started = time.perf_counter()
        while True:
            walls.append(_run_pass(ops, args.op_budget, results, references, workloads.check))
            step = walls[-1]
            if args.trace:
                # traced and untraced passes alternate, so both see the same machine
                tracer = Tracer()
                traced.append((_run_pass(ops, args.op_budget, results, references, workloads.check,
                                         tracer), tracer))
                step += traced[-1][0]
            if time.perf_counter() - started + step > args.seconds:
                break
    if args.trace:
        wall, tracer = min(traced, key=lambda pair: pair[0])
        layers = tracer.layer_metrics(wall)
        layers["trace.overhead_s"] = wall - min(walls)
        layers["cli.csv_rows"] = sum((r["summary"] or {}).get("csv_rows", 0) for r in results.values())
        spans_path = os.path.join(args.out_dir, f"spans-{args.workload}-seed{args.seed}.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "run"], "spans": tracer.spans}, fh)

    import numpy
    import scipy

    out = {
        "walls": walls,
        "ops": [dict(name=op.name, seeded=op.seeded, **results[op.name]) for op in ops],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": layers,
        "env": {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    print(json.dumps(out), file=proto, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
