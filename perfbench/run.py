"""Benchmark of olab: end-to-end and per-layer metrics of three workloads.

    python3 perfbench/run.py --workload adams-1d --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --desk            # all workloads at desk scale, one pass
    python3 perfbench/run.py --write-reference # regenerate perfbench/reference.json

Run from the root of a checkout; olab is imported from its ``src``.  Each
workload runs in its own child process (perfbench/child.py), a closed loop
with one caller: ops run back to back.  The child's address space is capped,
each op has a time budget, and BLAS/OpenMP pools are capped at the number of
usable cores.  Set-up (interpreter start, ``import olab``, inputs built) is
timed in several fresh children and reported as the median.  Every time in
the metrics is scaled by a host-speed probe timed next to it (probe.py): op
times by a CPU probe, set-up times by a fresh interpreter importing numpy.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones.  With ``--trace 1`` traced and untraced
passes alternate in the child, and the metrics are the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

from probe import PROBE_REF_S, STARTUP_REF_S, scaled

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "_out")
REFERENCE = os.path.join(HERE, "reference.json")
REFERENCE_SEED = 0

BENCH_WORKLOADS = ("adams-1d", "morrey-generic", "operators-2d")
SETUP_SAMPLES = 9
MEM_CAP_BYTES = 1536 << 20  # RLIMIT_AS of every child
OP_BUDGET_S = 60.0  # per op; a failed op counts at this time
DESK_OP_BUDGET_S = 120.0
RUN_DEADLINE_S = 170.0  # a whole run, set-up included

def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def _limit_child():
    resource.setrlimit(resource.RLIMIT_AS, (MEM_CAP_BYTES, MEM_CAP_BYTES))


def _child_env() -> dict:
    env = dict(os.environ)
    threads = str(_nproc())
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"  # the same dict and set layouts in every run
    return env


def _startup_probe() -> float:
    """Seconds a fresh interpreter takes now to start and import numpy (see probe.py)."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=_child_env(), preexec_fn=_limit_child,
                   check=True, timeout=60)
    return time.perf_counter() - start


def _spawn(argv: list, deadline: float) -> tuple[tuple[float, float], str, int]:
    """Run one child; ((seconds to its ``ready`` line, start-up probe), rest of stdout, exit status)."""
    probe = _startup_probe()
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py")] + argv, cwd=ROOT,
                            stdout=subprocess.PIPE, text=True, env=_child_env(),
                            preexec_fn=_limit_child)
    killer = threading.Timer(max(deadline - start, 1.0), proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup = (time.perf_counter() - start, probe)
        rest = proc.stdout.read()
        status = proc.wait()
    finally:
        killer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready":
        return (float("nan"), probe), "", status if status else 1
    return setup, rest, status


def run_workload(workload: str, seed: int, seconds: float, trace: bool, *, desk: bool = False,
                 op_budget: float = OP_BUDGET_S, reference: str = REFERENCE,
                 deadline_s: float = RUN_DEADLINE_S) -> dict:
    """Run one workload in child processes and return its raw record.

    ``seconds=0`` runs one pass.  ``reference=""`` checks invariants only.
    """
    deadline = time.perf_counter() + deadline_s
    out_dir = os.path.join(OUT_DIR, f"{workload}-seed{seed}")
    os.makedirs(out_dir, exist_ok=True)
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", repr(float(seconds)),
            "--trace", str(int(trace)), "--op-budget", repr(float(op_budget)),
            "--reference", reference or "", "--out-dir", out_dir]
    if desk:
        argv.append("--desk")
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        setup, _rest, status = _spawn(argv + ["--setup-only"], deadline)
        if status != 0:
            raise SystemExit(f"set-up of {workload} failed with status {status}")
        setups.append(setup)
    setup, rest, status = _spawn(argv, deadline)
    lines = rest.strip().splitlines()
    if status != 0 or not lines:
        raise SystemExit(f"workload {workload} ended with status {status} and no result")
    record = json.loads(lines[-1])
    record["setups"] = setups + [setup]  # (seconds, probe) pairs
    return record


def end_to_end(record: dict) -> dict:
    """The run's end-to-end metrics, in seconds scaled by the host probes.

    Each op time is scaled by the CPU probe timed around it (probe.py), and
    each op counts with the median of its scaled times over the run's
    passes.  ``wall_s`` is one pass at those medians, ``slowest_op_s`` the
    largest of them, and ``setup_s`` the median of the set-up times, each
    scaled by the start-up probe timed just before it.
    """
    per_op = [statistics.median(map(scaled, op["times"], op["probes"])) for op in record["ops"]]
    return {
        "setup_s": statistics.median(scaled(t, probe, STARTUP_REF_S) for t, probe in record["setups"]),
        "wall_s": sum(per_op),
        "slowest_op_s": max(per_op),
        "peak_rss_mb": record["rss_mb"],
    }


def counts(record: dict) -> tuple[int, int, bool]:
    """(attempted, failed) op executions and whether every output checked out."""
    attempted = sum(len(op["times"]) for op in record["ops"])
    failed = sum(op["failures"] for op in record["ops"])
    return attempted, failed, failed == 0


def _commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return "unknown (not a git checkout)"
    res = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return res.stdout.strip() or "unknown"


def print_record(workload: str, seed: int, record: dict, metrics: dict, units: dict):
    env = record["env"]
    print(f"workload {workload}  seed {seed}  passes {len(record['walls'])}  python {env['python']}"
          f"  numpy {env['numpy']}  scipy {env['scipy']}  nproc {_nproc()}  commit {_commit()}"
          f"  {platform.machine()}")
    probes = [p for op in record["ops"] for p in op["probes"]]
    print(f"  host probe {1000 * statistics.median(probes):.2f} ms median over {len(probes)} ops"
          f" (times below are raw; metrics are scaled to a {1000 * PROBE_REF_S:g} ms probe)")
    setups = " ".join(f"{t:.3f}/{1000 * probe:.1f}" for t, probe in record["setups"])
    print(f"  {'set-up':<39} {setups} s/ms probe")
    for op in record["ops"]:
        status = "ok" if op["failures"] == 0 else f"FAILED ({op['error']})"
        digest = " digest-changed" if op["digest_changed"] else ""
        times = " ".join(f"{t:.3f}" for t in op["times"])
        print(f"  op {op['name']:<36} {times} s  check {status}{digest}")
    attempted, failed, _ = counts(record)
    print(f"  {'failed_ops':<16} {failed / attempted:.4f} fraction ({failed} of {attempted})")
    for name, value in metrics.items():
        print(f"  {name:<16} {value:.6g} {units.get(name, '')}")


def _units(group: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[group]}


def desk(seed: int) -> int:
    """Every workload at desk scale, one pass each: the full end-to-end table."""
    for workload in BENCH_WORKLOADS:
        record = run_workload(workload, seed, 0.0, False, desk=True, op_budget=DESK_OP_BUDGET_S,
                              deadline_s=12 * DESK_OP_BUDGET_S)
        print_record(workload, seed, record, end_to_end(record), _units("end_to_end"))
    return 0


def write_reference() -> int:
    """Store the outputs of every op that passes its invariants at the reference seed."""
    ops = {}
    runs = [(w, d) for w in BENCH_WORKLOADS for d in (False, True)] + [("smoke", False)]
    for workload, is_desk in runs:
        record = run_workload(workload, REFERENCE_SEED, 0.0, False, desk=is_desk, reference="",
                              op_budget=DESK_OP_BUDGET_S,
                              deadline_s=12 * DESK_OP_BUDGET_S)
        for op in record["ops"]:
            if op["failures"] == 0:
                ops[op["name"]] = dict(op["summary"], seeded=op["seeded"])
            else:
                print(f"no reference for {op['name']}: {op['error']}")
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"seed": REFERENCE_SEED, "ops": ops}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(ops)} op references to {os.path.relpath(REFERENCE, ROOT)}")
    return 0


def report(workload: str, seed: int, record: dict, trace: bool) -> dict:
    """Print the run's table and return its result line."""
    metrics = record["layers"] if trace else end_to_end(record)
    units = _units("per_layer" if trace else "end_to_end")
    print_record(workload, seed, record, metrics, units)
    attempted, failed, correct = counts(record)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=BENCH_WORKLOADS)
    p.add_argument("--seed", type=int, default=REFERENCE_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--desk", action="store_true", help="all workloads at desk scale, one pass")
    p.add_argument("--write-reference", action="store_true")
    args = p.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "olab")):
        print(f"olab sources not found under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.desk:
        return desk(args.seed)
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        p.error("--workload is required")

    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report(args.workload, args.seed, record, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
