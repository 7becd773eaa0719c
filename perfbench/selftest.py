"""Self-test of the benchmark on tiny grids, in about half a minute.

    python3 perfbench/selftest.py

It checks that every metric named in BENCHMARK.json is emitted with and
without tracing; that an op raising ``DomainError`` and an op running past
its budget both count as failed; that a perturbed reference value fails the
output check; and that the benchmark exits nonzero without a result where
the olab sources are missing.  Exit status 0 means every check passed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import run

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(HERE, "_out", "selftest")


def _smoke(workload: str, trace: bool = False, **kwargs) -> tuple[str, dict]:
    """One tiny run through run.py's own functions: (printed table, result line)."""
    record = run.run_workload(workload, 0, 1.0, trace, **kwargs)
    table = io.StringIO()
    with contextlib.redirect_stdout(table):
        result = run.report(workload, 0, record, trace)
    return table.getvalue(), result


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(SCRATCH, exist_ok=True)
    failures = []

    def expect(ok: bool, what: str):
        print(f"{'PASS' if ok else 'FAIL'}  {what}")
        if not ok:
            failures.append(what)

    for trace, group in ((False, "end_to_end"), (True, "per_layer")):
        _out, res = _smoke("smoke", trace)
        names = {m["name"] for m in spec[group]}
        expect(set(res["metrics"]) == names, f"trace={trace} emits exactly the {group} metrics")
        expect(res["correct"] and res["failed"] == 0, f"trace={trace} smoke ops pass their checks")

    out, res = _smoke("smoke-faults", op_budget=3.0)
    expect(res["failed"] == 2 and not res["correct"],
           "an injected DomainError and an op over budget count as 2 failed ops")
    expect("DomainError: injected fault" in out and "OverBudget" in out,
           "failed ops are reported with their exception type")

    with open(run.REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh)
    values = ref["ops"]["smoke-operator-norm"]["values"]
    key = sorted(values)[0]
    values[key] *= 1 + 1e-8
    perturbed = os.path.join(SCRATCH, "perturbed-reference.json")
    with open(perturbed, "w", encoding="utf-8") as fh:
        json.dump(ref, fh)
    out, res = _smoke("smoke", reference=perturbed)
    expect(res["failed"] == 1 and not res["correct"] and f"{key} = " in out,
           f"a reference value perturbed by 1e-8 ({key}) is caught")

    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(HERE):
        if os.path.isfile(os.path.join(HERE, name)):
            shutil.copy(os.path.join(HERE, name), os.path.join(bare, "perfbench"))
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), "--workload", "adams-1d",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=170)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without olab sources the benchmark exits nonzero, no result")

    print(f"{len(failures)} self-test check(s) failed" if failures else "all self-test checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
