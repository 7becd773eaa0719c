"""Workloads of the olab benchmark: seeded inputs, the ops that run on them,
and the checks of their outputs.

Each op is one call into olab: a library call the way the acceptance suite
makes it, or ``olab.cli.main`` in-process with ``--out``.  ``run`` is the
timed work; ``summarize`` (untimed) turns the op's output into named values
and labels that are checked against invariants and stored references.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import olab
import olab.cli

# Values computed in full precision are compared at the gauge tolerance of
# olab.norms; values read back from a CLI CSV carry 9 significant digits and
# are compared at that resolution.
REL_TOL = 1e-9
CSV_REL_TOL = 1e-8
FINGERPRINT_CELLS = 256


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    summarize: Callable[[object], dict]
    seeded: bool  # inputs depend on the workload seed
    expect: dict = field(default_factory=dict)  # labels required for every seed
    invariant: Callable[[dict], list] | None = None


# -- seeded inputs ------------------------------------------------------------


def indicator_sum(rng, n: int, support: float, h: float) -> dict:
    """Formula of three weighted ball indicators inside a weighted B(0, support).

    The indicators lie inside the background ball, so the function is
    positive exactly on B(0, support) whatever the seed, and the gauge work,
    which grows with the positive cells of each ball, does not depend on it.
    """
    terms = [{"type": "ball_indicator", "center": [0.0] * n, "radius": support,
              "weight": float(rng.uniform(0.05, 0.2))}]
    for _ in range(3):
        r = float(rng.uniform(min(4 * h, support / 2), support / 2))
        spread = (support - r) / math.sqrt(n)
        terms.append({"type": "ball_indicator",
                      "center": [float(x) for x in rng.uniform(-spread, spread, n)],
                      "radius": r, "weight": float(rng.uniform(0.2, 3.0))})
    return {"type": "sum", "terms": terms}


# -- summaries ------------------------------------------------------------------


def _rows_summary(rows) -> dict:
    values = {}
    for r in rows:
        values.update({f"{r.test_id}.source": r.source, f"{r.test_id}.target": r.target,
                       f"{r.test_id}.ratio": r.ratio})
    return {"values": values}


def _report_summary(rep) -> dict:
    labels = {"verdict": rep.verdict}
    for leg, d in (rep.details or {}).items():
        if isinstance(d, dict) and "verdict" in d:
            labels[f"{leg}.verdict"] = d["verdict"]
    return {"values": {f"C[{i}]": c for i, c in enumerate(rep.constants)}, "labels": labels}


def _necessity_summary(out) -> dict:
    values = {"K": out["K"]}
    for r in out["rows"]:
        values[f"t0={r['t0']:g}.measured"] = r["measured_ratio"]
        values[f"t0={r['t0']:g}.lower"] = r["lower_bound"]
    return {"values": values}


def _csv_file(path: str) -> tuple[str, list[list[str]]]:
    with open(path, "rb") as fh:
        data = fh.read()
    lines = data.decode("utf-8").splitlines()
    rows = [line.split(",") for line in lines[2:]]  # schema line, header
    return hashlib.sha256(data).hexdigest(), rows


def _summary_json(csv_path: str) -> dict:
    with open(os.path.splitext(csv_path)[0] + ".json", encoding="utf-8") as fh:
        return json.load(fh)


def _cli_norm_summary(csv_path: str) -> dict:
    digest, rows = _csv_file(csv_path)
    summ = _summary_json(csv_path)
    values, coords = {"value": summ["value"]}, {}
    if "witness" in summ:
        values["witness.radius"] = summ["witness"]["radius"]
        coords = {f"witness.center{i}": c for i, c in enumerate(summ["witness"]["center"])}
    return {"values": values, "coords": coords, "coarse": {"csv.value": float(rows[0][1])},
            "labels": {"kind": summ["kind"]}, "digest": digest, "csv_rows": len(rows)}


def _cli_operator_summary(csv_path: str) -> dict:
    digest, rows = _csv_file(csv_path)
    vals = np.array([float(r[-1]) for r in rows])
    summ = _summary_json(csv_path)
    picks = np.unique(np.linspace(0, vals.size - 1, FINGERPRINT_CELLS).astype(int))
    coarse = {f"cell[{i}]": float(vals[i]) for i in picks}
    coarse["sum"] = float(vals.sum())
    coarse["csv.max"] = float(vals.max())
    return {"values": {"max_value": summ["max_value"]}, "coarse": coarse,
            "digest": digest, "csv_rows": len(rows), "all_finite_nonneg": bool(
                np.all(np.isfinite(vals)) and np.all(vals >= 0))}


# -- checks ---------------------------------------------------------------------


def _rel_close(a: float, b: float, tol: float, floor: float = 0.0) -> bool:
    if a == b:  # covers equal infinities
        return True
    return abs(a - b) <= tol * max(abs(a), abs(b), floor)


def check(op: Op, summary: dict, reference: dict | None) -> tuple[list, bool]:
    """Problems with one op's outputs, and whether its CSV digest changed.

    Every seed: values are finite and nonnegative, expected labels hold, and
    the op's own invariant holds.  When a reference applies (the op's inputs
    do not depend on the seed, or the seed is the reference seed): values
    match to REL_TOL or CSV_REL_TOL and labels match exactly.
    """
    problems = []
    values = dict(summary.get("values", {}))
    values.update(summary.get("coarse", {}))
    for key, v in values.items():
        if not (isinstance(v, (int, float)) and math.isfinite(v) and v >= 0):
            problems.append(f"{key} = {v} is not finite and nonnegative")
    for key, v in summary.get("coords", {}).items():
        if not math.isfinite(v):
            problems.append(f"{key} = {v} is not finite")
    if summary.get("all_finite_nonneg") is False:
        problems.append("output holds a negative or non-finite value")
    labels = summary.get("labels", {})
    for key, want in op.expect.items():
        if labels.get(key) != want:
            problems.append(f"{key} = {labels.get(key)!r}, expected {want!r}")
    if op.invariant is not None:
        problems.extend(op.invariant(summary))
    digest_changed = False
    if reference is not None:
        # witness coordinates are compared relative to the unit length
        for group, tol, floor in (("values", REL_TOL, 0.0), ("coords", REL_TOL, 1.0),
                                  ("coarse", CSV_REL_TOL, 0.0)):
            got = summary.get(group, {})
            for key, want in reference.get(group, {}).items():
                if key not in got:
                    problems.append(f"{key} missing")
                elif not _rel_close(got[key], want, tol, floor):
                    problems.append(f"{key} = {got[key]!r}, reference {want!r}")
        for key, want in reference.get("labels", {}).items():
            if labels.get(key) != want:
                problems.append(f"{key} = {labels.get(key)!r}, reference {want!r}")
        digest_changed = reference.get("digest") not in (None, summary.get("digest"))
    return problems, digest_changed


def _norm_invariant(formula, grid_args, young, lam, weak):
    """The reported sup equals the Morrey quotient on its own witness ball."""

    def invariant(summary):
        v = summary["values"] | summary["coords"]
        if "witness.radius" not in v:
            return ["no witness ball"]
        n = int(grid_args.get("n", 1))
        grid = olab.default_grid(n)
        grid = olab.GridSpec(n, grid_args.get("h", grid.h), grid_args.get("extent", grid.extent))
        f = olab.sample_function(grid, formula)
        phi = olab.young_from_config(young)
        varphi = olab.growth_from_lambda(phi, lam, n=n)
        r = v["witness.radius"]
        ball = olab.Ball(tuple(v[f"witness.center{i}"] for i in range(n)), r)
        gauge = (olab.weak_orlicz_norm if weak else olab.luxemburg_norm)(f, phi, ball).value
        quotient = gauge * phi.inverse(1.0 / olab.ball_measure(n, r)) / varphi(r)
        if not _rel_close(quotient, v["value"], REL_TOL):
            return [f"value {v['value']!r} != quotient {quotient!r} on the witness ball"]
        return []

    return invariant


def _operator_invariant(cells):
    def invariant(summary):
        problems = []
        if summary["csv_rows"] != cells:
            problems.append(f"{summary['csv_rows']} CSV rows, expected {cells}")
        if not _rel_close(summary["coarse"]["csv.max"], summary["values"]["max_value"], CSV_REL_TOL):
            problems.append("CSV max disagrees with the summary max_value")
        return problems

    return invariant


# -- workloads ------------------------------------------------------------------


def _adams_setup(q: int, lam: float = 0.0):
    p2 = olab.PowerYoung(2)
    return olab.AdamsSetup(p2, olab.growth_from_lambda(p2, lam), alpha=0.25, beta=2.0 / q, n=1)


def _adams_1d(seed: int, out_dir: str, desk: bool) -> list[Op]:
    grid = olab.default_grid(1)
    # Outside --desk the Morrey sups take every 16th cell as a ball center
    # instead of every 4th, so that a pass takes seconds and a run holds
    # several passes, while the Morrey sups still do most of the work.
    stride = 4 if desk else 16
    sampling = dataclasses.replace(olab.MorreySampling.default(grid), center_stride=stride)
    rng = np.random.default_rng(seed)
    family = [(f"random-{i}", indicator_sum(rng, 1, grid.extent / 2, grid.h)) for i in range(10)]
    ops = []
    for q in (4, 6):
        for target in ("strong", "weak"):
            ops.append(Op(
                f"operator-norm-q{q}-{target}-stride{stride}",
                lambda q=q, target=target: olab.estimate_operator_norm(
                    _adams_setup(q), target=target, family="indicators", grid=grid, sampling=sampling),
                _rows_summary, seeded=False))

    def random_family():
        members = [(name, olab.sample_function(grid, formula)) for name, formula in family]
        return olab.estimate_operator_norm(_adams_setup(4), target="strong", family=members, grid=grid,
                                           sampling=sampling)

    ops.append(Op(f"operator-norm-q4-random-stride{stride}", random_family, _rows_summary, seeded=True))
    ops.append(Op(
        f"necessity-q6-stride{stride}",
        lambda: olab.necessity_witness(_adams_setup(6), [2.0**k for k in range(-4, 4)], grid=grid,
                                       sampling=sampling),
        _necessity_summary, seeded=False))
    # criterion 06 and 08 verdicts hold for every seed
    expected = {"adams-necessary": "holds-stable", "supremal-maximal": "holds-stable"}
    for kind in olab.characterize.CONDITION_KINDS:
        ops.append(Op(f"check-{kind}", lambda kind=kind: olab.check_condition(kind, _adams_setup(4)),
                      _report_summary, seeded=False,
                      expect={"verdict": expected[kind]} if kind in expected else {}))
    for q in (3, 6):
        ops.append(Op(f"check-adams-necessary-q{q}",
                      lambda q=q: olab.check_condition("adams-necessary", _adams_setup(q)),
                      _report_summary, seeded=False, expect={"verdict": "diverges"}))
    ops.append(Op("check-supremal-maximal-lambda0.5",
                  lambda: olab.check_condition("supremal-maximal", _adams_setup(4, lam=0.5)),
                  _report_summary, seeded=False, expect={"verdict": "diverges"}))
    # criterion 10
    p2 = olab.PowerYoung(2)
    for lam, verdict in ((-1.0, "diverges"), (0.5, "holds-stable"), (2.0, "diverges")):
        ops.append(Op(f"triviality-lambda{lam:g}",
                      lambda lam=lam: olab.triviality_probe(p2, olab.growth_from_lambda(p2, lam), grid=grid),
                      _report_summary, seeded=False, expect={"verdict": verdict}))
    return ops


def _cli(argv: list) -> int:
    rc = olab.cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"olab exited with status {rc}")
    return rc


def _cli_norm_op(name, out_dir, formula, young, lam, weak=False, n=1, extent=None, h=None):
    out = os.path.join(out_dir, name + ".csv")
    argv = ["norm", "--input", json.dumps(formula), "--young", json.dumps(young),
            "--lambda", repr(lam), "--out", out]
    grid_args = {"n": n}
    if n != 1:
        argv += ["--grid-n", str(n)]
    if extent is not None:
        argv += ["--grid-extent", repr(extent)]
        grid_args["extent"] = extent
    if h is not None:
        argv += ["--grid-h", repr(h)]
        grid_args["h"] = h
    if weak:
        argv.append("--weak")
    return Op(name, lambda: _cli(argv), lambda _rc: _cli_norm_summary(out), seeded=True,
              expect={"kind": "weak-morrey" if weak else "morrey"},
              invariant=_norm_invariant(formula, grid_args, young, lam, weak))


def _morrey_generic(seed: int, out_dir: str, desk: bool) -> list[Op]:
    rng = np.random.default_rng(seed)
    # --desk: the default 1-D grid, and 64x64 cells at the default 2-D spacing
    # (the default 256x256 grid would take about 40 minutes per norm with the
    # per-ball masks of olab.norms).  Otherwise 128 cells in 1-D and 16x16 in
    # 2-D at the default spacings, so that a run holds many passes.
    extent1, extent2 = (16.0, 2.0) if desk else (1.0, 0.5)
    h1, h2 = olab.default_grid(1).h, olab.default_grid(2).h
    n1, n2 = round(2 * extent1 / h1), round(2 * extent2 / h2)
    f1 = indicator_sum(rng, 1, extent1 / 2, h1)
    f1b = indicator_sum(rng, 1, extent1 / 2, h1)
    f2 = indicator_sum(rng, 2, extent2 / 2, h2)
    return [
        _cli_norm_op(f"norm-power-log-1d-{n1}", out_dir, f1, {"kind": "power_log", "p": 2.0, "a": 1.0}, 0.5,
                     extent=extent1),
        _cli_norm_op(f"norm-exp-weak-1d-{n1}", out_dir, f1b, {"kind": "exp_minus_one"}, 0.5, weak=True,
                     extent=extent1),
        _cli_norm_op(f"norm-power-2d-{n2}", out_dir, f2, {"kind": "power", "p": 2.0}, 1.0, n=2,
                     extent=extent2),
    ]


def _cli_operator_op(name, out_dir, rng, extent, extra, h=None):
    h = h or olab.default_grid(2).h
    formula = indicator_sum(rng, 2, extent / 2, h)
    out = os.path.join(out_dir, name + ".csv")
    argv = ["operators", "--grid-n", "2", "--grid-h", repr(h), "--grid-extent", repr(extent),
            "--alpha", "0.5", "--input", json.dumps(formula), "--out", out] + extra
    cells = (2 * round(extent / h)) ** 2
    return Op(name, lambda: _cli(argv), lambda _rc: _cli_operator_summary(out), seeded=True,
              invariant=_operator_invariant(cells))


def _operators_2d(seed: int, out_dir: str, desk: bool) -> list[Op]:
    rng = np.random.default_rng(seed)
    # --desk: every op on the default 256x256 grid, where the uncentered op
    # raises MemoryError.  Otherwise 64x64 cells (16x16 for the uncentered
    # op) at the default spacing, so that a run holds many passes and no op
    # fails.
    extent, unc_extent = (8.0, 8.0) if desk else (2.0, 0.5)
    return [
        _cli_operator_op(f"maximal-centered-{round(32 * extent)}", out_dir, rng, extent,
                         ["--operator", "maximal"]),
        _cli_operator_op(f"riesz-{round(32 * extent)}", out_dir, rng, extent, ["--operator", "riesz"]),
        _cli_operator_op(f"maximal-uncentered-{round(32 * unc_extent)}", out_dir, rng, unc_extent,
                         ["--uncentered"]),
    ]


def _smoke(seed: int, out_dir: str, desk: bool) -> list[Op]:
    """Tiny-grid ops through every kind of summary, for the self-test."""
    rng = np.random.default_rng(seed)
    f1 = indicator_sum(rng, 1, 1.0, 0.125)
    grid = olab.GridSpec(1, 0.125, 4.0)
    return [
        _cli_norm_op("smoke-norm", out_dir, f1, {"kind": "power_log", "p": 2.0, "a": 1.0}, 0.5,
                     extent=2.0, h=0.125),
        _cli_operator_op("smoke-operator", out_dir, rng, 1.0, ["--operator", "riesz"]),
        Op("smoke-operator-norm",
           lambda: olab.estimate_operator_norm(_adams_setup(4), family="indicators", grid=grid),
           _rows_summary, seeded=False),
        Op("smoke-check", lambda: olab.check_condition("adams-necessary", _adams_setup(4)),
           _report_summary, seeded=False, expect={"verdict": "holds-stable"}),
    ]


def _raise_domain_error():
    raise olab.DomainError("injected fault")


def _sleep_forever():
    while True:
        time.sleep(0.05)


def _smoke_faults(seed: int, out_dir: str, desk: bool) -> list[Op]:
    return _smoke(seed, out_dir, desk) + [
        Op("fault-domain-error", _raise_domain_error, lambda _out: {}, seeded=False),
        Op("fault-over-budget", _sleep_forever, lambda _out: {}, seeded=False),
    ]


_BUILDERS = {
    "adams-1d": _adams_1d,
    "morrey-generic": _morrey_generic,
    "operators-2d": _operators_2d,
    "smoke": _smoke,
    "smoke-faults": _smoke_faults,
}


def build(name: str, seed: int, out_dir: str, desk: bool = False) -> list[Op]:
    """The ops of one workload, with inputs generated from ``seed``."""
    return _BUILDERS[name](seed, out_dir, desk)
