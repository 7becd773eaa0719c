"""Experiment runner: JSON configs in, CSV data and JSON summaries out.

Exit status: 0 success, 2 config/parse error, 3 domain error or out of memory, 4
unrepresentable ball.  CSV output is deterministic: identical inputs give
byte-identical files (wall time lives only in the JSON summary).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

import numpy as np

from .characterize import (
    CONDITION_KINDS,
    AdamsSetup,
    _log_grid,
    check_condition,
    estimate_operator_norm,
    function_family,
)
from .errors import ConfigError, DomainError, OlabError, UnrepresentableBallError
from .growth import growth_from_config, growth_from_lambda
from .norms import (
    generalized_orlicz_morrey_norm,
    luxemburg_norm,
    triviality_probe,
    weak_orlicz_norm,
)
from .operators import maximal, riesz_potential
from .sampled import GridSpec, default_grid, sample_function
from .young import classify_growth, young_from_config

SCHEMA_LINE = "# olab-schema v1"


def _fmt(x) -> str:
    if isinstance(x, float) or isinstance(x, np.floating):
        if np.isnan(x):
            return "nan"
        return f"{float(x):.9g}"
    return str(x)


def _load_json(text_or_path: str):
    """Inline JSON (starts with '{' or '[') or a path to a JSON file."""
    s = text_or_path.strip()
    if s.startswith("{") or s.startswith("["):
        return json.loads(s)
    with open(text_or_path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_csv(path: str | None, header: list[str], rows: list[list]):
    _write_lines(path, header, (",".join(_fmt(v) for v in row) for row in rows))


def _write_lines(path: str | None, header: list[str], lines):
    text = "\n".join([SCHEMA_LINE, ",".join(header), *lines]) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _write_summary(path: str | None, payload: dict, started: float):
    if path is None:
        return
    payload = dict(payload)
    payload["wall_time_s"] = time.time() - started
    out = os.path.splitext(path)[0] + ".json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _grid_from_args(args, n: int | None = None) -> GridSpec:
    n = n if n is not None else args.grid_n
    default = default_grid(n)
    h = args.grid_h if args.grid_h is not None else default.h
    extent = args.grid_extent if args.grid_extent is not None else default.extent
    return GridSpec(n, h, extent)


def _witness_fields(ev):
    if ev.witness is None:
        return "", ""
    center = "/".join(_fmt(c) for c in ev.witness.center)
    return center, _fmt(ev.witness.radius)


def _growth_from_args(args, phi, n):
    """The growth function of --growth, else of --lambda, else None."""
    if args.growth is not None:
        return growth_from_config(_load_json(args.growth), phi=phi, n=n)
    if args.lam is not None:
        return growth_from_lambda(phi, args.lam, n=n)
    return None


def _setup_from_config(cfg: dict) -> AdamsSetup:
    if not isinstance(cfg, dict):
        raise ConfigError("setup config must be a JSON object")
    try:
        phi = young_from_config(cfg["young"])
        n = int(cfg.get("n", 1))
        if "growth" in cfg:
            varphi = growth_from_config(cfg["growth"], phi=phi, n=n)
        elif "lambda" in cfg:
            varphi = growth_from_lambda(phi, float(cfg["lambda"]), n=n)
        else:
            raise ConfigError("setup needs either 'growth' or 'lambda'")
        return AdamsSetup(phi, varphi, float(cfg["alpha"]), float(cfg["beta"]), n=n)
    except (KeyError, TypeError, ValueError) as exc:  # a key missing, or int("two"), float("x")
        raise ConfigError(f"setup config missing a key or holding a non-number: {exc!r}") from exc


def _parse_range(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError("range must be tmin:tmax:per-octave")
    try:
        t_min, t_max, per_octave = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:  # int("inf"), float("x")
        raise ConfigError(f"invalid range {text!r}") from exc
    if not (math.isfinite(t_min) and math.isfinite(t_max)) or t_min <= 0 or t_max <= t_min or per_octave < 1:
        raise ConfigError(f"invalid range {text!r}")
    return _log_grid(t_min, t_max, per_octave)


def _parse_schedule(text: str):
    """The floats of a comma-separated list; ``report.checked_schedule`` checks them."""
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"invalid schedule {text!r}") from exc


def _grid_lines(grid: GridSpec, values: np.ndarray):
    """CSV lines index,x[,y],value of a grid function as ``_write_csv`` writes them, formatted column by column."""
    ax = [_fmt(x) for x in grid.axis_centers()]
    m = grid.cells_per_axis
    cols = [ax] if grid.n == 1 else [[x for x in ax for _ in range(m)], ax * m]
    vals = values.ravel().tolist()  # _fmt's .9g rule writes every float, nan and inf too
    return map(",".join, zip(map(str, range(len(vals))), *cols, map("{:.9g}".format, vals)))


# -- subcommands -------------------------------------------------------------


def _cmd_norm(args):
    started = time.time()
    grid = _grid_from_args(args)
    f = sample_function(grid, _load_json(args.input))
    phi = young_from_config(_load_json(args.young))
    varphi = _growth_from_args(args, phi, grid.n)
    if varphi is not None:
        ev = generalized_orlicz_morrey_norm(f, phi, varphi, weak=args.weak)
        trunc = ev.truncation or {}
        wc, wr = _witness_fields(ev)
        rows = [[ev.kind, ev.value, wc, wr, trunc.get("r_min", ""), trunc.get("r_max", "")]]
    else:
        ev = weak_orlicz_norm(f, phi) if args.weak else luxemburg_norm(f, phi)
        rows = [[ev.kind, ev.value, "", "", "", ""]]
    print(_fmt(ev.value))
    _write_csv(args.out, ["kind", "value", "witness_center", "witness_radius", "r_min", "r_max"], rows)
    summary = {"command": "norm", "kind": ev.kind, "value": ev.value}
    if ev.witness is not None:
        summary["witness"] = {"center": list(ev.witness.center), "radius": ev.witness.radius}
    if ev.truncation is not None:
        summary.update(truncation=ev.truncation, work=ev.work)
    _write_summary(args.out, summary, started)
    return 0


def _cmd_operators(args):
    started = time.time()
    if args.operator == "riesz" and args.uncentered:
        raise ConfigError("--uncentered applies to the maximal operator only; the Riesz potential has no center")
    grid = _grid_from_args(args)
    f = sample_function(grid, _load_json(args.input))
    if args.operator == "riesz":
        out = riesz_potential(f, args.alpha)
    else:
        out = maximal(f, alpha=args.alpha, centered=not args.uncentered)
    _write_lines(args.out, ["index", "x", "y"][: grid.n + 1] + ["value"], _grid_lines(grid, out.values))
    summary = {"command": "operators", "operator": args.operator, "alpha": args.alpha,
               "max_value": float(out.values.max())}
    if args.operator == "maximal":  # the Riesz potential has no center
        summary["centered"] = not args.uncentered
    _write_summary(args.out, summary, started)
    return 0


def _cmd_check(args):
    started = time.time()
    setup = _setup_from_config(_load_json(args.setup))
    t_grid = _parse_range(args.range) if args.range else None
    schedule = _parse_schedule(args.rmax_schedule) if args.rmax_schedule else None
    rep = check_condition(args.condition, setup, t_grid=t_grid, schedule=schedule)
    rows = [
        [rep.condition, _fmt(rep.witness), r_max, c, rep.verdict,
         setup.alpha, setup.beta, setup.n, rep.params["t_min"], rep.params["t_max"]]
        for r_max, c in zip(rep.schedule, rep.constants)
    ]
    header = ["condition", "t_witness", "r_max", "constant", "verdict",
              "alpha", "beta", "n", "t_min", "t_max"]
    _write_csv(args.out, header, rows)
    _write_summary(
        args.out,
        {"command": "check", "condition": rep.condition, "verdict": rep.verdict,
         "constants": rep.constants, "schedule": rep.schedule, "witness": rep.witness,
         "params": rep.params},
        started,
    )
    print(f"{rep.condition}: {rep.verdict} (C = {_fmt(rep.constant)})")
    return 0


def _cmd_adams(args):
    started = time.time()
    setup = _setup_from_config(_load_json(args.setup))
    grid = _grid_from_args(args, n=setup.n)
    family = function_family(args.family, grid, seed=args.seed)
    rows_out = estimate_operator_norm(
        setup, operator=args.operator, target=args.target, family=family, grid=grid
    )
    rows = [[r.test_id, r.source, r.target, r.ratio, *_witness_fields(r), r.note] for r in rows_out]
    _write_csv(args.out, ["test_id", "source_norm", "target_norm", "ratio",
                          "witness_center", "witness_radius", "note"], rows)
    ratios = [r.ratio for r in rows_out if not np.isnan(r.ratio)]
    _write_summary(
        args.out,
        {"command": "adams", "operator": args.operator, "target": args.target,
         "family": args.family, "empirical_norm": max(ratios) if ratios else None,
         "params": setup.config()},
        started,
    )
    if ratios:
        print(f"empirical operator norm (max ratio): {_fmt(max(ratios))}")
    return 0


def _cmd_probe(args):
    started = time.time()
    phi = young_from_config(_load_json(args.young))
    grid = _grid_from_args(args)
    varphi = _growth_from_args(args, phi, grid.n)
    if varphi is None:
        raise ConfigError("probe needs --growth or --lambda")
    rep = triviality_probe(phi, varphi, grid=grid)
    rows = []
    up = rep.details["upper"]
    for r_max, v in zip(up["r_max"], up["values"]):
        rows.append(["upper", r_max, v, up["verdict"]])
    low = rep.details["lower"]
    for r_min, v in zip(low["r_min"], low["values"]):
        rows.append(["lower", r_min, v, low["verdict"]])
    _write_csv(args.out, ["leg", "boundary_radius", "probe_value", "leg_verdict"], rows)
    _write_summary(
        args.out,
        {"command": "probe", "verdict": rep.verdict, "params": rep.params,
         "details": rep.details},
        started,
    )
    print(f"triviality probe: {rep.verdict}")
    return 0


def _cmd_classify(args):
    started = time.time()
    phi = young_from_config(_load_json(args.young))
    t_grid = _parse_range(args.range) if args.range else None
    rep = classify_growth(phi, args.growth_class, t_grid=t_grid)
    rows = [
        [rep.condition, r_max, c, rep.verdict]
        for r_max, c in zip(rep.schedule, rep.constants)
    ]
    _write_csv(args.out, ["class", "r_max", "constant", "verdict"], rows)
    _write_summary(
        args.out,
        {"command": "classify", "class": args.growth_class, "verdict": rep.verdict,
         "constant": rep.constant, "params": rep.params},
        started,
    )
    print(f"{rep.condition}: {rep.verdict} (C = {_fmt(rep.constant)})")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--grid-h", type=float, default=None, help="grid spacing")
    common.add_argument("--grid-extent", type=float, default=None, help="domain half-extent L")
    common.add_argument("--grid-n", type=int, default=1, choices=(1, 2), help="dimension")
    common.add_argument("--out", default=None, help="CSV output path (summary JSON alongside)")
    common.add_argument("--seed", type=int, default=0, help="seed for the random family")

    p = argparse.ArgumentParser(prog="olab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("norm", parents=[common], help="Orlicz / Orlicz-Morrey norms")
    q.add_argument("--input", required=True, help="formula config (JSON or path)")
    q.add_argument("--young", required=True, help="Young function config (JSON or path)")
    q.add_argument("--growth", default=None, help="growth function config for Morrey norms")
    q.add_argument("--lambda", dest="lam", type=float, default=None, help="lambda-flavored growth")
    q.add_argument("--weak", action="store_true", help="weak norm instead of strong")

    q = sub.add_parser("operators", parents=[common], help="maximal / Riesz operators")
    q.add_argument("--input", required=True)
    q.add_argument("--alpha", type=float, required=True)
    q.add_argument("--operator", choices=("maximal", "riesz"), default="maximal")
    flag = q.add_mutually_exclusive_group()
    flag.add_argument("--centered", dest="uncentered", action="store_false")
    flag.add_argument("--uncentered", dest="uncentered", action="store_true")
    q.set_defaults(uncentered=False)

    q = sub.add_parser("check", parents=[common], help="boundedness condition checks")
    q.add_argument("--condition", required=True, choices=CONDITION_KINDS)
    q.add_argument("--setup", required=True, help="setup config (JSON or path)")
    q.add_argument("--range", default=None, help="t grid as tmin:tmax:per-octave")
    q.add_argument("--rmax-schedule", default=None, help="comma-separated R_max list")

    q = sub.add_parser("adams", parents=[common], help="empirical operator-norm experiment")
    q.add_argument("--setup", required=True)
    q.add_argument("--family", choices=("indicators", "power-decay", "random"), default="indicators")
    q.add_argument("--target", choices=("strong", "weak"), default="strong")
    q.add_argument("--operator", choices=("maximal", "riesz"), default="maximal")

    q = sub.add_parser("probe", parents=[common], help="triviality probe")
    q.add_argument("--young", required=True)
    q.add_argument("--growth", default=None)
    q.add_argument("--lambda", dest="lam", type=float, default=None)

    q = sub.add_parser("classify", parents=[common], help="Young growth classes")
    q.add_argument("--young", required=True)
    q.add_argument("--class", dest="growth_class", required=True,
                   choices=("delta2", "nabla2", "delta_prime"))
    q.add_argument("--range", default=None)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first ``main`` call (argparse keeps no state between
    parses, and rebuilding it took about as long as a small subcommand)."""
    return _build_parser()


def main(argv=None) -> int:
    """Run one olab command; it may be called any number of times in one process."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    commands = {"norm": _cmd_norm, "operators": _cmd_operators, "check": _cmd_check, "adams": _cmd_adams,
                "probe": _cmd_probe, "classify": _cmd_classify}
    try:
        return commands[args.command](args)
    except json.JSONDecodeError as exc:
        print(f"olab: config parse error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"olab: config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"olab: {exc}", file=sys.stderr)
        return 2
    except UnrepresentableBallError as exc:
        print(f"olab: {exc}", file=sys.stderr)
        return 4
    except DomainError as exc:
        print(f"olab: domain error: {exc}", file=sys.stderr)
        return 3
    except OlabError as exc:
        print(f"olab: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("olab: out of memory: take a coarser grid or fewer balls", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
