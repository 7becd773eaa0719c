import json
import os
import subprocess
import sys

import numpy as np
import pytest

import olab
from olab import GridSpec
from olab.cli import _grid_lines, _write_csv, _write_lines, main

BALL = '{"type":"ball_indicator","center":[0],"radius":1}'
P2 = '{"kind":"power","p":2}'


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_norm_prints_value(capsys):
    code, out, _ = run(capsys, "norm", "--input", BALL, "--young", P2)
    assert code == 0
    assert out.splitlines()[0].startswith("1.41421356")


def test_norm_weak_flag(capsys):
    code, out, _ = run(capsys, "norm", "--input", BALL, "--young", P2, "--weak")
    assert code == 0
    assert "weak-orlicz" in out


def test_norm_morrey_with_lambda(capsys, tmp_path):
    out_path = tmp_path / "norm.csv"
    code, out, _ = run(capsys, "norm", "--input", BALL, "--young", P2,
                       "--lambda", "0.5", "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("# olab-schema v1\n")
    assert "morrey" in text
    assert (tmp_path / "norm.json").exists()


@pytest.mark.parametrize("young, path, bisections", [
    (P2, "closed-form", 0), ('{"kind":"exp_minus_one"}', "column-root-find", 1)])
def test_norm_summary_records_path(capsys, tmp_path, young, path, bisections):
    out_path = tmp_path / "norm.csv"
    code, _, _ = run(capsys, "norm", "--input", BALL, "--young", young, "--lambda", "0.5",
                     "--grid-h", "0.125", "--grid-extent", "4", "--out", str(out_path))
    assert code == 0
    work = json.loads((tmp_path / "norm.json").read_text())["work"]
    assert (work["path"], work["bisections"]) == (path, bisections)
    # the root-find counted the indicator's one level; the closed form counts none
    assert work.get("levels") == (1 if path == "column-root-find" else None)
    assert "root" not in out_path.read_text() and "closed" not in out_path.read_text()
    assert "levels" not in out_path.read_text()


def test_norm_summary_records_root_find_work(capsys, tmp_path):
    out_path = tmp_path / "norm.csv"
    code, _, _ = run(capsys, "norm", "--input", BALL, "--young", '{"kind":"exp_minus_one"}', "--lambda", "0.5",
                     "--weak", "--grid-h", "0.125", "--grid-extent", "4", "--out", str(out_path))
    assert code == 0
    work = json.loads((tmp_path / "norm.json").read_text())["work"]
    assert sorted(work) == ["bisections", "certified", "levels", "path", "sorted_windows", "visited"]
    assert work["path"] == "closed-form" and work["bisections"] == 0
    assert (work["levels"], work["sorted_windows"]) == (1, 0)  # an indicator has one positive value
    assert "replay" not in out_path.read_text() and "levels" not in out_path.read_text()


def test_norm_summary_records_weak_closed_form_work(capsys, tmp_path, monkeypatch):
    # lambda = 0 and a gaussian past a budget of one level: the radius bisection sorts windows, every
    # center's largest balls tie the sup, and a level count certifies them unsorted
    monkeypatch.setattr(olab.norms, "_LEVELS", 1)
    out_path = tmp_path / "norm.csv"
    code, _, _ = run(capsys, "norm", "--input", '{"type":"gaussian"}', "--young", P2, "--lambda", "0", "--weak",
                     "--grid-h", "0.125", "--grid-extent", "4", "--out", str(out_path))
    assert code == 0
    summary = json.loads((tmp_path / "norm.json").read_text())
    assert sorted(summary["work"]) == ["bisections", "certified", "levels", "path", "sorted_windows", "visited"]
    assert summary["work"]["path"] == "closed-form" and "root_find" not in summary
    assert summary["work"]["sorted_windows"] > 0 and summary["work"]["certified"] > 0
    assert "certified" not in out_path.read_text() and "sorted" not in out_path.read_text()


def test_shrinking_schedule_is_status_2(capsys, tmp_path):
    # a window that does not contain the one before it is not a widening probe;
    # increasing, this schedule reads "diverges"
    setup = tmp_path / "setup.json"
    setup.write_text(json.dumps({"young": {"kind": "power", "p": 2.0}, "lambda": 0.0, "alpha": 0.25,
                                 "beta": 0.3333333333333333, "n": 1}))
    schedule = [1024, 512, 256, 128, 64, 32, 16]
    argv = ["check", "--condition", "adams-necessary", "--setup", str(setup), "--rmax-schedule"]
    code, out, _ = run(capsys, *argv, ",".join(map(str, schedule[::-1])))
    assert code == 0 and "diverges" in out
    code, out, err = run(capsys, *argv, ",".join(map(str, schedule)))
    assert code == 2 and out == ""
    assert "contain the one before it" in err


def test_malformed_json_is_status_2_no_output(capsys, tmp_path):
    out_path = tmp_path / "x.csv"
    code, _, err = run(capsys, "norm", "--input", "{oops", "--young", P2, "--out", str(out_path))
    assert code == 2
    assert not out_path.exists()
    assert "parse error" in err


SETUP = {"young": {"kind": "power", "p": 2}, "lambda": 0.5, "alpha": 0.25, "beta": 0.5, "n": 1}
GRID = ["--grid-h", "0.125", "--grid-extent", "4"]


@pytest.mark.parametrize("argv", [
    ["norm", "--input", BALL, "--young", '{"kind":"power","p":"2"}', "--lambda", "0.5"],
    ["norm", "--input", BALL, "--young", '{"kind":"power","p":null}', "--lambda", "0.5"],
    ["norm", "--input", BALL, "--young", '{"kind":"power","p":[2]}', "--lambda", "0.5"],
    ["norm", "--input", BALL, "--young", P2, "--growth", '{"kind":"power","exponent":"x"}'],
    ["norm", "--input", '{"type":"gaussian","scale":"big"}', "--young", P2, "--lambda", "0.5"],
    ["check", "--condition", "adams-necessary", "--setup", json.dumps(SETUP | {"alpha": "x"})],
    ["check", "--condition", "adams-necessary", "--setup", json.dumps(SETUP | {"n": "two"})],
], ids=["young-string", "young-null", "young-list", "growth-string", "formula-string", "alpha-string", "n-string"])
def test_non_numeric_config_value_is_status_2(capsys, argv):
    code, out, err = run(capsys, *argv, *GRID)
    assert (code, out) == (2, "") and "config error" in err


def test_unknown_formula_is_status_2(capsys):
    code, _, _ = run(capsys, "norm", "--input", '{"type":"warp"}', "--young", P2)
    assert code == 2


def test_domain_error_is_status_3(capsys):
    code, _, err = run(capsys, "operators", "--alpha", "1.5", "--input", BALL)
    assert code == 3
    assert "alpha" in err


def test_overflowing_ball_measure_is_status_3(capsys):
    setup = '{"young":{"kind":"power","p":2},"lambda":0.5,"alpha":0.5,"beta":0.5,"n":2}'
    code, out, err = run(capsys, "check", "--condition", "supremal-maximal", "--setup", setup,
                         "--rmax-schedule", "16,1e200")
    assert code == 3 and out == ""
    assert "finite" in err


# two finite weights whose sum overflows to inf near the gaussian's center
INF_GAUSS = ('{"type":"sum","terms":[{"type":"gaussian","scale":1,"weight":1e308},'
             '{"type":"gaussian","scale":1,"weight":1e308}]}')


@pytest.mark.parametrize("n", ["1", "2"])
def test_non_finite_maximal_input_is_status_3(capsys, n):
    code, _, err = run(capsys, "operators", "--alpha", "0.5", "--input", INF_GAUSS, "--grid-n", n,
                       "--grid-h", "0.25", "--grid-extent", "1")
    assert code == 3
    assert "finite" in err


@pytest.mark.parametrize("n", ["1", "2"])
def test_non_finite_riesz_input_is_status_3(capsys, n):
    code, _, err = run(capsys, "operators", "--operator", "riesz", "--alpha", "0.5", "--input", INF_GAUSS,
                       "--grid-n", n, "--grid-h", "0.25", "--grid-extent", "1")
    assert code == 3
    assert "finite" in err


@pytest.mark.parametrize("weight", ["Infinity", "NaN", "1e999"])
def test_non_finite_term_weight_is_status_2(capsys, weight):
    term = '{"type":"ball_indicator","center":[0],"radius":0.5,"weight":%s}' % weight
    code, _, err = run(capsys, "operators", "--alpha", "0.5", "--grid-h", "0.25", "--grid-extent", "1",
                       "--input", '{"type":"sum","terms":[%s]}' % term)
    assert code == 2
    assert "weight" in err


@pytest.mark.parametrize("young, growth", [
    ('{"kind":"power_log","p":2,"a":1}', ["--lambda", "nan"]),
    (P2, ["--lambda", "nan"]),
    (P2, ["--lambda=-inf"]),
    ('{"kind":"power","p":NaN}', ["--lambda", "0.5"]),
    ('{"kind":"power","p":Infinity}', []),
    ('{"kind":"power","p":2,"scale":NaN}', ["--lambda", "0.5"]),
    ('{"kind":"power_log","p":2,"a":NaN}', ["--lambda", "0.5"]),
    (P2, ["--growth", '{"kind":"power","exponent":NaN}']),
    (P2, ["--growth", '{"kind":"power_log","exponent":-0.5,"log_exponent":Infinity}']),
    (P2, ["--growth", '{"kind":"power_of","base":{"kind":"power","exponent":-0.5},"beta":NaN}']),
], ids=["power_log-lambda-nan", "power-lambda-nan", "power-lambda-minus-inf", "p-nan", "p-inf", "scale-nan", "a-nan",
        "exponent-nan", "log_exponent-inf", "beta-nan"])
def test_non_finite_young_or_growth_parameter_is_status_3(capsys, young, growth):
    # once: power_log with lambda nan exited 0 with 5.14890616e-13, and a nan a with inf; power kinds died with an
    # IndexError traceback
    code, out, err = run(capsys, "norm", "--input", BALL, "--young", young, *growth,
                         "--grid-h", "0.125", "--grid-extent", "4")
    assert code == 3 and out == ""
    assert "finite" in err


@pytest.mark.parametrize("flag, value", [("--grid-h", "nan"), ("--grid-h", "inf"), ("--grid-extent", "inf")])
def test_non_finite_grid_is_status_3(capsys, flag, value):
    code, _, err = run(capsys, "operators", "--alpha", "0.5", "--input", BALL, flag, value)
    assert code == 3
    assert "finite" in err


@pytest.mark.parametrize("argv", [
    ["check", "--condition", "adams-necessary", "--range", "nan:1:4"],
    ["check", "--condition", "adams-necessary", "--rmax-schedule", "nan"],
    ["check", "--condition", "adams-necessary", "--rmax-schedule", "16,inf"],
    ["classify", "--young", P2, "--class", "delta2", "--range", "1:inf:4"],
    ["classify", "--young", P2, "--class", "delta2", "--range", "1:2:inf"],
    ["check", "--condition", "adams-necessary", "--rmax-schedule", "16,x"],
])
def test_non_finite_range_or_schedule_is_status_2(capsys, tmp_path, argv):
    setup = tmp_path / "setup.json"
    setup.write_text(json.dumps(
        {"young": {"kind": "power", "p": 2.0}, "lambda": 0.0, "alpha": 0.25, "beta": 0.5, "n": 1}))
    if argv[0] == "check":
        argv = argv + ["--setup", str(setup)]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "invalid" in err


@pytest.mark.parametrize("spec", ["4:4.1:1"])
def test_one_node_range_at_the_schedule_top_is_status_0(capsys, tmp_path, spec):
    # the one node is max(schedule, node), so the inner grid is that node alone; once exit 2, "need 0 < t_min < t_max"
    setup = tmp_path / "setup.json"
    setup.write_text(json.dumps(
        {"young": {"kind": "power", "p": 2.0}, "lambda": 0.0, "alpha": 0.25, "beta": 0.5, "n": 1}))
    code, out, _ = run(capsys, "check", "--condition", "adams-necessary", "--setup", str(setup),
                       "--range", spec, "--rmax-schedule", "4")
    node = spec.split(":")[0]
    assert code == 0
    assert out.splitlines()[2].endswith(f",{node},{node}")  # t_min, t_max


@pytest.mark.parametrize("spec", ["5:5.1:1", "0.1:0.2:4"])
def test_range_outside_the_widest_window_is_status_2(capsys, tmp_path, spec):
    # the windows (1/4, 4) hold no node, so every constant would read 0: once exit 0 with holds-stable (C = 0)
    setup = tmp_path / "setup.json"
    setup.write_text(json.dumps(
        {"young": {"kind": "power", "p": 2.0}, "lambda": 0.0, "alpha": 0.25, "beta": 0.5, "n": 1}))
    code, out, err = run(capsys, "check", "--condition", "adams-necessary", "--setup", str(setup),
                         "--range", spec, "--rmax-schedule", "4")
    assert code == 2 and out == ""
    assert "widest window (1/4, 4)" in err and "t grid [" in err


def test_classify_range_outside_the_widest_window_is_status_2(capsys):
    # no node of 2000 .. 4000 lies in (1/1024, 1024): once exit 0 with holds-stable (C = 0)
    code, out, err = run(capsys, "classify", "--young", '{"kind":"exp_minus_one"}', "--class", "delta2",
                         "--range", "2000:4000:4")
    assert code == 2 and out == ""
    assert "no node of [2000, 4000] is in the widest window" in err


@pytest.mark.parametrize("command", ["classify", "check"])
@pytest.mark.parametrize("spec", ["1e-300:1e300:64", "1:2:4194304"], ids=["ratio-overflows", "2^22+1-nodes"])
def test_oversized_range_is_status_2(capsys, tmp_path, monkeypatch, command, spec):
    arange = np.arange

    def bounded_arange(*args, **kwargs):  # a missing guard fails here, before it allocates the grid
        assert np.isfinite(args).all() and max(args, default=0) <= 2**22
        return arange(*args, **kwargs)

    monkeypatch.setattr(np, "arange", bounded_arange)
    setup = tmp_path / "setup.json"
    setup.write_text(json.dumps(
        {"young": {"kind": "power", "p": 2.0}, "lambda": 0.0, "alpha": 0.25, "beta": 0.5, "n": 1}))
    if command == "check":
        argv = ["check", "--condition", "adams-necessary", "--setup", str(setup), "--range", spec]
    else:
        argv = ["classify", "--young", P2, "--class", "delta2", "--range", spec]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "invalid range" in err and "4194304 nodes" in err


@pytest.mark.parametrize("term", [
    '{"type":"gaussian","scale":NaN}',
    '{"type":"gaussian","center":[NaN]}',
    '{"type":"ball_indicator","center":[0],"radius":NaN}',
])
def test_non_finite_formula_parameter_is_status_2(capsys, term):
    code, _, err = run(capsys, "operators", "--alpha", "0.5", "--grid-h", "0.25", "--grid-extent", "1",
                       "--input", term)
    assert code == 2
    assert "finite" in err


def test_unrepresentable_ball_is_status_4(capsys):
    big = '{"type":"ball_indicator","center":[0],"radius":99}'
    code, _, err = run(capsys, "norm", "--input", big, "--young", P2)
    assert code == 4


def test_operators_csv_schema(capsys, tmp_path):
    out_path = tmp_path / "op.csv"
    code, _, _ = run(capsys, "operators", "--alpha", "0.5", "--input", BALL,
                     "--grid-h", "0.0625", "--grid-extent", "2", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "# olab-schema v1"
    assert lines[1] == "index,x,value"
    assert len(lines) == 2 + 64


def test_operators_uncentered_flag(capsys, tmp_path):
    a, b = tmp_path / "c.csv", tmp_path / "u.csv"
    for flag, path in [("--centered", a), ("--uncentered", b)]:
        code, _, _ = run(capsys, "operators", "--alpha", "0.25", "--input", BALL, flag,
                         "--grid-h", "0.0625", "--grid-extent", "2", "--out", str(path))
        assert code == 0
    vc = np.array([float(l.split(",")[2]) for l in a.read_text().splitlines()[2:]])
    vu = np.array([float(l.split(",")[2]) for l in b.read_text().splitlines()[2:]])
    assert np.all(vu >= vc - 1e-12)
    assert np.all(vu <= 2 ** 0.75 * vc * 1.01 + 1e-300)


def test_default_grid_uncentered_2d_maximal(capsys, tmp_path):
    out_path = tmp_path / "u.csv"
    small = '{"type":"ball_indicator","center":[0,0],"radius":0.5}'
    code, _, _ = run(capsys, "operators", "--grid-n", "2", "--uncentered", "--alpha", "0.5",
                     "--input", small, "--out", str(out_path))
    assert code == 0
    assert len(out_path.read_text().splitlines()) == 2 + 256 * 256


@pytest.mark.parametrize("centered", ["--centered", "--uncentered"])
def test_operators_overflowing_sum_is_status_3(capsys, tmp_path, centered):
    # every cell is finite, but the disk's cells sum past the largest float: once 64 inf rows and exit 0
    heavy = '{"type":"sum","terms":[{"type":"ball_indicator","center":[0,0],"radius":0.9,"weight":1e307}]}'
    out_path = tmp_path / "o.csv"
    code, _, err = run(capsys, "operators", "--grid-n", "2", "--grid-h", "0.25", "--grid-extent", "1",
                       "--alpha", "0.5", centered, "--input", heavy, "--out", str(out_path))
    assert code == 3
    assert "overflows" in err
    assert not out_path.exists()


def test_riesz_overflowing_potential_is_status_3(capsys, tmp_path):
    # once seven RuntimeWarnings from the FFT and then "sampled values must be nonnegative"; at this weight the
    # potential itself overflows (at 1e307 it is finite, 1.17e308)
    heavy = '{"type":"sum","terms":[{"type":"ball_indicator","center":[0,0],"radius":0.9,"weight":1e308}]}'
    out_path = tmp_path / "r.csv"
    code, _, err = run(capsys, "operators", "--grid-n", "2", "--grid-h", "0.25", "--grid-extent", "1",
                       "--alpha", "0.5", "--operator", "riesz", "--input", heavy, "--out", str(out_path))
    assert code == 3
    assert "Riesz potential" in err and "overflows" in err
    assert not out_path.exists()


@pytest.mark.parametrize("operator", ["maximal", "riesz"])
def test_operators_summary_says_centered_for_the_maximal_only(capsys, tmp_path, operator):
    out_path = tmp_path / "o.csv"
    code, _, _ = run(capsys, "operators", "--operator", operator, "--alpha", "0.5", "--input", BALL,
                     "--grid-h", "0.25", "--grid-extent", "2", "--out", str(out_path))
    assert code == 0
    summary = json.loads((tmp_path / "o.json").read_text())
    assert summary["operator"] == operator and summary["max_value"] > 0
    assert summary.get("centered", "absent") == (True if operator == "maximal" else "absent")


def test_riesz_rejects_uncentered(capsys, tmp_path):
    # once ignored: exit 0, with "centered": false in the summary
    out_path = tmp_path / "r.csv"
    code, _, err = run(capsys, "operators", "--operator", "riesz", "--uncentered", "--alpha", "0.5",
                       "--input", BALL, "--grid-h", "0.25", "--grid-extent", "2", "--out", str(out_path))
    assert code == 2
    assert "--uncentered" in err
    assert not out_path.exists()


def test_check_verdict_row_carries_parameters(capsys, tmp_path):
    setup = tmp_path / "setup.json"
    setup.write_text(json.dumps(
        {"young": {"kind": "power", "p": 2.0}, "lambda": 0.0, "alpha": 0.25, "beta": 0.5, "n": 1}))
    out_path = tmp_path / "check.csv"
    code, out, _ = run(capsys, "check", "--condition", "adams-necessary",
                       "--setup", str(setup), "--out", str(out_path))
    assert code == 0
    assert "holds-stable" in out
    lines = out_path.read_text().splitlines()
    header = lines[1].split(",")
    for col in ("condition", "r_max", "constant", "verdict", "alpha", "beta", "n", "t_min", "t_max"):
        assert col in header
    summary = json.loads((tmp_path / "check.json").read_text())
    assert summary["verdict"] == "holds-stable"
    assert "wall_time_s" in summary


def test_probe_and_classify(capsys):
    code, out, _ = run(capsys, "probe", "--young", P2, "--lambda", "-1")
    assert code == 0
    assert "diverges" in out
    code, out, _ = run(capsys, "classify", "--young", '{"kind":"exp_minus_one"}',
                       "--class", "delta2")
    assert code == 0
    assert "diverges" in out


@pytest.mark.parametrize("command", ["norm", "probe"])
def test_growth_takes_precedence_over_lambda(capsys, tmp_path, command):
    growth = '{"kind":"power","exponent":-0.25}'
    extra = ["--input", BALL] if command == "norm" else []
    small = ["--grid-h", "0.125", "--grid-extent", "4"]
    outputs = []
    for flags in (["--growth", growth], ["--growth", growth, "--lambda", "0.9"]):
        path = tmp_path / f"{command}{len(outputs)}.csv"
        code, _, _ = run(capsys, command, "--young", P2, *extra, *small, *flags, "--out", str(path))
        assert code == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]


def test_probe_without_growth_is_status_2(capsys):
    code, _, err = run(capsys, "probe", "--young", P2)
    assert code == 2
    assert "--growth or --lambda" in err


def test_adams_subcommand(capsys, tmp_path):
    setup = tmp_path / "setup.json"
    setup.write_text(json.dumps(
        {"young": {"kind": "power", "p": 2.0}, "lambda": 0.0, "alpha": 0.25, "beta": 0.5, "n": 1}))
    out_path = tmp_path / "adams.csv"
    # indicators of B(0, 2^k) up to the extent 8, and power decays of exponent 0.25, 0.5, 0.75 < n
    for family, ids in [("indicators", [f"indicator-2^{k}" for k in range(-4, 4)]),
                        ("power-decay", ["power-decay-0.25", "power-decay-0.5", "power-decay-0.75"])]:
        code, out, _ = run(capsys, "adams", "--setup", str(setup), "--family", family,
                           "--grid-h", "0.03125", "--grid-extent", "8", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[1].split(",")[:4] == ["test_id", "source_norm", "target_norm", "ratio"]
        assert [line.split(",")[0] for line in lines[2:]] == ids, family


def test_determinism_byte_identical(capsys, tmp_path):
    setup = tmp_path / "setup.json"
    setup.write_text(json.dumps(
        {"young": {"kind": "power", "p": 2.0}, "lambda": 0.5, "alpha": 0.25, "beta": 0.5, "n": 1}))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(capsys, "check", "--condition", "supremal-maximal",
                         "--setup", str(setup), "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("grid", [GridSpec(1, 0.25, 1.0), GridSpec(2, 0.25, 1.0)])
def test_grid_lines_match_per_value_csv(tmp_path, grid):
    # the rows _cmd_operators built before writing column by column, one _fmt per value
    rng = np.random.default_rng(3)
    vals = rng.uniform(-2.0, 2.0, grid.shape()) * 10.0 ** rng.integers(-12, 12, grid.shape())
    vals.flat[[0, 3, 5, 6]] = [np.nan, np.inf, -np.inf, -0.0]
    ax = grid.axis_centers()
    if grid.n == 1:
        rows, header = [[i, ax[i], v] for i, v in enumerate(vals)], ["index", "x", "value"]
    else:
        m = grid.cells_per_axis
        rows = [[i * m + j, ax[i], ax[j], vals[i, j]] for i in range(m) for j in range(m)]
        header = ["index", "x", "y", "value"]
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    _write_csv(str(old), header, rows)
    _write_lines(str(new), header, _grid_lines(grid, vals))
    assert new.read_bytes() == old.read_bytes()
    assert b",nan\n" in old.read_bytes() and b",inf\n" in old.read_bytes() and b",-inf\n" in old.read_bytes()


_IMPORT_PROBE = """
import json, sys
sys.modules["scipy"] = None  # from here on every scipy import raises ImportError
import olab.cli

def scipy_modules():
    return sorted(m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod is not None)

ball = '{"type":"ball_indicator","center":[0],"radius":1}'
disk = '{"type":"ball_indicator","center":[0,0],"radius":0.5}'
p2 = '{"kind":"power","p":2}'
setup = '{"young":{"kind":"power","p":2},"lambda":0.0,"alpha":0.25,"beta":0.5,"n":1}'
small = ["--grid-h", "0.125", "--grid-extent", "2"]
seen = {"import": scipy_modules()}
for name, argv in [
    ("norm", ["norm", "--input", ball, "--young", p2, "--lambda", "0.5", *small]),
    ("probe", ["probe", "--young", '{"kind":"exp_minus_one"}', "--lambda", "0.25", *small]),
    ("uncentered", ["operators", "--uncentered", "--alpha", "0.5", "--input", ball, *small]),
    ("uncentered-2d", ["operators", "--uncentered", "--alpha", "0.5", "--input", disk, "--grid-n", "2", *small]),
    ("riesz-2d", ["operators", "--operator", "riesz", "--alpha", "0.5", "--input", disk, "--grid-n", "2", *small]),
    ("check", ["check", "--condition", "adams-sufficient", "--setup", setup, "--rmax-schedule", "16,64"]),
    ("classify", ["classify", "--young", p2, "--class", "delta2", "--range", "0.5:8:4"]),
    ("adams", ["adams", "--setup", setup, "--family", "indicators", *small]),
]:
    seen[name] = [olab.cli.main(argv), scipy_modules()]
print(json.dumps(seen))
"""


def _fresh_python(code, *args):
    """Last stdout line of a fresh interpreter that runs ``code`` (``args`` in its sys.argv[1:]) with this olab on
    its path, as JSON."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.dirname(os.path.dirname(olab.__file__)),
                                                        os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_cli_runs_every_subcommand_without_scipy():
    # a fresh interpreter where scipy cannot be imported: this test process has loaded scipy for its references
    seen = _fresh_python(_IMPORT_PROBE)
    assert seen.pop("import") == []
    assert sorted(seen) == sorted(["norm", "probe", "uncentered", "uncentered-2d", "riesz-2d",
                                   "check", "classify", "adams"])
    for name, (code, modules) in seen.items():
        assert code == 0 and modules == [], name


_NUMPY_MA_PROBE = """
import json, sys
import olab
from olab.characterize import CONDITION_KINDS

p2 = olab.PowerYoung(2)
setup = olab.AdamsSetup(p2, olab.growth_from_lambda(p2, 0.0), alpha=0.25, beta=0.5, n=1)
small = olab.GridSpec(1, 1 / 8, 2.0)
seen = {"import": "numpy.ma" in sys.modules}
for n in (1, 2):
    g = olab.GridSpec(n, 1 / 8, 1.0)
    f = olab.sample_function(g, {"type": "ball_indicator", "center": (0.0,) * n, "radius": 0.5})
    for centered in (True, False):
        olab.maximal(f, 0.5, centered=centered)
        seen[f"maximal-{n}d-{centered}"] = "numpy.ma" in sys.modules
for kind in CONDITION_KINDS:
    olab.check_condition(kind, setup)
    seen[kind] = "numpy.ma" in sys.modules
olab.triviality_probe(p2, olab.growth_from_lambda(p2, 0.5), grid=small)
seen["triviality"] = "numpy.ma" in sys.modules
olab.estimate_operator_norm(setup, grid=small)
seen["adams"] = "numpy.ma" in sys.modules
print(json.dumps(seen))
"""


def test_maximal_conditions_and_probes_load_no_numpy_ma():
    # np.unique without return_* flags (and np.isin) import numpy.ma on first use, about 1 MiB
    seen = _fresh_python(_NUMPY_MA_PROBE)
    assert [name for name, loaded in seen.items() if loaded] == []


_CAPPED = """
import contextlib, io, json, resource, sys
soft, hard = resource.getrlimit(resource.RLIMIT_AS)
cap = 2**30 if hard == resource.RLIM_INFINITY else min(2**30, hard)
resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
import olab.cli
with contextlib.redirect_stderr(io.StringIO()) as err, contextlib.redirect_stdout(io.StringIO()) as out:
    code = olab.cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, out.getvalue(), err.getvalue()]))
"""


def test_delta_prime_past_its_pair_bound_is_status_3():
    # about 20k nodes, 8,000 in the first window: 488 MiB per array of the outer product, so under a
    # 1 GiB address-space cap a missing guard fails at once with a MemoryError
    argv = ["classify", "--young", '{"kind":"power","p":2}', "--class", "delta_prime", "--range", "1e-3:1e3:1000"]
    code, _, err = _fresh_python(_CAPPED, json.dumps(argv))
    assert code == 3
    assert "pairs" in err


def test_out_of_memory_is_status_3():
    # 16,000 x 16,000 cells, 2 GiB per array of samples: under a 1 GiB address-space cap numpy raises a
    # MemoryError, once a traceback with exit 1
    argv = ["operators", "--alpha", "0.5", "--input", '{"type":"gaussian"}', "--grid-n", "2", "--grid-h", "0.001"]
    code, out, err = _fresh_python(_CAPPED, json.dumps(argv))
    assert (code, out) == (3, "") and err.startswith("olab: out of memory") and "Traceback" not in err


def test_bounded_tabulated_young_is_status_3(capsys):
    # finite values that end flat: phi stays bounded, and every Morrey sup was nan (an IndexError, exit 1)
    young = '{"kind":"tabulated","nodes":[1,2],"values":[0,0]}'
    for weak in ([], ["--weak"]):
        code, out, err = run(capsys, "norm", "--input", BALL, "--young", young, "--lambda", "0.5", "--grid-h", "0.125",
                             "--grid-extent", "2", *weak)
        assert (code, out) == (3, "") and "tend to inf" in err


_REUSE_PROBE = """
import contextlib, io, json, os, sys
import olab.cli

calls, out_dir = json.loads(sys.argv[1]), sys.argv[2]
build = olab.cli._build_parser
builds = []
olab.cli._build_parser = lambda: builds.append(1) or build()

def outputs(path):  # the CSV text and the summary without its wall time; None for a file not written
    summary = os.path.splitext(path)[0] + ".json"
    csv = open(path).read() if os.path.exists(path) else None
    meta = json.load(open(summary)) if os.path.exists(summary) else None
    if meta is not None:
        del meta["wall_time_s"]
    return csv, meta

seen = []
for i, argv in enumerate(calls):
    path = os.path.join(out_dir, f"{i}.csv")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = olab.cli.main([*argv, "--out", path])
    seen.append([code, *outputs(path)])
olab.cli._cmd_norm = lambda args: 7  # patched after the first call: main dispatches at call time
patched = olab.cli.main(["norm", "--input", "{}", "--young", "{}"])
print(json.dumps({"calls": seen, "builds": len(builds), "patched": patched}))
"""


def test_main_reuses_one_parser_per_process(tmp_path):
    # each call in a process that ran others writes what it writes first in a fresh process; the parser is
    # built once, and a subcommand patched after the first call is the one that runs
    small = ["--grid-h", "0.125", "--grid-extent", "2"]
    disk = '{"type":"ball_indicator","center":[0,0],"radius":0.5}'
    calls = [
        ["norm", "--input", BALL, "--young", '{"kind":"power_log","p":2,"a":1}', "--lambda", "0.5", "--weak", *small],
        ["norm", "--input", BALL, "--young", '{"kind":"power_log","p":2,"a":1}', "--lambda", "0.5", *small],
        ["operators", "--grid-n", "2", "--alpha", "0.5", "--input", disk, "--uncentered", *small],
        ["operators", "--grid-n", "2", "--alpha", "0.5", "--input", disk, *small],
        ["operators", "--alpha", "0.5", "--input", BALL, "--no-such-flag", *small],
        ["operators", "--operator", "riesz", "--alpha", "0.5", "--input", BALL, *small],
    ]

    def probe(argvs, name):
        (tmp_path / name).mkdir()
        return _fresh_python(_REUSE_PROBE, json.dumps(argvs), str(tmp_path / name))

    together = probe(calls, "together")
    assert together["builds"] == 1 and together["patched"] == 7
    assert [code for code, _, _ in together["calls"]] == [0, 0, 0, 0, 2, 0]
    assert together["calls"][4][1:] == [None, None]
    for i, argv in enumerate(calls):
        assert together["calls"][i] == probe([argv], f"alone{i}")["calls"][0], argv
