import json

import pytest

from olab.cli import main

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


def test_malformed_json_is_status_2_no_output(capsys, tmp_path):
    out_path = tmp_path / "x.csv"
    code, _, err = run(capsys, "norm", "--input", "{oops", "--young", P2, "--out", str(out_path))
    assert code == 2
    assert not out_path.exists()
    assert "parse error" in err


def test_unknown_formula_is_status_2(capsys):
    code, _, _ = run(capsys, "norm", "--input", '{"type":"warp"}', "--young", P2)
    assert code == 2


def test_domain_error_is_status_3(capsys):
    code, _, err = run(capsys, "operators", "--alpha", "1.5", "--input", BALL)
    assert code == 3
    assert "alpha" in err


@pytest.mark.parametrize("n", ["1", "2"])
def test_non_finite_maximal_input_is_status_3(capsys, n):
    # an Infinity weight on a gaussian (positive on the whole grid) samples to inf everywhere
    inf_gauss = '{"type":"sum","terms":[{"type":"gaussian","scale":1,"weight":Infinity}]}'
    code, _, err = run(capsys, "operators", "--alpha", "0.5", "--input", inf_gauss, "--grid-n", n,
                       "--grid-h", "0.25", "--grid-extent", "1")
    assert code == 3
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
    import numpy as np
    vc = np.array([float(l.split(",")[2]) for l in a.read_text().splitlines()[2:]])
    vu = np.array([float(l.split(",")[2]) for l in b.read_text().splitlines()[2:]])
    assert np.all(vu >= vc - 1e-12)
    assert np.all(vu <= 2 ** 0.75 * vc * 1.01 + 1e-300)


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


def test_adams_subcommand(capsys, tmp_path):
    setup = tmp_path / "setup.json"
    setup.write_text(json.dumps(
        {"young": {"kind": "power", "p": 2.0}, "lambda": 0.0, "alpha": 0.25, "beta": 0.5, "n": 1}))
    out_path = tmp_path / "adams.csv"
    code, out, _ = run(capsys, "adams", "--setup", str(setup), "--family", "indicators",
                       "--grid-h", "0.03125", "--grid-extent", "8", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[1].split(",")[:4] == ["test_id", "source_norm", "target_norm", "ratio"]
    assert len(lines) > 4


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
