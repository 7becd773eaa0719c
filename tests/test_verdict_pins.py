"""Golden pins of every best-constant report: constants, witness, verdict, details.

Each case is one report of ``check_condition``, ``check_membership``,
``classify_growth`` or ``triviality_probe``; ``verdict_pins.json`` holds the
values they gave when the pins were recorded.  The comparison is ``==``, with
NaN equal to NaN, so a refactor of the window bookkeeping must reproduce
every number bit for bit.

Regenerate (only at a commit whose outputs are the reference):
    PYTHONPATH=src python tests/test_verdict_pins.py --write
"""

import json
import math
import pathlib
import sys
from functools import partial

import numpy as np
import pytest

from olab import (
    AdamsSetup,
    ComposedPowerYoung,
    ExpMinusOneYoung,
    LinearCappedYoung,
    PowerGrowth,
    PowerLogYoung,
    PowerYoung,
    check_condition,
    check_membership,
    classify_growth,
    growth_from_lambda,
    triviality_probe,
)
from olab.characterize import CONDITION_KINDS
from olab.errors import ConfigError
from olab.report import doubling_schedule, node_max, track
from olab.young import _GROWTH_CLASSES

PINS = pathlib.Path(__file__).with_name("verdict_pins.json")

P2 = PowerYoung(2)
EXP = ExpMinusOneYoung()
MEMBERSHIP_YOUNG = {"power": P2, "power_log": PowerLogYoung(2, 1), "exp_minus_one": EXP}
CLASSIFY_YOUNG = {
    "power-1": PowerYoung(1),
    "power-2": P2,
    "power_log": PowerLogYoung(2, 1),
    "exp_minus_one": EXP,
    "linear_capped": LinearCappedYoung(),
    "tabulated-conjugate": EXP.conjugate(),
}
# a schedule whose first windows (1/r_max, r_max) are empty or a single node
EMPTY_WINDOWS = [0.5, 1.0, 4.0, 16.0]


def cases():
    """Map case name -> zero-argument callable returning a ConditionReport."""
    out = {}
    for kind in CONDITION_KINDS:
        for q in (3, 4, 6):
            for lam in (0.0, 0.5):
                setup = AdamsSetup(P2, growth_from_lambda(P2, lam), alpha=0.25, beta=2.0 / q)
                out[f"check/{kind}/q={q}/lam={lam}"] = partial(check_condition, kind, setup)
        setup = AdamsSetup(P2, growth_from_lambda(P2, 0.0), alpha=0.25, beta=0.5)
        out[f"check/{kind}/empty-windows"] = partial(check_condition, kind, setup, schedule=EMPTY_WINDOWS)
    for membership in ("omega", "g"):
        for name, phi in MEMBERSHIP_YOUNG.items():
            for lam in (-1.0, 0.0, 0.5, 2.0):
                varphi = growth_from_lambda(phi, lam)
                out[f"membership/{membership}/{name}/lam={lam}"] = partial(
                    check_membership, varphi, phi, membership)
                out[f"membership/{membership}/{name}/lam={lam}/schedule=0.5,1,4"] = partial(
                    check_membership, varphi, phi, membership, schedule=[0.5, 1.0, 4.0])
    for name, phi in CLASSIFY_YOUNG.items():
        for growth_class in ("delta2", "nabla2", "delta_prime"):
            out[f"classify/{growth_class}/{name}"] = partial(classify_growth, phi, growth_class)
            out[f"classify/{growth_class}/{name}/empty-windows"] = partial(
                classify_growth, phi, growth_class, schedule=EMPTY_WINDOWS)
    for lam in (-1.0, 0.5, 2.0):
        out[f"probe/power-2/lam={lam}"] = partial(triviality_probe, P2, growth_from_lambda(P2, lam))
    return out


def record(report) -> dict:
    return {
        "constants": list(report.constants),
        "witness": report.witness,
        "verdict": report.verdict,
        "details": report.details,
    }


def same(a, b) -> bool:
    """Structural ==, with NaN equal to NaN and no tolerance."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    return a == b


CASES = cases()


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text(encoding="utf-8"))


def test_pins_cover_every_case(pins):
    assert sorted(pins) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_pin(name, pins):
    got = json.loads(json.dumps(record(CASES[name]())))
    assert same(got, pins[name]), f"{name}: {got} != {pins[name]}"


def test_same_is_strict():
    assert same([1.0, float("nan")], [1.0, float("nan")])
    assert not same([1.0], [1.0 + 4e-16])
    assert not same({"a": None}, {"a": 0.0})


# classify_growth's default grid; np.geomspace rounds its node 2^9 to 512.0000000000001
CLASSIFY_GRID = np.geomspace(2.0**-10, 2.0**10, 321)


def test_window_keeps_rounded_edge_node():
    edge = CLASSIFY_GRID[304]
    assert 512.0 + 1e-15 < edge < 512.0 * (1 + 1e-12)
    _, witnesses, _ = track(CLASSIFY_GRID, [(1.0 / 512, 512.0)], node_max(CLASSIFY_GRID, CLASSIFY_GRID))
    assert witnesses == [edge]
    # the lower edge is relative too: 1 - 1e-13 lies in the window (1, 2)
    nodes = np.array([1.0 - 1e-13, 2.0])
    assert track(nodes, [(1.0, 2.0)], node_max(nodes, np.array([5.0, 1.0])))[:2] == ([5.0], [nodes[0]])


def test_track_constants_nondecreasing():
    # a measure that falls as its nested windows widen still reads as a running sup
    nodes = np.array([1.0, 2.0, 4.0])
    constants, witnesses, verdict = track(nodes, [(2.0, 2.0), (1.0, 4.0)], lambda w: (4.0 / nodes[w].size, w.start))
    assert (constants, witnesses, verdict) == ([4.0, 4.0], [1, 0], "holds-stable")
    # windows that are not nested are no widening probe
    with pytest.raises(ConfigError, match="contain the one before it"):
        track(nodes, [(1.0, 4.0), (1.0, 2.0)], node_max(nodes, nodes))


@pytest.mark.parametrize("growth_class", sorted(_GROWTH_CLASSES))
def test_classify_constants_unmoved_by_window_rule(growth_class):
    """The relative window edge adds node 512.0000000000001 at r_max = 512 and moves no shipped constant."""
    constant = _GROWTH_CLASSES[growth_class]
    shipped = [*CLASSIFY_YOUNG.values(), PowerYoung(3, scale=0.5), PowerLogYoung(1, 1),
               ComposedPowerYoung(P2, 0.5), ComposedPowerYoung(EXP, 0.5)]
    t = CLASSIFY_GRID
    for phi in shipped:
        # the absolute 1e-15 slack the windows had before the shared rule
        absolute = [constant(phi, t[(t >= 1.0 / r - 1e-15) & (t <= r + 1e-15)])[0] for r in doubling_schedule()]
        assert classify_growth(phi, growth_class).constants == np.maximum.accumulate(absolute).tolist(), phi


def test_omega_legs_keep_strict_edges():
    # 1/varphi(r) = r peaks at the excluded node 1.0 of the lower leg (r < 1)
    t = np.array([0.25, 0.5, 1.0, 2.0])
    rep = check_membership(PowerGrowth(-1.0), P2, "omega", t_grid=t, schedule=[4.0])
    assert rep.details["lower"]["values"] == [0.5]
    # a window holding only t0 is empty for the upper leg (r > t0)
    rep = check_membership(PowerGrowth(-1.0), P2, "omega", t_grid=t, schedule=[0.25])
    assert rep.details["upper"]["values"] == [0.0]


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    data = {name: record(make()) for name, make in sorted(CASES.items())}
    PINS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(data)} pins to {PINS}")
