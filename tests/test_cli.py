"""Command line behavior: golden outputs, exit codes, determinism.

Every command is driven through cli.main with an argv list; stdout is the
JSON document under test and stderr carries diagnostics. Exit codes: 0 ok,
1 bad input, 2 precision exhaustion, 3 a verification check failed, 4 an
internal fault.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import padicells
from padicells import cli, decompose, oracle
from padicells.cells import cell_from_json
from padicells.expr import parse_constructible, print_constructible
from padicells.padic import Prime


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def problem(tmp_path, name="prob.json", **fields):
    data = {"version": 1, **fields}
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def stage(beta="1", alpha=None, alpha_strict=True, beta_strict=False,
          gamma="0", mu="1", n=1):
    return {
        "alpha": alpha, "alpha_strict": alpha_strict, "alpha_residue": None,
        "beta": beta, "beta_strict": beta_strict, "beta_residue": None,
        "gamma": gamma, "mu": mu, "n": n,
    }


def cell(*stages):
    return {"conditions": list(stages)}


# ---------------------------------------------------------------------------
# decompose

def test_decompose_quadratic(capsys, tmp_path):
    path = problem(tmp_path, p=3, integrand="abs(x0^2 - 1)")
    code, out, _ = run(capsys, "decompose", path)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["cells"]) >= 4
    assert len(doc["cells"]) == len(doc["terms"])
    assert list(doc["terms"][0]) == ["delta", "a", "l", "gamma", "mu", "n"]


def test_decompose_constant(capsys, tmp_path):
    # the ball minus its center plus the center point: cosets never
    # contain their own center, so constants still need the pair
    path = problem(tmp_path, p=3, integrand="abs(5)")
    code, out, _ = run(capsys, "decompose", path)
    assert code == 0
    doc = json.loads(out)
    assert {t["delta"] for t in doc["terms"]} == {"5"}
    assert {t["a"] for t in doc["terms"]} == {0}
    assert {t["mu"] for t in doc["terms"]} == {"1", "0"}


def test_decompose_zero_polynomial(capsys, tmp_path):
    path = problem(tmp_path, p=3, integrand="abs(0)")
    code, out, err = run(capsys, "decompose", path)
    assert code == 1
    assert out == ""
    assert "f identically zero" in err


def test_decompose_precision_exhaustion(capsys, tmp_path):
    # roots 1 and 1 + 3^6 collide mod 3^6; depth 2 cannot split them
    path = problem(tmp_path, p=3, integrand="abs(x0^2 - 731*x0 + 730)")
    code, out, err = run(capsys, "decompose", path, "--precision", "2")
    assert code == 2
    assert "precision exhausted" in err


def test_decompose_out_file(capsys, tmp_path):
    path = problem(tmp_path, p=3, integrand="abs(x0)")
    target = tmp_path / "cells.json"
    code, out, _ = run(capsys, "decompose", path, "--out", str(target))
    assert code == 0
    assert out == ""
    assert len(json.loads(target.read_text())["cells"]) >= 1


def test_decompose_verify_n_reports_the_check(capsys, tmp_path):
    path = problem(tmp_path, p=3, integrand="abs(x0^2 - 1)")
    _, plain, _ = run(capsys, "decompose", path)
    code, out, _ = run(capsys, "decompose", path, "--verify-N", "30")
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    # every class but -1 mod 3^30, which only says v(x0 + 1) >= 30
    assert doc.pop("verify") == {
        "passed": True, "classes": 3**30, "checks": 3**30 - 1, "counterexamples": [],
    }
    assert doc == json.loads(plain)


def test_decompose_verify_n_exits_3_on_a_bad_decomposition(capsys, tmp_path, monkeypatch):
    from test_decompose import _corruptions

    real = cli.decompose.decompose_univariate

    def dropped_cell(f, prime, precision_N):
        terms = real(f, prime, precision_N=precision_N)
        return list(_corruptions(terms, prime))[1]  # the first term left out

    monkeypatch.setattr(cli.decompose, "decompose_univariate", dropped_cell)
    path = problem(tmp_path, p=3, integrand="abs(x0^2 - 1)")
    code, out, _ = run(capsys, "decompose", path, "--verify-N", "4")
    assert code == cli.EXIT_VERIFY
    report = json.loads(out)["verify"]
    assert report["passed"] is False
    assert report["counterexamples"][0] == "lift 3 is in the domain but in no cell"


def test_decompose_verify_n_rejects_an_unprintable_class_count(capsys, tmp_path):
    # 3^9100 has more digits than Python prints from an int by default
    path = problem(tmp_path, p=3, integrand="abs(x0^2 - 1)")
    code, out, err = run(capsys, "decompose", path, "--verify-N", "9100")
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert "--verify-N 9100" in err


# ---------------------------------------------------------------------------
# integrate

def test_integrate_auto_with_oracle(capsys, tmp_path):
    path = problem(tmp_path, p=3, integrand="abs(x0)")
    code, out, _ = run(capsys, "integrate", path, "--verify-N", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["values"] == ["3/4"]
    assert doc["nonintegrable"] is False
    assert doc["verify"]["pass"] is True
    assert list(doc["verify"]) == ["symbolic", "oracle", "bound", "pass"]


def test_integrate_auto_power(capsys, tmp_path):
    path = problem(tmp_path, p=3, integrand="abs(x0^2 - 1)^2")
    code, out, _ = run(capsys, "integrate", path)
    assert code == 0
    assert json.loads(out)["values"] == ["5/13"]


def test_integrate_scaled_constant(capsys, tmp_path):
    path = problem(tmp_path, p=3, integrand="5")
    code, out, _ = run(capsys, "integrate", path)
    assert code == 0
    assert json.loads(out)["values"] == ["5"]


def test_integrate_auto_rejects_negative_power(capsys, tmp_path):
    path = problem(tmp_path, p=3, integrand="abs(x0)^(-1)")
    code, _, err = run(capsys, "integrate", path)
    assert code == 1
    assert "list cells explicitly" in err


def test_integrate_nonintegrable_flag(capsys, tmp_path):
    # |t|^-1 over Z_3 diverges: the whole level is zero by convention
    path = problem(
        tmp_path, p=3, integrand="abs(x0)^(-1)", cells=[cell(stage())]
    )
    code, out, _ = run(capsys, "integrate", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["values"] == ["0"]
    assert doc["nonintegrable"] is True


def test_integrate_symbolic_nonintegrable_flag(capsys, tmp_path):
    path = problem(tmp_path, p=3, integrand="abs(x0)^(-2)", cells=[cell(stage())])
    code, out, _ = run(capsys, "integrate", path, "--mode", "symbolic")
    assert (code, out) == (0, '{"mode":"symbolic","expression":"0","nonintegrable":true}\n')


def test_power_of_a_constructible_base_expands(capsys, tmp_path):
    path = problem(tmp_path, p=3, integrand="(v(x0) + 1)^2*abs(x0)", cells=[cell(stage())])
    code, out, _ = run(capsys, "parse", path)
    assert code == 0
    assert json.loads(out)["integrand"] == "abs(x0) + 2*v(x0)*abs(x0) + v(x0)^2*abs(x0)"
    code, out, _ = run(capsys, "integrate", path, "--verify-N", "6")
    doc = json.loads(out)
    assert (code, doc["values"], doc["verify"]["pass"]) == (0, ["135/128"], True)


@pytest.mark.parametrize("integrand, stage1, value", [
    # the factor free of x1 stands on the right of the product
    ("abs((x1 - x0)*x0)", stage(gamma="x0"), "9/16"),
    # |0| over Z_3^2: the identically zero norm factor kills the term
    ("abs(x1*x0 - x0*x1)", stage(), "0"),
])
def test_integrate_two_variable_factor_shapes(capsys, tmp_path, integrand, stage1, value):
    path = problem(tmp_path, p=3, variables={"params": 0, "integrate": 2},
                   integrand=integrand, cells=[cell(stage(), stage1)])
    code, out, _ = run(capsys, "integrate", path, "--verify-N", "5")
    doc = json.loads(out)
    assert (code, doc["values"], doc["verify"]["pass"]) == (0, [value], True)


def test_integrate_parametrized_point(capsys, tmp_path):
    two_stage = cell(stage(), stage(beta="x0"))
    path = problem(
        tmp_path, p=3, variables={"params": 1, "integrate": 1},
        integrand="abs(x1)", cells=[two_stage],
        base_points=[["1"], ["9"]],
    )
    code, out, _ = run(capsys, "integrate", path)
    assert code == 0
    assert json.loads(out)["values"] == ["3/4", "1/108"]

    code, out, _ = run(capsys, "integrate", path, "--point", "9")
    assert code == 0
    assert json.loads(out)["values"] == ["1/108"]


def test_integrate_symbolic_round_trip(capsys, tmp_path):
    from fractions import Fraction

    from padicells.expr import eval_constructible, parse_constructible
    from padicells.padic import PAdicScalar, Prime

    two_stage = cell(stage(), stage(beta="x0"))
    path = problem(
        tmp_path, p=3, variables={"params": 1, "integrate": 1},
        integrand="abs(x1)", cells=[two_stage], mode="symbolic",
    )
    code, out, _ = run(capsys, "integrate", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "symbolic"
    assert doc["nonintegrable"] is False
    g = parse_constructible(doc["expression"])
    p3 = Prime(3)
    got = eval_constructible(g, [PAdicScalar(Fraction(9), p3)], p3)
    assert got == Fraction(1, 108)


def test_integrate_symbolic_refuses_guarded_cells(capsys, tmp_path):
    # the two pin_bound_residues refinements of |x1| <= |x0| in P_2 used to
    # print a sum worth 3/8 at x0 = 1, where the integral is 27/80
    pinned = [cell(stage(), dict(stage(beta="x0", n=2), beta_residue=r)) for r in (0, 1)]
    fields = dict(p=3, variables={"params": 1, "integrate": 1},
                  integrand="abs(x1)", cells=pinned)
    code, out, err = run(capsys, "integrate", problem(tmp_path, mode="symbolic", **fields))
    assert code == 1 and out == ""
    assert "cell 0" in json.loads(err)["error"]

    path = problem(tmp_path, name="at1.json", base_points=[["1"], ["3"]], **fields)
    code, out, _ = run(capsys, "integrate", path)
    assert code == 0
    assert json.loads(out)["values"] == ["27/80", "1/240"]


# 1 over |x0| <= |3| and over |3| < |x0| <= 1, with x1 in Z_3 on both
DIFFERENT_BASES = (
    '{"version":1,"p":3,"variables":{"params":1,"integrate":1},"integrand":"1",'
    '"cells":[{"conditions":[{"gamma":"0","mu":"1","n":1,"beta":"3",'
    '"beta_strict":false},{"gamma":"0","mu":"1","n":1,"beta":"1",'
    '"beta_strict":false}]},{"conditions":[{"gamma":"0","mu":"1","n":1,'
    '"alpha":"3","alpha_strict":true,"beta":"1","beta_strict":false},'
    '{"gamma":"0","mu":"1","n":1,"beta":"1","beta_strict":false}]}],'
    '"base_points":[["1"],["3"]]}'
)


def test_integrate_symbolic_refuses_cells_over_different_bases(capsys, tmp_path):
    # each closed form is 1 over its own base; their sum 2 held nowhere
    path = tmp_path / "bases.json"
    path.write_text(DIFFERENT_BASES)
    code, out, err = run(capsys, "integrate", str(path), "--mode", "symbolic")
    assert code == cli.EXIT_INPUT and out == ""
    assert "cells 0 and 1" in json.loads(err)["error"]
    code, out, _ = run(capsys, "integrate", str(path))
    assert code == cli.EXIT_OK and json.loads(out)["values"] == ["1", "1"]

    # cells over one base still sum: |x1| <= |3| and |3| < |x1| <= 1 fill Z_3
    split = problem(
        tmp_path, name="split.json", p=3, variables={"params": 1, "integrate": 1},
        integrand="1", mode="symbolic",
        cells=[cell(stage(), stage(beta="3")), cell(stage(), stage(alpha="3"))],
    )
    code, out, _ = run(capsys, "integrate", split)
    assert code == cli.EXIT_OK and json.loads(out)["expression"] == "1"


def test_integrate_symbolic_folds_constant_factors(capsys, tmp_path):
    path = problem(
        tmp_path, p=3, variables={"params": 1, "integrate": 1},
        integrand="v(x1)*abs(x1)^2*abs(x0)", cells=[cell(stage(), stage(beta="x0"))],
        mode="symbolic",
    )
    code, out, _ = run(capsys, "integrate", path)
    assert code == 0
    assert json.loads(out)["expression"] == "9/338*abs(x0)^4 + 9/13*v(x0)*abs(x0)^4"


def window_cell():
    """|9| < |x1| <= |x0| over x0 in Z_3."""
    return cell(stage(), stage(alpha="9", beta="x0"))


def test_integrate_empty_window_is_zero(capsys, tmp_path):
    # printed -2/243 from the closed form over an empty window
    path = problem(
        tmp_path, p=3, variables={"params": 1, "integrate": 1},
        integrand="abs(x1)", cells=[window_cell()], base_points=[["27"], ["3"]],
    )
    code, out, _ = run(capsys, "integrate", path)
    assert code == 0
    assert json.loads(out)["values"] == ["0", "2/27"]


def test_integrate_point_stage_is_null_whatever_the_integrand(capsys, tmp_path):
    # x1 = x0 over x0 in Z_3 has measure 0; a pole on it once exited 1
    path = problem(
        tmp_path, p=3, variables={"params": 0, "integrate": 2},
        integrand="abs(inv(x1))",
        cells=[cell(stage(), stage(beta=None, gamma="x0", mu="0"))],
    )
    code, out, _ = run(capsys, "integrate", path)
    assert code == 0
    assert json.loads(out)["values"] == ["0"]


def test_integrate_window_on_eliminated_variable_exits_1(capsys, tmp_path):
    # printed 179/351 and passed --verify-N 5; the oracle gives 124/243
    path = problem(
        tmp_path, p=3, variables={"params": 0, "integrate": 2},
        integrand="abs(x1)", cells=[window_cell()],
    )
    code, out, err = run(capsys, "integrate", path, "--verify-N", "5")
    assert code == 1 and out == ""
    assert "eliminated variable" in json.loads(err)["error"]


@pytest.mark.parametrize("base, upper, want", [
    # |x0| <= |x1| <= 1 over x0 in Z_3: never empty (exited 1 before)
    (stage(), "1", {"symbolic": "9/13", "oracle": "89271868/129140163",
                    "bound": "1/729", "pass": True}),
    # |x0| <= |x1| <= |3| over v(x0) = 0: always empty
    (stage(alpha="1", alpha_strict=False), "3",
     {"symbolic": "0", "oracle": "0", "bound": "0", "pass": True}),
])
def test_integrate_window_settled_by_the_base_stage(capsys, tmp_path, base, upper, want):
    path = problem(
        tmp_path, p=3, variables={"params": 0, "integrate": 2}, integrand="abs(x1)",
        cells=[cell(base, stage(beta=upper, alpha="x0", alpha_strict=False))],
    )
    code, out, _ = run(capsys, "integrate", path, "--verify-N", "6")
    assert code == 0
    assert json.loads(out)["verify"] == want


def test_integrate_window_partly_empty_over_the_base_exits_1(capsys, tmp_path):
    # |x0| <= |x1| <= |3| over x0 in Z_3: empty where v(x0) = 0 only, and
    # the oracle shows the integral is not 0 either
    raw = cell(stage(), stage(beta="3", alpha="x0", alpha_strict=False))
    path = problem(
        tmp_path, p=3, variables={"params": 0, "integrate": 2},
        integrand="abs(x1)", cells=[raw],
    )
    code, out, err = run(capsys, "integrate", path, "--verify-N", "6")
    assert code == 1 and out == ""
    assert "eliminated variable" in json.loads(err)["error"]
    orc = oracle.oracle_integrate(
        parse_constructible("abs(x1)"), cell_from_json(raw, Prime(3), "cell"), Prime(3), 6
    )
    assert orc.value > orc.boundary_mass


def test_integrate_undetermined_norm_exits_2(capsys, tmp_path):
    # at x0 = 1 the series argument sits outside the unit polydisc, so the
    # series is 0 and the norm of its inverse is not determined
    two_stage = cell(stage(), stage(beta="x0"))
    path = problem(
        tmp_path, p=3, variables={"params": 1, "integrate": 1},
        integrand="abs(inv(series([0; tail 2], x0)))*abs(x1)", cells=[two_stage],
        base_points=[["1"]],
    )
    code, out, err = run(capsys, "integrate", path)
    assert code == 2
    assert out == ""
    assert err == '{"error":"norm undetermined at this precision"}\n'


def test_integrate_point_arity_mismatch(capsys, tmp_path):
    path = problem(tmp_path, p=3, integrand="abs(x0)")
    code, _, err = run(capsys, "integrate", path, "--point", "1,2")
    assert code == 1
    assert "coordinates" in err


# ---------------------------------------------------------------------------
# measure and verify

def test_measure_square_coset(capsys, tmp_path):
    path = problem(tmp_path, p=3, cells=[cell(stage(n=2))])
    code, out, _ = run(capsys, "measure", path, "--verify-N", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["measures"] == ["3/8"]
    assert doc["verify"]["pass"] is True


def test_measure_reads_no_mode(capsys, tmp_path):
    # measures are computed concretely whatever the file's mode says
    cells = [cell(stage(n=2))]
    concrete = run(capsys, "measure", problem(tmp_path, p=3, cells=cells), "--verify-N", "6")
    symbolic = run(capsys, "measure", problem(tmp_path, "symbolic.json", p=3, cells=cells,
                                              mode="symbolic"), "--verify-N", "6")
    assert symbolic == concrete
    assert concrete[0] == 0


def test_measure_empty_cell_is_zero(capsys, tmp_path):
    # {|1| < |t| < |3|} at p=3 measured -8/9
    path = problem(tmp_path, p=3, cells=[cell(stage(alpha="1", beta="3", beta_strict=True))])
    code, out, _ = run(capsys, "measure", path)
    assert code == 0
    assert json.loads(out) == {"measures": ["0"]}


def test_verify_report_shape(capsys, tmp_path):
    path = problem(tmp_path, p=3, integrand="abs(x0)")
    code, out, _ = run(capsys, "verify", path)
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["symbolic", "oracle", "bound", "pass"]
    assert doc["symbolic"] == "3/4"
    assert doc["pass"] is True


def test_verify_gap_exits_3(capsys, tmp_path):
    # |t|^-2 blows up towards the inner edge of the window, so the raw
    # boundary mass understates the discrepancy at shallow depth
    annulus = cell(stage(alpha="243", beta="1"))
    path = problem(tmp_path, p=3, integrand="abs(x0)^(-2)", cells=[annulus])
    code, out, _ = run(capsys, "verify", path, "--verify-N", "4")
    assert code == 3
    doc = json.loads(out)
    assert doc["symbolic"] == "242/3"
    assert doc["pass"] is False


# ---------------------------------------------------------------------------
# zeta

def test_zeta_linear_golden_bytes(capsys):
    code, out, _ = run(capsys, "zeta", "[0,1]", "--p", "3")
    assert code == 0
    assert out == '{"numerator":["2/3"],"denominator_factors":[{"c":1,"d":1}]}\n'


def test_zeta_square_with_poincare(capsys):
    code, out, _ = run(capsys, "zeta", "[0,0,1]", "--p", "3",
                       "--check-poincare", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["denominator_factors"] == [{"c": 1, "d": 2}]
    assert doc["poincare"]["passed"] is True
    assert doc["poincare"]["counts"][1:3] == [1, 3]


def test_zeta_unit_constant(capsys):
    code, out, _ = run(capsys, "zeta", "[1]", "--p", "5")
    assert code == 0
    assert json.loads(out) == {"numerator": ["1"], "denominator_factors": []}


def test_zeta_rejects_zero_and_composite(capsys):
    code, _, err = run(capsys, "zeta", "[0]", "--p", "3")
    assert code == 1
    assert "f identically zero" in err

    code, _, err = run(capsys, "zeta", "[0,1]", "--p", "4")
    assert code == 1
    assert "not a prime" in err

    code, _, err = run(capsys, "zeta", "[0.5,1]", "--p", "3")
    assert code == 1
    assert "rational" in err

    code, _, err = run(capsys, "zeta", "[0,1]", "--p", str(2**127 - 1))
    assert code == 1
    assert "3317044064679887385961981" in err


def test_zeta_poincare_check_lifts_roots(capsys):
    # enumerating every residue mod 3^20 would take over half an hour; lifting
    # the roots tries 3 lifts at each of the 20 depths
    code, out, _ = run(capsys, "zeta", "[0,1]", "--p", "3", "--check-poincare", "20")
    assert code == 0
    doc = json.loads(out)
    assert doc["poincare"]["passed"] is True
    assert doc["poincare"]["counts"] == [1] * 21


# ---------------------------------------------------------------------------
# golden bytes: exact stdout of integrate --verify-N, measure, verify and
# decompose on fixed problems

def _cond(beta, gamma, mu):
    # one stage as decompose prints it: a ball (mu 1) with a non-strict
    # radius bound, or its center point (mu 0) with no bound
    beta = "null" if beta is None else f'"{beta}"'
    return ('{"conditions":[{"alpha":null,"alpha_strict":true,"alpha_residue":null,'
            f'"beta":{beta},"beta_strict":{"false" if mu == "1" else "true"},'
            f'"beta_residue":null,"gamma":"{gamma}","mu":"{mu}","n":1}}]}}')


def _row(delta, a, gamma, mu):
    return (f'{{"delta":"{delta}","a":{a},"l":0,"gamma":"{gamma}",'
            f'"mu":"{mu}","n":1}}')


GOLDEN = [
    ("integrate auto", "integrate", dict(p=3, integrand="abs(x0^2 - 1)"),
     ("--verify-N", "4"), 0,
     '{"mode":"concrete","values":["1/2"],"nonintegrable":false,"verify":'
     '{"symbolic":"1/2","oracle":"1093/2187","bound":"2/81","pass":true}}\n'),
    ("integrate square cosets", "integrate",
     dict(p=5, integrand="2*abs(x0)^2",
          cells=[cell(stage(n=2)), cell(stage(mu="2", n=2))]),
     ("--verify-N", "3"), 0,
     '{"mode":"concrete","values":["3125/1953"],"nonintegrable":false,"verify":'
     '{"symbolic":"3125/1953","oracle":"125008/78125","bound":"2/125","pass":true}}\n'),
    ("integrate v-factor window", "integrate",
     dict(p=3, integrand="v(x0)*abs(x0)", cells=[cell(stage(alpha="27"))]),
     ("--verify-N", "3"), 0,
     '{"mode":"concrete","values":["22/243"],"nonintegrable":false,"verify":'
     '{"symbolic":"22/243","oracle":"22/243","bound":"0","pass":true}}\n'),
    ("measure square coset", "measure", dict(p=3, cells=[cell(stage(n=2))]),
     ("--verify-N", "6"), 0,
     '{"measures":["3/8"],"verify":'
     '{"symbolic":"3/8","oracle":"91/243","bound":"1/729","pass":true}}\n'),
    ("measure two stages", "measure",
     dict(p=3, variables={"params": 0, "integrate": 2},
          cells=[cell(stage(), stage(beta="x0"))]),
     ("--verify-N", "3"), 0,
     '{"measures":["3/4"],"verify":'
     '{"symbolic":"3/4","oracle":"182/243","bound":"1/27","pass":true}}\n'),
    ("verify abs", "verify", dict(p=3, integrand="abs(x0)"), (), 0,
     '{"symbolic":"3/4","oracle":"132860/177147","bound":"1/729","pass":true}\n'),
    ("verify gap", "verify",
     dict(p=3, integrand="abs(x0)^(-2)", cells=[cell(stage(alpha="243", beta="1"))]),
     ("--verify-N", "4"), 3,
     '{"symbolic":"242/3","oracle":"80/3","bound":"1/81","pass":false}\n'),
    ("verify p=2 quadratic", "verify", dict(p=2, integrand="abs(x0^2 - 17)"), (), 0,
     '{"symbolic":"13/24","oracle":"277/512","bound":"1/16","pass":true}\n'),
    ("decompose linear", "decompose", dict(p=3, integrand="abs(3*x0 - 1)"), (), 0,
     '{"cells":[' + _cond("1", "0", "1") + "," + _cond(None, "0", "0") + '],"terms":['
     + _row("-1", 0, "0", "1") + "," + _row("-1", 0, "0", "0") + "]}\n"),
    ("decompose quadratic", "decompose", dict(p=3, integrand="abs(x0^2 - 1)"), (), 0,
     '{"cells":[' + ",".join(_cond(b, g, m) for g in ("0", "1", "-1")
                             for b, m in (("3", "1"), (None, "0")))
     + '],"terms":[' + ",".join((
         _row("-1", 0, "0", "1"), _row("-1", 0, "0", "0"),
         _row("2", 1, "1", "1"), _row("0", 0, "1", "0"),
         _row("-2", 1, "-1", "1"), _row("0", 0, "-1", "0"))) + "]}\n"),
]


@pytest.mark.parametrize(
    "command, fields, flags, want_code, want_out",
    [case[1:] for case in GOLDEN],
    ids=[case[0] for case in GOLDEN],
)
def test_golden_bytes(capsys, tmp_path, command, fields, flags, want_code, want_out):
    code, out, err = run(capsys, command, problem(tmp_path, **fields), *flags)
    assert (code, out, err) == (want_code, want_out, "")


def test_golden_integrands_round_trip():
    for case in GOLDEN:
        text = case[2].get("integrand")
        if text is not None:
            f = parse_constructible(text)
            assert parse_constructible(print_constructible(f)) == f, text
            # and through a canonical product and sum of the same pieces
            g = f * f + f.scale(F(-1, 3))
            assert parse_constructible(print_constructible(g)) == g, text


# ---------------------------------------------------------------------------
# internal faults and start-up

@pytest.mark.parametrize("fault", [
    RuntimeError("power-coset self-check failed lifting witness 2 for p=3, n=2"),
    AssertionError("ball pieces carry a nonzero unit scale"),
    # the readers refuse every input that could raise these
    TypeError("unsupported operand type(s) for +: 'int' and 'NoneType'"),
    KeyError("conditions"),
])
def test_internal_fault_exits_4(capsys, tmp_path, monkeypatch, fault):
    def broken(args):
        raise fault

    monkeypatch.setattr(cli, "cmd_parse", broken)
    code, out, err = run(capsys, "parse", problem(tmp_path, p=3, integrand="abs(x0)"))
    assert code == cli.EXIT_INTERNAL == 4
    assert out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"].startswith(f"internal error ({type(fault).__name__})")


def test_too_deeply_nested_input_exits_1(capsys, tmp_path):
    # RecursionError is a RuntimeError, but here the input is at fault
    integrand = "abs(" * 3000 + "x0" + ")" * 3000
    code, out, err = run(capsys, "parse", problem(tmp_path, p=3, integrand=integrand))
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert json.loads(err)["error"] == "input nested too deeply"


# child interpreters import the padicells this suite imported, installed
# or not
_CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
    os.path.dirname(os.path.dirname(padicells.__file__)), os.environ.get("PYTHONPATH"),
]))}


def test_cli_import_does_not_load_sympy():
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, padicells.cli; print('sympy' in sys.modules)"],
        capture_output=True, text=True, check=True, env=_CHILD_ENV,
    )
    assert done.stdout == "False\n"


_ROOTLESS_RUN = """
import sys
from padicells import cli, polys
if sys.argv[1] == "factor":  # factor every f, as before the root test mod p
    polys.has_root_mod_p = lambda f, p: True
cli.main(["zeta", '["1","1","1"]', "--p", "2"])
cli.main(["zeta", '["1","1","1"]', "--p", "2", "--check-poincare", "6"])
cli.main(["decompose", sys.argv[2], "--verify-N", "3"])
print("sympy" in sys.modules)
"""


def test_polynomials_without_a_root_mod_p_do_not_load_sympy(tmp_path):
    # x^2 + x + 1 has no root mod 2 and x^2 + 1 none mod 3
    path = problem(tmp_path, p=3, integrand="abs(x0^2 + 1)")
    skip, factor = (
        subprocess.run([sys.executable, "-c", _ROOTLESS_RUN, how, path],
                       capture_output=True, text=True, check=True,
                       env=_CHILD_ENV).stdout.splitlines()
        for how in ("skip", "factor")
    )
    assert skip[-1] == "False" and factor[-1] == "True"
    assert skip[:-1] == factor[:-1]
    assert skip[:2] == [
        '{"numerator":["1"],"denominator_factors":[]}',
        '{"numerator":["1"],"denominator_factors":[],"poincare":{"passed":true,'
        '"counts":[1,0,0,0,0,0,0],"expected":["1","0","0","0","0","0","0"]}}',
    ]
    assert json.loads(skip[2])["verify"]["passed"] is True


def test_zeta_check_poincare_decomposes_once(capsys, monkeypatch):
    # the ball-tree walk is what decompose_univariate and igusa_zeta share
    calls = []
    walk = decompose._ball_tree

    def counted(*args, **kwargs):
        calls.append(args)
        return walk(*args, **kwargs)

    monkeypatch.setattr(decompose, "_ball_tree", counted)
    monkeypatch.setattr(cli.integrate, "_ball_tree", counted)
    code, out, _ = run(capsys, "zeta", "[-1,0,1]", "--p", "3", "--check-poincare", "6")
    assert code == cli.EXIT_OK and json.loads(out)["poincare"]["passed"] is True
    assert len(calls) == 1


def test_python_dash_m_runs_the_cli():
    done = subprocess.run(
        [sys.executable, "-m", "padicells", "zeta", "[0,1]", "--p", "3"],
        capture_output=True, text=True, env=_CHILD_ENV,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == '{"numerator":["2/3"],"denominator_factors":[{"c":1,"d":1}]}\n'


def test_integrate_import_does_not_load_oracle():
    # the oracle is the independent reference the engine is checked against
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, padicells.integrate; print('padicells.oracle' in sys.modules)"],
        capture_output=True, text=True, check=True, env=_CHILD_ENV,
    )
    assert done.stdout == "False\n"


# ---------------------------------------------------------------------------
# parse and schema errors

def test_parse_echo(capsys, tmp_path):
    path = problem(tmp_path, p=3, integrand="abs( x0 ^ 2 - 1 )")
    code, out, _ = run(capsys, "parse", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["integrand"] == "abs(x0^2 - 1)"
    assert doc["cells"] == "auto"


def test_parse_reports_dsl_span(capsys, tmp_path):
    path = problem(tmp_path, p=3, integrand="abs(x0")
    code, _, err = run(capsys, "parse", path)
    assert code == 1
    diag = json.loads(err)
    assert diag["span"]["start"] == 6
    assert diag["error"].startswith("integrand: ")

    # a cell's terms keep their span too
    path = problem(tmp_path, p=3, cells=[cell(stage(), stage(beta="x0 * (1"))])
    code, _, err = run(capsys, "parse", path)
    assert code == 1
    diag = json.loads(err)
    assert diag == {"error": "cells[0].conditions[1].beta: expected ), found EOF",
                    "span": {"start": 7, "end": 7}}


@pytest.mark.parametrize(
    "fields,needle",
    [
        ({"p": 3}, "version"),
        ({"version": 2, "p": 3}, "version"),
        ({"version": 1}, "prime"),
        ({"version": 1, "p": 3, "cells": []}, "cells"),
        ({"version": 1, "p": 3, "variables": {"params": 0}}, "variables"),
        ({"version": 1, "p": 3, "mode": "fast"}, "mode"),
        ({"version": 1, "p": 3, "base_points": []}, "base_points"),
    ],
)
def test_schema_rejections(capsys, tmp_path, fields, needle):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(fields))
    code, _, err = run(capsys, "parse", str(path))
    assert code == 1
    assert needle in err


def test_malformed_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "parse", str(path))
    assert code == 1
    assert "not valid JSON" in err


LOOSE_FIELDS = [
    ("n", 2.7, "cells[0].conditions[0].n must be a JSON integer"),
    ("mu", 0.5, "cells[0].conditions[0].mu must be a rational"),
    ("alpha_strict", 0, "cells[0].conditions[0].alpha_strict must be a JSON boolean"),
    ("beta_strict", "no", "cells[0].conditions[0].beta_strict must be a JSON boolean"),
    ("beta_residue", True, "cells[0].conditions[0].beta_residue must be a JSON integer"),
    ("params", True, "variables.params must be a JSON integer"),
    ("integrate", True, "variables.integrate must be a JSON integer"),
]


@pytest.mark.parametrize("field, value, needle", LOOSE_FIELDS,
                         ids=[field for field, _, _ in LOOSE_FIELDS])
def test_loosely_typed_field_exits_1(capsys, tmp_path, field, value, needle):
    variables = {"params": 0, "integrate": 1}
    stage0 = stage(n=2)
    if field in variables:
        variables[field] = value
    else:
        stage0[field] = value
    path = problem(tmp_path, p=3, variables=variables, cells=[cell(stage0)])
    code, _, err = run(capsys, "parse", path)
    assert code == 1
    assert needle in json.loads(err)["error"]


def _stage_without(key):
    s = stage()
    del s[key]
    return s


ONE_PARAM = {"variables": {"params": 1, "integrate": 1}, "integrand": "abs(x1)",
             "cells": [cell(stage(), stage(beta="x0"))]}

REFUSED = [
    # (id, problem fields, argv with {path} for the problem file, needle)
    ("condition_not_object", {"cells": [cell("gamma")]}, ("parse", "{path}"),
     "cells[0].conditions[0] must be a JSON object"),
    ("conditions_not_array", {"cells": [{"conditions": "x"}]}, ("parse", "{path}"),
     "cells[0].conditions must be a JSON array"),
    ("cell_not_object", {"cells": [[1]]}, ("parse", "{path}"),
     "cells[0] must be a JSON object"),
    ("no_conditions", {"cells": [{}]}, ("parse", "{path}"), "cells[0].conditions is missing"),
    *[(f"no_{key}", {"cells": [cell(_stage_without(key))]}, ("parse", "{path}"),
       f"cells[0].conditions[0].{key} is missing") for key in ("gamma", "mu", "n")],
    # read as a strict bound, this printed 1/3 and passed --verify-N 4
    ("misspelled_key",
     {"cells": [cell({"gamma": "0", "mu": "1", "n": 1, "beta": "1", "beta_stict": False})]},
     ("measure", "{path}", "--verify-N", "4"),
     "cells[0].conditions[0].beta_stict is not a known field"),
    # ignored at the top level, this printed a concrete value
    ("misspelled_top_level_key", {"integrand": "abs(x0)", "mdoe": "symbolic"},
     ("integrate", "{path}"), "mdoe is not a known field"),
    ("unknown_variables_key", {"variables": {"params": 0, "integrate": 1, "base": 0}},
     ("parse", "{path}"), "variables.base is not a known field"),
    *[(f"version_{value}", {"version": value, "integrand": "abs(x0)"},
       ("integrate", "{path}"), "version must be a JSON integer")
      for value in (True, 1.0)],
    *[(f"{key}_not_string", {"cells": [cell({**stage(), key: 1})]}, ("parse", "{path}"),
       f"cells[0].conditions[0].{key} must be a JSON string")
      for key in ("alpha", "beta", "gamma")],
    # Fraction's own grammar took decimals, exponents and padding
    *[(f"mu_{name}", {"cells": [cell(stage(mu=mu))]}, ("parse", "{path}"),
       "cells[0].conditions[0].mu must be a rational")
      for name, mu in (("exponent", "1e3"), ("decimal", "0.5"), ("padded", " 1"))],
    ("beta_dsl_error", {"cells": [cell(stage(beta="x0 +"))]}, ("parse", "{path}"),
     "cells[0].conditions[0].beta: expected a term"),
    ("base_point_not_array", {**ONE_PARAM, "base_points": [1]}, ("integrate", "{path}"),
     "base_points[0] must be a JSON array"),
    ("base_point_exponent", {**ONE_PARAM, "base_points": [["1e3"]]},
     ("integrate", "{path}"), "base_points[0][0] must be a rational"),
    ("mode_not_string", {"mode": ["concrete"]}, ("parse", "{path}"),
     "mode must be a JSON string"),
    ("p_not_prime", {"p": 4}, ("parse", "{path}"), "p: not a prime: 4"),
    ("flag_p_not_prime", {}, ("parse", "{path}", "--p", "4"), "--p: not a prime: 4"),
    ("zeta_p_not_prime", {}, ("zeta", "[0,1]", "--p", "4"), "--p: not a prime: 4"),
    ("zeta_exponent", {}, ("zeta", '["1e3",1]', "--p", "3"), "f[0] must be a rational"),
    ("zeta_not_array", {}, ("zeta", '"x"', "--p", "3"), "f must be a JSON array"),
    ("point_exponent", ONE_PARAM, ("integrate", "{path}", "--point", "1e3"),
     "--point[0] must be a rational"),
    *[(f"{flag[2:]}_zero", {"integrand": "abs(x0)"}, (command, "{path}", flag, "0"),
       f"argument {flag}: must be a positive integer")
      for command, flag in (("integrate", "--verify-N"), ("integrate", "--budget"),
                            ("decompose", "--precision"))],
    ("check_poincare_zero", {}, ("zeta", "[0,1]", "--p", "3", "--check-poincare", "0"),
     "argument --check-poincare: must be a positive integer"),
    ("unknown_flag", {}, ("parse", "{path}", "--foo"), "--foo"),
    ("verify_N_not_int", {"integrand": "abs(x0)"},
     ("integrate", "{path}", "--verify-N", "x"), "--verify-N"),
    ("no_subcommand", {}, (), "command"),
    # integrated symbolically, these handed the oracle's comparison no
    # value and exited 4
    ("symbolic_flag_verify_N", {"integrand": "abs(x0)", "cells": [cell(stage())]},
     ("integrate", "{path}", "--mode", "symbolic", "--verify-N", "3"),
     "verification needs concrete mode"),
    ("symbolic_file_verify_N",
     {"integrand": "abs(x0)", "cells": [cell(stage())], "mode": "symbolic"},
     ("integrate", "{path}", "--verify-N", "3"), "verification needs concrete mode"),
    ("symbolic_parametrized_verify_N", {**ONE_PARAM, "mode": "symbolic"},
     ("integrate", "{path}", "--point", "1", "--verify-N", "2"),
     "verification needs a problem without parameters"),
    # this printed the symbolic 3/4*abs(x0)^2 and exited 0, ignoring the point
    ("symbolic_point", ONE_PARAM,
     ("integrate", "{path}", "--mode", "symbolic", "--point", "1"),
     "--point needs concrete mode"),
    # this blamed the integrate subcommand
    ("verify_no_integrand", {"cells": [cell(stage(n=2))]},
     ("verify", "{path}", "--verify-N", "3"), 'verify needs an "integrand"'),
    # refusals of the loader, the "auto" shape test and the subcommands
    ("unreadable_file", {}, ("parse", "{path}.missing"), "cannot read"),
    ("auto_with_params", {"variables": {"params": 1, "integrate": 1}}, ("parse", "{path}"),
     '"auto" cells need exactly one variable'),
    ("cell_arity", {"variables": {"params": 1, "integrate": 1}, "cells": [cell(stage())]},
     ("parse", "{path}"), "cells[0] has 1 conditions, variables say 2"),
    *[(f"auto_{name}", {"integrand": integrand}, ("decompose", "{path}"),
       '"auto" cells need an integrand of the shape c*abs(f(x0))^s')
      for name, integrand in (("two_terms", "abs(x0) + abs(x0 - 1)"),
                              ("v_factor", "v(x0)*abs(x0)"),
                              ("not_polynomial", "abs(inv(x0 + 1))"))],
    ("decompose_no_integrand", {}, ("decompose", "{path}"), 'decompose needs an "integrand"'),
    ("no_base_points", ONE_PARAM, ("integrate", "{path}"),
     'concrete evaluation needs "base_points" or --point'),
    ("symbolic_two_variables",
     {"variables": {"params": 0, "integrate": 2}, "integrand": "abs(x1)",
      "cells": [cell(stage(), stage())], "mode": "symbolic"},
     ("integrate", "{path}"), "symbolic mode eliminates exactly one variable"),
    ("zeta_not_json", {}, ("zeta", "[1,", "--p", "3"),
     "the polynomial is a JSON array of rationals"),
    ("zeta_no_p", {}, ("zeta", "[0,1]"), "zeta needs --p"),
    # the oracle covers Z_3 only: these printed oracle 1 (true 3) and
    # oracle 0 (true 1) with bound 0, and exited 3
    ("measure_below_level_0", {"cells": [cell(stage(beta="1/3"))]},
     ("measure", "{path}", "--verify-N", "4"), "stage 0 leaves Z_p: it admits the level -1"),
    ("measure_center_outside_zp", {"cells": [cell(stage(gamma="1/3"))]},
     ("measure", "{path}", "--verify-N", "4"), "stage 0 leaves Z_p: its center is outside Z_p"),
]


@pytest.mark.parametrize("fields, argv, needle", [r[1:] for r in REFUSED],
                         ids=[r[0] for r in REFUSED])
def test_refused_input_exits_1_naming_the_field(capsys, tmp_path, fields, argv, needle):
    path = problem(tmp_path, **{"p": 3, **fields})
    code, out, err = run(capsys, *(a.format(path=path) for a in argv))
    assert (code, out) == (1, "")
    (line,) = err.splitlines()
    assert needle in json.loads(line)["error"]


# ---------------------------------------------------------------------------
# generated malformed problems: shape and type mutations of the golden
# corpus (magnitudes have no work budget yet, so they are not generated)

SWAPPED = (None, True, -1, 2.5, "", [], {})
MALFORMED_DSL = ("", "abs(x0", "x0 +", "x0 $ 1", "1/0", "(x0", "x0 x0")
BAD_RATIONALS = ("0.5", "1e3", "1E-2", " 1", "1 ", "+1", "1_000", "1/0", "0x10")
UNKNOWN_KEYS = ("mdoe", "extra", "Gamma", "beta_stict")
DSL_KEYS = ("integrand", "alpha", "beta", "gamma")


def _nodes(value, path=()):
    """(path, value) for every value of a JSON document, the root first."""
    yield path, value
    if isinstance(value, dict):
        items = value.items()
    else:
        items = enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _nodes(child, path + (key,))


def _path_text(path):
    """A path as the CLI prints it: cells[0].conditions[1].mu."""
    text = ""
    for key in path:
        text += f"[{key}]" if isinstance(key, int) else (f".{key}" if text else key)
    return text


@st.composite
def mutated_golden(draw):
    """(argv tail, problem, mutated path, mutation kind) from a golden case."""
    _, command, fields, flags, _, _ = draw(st.sampled_from(GOLDEN))
    doc = copy.deepcopy({"version": 1, **fields})
    nodes = list(_nodes(doc))
    keyed = [(path, v) for path, v in nodes if path and isinstance(path[-1], str)]
    choices = {
        "drop": [(path, None) for path, _ in keyed],
        "swap": [(path, SWAPPED) for path, _ in nodes if path],
        "unknown": [(path + (key,), (1,)) for path, v in nodes if isinstance(v, dict)
                    for key in UNKNOWN_KEYS if key not in v],
        "dsl": [(path, MALFORMED_DSL) for path, v in keyed
                if path[-1] in DSL_KEYS and isinstance(v, str)],
        "rational": [(path, BAD_RATIONALS) for path, _ in keyed if path[-1] == "mu"],
    }
    kind = draw(st.sampled_from(sorted(k for k, v in choices.items() if v)))
    path, values = draw(st.sampled_from(choices[kind]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if values is None:
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(st.sampled_from(values))
    return (command, *flags), doc, path, kind


def _check_streams(code, out, err):
    """Exits 0 and 3 print their report; any other exit prints nothing and
    writes one JSON line to stderr."""
    if code in (0, 3):
        assert json.loads(out) and err == ""
    else:
        assert out == ""
        (line,) = err.splitlines()
        assert isinstance(json.loads(line)["error"], str)


@settings(max_examples=50, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=mutated_golden())
def test_mutated_golden_problems_exit_cleanly(capsys, tmp_path, case):
    (command, *flags), doc, path, kind = case
    file = tmp_path / "mutated.json"
    file.write_text(json.dumps(doc))

    code, out, err = run(capsys, command, str(file), *flags)
    assert code in (0, 1, 2, 3), err
    _check_streams(code, out, err)

    # parse only reads the problem: whatever it refuses is a field error
    code, out, err = run(capsys, "parse", str(file))
    _check_streams(code, out, err)
    if kind in ("unknown", "dsl", "rational"):
        assert code == 1
    if code == 1:
        assert _path_text(path) in json.loads(err)["error"]


# every golden problem under every subcommand that reads a problem file,
# in both modes, with and without --verify-N: the mode comes from --mode
# where the subcommand takes it and from the file otherwise

@pytest.mark.parametrize("fields", [case[2] for case in GOLDEN],
                         ids=[case[0] for case in GOLDEN])
def test_golden_problems_under_every_flag_combination(capsys, tmp_path, fields):
    for command in ("decompose", "integrate", "measure", "verify"):
        outputs = set()
        for mode in ("concrete", "symbolic"):
            if command == "integrate":
                path, flags = problem(tmp_path, **fields), ("--mode", mode)
            else:
                path, flags = problem(tmp_path, **{**fields, "mode": mode}), ()
            for verify in ((), ("--verify-N", "2")):
                code, out, err = run(capsys, command, path, *flags, *verify)
                assert code in (0, 1, 2, 3), (command, mode, verify, err)
                _check_streams(code, out, err)
                outputs.add((verify, code, out, err))
        if command != "integrate":
            # these subcommands read no mode: both files give the same runs
            assert len(outputs) == 2, command


# ---------------------------------------------------------------------------
# budget and determinism

def test_budget_flag(capsys, tmp_path):
    path = problem(tmp_path, p=3, integrand="abs(x0)")
    code, _, err = run(capsys, "integrate", path, "--verify-N", "5", "--budget", "10")
    assert code == 2
    assert "budget" in err
    code, out, _ = run(capsys, "integrate", path, "--verify-N", "5",
                       "--budget", "1000000")
    assert code == 0
    assert json.loads(out)["verify"]["pass"] is True


def test_repeated_runs_byte_identical(capsys, tmp_path):
    path = problem(tmp_path, p=3, integrand="abs(x0^2 - 1)")
    _, first, _ = run(capsys, "integrate", path, "--verify-N", "4")
    _, second, _ = run(capsys, "integrate", path, "--verify-N", "4")
    assert first == second
    assert "\n" not in first[:-1]  # compact single line

    _, pretty, _ = run(capsys, "integrate", path, "--pretty")
    assert json.loads(pretty) == {
        "mode": "concrete", "values": ["1/2"], "nonintegrable": False,
    }
    assert pretty.count("\n") > 1


def test_console_script_installed():
    exe = shutil.which("padicells")
    if exe is None:
        pytest.skip("entry point not on PATH")
    done = subprocess.run(
        [exe, "zeta", "[0,1]", "--p", "3"], capture_output=True, text=True
    )
    assert done.returncode == 0
    assert done.stdout == '{"numerator":["2/3"],"denominator_factors":[{"c":1,"d":1}]}\n'
