"""Decomposer: Hensel lifting, ball-tree output shapes, exhaustive verification."""

from fractions import Fraction as F

import pytest

from padicells import polys
from padicells.cells import punctured_ball_cell, zp_cell
from padicells.decompose import (
    HenselConditionError,
    PrecisionExhausted,
    PreparedTerm,
    decompose_univariate,
    hensel_lift,
    prepared_to_json,
    verify_prepared,
)
from padicells.expr import ConstructibleExpr
from padicells.integrate import (
    eliminate_last_variable,
    group_prepared,
    poincare_check,
    prepared_power,
)
from padicells.padic import Prime, rational_valuation

P2, P3, P5 = Prime(2), Prime(3), Prime(5)


def poly(*coeffs):
    return polys.poly_from(coeffs)


# ---------------------------------------------------------------------------
# hensel_lift

def test_lift_exact_root():
    r = hensel_lift(poly(-1, 0, 1), P3, 1, 6)
    assert (r.approx - 1) % 3**6 == 0
    assert r.certified


def test_lift_sqrt_minus_one():
    r = hensel_lift(poly(1, 0, 1), P5, 2, 4)
    assert r.approx == 182  # 182^2 + 1 = 5^4 * 53
    assert (r.approx**2 + 1) % 5**4 == 0
    assert r.approx % 5 == 2


def test_lift_rejects_weak_seed():
    for seed in range(3):
        with pytest.raises(HenselConditionError, match="Hensel condition fails"):
            hensel_lift(poly(-3, 0, 1), P3, seed, 6)


def test_lift_class_is_stable_under_refinement():
    a = hensel_lift(poly(1, 0, 1), P5, 2, 4)
    b = hensel_lift(poly(1, 0, 1), P5, 2, 8)
    assert (a.approx - b.approx) % 5**4 == 0
    assert rational_valuation(polys.evaluate(poly(1, 0, 1), b.approx), 5) >= 8


def test_lift_multiple_root_rejected():
    with pytest.raises(HenselConditionError):
        hensel_lift(poly(0, 0, 1), P3, 0, 4)


# ---------------------------------------------------------------------------
# decompose_univariate

def test_monomial_t():
    terms = decompose_univariate(poly(0, 1), P3, None, 6)
    assert len(terms) == 2
    ball, point = terms
    assert (ball.a, ball.l) == (1, 0)
    assert not ball.cell.conditions[0].coset.is_zero()
    assert point.cell.conditions[0].coset.is_zero()
    assert point.delta == ConstructibleExpr.zero()


def test_monomial_t_squared():
    terms = decompose_univariate(poly(0, 0, 1), P3, None, 6)
    assert [t.a for t in terms] == [2, 0]
    report = verify_prepared(terms, poly(0, 0, 1), P3, 6, zp_cell(P3))
    assert report.passed, report.counterexamples


def test_two_simple_roots():
    f = poly(-1, 0, 1)
    terms = decompose_univariate(f, P3, None, 6)
    assert sorted(t.a for t in terms) == [0, 0, 0, 0, 1, 1]
    report = verify_prepared(terms, f, P3, 6, zp_cell(P3))
    assert report.passed, report.counterexamples
    # roots are exact rationals here, so no approximation floors
    assert all(t.center_floor is None for t in terms)


def test_rootless_factor_gives_constant_cells():
    f = poly(-3, 0, 1)  # no root in Z_3
    terms = decompose_univariate(f, P3, None, 6)
    assert all(t.a == 0 for t in terms)
    report = verify_prepared(terms, f, P3, 6, zp_cell(P3))
    assert report.passed, report.counterexamples


def test_irrational_root_gets_certified_center():
    f = poly(1, 0, 1)  # t^2 + 1, roots +-sqrt(-1) in Z_5
    terms = decompose_univariate(f, P5, None, 4)
    lifted = [t for t in terms if t.a == 1 and not t.cell.conditions[0].coset.is_zero()]
    assert len(lifted) == 2
    for t in lifted:
        gamma = t.cell.conditions[0].center.value
        assert t.center_floor is not None and t.center_floor >= 6
        assert rational_valuation(gamma**2 + 1, 5) >= 8
    report = verify_prepared(terms, f, P5, 4, zp_cell(P5))
    assert report.passed, report.counterexamples


def test_multiplicity_sum_bounded_by_degree():
    f = polys.mul(polys.mul(poly(-1, 1), poly(-1, 1)), poly(2, 1))
    terms = decompose_univariate(f, P3, None, 5)
    mults = [t.a for t in terms if t.a > 0]
    assert sorted(mults) == [1, 2]
    assert sum(mults) <= polys.degree(f)
    report = verify_prepared(terms, f, P3, 5, zp_cell(P3))
    assert report.passed, report.counterexamples


def test_close_roots_need_depth():
    f = polys.mul(poly(-1, 1), poly(-1 - 3**9, 1))
    with pytest.raises(PrecisionExhausted, match="precision exhausted"):
        decompose_univariate(f, P3, None, 6)
    terms = decompose_univariate(f, P3, None, 12)
    report = verify_prepared(terms, f, P3, 6, zp_cell(P3))
    assert report.passed, report.counterexamples


def test_sub_ball_domain():
    dom = punctured_ball_cell(P3, 0, 1)
    terms = decompose_univariate(poly(0, 1), P3, dom, 5)
    assert terms[0].a == 1
    assert terms[0].cell.conditions[0].upper.value == 3
    report = verify_prepared(terms, poly(0, 1), P3, 4, dom)
    assert report.passed, report.counterexamples


def test_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        decompose_univariate((), P3, None, 4)


def test_constant_polynomial():
    terms = decompose_univariate(poly(6), P3, None, 4)
    report = verify_prepared(terms, poly(6), P3, 4, zp_cell(P3))
    assert report.passed
    assert all(t.a == 0 for t in terms)


# ---------------------------------------------------------------------------
# verify_prepared as a failure detector

def test_verify_catches_wrong_exponent():
    f = poly(0, 0, 1)
    good = decompose_univariate(f, P3, None, 6)
    bad = [
        PreparedTerm(t.delta, 1 if t.a == 2 else t.a, t.l, t.cell, t.center_floor)
        for t in good
    ]
    report = verify_prepared(bad, f, P3, 6, zp_cell(P3))
    assert not report.passed
    assert any("prepared" in c for c in report.counterexamples)


def test_verify_catches_overlap():
    f = poly(0, 1)
    terms = decompose_univariate(f, P3, None, 6)
    report = verify_prepared(terms + terms, f, P3, 3, zp_cell(P3))
    assert not report.passed
    assert any("cells" in c for c in report.counterexamples)


def test_verify_catches_coverage_gap():
    f = poly(-1, 0, 1)
    terms = decompose_univariate(f, P3, None, 6)
    report = verify_prepared(terms[2:], f, P3, 3, zp_cell(P3))
    assert not report.passed


def test_verify_vacuous_on_empty():
    report = verify_prepared([], poly(1), P3, 2)
    assert report.passed
    assert report.equality_checks == 0


# ---------------------------------------------------------------------------
# serialization

def test_prepared_json_shape():
    terms = decompose_univariate(poly(0, 1), P3, None, 4)
    data = prepared_to_json(terms)
    assert set(data) == {"cells", "terms"}
    assert len(data["cells"]) == len(data["terms"]) == 2
    first = data["terms"][0]
    assert first == {"delta": "1", "a": 1, "l": 0, "gamma": "0", "mu": "1", "n": 1}
    assert data["terms"][1]["mu"] == "0"


def test_random_products_verify():
    # small deterministic corpus of factorable shapes
    import random

    rng = random.Random(7)
    for trial in range(6):
        p = (P2, P3, P5)[trial % 3]
        fs = []
        for _ in range(2):
            deg = rng.randint(1, 2)
            coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.randint(1, 9)]
            fs.append(poly(*coeffs))
        f = polys.mul(fs[0], fs[1])
        terms = decompose_univariate(f, p, None, 5)
        report = verify_prepared(terms, f, p, 5, zp_cell(p))
        assert report.passed, (f, p.p, report.counterexamples)


@pytest.mark.parametrize("f", [poly(-17, 0, 1), poly(7, 0, 1)])
def test_conjugate_roots_in_one_class_at_p2(f):
    # both square roots of 17 (resp. -7) in Z_2 lie in the class 1 + 2Z_2,
    # where v(f(1)) = 4 > 2 v(f'(1)) = 2 already holds; a seed there would
    # stand for one root only, since the roots separate mod 2^2
    terms = decompose_univariate(f, P2, None, 8)
    report = verify_prepared(terms, f, P2, 10, zp_cell(P2))
    assert report.passed, report.counterexamples
    cis = group_prepared(prepared_power(terms, 1))
    res = eliminate_last_variable(cis, base_point=[])
    assert res.value.constant_value() == F(13, 24)
    assert poincare_check(f, P2, 8).passed
