import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicells.expr import (
    Add,
    Const,
    ConstructibleExpr,
    EvaluationPrecisionError,
    Inv,
    Mul,
    ParseError,
    Poly,
    RestrictedSeries,
    Var,
    VFactorZeroError,
    _eval,
    as_poly_in,
    d_add,
    d_inv,
    d_mul,
    d_neg,
    d_pow,
    dterm_to_const_poly,
    eval_constructible,
    eval_dterm,
    free_variables,
    parse_constructible,
    parse_dterm,
    poly_of,
    print_constructible,
    print_dterm,
)
from padicells.padic import INF, NEG_INF, Prime, rational_valuation, scalar

P3 = Prime(3)
F = Fraction


def pt(*xs):
    return [scalar(F(x), P3) for x in xs]


# --- parsing ---------------------------------------------------------------

def test_parse_poly_example():
    assert parse_dterm("x0^2 - 3") == Poly((F(-3), F(0), F(1)), Var(0))


def test_parse_inv():
    assert parse_dterm("inv(x1)") == Inv(Var(1))


def test_parse_series_literal():
    t = parse_dterm("series([1, 1/3, 1/9; tail 3], x0)")
    assert t == RestrictedSeries((F(1), F(1, 3), F(1, 9)), 3, (Var(0),))


def test_parse_rationals_and_comments():
    t = parse_dterm("1/2 * x0 + 2  # an affine term\n - 1")
    assert t == Poly((F(1), F(1, 2)), Var(0))


def test_parse_collapses_to_canonical_polys():
    assert parse_dterm("(x0 + 1)*(x0 - 1)") == Poly((F(-1), F(0), F(1)), Var(0))
    assert parse_dterm("(x0^2)^3") == Poly((F(0),) * 6 + (F(1),), Var(0))
    assert parse_dterm("2*(3*x0 - x0)") == Poly((F(0), F(4)), Var(0))
    # composition never stacks Poly over Poly
    inner = parse_dterm("(x0 + 1)^2 - 1")
    assert isinstance(inner, Poly) and inner.argument == Var(0)


def test_parse_errors_carry_spans():
    for bad in ["x0 +", "foo(x0)", "v(x0", "x0 ^ x0", "1/0", "abs(x0)^x1", ""]:
        with pytest.raises(ParseError):
            parse_dterm(bad)
    with pytest.raises(ParseError):
        parse_dterm("v(x0)")  # constructible-level, not a term
    with pytest.raises(ParseError):
        parse_constructible("x0 + v(x0)")  # bare field term in a sum of factors


def test_parse_constructible_shapes():
    e = parse_constructible("2*v(x0)*abs(x0)")
    assert len(e.terms) == 1
    term = e.terms[0]
    assert term.coeff == 2
    assert [f.power for f in term.val_factors] == [1]
    assert [f.power for f in term.norm_factors] == [F(1)]
    e2 = parse_constructible("abs(x0)^(-2/3) - v(x1)^2")
    powers = {f.power for t in e2.terms for f in t.norm_factors}
    assert powers == {F(-2, 3)}


# --- printing round-trip ---------------------------------------------------

def random_dterm(rng: random.Random, depth: int, nvars: int = 3):
    if depth == 0:
        if rng.random() < 0.5:
            return Var(rng.randrange(nvars))
        return Const(F(rng.randint(-6, 6), rng.randint(1, 4)))
    op = rng.choice(["add", "mul", "neg", "inv", "poly", "pow", "series"])
    sub = lambda: random_dterm(rng, depth - 1, nvars)
    if op == "add":
        return d_add(sub(), sub())
    if op == "mul":
        return d_mul(sub(), sub())
    if op == "neg":
        return d_neg(sub())
    if op == "inv":
        return d_inv(sub())
    if op == "pow":
        return d_pow(sub(), rng.randrange(4))
    if op == "poly":
        coeffs = [F(rng.randint(-4, 4)) for _ in range(rng.randint(1, 4))]
        return poly_of(coeffs, sub())
    coeffs = tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3))
    return RestrictedSeries(coeffs, rng.randint(-2, 5), (sub(),))


def test_print_parse_round_trip():
    rng = random.Random(7)
    for _ in range(400):
        t = random_dterm(rng, rng.randint(1, 4))
        text = print_dterm(t)
        assert parse_dterm(text) == t, text


def test_round_trip_specific_shapes():
    cases = [
        d_mul(Var(0), poly_of([F(0), F(-3)], Var(1))),
        d_neg(Mul(Var(0), Var(1))),
        Add(Inv(Var(0)), Poly((F(0), F(-1)), Var(1))),
        poly_of([F(1), F(-2), F(1)], Inv(Var(2))),
        RestrictedSeries((F(-1, 2), F(3)), -1, (Var(0), Var(1))),
    ]
    for t in cases:
        assert parse_dterm(print_dterm(t)) == t, print_dterm(t)


def test_constructible_round_trip():
    rng = random.Random(19)
    for _ in range(120):
        terms = []
        for _ in range(rng.randint(1, 3)):
            coeff = F(rng.randint(-5, 5), rng.randint(1, 3))
            if coeff == 0:
                coeff = F(1)
            vals, norms = [], []
            for _ in range(rng.randint(0, 2)):
                vals.append((random_dterm(rng, 1), rng.randint(1, 3)))
            for _ in range(rng.randint(0, 2)):
                norms.append((random_dterm(rng, 1), F(rng.randint(-3, 3) or 1, rng.choice([1, 1, 2]))))
            from padicells.expr import CTerm, NormFactor, ValFactor

            terms.append(
                CTerm(
                    coeff,
                    tuple(ValFactor(h, e) for h, e in vals),
                    tuple(NormFactor(h, e) for h, e in norms),
                )
            )
        e = ConstructibleExpr.of(terms)
        assert parse_constructible(print_constructible(e)) == e, print_constructible(e)


# --- evaluation ------------------------------------------------------------

def test_eval_inv_zero_convention():
    value, err = eval_dterm(Inv(Var(0)), pt(0))
    assert value.value == 0 and err == INF


def test_eval_exact_polynomial():
    value, err = eval_dterm(parse_dterm("x0^2 - 3"), pt(3))
    assert value.value == 6 and err == INF


def test_eval_series_truncation_example():
    t = parse_dterm("series([1, 3, 9, 27; tail 4], x0)")
    value, err = eval_dterm(t, pt(1))
    assert value.value == 40 and err == 4


def test_eval_series_outside_polydisc_is_zero():
    t = parse_dterm("series([1, 1; tail 5], x0)")
    value, err = eval_dterm(t, pt(F(1, 3)))
    assert value.value == 0 and err == INF


def test_eval_series_truncation_monotone():
    # same underlying series cut at 4 and at 8 coefficients
    short = RestrictedSeries(tuple(F(3) ** i for i in range(4)), 4, (Var(0),))
    long = RestrictedSeries(tuple(F(3) ** i for i in range(8)), 8, (Var(0),))
    for x in (1, 2, F(3), 4):
        a, ea = eval_dterm(short, pt(x))
        b, _ = eval_dterm(long, pt(x))
        diff = b.value - a.value
        if diff:
            from padicells.padic import rational_valuation

            assert rational_valuation(diff, 3) >= ea


def test_eval_series_free_matches_direct():
    rng = random.Random(3)
    for _ in range(100):
        t = random_dterm(rng, 3)
        if any(
            isinstance(n, RestrictedSeries)
            for n in walk(t)
        ):
            continue
        point = pt(*[F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(3)])
        value, err = eval_dterm(t, point)
        assert err == INF
        assert value.value == direct_eval(t, [s.value for s in point])


def walk(t):
    yield t
    for attr in ("left", "right", "arg", "argument"):
        child = getattr(t, attr, None)
        if child is not None:
            yield from walk(child)
    for child in getattr(t, "arguments", ()):
        yield from walk(child)


def direct_eval(t, xs):
    if isinstance(t, Var):
        return xs[t.index]
    if isinstance(t, Const):
        return t.value
    if isinstance(t, Add):
        return direct_eval(t.left, xs) + direct_eval(t.right, xs)
    if isinstance(t, Mul):
        return direct_eval(t.left, xs) * direct_eval(t.right, xs)
    if isinstance(t, Inv):
        v = direct_eval(t.arg, xs)
        return F(0) if v == 0 else 1 / v
    if isinstance(t, Poly):
        x = direct_eval(t.argument, xs)
        return sum((c * x**i for i, c in enumerate(t.coeffs)), F(0))
    from padicells.expr import Neg

    if isinstance(t, Neg):
        return -direct_eval(t.arg, xs)
    raise AssertionError(t)


def test_eval_constructible_examples():
    assert eval_constructible(parse_constructible("v(x0)"), pt(9)) == 2
    assert eval_constructible(parse_constructible("abs(x0)"), pt(0)) == 0
    assert eval_constructible(parse_constructible("2*v(x0)*abs(x0)"), pt(3)) == F(2, 3)


def test_eval_constructible_vfactor_zero_errors():
    with pytest.raises(VFactorZeroError):
        eval_constructible(parse_constructible("v(x0)"), pt(0))


def test_eval_constructible_linear_in_terms():
    rng = random.Random(11)
    e1 = parse_constructible("2*v(x0)^2 - abs(x0 - 1)")
    e2 = parse_constructible("1/2*abs(x0)*v(x0) + 3")
    for _ in range(20):
        x = F(3) ** rng.randint(1, 5) * rng.choice([1, 2, 4, 5])
        point = pt(x)
        assert eval_constructible(e1 + e2, point) == eval_constructible(
            e1, point
        ) + eval_constructible(e2, point)


def test_eval_constructible_fractional_power():
    e = parse_constructible("abs(x0)^(1/2)")
    assert eval_constructible(e, pt(9)) == F(1, 3)
    with pytest.raises(ValueError):
        eval_constructible(e, pt(3))


def test_series_precision_error_on_uncertain_membership():
    # inner evaluates to 1 with error valuation -1, so the true value may
    # or may not leave the unit disc: membership is undecidable
    inner = RestrictedSeries((F(1),), -1, (Var(0),))
    outer = RestrictedSeries((F(1), F(1)), 6, (inner,))
    with pytest.raises(EvaluationPrecisionError):
        eval_dterm(outer, pt(1))


def test_inv_precision_error():
    inner = RestrictedSeries((F(0),), 2, (Var(0),))  # value 0 with error 3^2
    with pytest.raises(EvaluationPrecisionError):
        eval_dterm(Inv(inner), pt(1))


# --- points are boxes of infinite depth --------------------------------------

# value 0 with error 3^2: not separated from zero
UNPINNED = RestrictedSeries((F(0),), 2, (Var(0),))


def test_product_with_exact_zero_of_unpinned_inverse_raises():
    with pytest.raises(EvaluationPrecisionError):
        eval_dterm(Mul(Var(1), Inv(UNPINNED)), pt(1, 0))


def test_point_with_too_few_coordinates():
    with pytest.raises(ValueError, match="no coordinate for x2"):
        eval_dterm(parse_dterm("x0 + x2"), pt(1, 2))
    with pytest.raises(ValueError, match="no coordinate for x1"):
        eval_constructible(parse_constructible("abs(x1)"), pt(1))


@pytest.mark.parametrize("depths", [(INF, INF), (2, INF), (1, 3)])
def test_box_evaluator_never_returns_nan(depths):
    unpinned = Inv(UNPINNED)
    terms = [
        Mul(Var(1), unpinned),
        Mul(unpinned, Var(1)),
        Mul(unpinned, unpinned),
        Poly((F(0), F(1)), unpinned),
        Poly((F(2), F(0), F(3)), Mul(Var(1), unpinned)),
        Add(Const(F(1)), Mul(Const(F(0)), unpinned)),
        Inv(Mul(Var(1), unpinned)),
        RestrictedSeries((F(1), F(1)), 4, (Mul(Var(1), unpinned),)),
    ]
    for t in terms:
        _, prec = _eval(t, (F(1), F(0)), depths, 3)
        assert not math.isnan(prec), print_dterm(t)
        assert prec == NEG_INF, print_dterm(t)


# the box certificate: at every point of the box, a term differs from its
# value at the lift by something of valuation >= the certified precision

def _terms():
    leaves = st.one_of(
        st.builds(Var, st.integers(0, 2)),
        st.builds(lambda a, b: Const(F(a, b)), st.integers(-9, 9), st.integers(1, 4)),
    )

    def extend(children):
        coeffs = st.lists(st.integers(-4, 4).map(F), min_size=2, max_size=4)
        return st.one_of(
            st.builds(Add, children, children),
            st.builds(Mul, children, children),
            st.builds(lambda cs, a: Poly(tuple(cs), a), coeffs, children),
            st.builds(Inv, children),
        )

    return st.recursive(leaves, extend, max_leaves=6)


TERMS = _terms()


@st.composite
def boxes_with_points(draw):
    p = draw(st.sampled_from((2, 3, 5)))
    t = draw(TERMS)
    reps, depths, point = [], [], []
    for _ in range(3):
        # extra powers of p make lifts close to 0, whose valuation the box
        # leaves open
        rep = F(draw(st.integers(-30, 30)) * p ** draw(st.integers(0, 2)),
                p ** draw(st.integers(0, 1)))
        depth = draw(st.sampled_from((0, 1, 2, 3, 4, INF)))
        # z/u with u a unit is a p-adic integer, so the point is in the box
        z = F(draw(st.integers(-20, 20)), draw(st.integers(1, 9).filter(lambda u: u % p)))
        reps.append(rep)
        depths.append(depth)
        point.append(rep if depth == INF else rep + p**depth * z)
    return p, t, tuple(reps), tuple(depths), point


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(boxes_with_points())
def test_box_certificate_holds_at_points_of_the_box(case):
    p, term, reps, depths, point = case
    for t in walk(term):
        value, prec = _eval(t, reps, depths, p)
        assert not math.isnan(prec)
        if prec == NEG_INF:
            continue
        diff = direct_eval(t, point) - value
        assert rational_valuation(diff, p) >= prec, (print_dterm(t), reps, depths, point)


# --- structure helpers -----------------------------------------------------

def test_free_variables():
    t = parse_dterm("x0*x2 + inv(x1)")
    assert free_variables(t) == {0, 1, 2}


def test_as_poly_in():
    t = parse_dterm("x1*x0^2 + x0 + 5")
    coeffs = as_poly_in(t, 0)
    assert coeffs is not None and len(coeffs) == 3
    assert coeffs[0] == Const(F(5))
    assert coeffs[2] == Var(1)
    assert as_poly_in(parse_dterm("inv(x0)"), 0) is None


def test_dterm_to_const_poly():
    assert dterm_to_const_poly(parse_dterm("x0^2 - 3")) == (F(-3), F(0), F(1))
    assert dterm_to_const_poly(parse_dterm("7")) == (F(7),)
    assert dterm_to_const_poly(parse_dterm("x0*x1")) is None


def test_constructible_algebra():
    a = parse_constructible("v(x0)")
    b = parse_constructible("abs(x0)")
    prod = a * b
    assert prod == parse_constructible("v(x0)*abs(x0)")
    assert (a + a) == a.scale(2)
    assert a.scale(0).is_zero()
    assert ConstructibleExpr.const(F(5, 3)).constant_value() == F(5, 3)
