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
    CTerm,
    EvaluationPrecisionError,
    Inv,
    Mul,
    NormFactor,
    ParseError,
    Poly,
    RestrictedSeries,
    ValFactor,
    Var,
    VFactorZeroError,
    _constructible_value,
    _eval,
    _render,
    _series_exponents,
    as_poly_in,
    d_add,
    d_inv,
    d_mul,
    d_neg,
    d_pow,
    d_scale,
    d_sub,
    dterm_to_const_poly,
    eval_constructible,
    eval_dterm,
    free_variables,
    parse_constructible,
    parse_dterm,
    pinned_valuation,
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
    for bad in ["x0 +", "foo(x0)", "v(x0", "x0 ^ x0", "1/0", "abs(x0)^x1", "abs(x0)^(1/0)", ""]:
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
        x, out = sub(), Const(F(0))
        for c in reversed(coeffs):
            out = d_add(d_mul(out, x), Const(c))
        return out
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
        d_mul(Var(0), d_scale(Var(1), -3)),
        d_neg(Mul(Var(0), Var(1))),
        Add(Inv(Var(0)), Poly((F(0), F(-1)), Var(1))),
        d_pow(d_sub(Inv(Var(2)), Const(F(1))), 2),
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


def test_point_of_another_prime_is_refused():
    # 9 is read at p = 5 (v = 0) if the prime of its scalar is ignored
    P5 = Prime(5)
    with pytest.raises(ValueError, match="mixed primes"):
        eval_constructible(parse_constructible("v(x0)"), pt(9), P5)
    with pytest.raises(ValueError, match="mixed primes"):
        eval_dterm(parse_dterm("x0^2 - 3"), pt(9), P5)
    # a point mixing Q_3 and Q_5 is refused, whichever prime is named
    mixed = pt(9) + [scalar(25, P5)]
    for prime in (None, P3, P5):
        with pytest.raises(ValueError, match="mixed primes"):
            eval_constructible(parse_constructible("v(x0)*abs(x1)"), mixed, prime)
        with pytest.raises(ValueError, match="mixed primes"):
            eval_dterm(parse_dterm("x0 + x1"), mixed, prime)
    assert eval_constructible(parse_constructible("v(x0)"), [scalar(25, P5)]) == 2


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


# reference_eval keeps the plain form of _eval, which works out the
# precision of a product and of a polynomial from the operands' valuations
# even where every operand is exact; _eval returns INF there directly.

def reference_eval(t, reps: tuple[Fraction, ...], depths: tuple, p: int):
    if isinstance(t, Const):
        return t.value, INF
    if isinstance(t, Var):
        try:
            return reps[t.index], depths[t.index]
        except IndexError:
            raise ValueError(f"point has no coordinate for x{t.index}") from None
    if isinstance(t, Add):
        a, da = reference_eval(t.left, reps, depths, p)
        b, db = reference_eval(t.right, reps, depths, p)
        return a + b, min(da, db)
    if isinstance(t, Mul):
        a, da = reference_eval(t.left, reps, depths, p)
        b, db = reference_eval(t.right, reps, depths, p)
        if da == NEG_INF or db == NEG_INF:
            return Fraction(0), NEG_INF  # absorbing: INF + NEG_INF is nan
        va, vb = rational_valuation(a, p), rational_valuation(b, p)
        return a * b, min(min(va, da) + db, da + min(vb, db))
    if isinstance(t, Inv):
        a, da = reference_eval(t.arg, reps, depths, p)
        if da == INF:
            return (Fraction(0) if a == 0 else 1 / a), INF
        va = rational_valuation(a, p)
        if va < da:
            return 1 / a, da - 2 * va
        return Fraction(0), NEG_INF  # possibly huge: nothing certified
    if isinstance(t, Poly):
        x, dx = reference_eval(t.argument, reps, depths, p)
        if dx == NEG_INF:
            return Fraction(0), NEG_INF
        acc, dacc = Fraction(0), INF
        vx = rational_valuation(x, p)
        for c in reversed(t.coeffs):
            va = rational_valuation(acc, p)
            dacc = min(min(va, dacc) + dx, dacc + min(vx, dx))
            acc = acc * x + c
        return acc, dacc
    if isinstance(t, RestrictedSeries):
        args = [reference_eval(a, reps, depths, p) for a in t.arguments]
        lows = [(rational_valuation(a, p), da) for a, da in args]
        if any(va < min(0, da) for va, da in lows):
            return Fraction(0), INF  # the whole box sits outside the polydisc
        if any(min(va, da) < 0 for va, da in lows):
            return Fraction(0), NEG_INF  # straddles the polydisc boundary
        exps = _series_exponents(len(args), len(t.coeffs))
        total = Fraction(0)
        for c, alpha in zip(t.coeffs, exps):
            if c == 0:
                continue
            mono = c
            for (a, _), e in zip(args, alpha):
                mono *= a**e
            total += mono
        prec: float | int = t.tail_valuation
        inexact = [da for _, da in args if da != INF]
        if inexact:
            cmin = min(
                [t.tail_valuation] + [rational_valuation(c, p) for c in t.coeffs if c != 0]
            )
            prec = min(prec, min(inexact) + cmin)
        return total, prec
    raise TypeError(f"not a DTerm: {t!r}")


def _eval_outcome(evaluate, t, reps, depths, p):
    try:
        value, prec = evaluate(t, reps, depths, p)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    return type(value), value, prec


def test_eval_inverse_at_integer_lifts_is_exact():
    # 1 / 3 on an int is a float; the evaluator must give Fraction(1, 3)
    for depths in ((INF,), (2,)):
        value, prec = _eval(Inv(Var(0)), (3,), depths, 5)
        assert type(value) is Fraction and value == Fraction(1, 3)
        assert prec == depths[0]
    value, _ = _eval(Inv(Var(0)), (-6,), (INF,), 5)
    assert type(value) is Fraction and value == Fraction(-1, 6)


def _raw_terms():
    # built from the node classes, not the canonicalizing constructors, so
    # exact zeros and x - x shapes stay in the tree; x3 has no coordinate
    leaves = st.one_of(
        st.builds(Var, st.integers(0, 3)),
        st.builds(lambda a, b: Const(F(a, b)), st.integers(-9, 9), st.integers(1, 4)),
        st.just(Const(F(0))),
    )
    coeffs = st.lists(st.integers(-4, 4).map(F), min_size=0, max_size=4)

    def extend(children):
        return st.one_of(
            st.builds(Add, children, children),
            st.builds(Mul, children, children),
            st.builds(lambda cs, a: Poly(tuple(cs), a), coeffs, children),
            st.builds(Inv, children),
            st.builds(
                lambda cs, tail, args: RestrictedSeries(tuple(cs), tail, tuple(args)),
                coeffs, st.integers(-2, 5), st.lists(children, min_size=1, max_size=2),
            ),
        )

    return st.recursive(leaves, extend, max_leaves=8)


@settings(max_examples=250, derandomize=True, deadline=None, database=None)
@given(_raw_terms(), st.sampled_from((2, 3, 5)),
       st.lists(st.tuples(st.integers(-20, 20), st.integers(0, 2), st.integers(0, 1)),
                min_size=3, max_size=3),
       st.lists(st.sampled_from((0, 1, 2, 3, INF)), min_size=3, max_size=3))
def test_eval_matches_reference_at_points_and_boxes(term, p, coords, box_depths):
    reps = tuple(F(n * p**e, p**f) for n, e, f in coords)
    for depths in ((INF,) * 3, tuple(box_depths)):
        for t in walk(term):
            assert _eval_outcome(_eval, t, reps, depths, p) == \
                _eval_outcome(reference_eval, t, reps, depths, p), print_dterm(t)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(_raw_terms(), st.sampled_from((2, 3, 5)),
       st.lists(st.tuples(st.integers(0, 40), st.integers(0, 2)), min_size=3, max_size=3),
       st.lists(st.sampled_from((0, 1, 2, 3, INF)), min_size=3, max_size=3))
def test_eval_at_integer_lifts_matches_reference(term, p, coords, box_depths):
    # the oracle's lifts are nonnegative ints: every subterm has the value
    # and precision it has at the same lifts as Fractions, and no float
    reps = tuple(n * p**e for n, e in coords)
    as_fractions = tuple(map(Fraction, reps))
    for depths in ((INF,) * 3, tuple(box_depths)):
        for t in walk(term):
            got = _eval_outcome(_eval, t, reps, depths, p)
            want = _eval_outcome(reference_eval, t, as_fractions, depths, p)
            if len(got) == 3:
                assert got[0] in (int, Fraction), print_dterm(t)
                got = (Fraction,) + got[1:]
            assert got == want, print_dterm(t)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.sampled_from((2, 3, 5)),
       st.lists(st.tuples(st.integers(-9, 9), st.integers(0, 2)), min_size=1, max_size=5),
       st.integers(-40, 40), st.integers(0, 3), st.integers(0, 4))
def test_polynomial_on_a_box_matches_reference(p, coeffs, n, k, depth):
    # the integer Horner of a polynomial on a box, at arguments and with
    # coefficients whose denominators carry powers of p
    t = Poly(tuple(Fraction(c, p**e) for c, e in coeffs), Var(0))
    for x in (Fraction(n, p**k), n * p**k):
        assert _eval_outcome(_eval, t, (x,), (depth,), p) == \
            _eval_outcome(reference_eval, t, (Fraction(x),), (depth,), p)


def test_compiled_terms_take_the_prime_at_each_call():
    # each node is compiled once, with no prime: evaluating the same nodes
    # at p = 2, then 3, then 2 again gives what reference_eval gives
    poly = Poly((F(1, 4), F(5, 9), F(-7, 12), F(1, 8)), Var(0))
    terms = [
        poly,
        Inv(Add(Var(0), Mul(Const(F(3)), Var(1)))),
        RestrictedSeries((F(1), F(1, 2), F(4, 3), F(0), F(6)), 3, (Var(0), Var(1))),
        Poly((F(1), F(-1, 6)), Inv(Var(1))),
    ]
    f = ConstructibleExpr((
        CTerm(F(2), (ValFactor(poly, 1),), (NormFactor(terms[1], F(1)),)),
        CTerm(F(-1, 3), (), (NormFactor(terms[2], F(2)), NormFactor(terms[3], F(-1)))),
    ))
    boxes = [((F(3, 2), F(4, 9)), (INF, INF)), ((6, 12), (INF, INF)), ((6, 12), (2, 1)),
             ((F(1, 6), F(8)), (3, INF)), ((0, 4), (1, 2))]
    for p in (2, 3, 2):
        for reps, depths in boxes:
            as_fractions = tuple(map(Fraction, reps))
            for t in terms:
                got = _eval_outcome(_eval, t, reps, depths, p)
                want = _eval_outcome(reference_eval, t, as_fractions, depths, p)
                if len(got) == 3:
                    got = (Fraction,) + got[1:]
                assert got == want, (print_dterm(t), p, reps, depths)
            assert _outcome(_constructible_value, f, reps, depths, p) == \
                _outcome(reference_value, f, as_fractions, depths, p)
    assert all("_eval" in t.__dict__ for t in terms)
    assert "_read" in poly.__dict__


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


# --- the canonical sum and the evaluator against their old forms -----------
# reference_of and reference_value keep the plain forms of
# ConstructibleExpr.of and _constructible_value, line for line: every term's
# factors merged and sorted, every factor argument evaluated where it
# appears. The fast ones must give equal terms, equal values, and errors of
# the same type in the same order.


def reference_of(terms) -> ConstructibleExpr:
    merged: dict = {}
    for term in terms:
        vals: dict = {}
        for f in term.val_factors:
            vals[f.h] = vals.get(f.h, 0) + f.power
        norms: dict = {}
        for f in term.norm_factors:
            norms[f.h] = norms.get(f.h, Fraction(0)) + f.power
        vf = tuple(
            ValFactor(h, e)
            for h, e in sorted(vals.items(), key=lambda kv: print_dterm(kv[0]))
            if e != 0
        )
        nf = tuple(
            NormFactor(h, e)
            for h, e in sorted(norms.items(), key=lambda kv: print_dterm(kv[0]))
            if e != 0
        )
        key = (vf, nf)
        merged[key] = merged.get(key, Fraction(0)) + term.coeff
    out = tuple(
        CTerm(c, vf, nf)
        for (vf, nf), c in sorted(
            merged.items(), key=lambda kv: reference_sort_key(kv[0])
        )
        if c != 0
    )
    return ConstructibleExpr(out)


def reference_sort_key(key):
    vf, nf = key
    return (
        tuple((print_dterm(f.h), f.power) for f in vf),
        tuple((print_dterm(f.h), f.power) for f in nf),
    )


def reference_value(
    f: ConstructibleExpr, reps: tuple[Fraction, ...], depths: tuple, p: int
) -> Fraction:
    total = Fraction(0)
    for term in f.terms:
        acc = term.coeff
        for vf in term.val_factors:
            value, prec = _eval(vf.h, reps, depths, p)
            v = pinned_valuation(value, prec, p)
            if v is None:
                if value == 0 and prec == INF:
                    raise VFactorZeroError("v() of an exact zero inside a constructible term")
                raise EvaluationPrecisionError("valuation undetermined at this precision")
            acc *= Fraction(v) ** vf.power
        for nf in term.norm_factors:
            value, prec = _eval(nf.h, reps, depths, p)
            if value == 0 and prec == INF:
                if nf.power < 0:
                    raise ZeroDivisionError("negative power of the norm of zero")
                acc = Fraction(0)
                continue
            v = pinned_valuation(value, prec, p)
            if v is None:
                raise EvaluationPrecisionError("norm undetermined at this precision")
            e = nf.power * v
            if e.denominator != 1:
                raise ValueError(
                    "fractional norm power does not give an integer exponent here"
                )
            acc *= Fraction(p) ** (-int(e))
        total += acc
    return total


# Factor arguments are parsed afresh at every draw, so repeated factors are
# equal but not the same object. "0" and "x0 - x0" give v() of a zero,
# inv(x1) leaves boxes undecided near 0.
FACTOR_TEXTS = ("x0", "x1", "x2", "x0^2 - 1", "x0 + x1", "3*x1", "inv(x1)",
                "x0*x1", "1/3", "0", "series([1, 1/3; tail 2], x0)")
FACTOR_ARGS = st.sampled_from(FACTOR_TEXTS).map(parse_dterm)
# plain ints too: a merge turns them into Fractions, and so must `of`
NORM_POWERS = st.sampled_from((F(-2), -1, F(-1, 2), F(0), 0, F(1, 3), F(1, 2), F(1), 1, 2))


@st.composite
def cterm_lists(draw):
    terms = []
    for _ in range(draw(st.integers(0, 5))):
        coeff = F(draw(st.sampled_from((-2, -1, 1, 2, 3))), draw(st.sampled_from((1, 2))))
        vals = draw(st.lists(st.builds(ValFactor, FACTOR_ARGS, st.integers(0, 3)), max_size=3))
        norms = draw(st.lists(st.builds(NormFactor, FACTOR_ARGS, NORM_POWERS), max_size=3))
        terms.append(CTerm(coeff, tuple(vals), tuple(norms)))
    # negated copies, factors shuffled, make coefficients cancel
    rng = draw(st.randoms(use_true_random=False))
    for t in list(terms):
        if rng.random() < 0.3:
            vals, norms = list(t.val_factors), list(t.norm_factors)
            rng.shuffle(vals)
            rng.shuffle(norms)
            terms.append(CTerm(-t.coeff, tuple(vals), tuple(norms)))
    return terms


def _permuted(terms, rng):
    out = []
    for t in terms:
        vals, norms = list(t.val_factors), list(t.norm_factors)
        rng.shuffle(vals)
        rng.shuffle(norms)
        out.append(CTerm(t.coeff, tuple(vals), tuple(norms)))
    rng.shuffle(out)
    return out


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(cterm_lists(), st.randoms(use_true_random=False))
def test_of_matches_reference(terms, rng):
    got = ConstructibleExpr.of(terms)
    want = reference_of(terms)
    assert got == want
    assert print_constructible(got) == print_constructible(want)
    assert [type(f.power) for t in got.terms for f in t.val_factors + t.norm_factors] == \
        [type(f.power) for t in want.terms for f in t.val_factors + t.norm_factors]
    assert ConstructibleExpr.of(got.terms) == got
    assert ConstructibleExpr.of(_permuted(terms, rng)) == got


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(cterm_lists(), st.sampled_from((F(-3, 2), -1, F(1, 3), 2, 0)))
def test_scale_keeps_the_canonical_form(terms, c):
    # scale skips the merge and sort that `of` would do again
    scaled = [CTerm(t.coeff * c, t.val_factors, t.norm_factors) for t in terms]
    got = ConstructibleExpr.of(terms).scale(c)
    assert got == ConstructibleExpr.of(scaled)
    assert print_constructible(got) == print_constructible(ConstructibleExpr.of(scaled))
    # raw (coeff, val_factors, norm_factors) triples canonicalize like CTerms
    assert ConstructibleExpr.of(tuple(t) for t in scaled) == got


def _outcome(evaluate, *args):
    try:
        value = evaluate(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    assert type(value) is Fraction
    return value


@st.composite
def expressions_on_boxes(draw):
    p = draw(st.sampled_from((2, 3, 5)))
    terms = draw(cterm_lists())
    # raw (unmerged) terms reach the evaluator too, e.g. built by hand
    f = ConstructibleExpr(tuple(terms)) if draw(st.booleans()) else ConstructibleExpr.of(terms)
    reps, depths = [], []
    for _ in range(3):
        reps.append(F(draw(st.integers(-9, 9)) * p ** draw(st.integers(0, 2)),
                      p ** draw(st.integers(0, 1))))
        depths.append(draw(st.sampled_from((0, 1, 2, 3, INF, INF, INF))))
    return f, tuple(reps), tuple(depths), p


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(expressions_on_boxes())
def test_value_matches_reference_at_points_and_boxes(case):
    f, reps, depths, p = case
    assert _outcome(_constructible_value, f, reps, depths, p) == \
        _outcome(reference_value, f, reps, depths, p)
    point = (INF,) * len(reps)
    assert _outcome(_constructible_value, f, reps, point, p) == \
        _outcome(reference_value, f, reps, point, p)


@pytest.mark.parametrize("flip", [False, True])
def test_value_reports_the_first_error_in_term_order(flip):
    # x1 = 0 is read once, but each term still raises its own error
    terms = (
        CTerm(F(1), (ValFactor(Var(0), 1),), (NormFactor(Var(1), F(-1)),)),
        CTerm(F(2), (ValFactor(Var(1), 1),), ()),
    )
    f = ConstructibleExpr(terms[::-1] if flip else terms)
    want = VFactorZeroError if flip else ZeroDivisionError
    reps, depths = (F(3), F(0)), (INF, INF)
    for evaluate in (reference_value, _constructible_value):
        with pytest.raises(ZeroDivisionError) as info:
            evaluate(f, reps, depths, 3)
        assert type(info.value) is want


@st.composite
def expressions_on_integer_boxes(draw):
    """expressions_on_boxes with the lifts made nonnegative ints, as the
    oracle's are."""
    f, _, depths, p = draw(expressions_on_boxes())
    reps = tuple(draw(st.integers(0, 9)) * p ** draw(st.integers(0, 2)) for _ in depths)
    return f, reps, depths, p


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(expressions_on_integer_boxes())
def test_value_matches_reference_at_integer_lifts(case):
    f, reps, depths, p = case
    as_fractions = tuple(map(Fraction, reps))
    for box in (depths, (INF,) * len(reps)):
        assert _outcome(_constructible_value, f, reps, box, p) == \
            _outcome(reference_value, f, as_fractions, box, p)


def test_evaluation_plan_leaves_equality_and_hashing_alone():
    import dataclasses

    text = "2*v(x0)*abs(x1)^(1/2) - v(x0)^2*abs(x0^2 - 1) + abs(x1)^(1/2) + 1/3"
    a, b = parse_constructible(text), parse_constructible(text)
    keyed = {b: "b"}
    hash_before = hash(a)
    reps, depths = (Fraction(9), Fraction(4)), (INF, INF)
    value = _constructible_value(a, reps, depths, 3)  # only a caches a plan
    assert value == reference_value(a, reps, depths, 3)
    assert "_plan" in a.__dict__ and "_plan" not in b.__dict__
    assert a == b and b == a and not a != b
    assert hash(a) == hash(b) == hash_before == hash((a.terms,))
    assert keyed[a] == "b" and len({a: 1, b: 2}) == 1 and len({a, b}) == 1
    assert repr(a) == repr(b) and dataclasses.astuple(a) == dataclasses.astuple(b)
    assert a != parse_constructible("v(x0)")
    # of, scale and sums build expressions with plans of their own
    for g in (ConstructibleExpr.of(a.terms), a.scale(Fraction(-3, 2)), a + b, a * b,
              ConstructibleExpr.of(reversed(b.terms))):
        assert _constructible_value(g, reps, depths, 3) == reference_value(g, reps, depths, 3)
    assert _constructible_value(a.scale(2), reps, depths, 3) == 2 * value
    assert _constructible_value(a, reps, depths, 3) == value
    assert _constructible_value(b, (9, 4), depths, 3) == value

    # a term node keeps its compiled evaluator and reader as it keeps its
    # hash and text: fields, equality, hashes and repr are a fresh node's
    text = "x0^2*inv(x1) + series([1, 2; tail 3], x2) - 2/9*x1"
    t, u = parse_dterm(text), parse_dterm(text)
    before = hash(t), repr(t), dataclasses.astuple(t)
    f = ConstructibleExpr((CTerm(F(1), (ValFactor(t, 1),), (NormFactor(t.left, F(1)),)),))
    reps, depths = (F(3), F(1, 3), F(0)), (INF, 2, 1)
    value = _eval(t, reps, depths, 3)
    assert _outcome(_constructible_value, f, reps, depths, 3) == \
        _outcome(reference_value, f, reps, depths, 3)
    assert "_eval" in t.__dict__ and "_read" in t.__dict__ and "_eval" not in u.__dict__
    for node, fresh in zip(walk(t), walk(u)):
        assert node == fresh and fresh == node and not node != fresh
        assert hash(node) == hash(fresh) and repr(node) == repr(fresh)
        assert dataclasses.astuple(node) == dataclasses.astuple(fresh)
    assert (hash(t), repr(t), dataclasses.astuple(t)) == before
    assert {u: 1}[t] == 1 and len({t, u}) == 1
    assert t != parse_dterm("x0^2*inv(x1)")
    assert _eval(u, reps, depths, 3) == value == _eval(t, reps, depths, 3)


def test_evaluated_terms_and_expressions_still_pickle():
    import pickle

    f = parse_constructible("v(x0^2 - 1)*abs(inv(x1)) + 2*abs(series([1, 3; tail 2], x1))")
    t = parse_dterm("x0^2*inv(x1) + 1/2")
    reps, depths = (F(2), F(1, 3)), (INF, 4)
    value = _constructible_value(f, reps, depths, 3)
    at = _eval(t, reps, depths, 3)
    g, u = pickle.loads(pickle.dumps(f)), pickle.loads(pickle.dumps(t))
    assert g == f and hash(g) == hash(f) and u == t and hash(u) == hash(t)
    assert "_plan" not in g.__dict__ and "_eval" not in u.__dict__
    assert _constructible_value(g, reps, depths, 3) == value and _eval(u, reps, depths, 3) == at


def test_value_reads_each_argument_when_a_term_first_needs_it():
    # x5 has no coordinate: reading it raises ValueError, but only once the
    # term that holds it is reached
    f = ConstructibleExpr((
        CTerm(F(1), (ValFactor(Var(0), 1),), ()),
        CTerm(F(1), (ValFactor(Var(5), 1),), ()),
    ))
    for reps in ((F(0),), (0,)):
        with pytest.raises(VFactorZeroError):
            _constructible_value(f, reps, (INF,), 3)
    with pytest.raises(ValueError, match="no coordinate for x5"):
        _constructible_value(f, (9,), (INF,), 3)


# --- hash, equality and cached text ----------------------------------------

def test_equal_terms_hash_equal_however_built():
    import dataclasses

    a = parse_dterm("x0^2*inv(x1) + series([1, 2; tail 3], x2)")
    hash(a)  # cached on a, not on b
    b = Add(dataclasses.replace(a.left), dataclasses.replace(a.right, tail_valuation=3))
    assert a is not b and a == b and hash(a) == hash(b)
    c = dataclasses.replace(a, right=parse_dterm("series([1, 2; tail 3], x2)"))
    assert c == a and hash(c) == hash(a)
    # the cached hash is the dataclass hash of the fields, so dict and set
    # orders are those of the uncached terms
    assert hash(a) == hash((a.left, a.right))
    assert {a: 1}[c] == 1
    assert a != dataclasses.replace(a, right=parse_dterm("series([1, 2; tail 4], x2)"))
    f = ValFactor(a, 2)
    assert hash(f) == hash(ValFactor(c, 2)) and f == ValFactor(c, 2)
    assert NormFactor(a, F(1, 2)) == NormFactor(b, F(1, 2))
    assert hash(NormFactor(a, F(1, 2))) == hash(NormFactor(b, F(1, 2)))


def test_cached_text_matches_a_fresh_render():
    rng = random.Random(23)
    for _ in range(200):
        t = random_dterm(rng, rng.randint(1, 4))
        first = print_dterm(t)
        assert print_dterm(t) == first == _render(t)[0]
        for node in walk(t):
            assert print_dterm(node) == _render(node)[0]
    with pytest.raises(TypeError):
        print_dterm(3)


# cached hashes and free variables: nothing visible changes

def _uncached_twin(obj):
    """An instance of a plain frozen dataclass with the same fields and
    values as obj, which hashes its field tuple afresh on every call."""
    import dataclasses

    cls = dataclasses.make_dataclass(
        type(obj).__name__, [(f.name, f.type) for f in dataclasses.fields(obj)], frozen=True)
    return cls(**{f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)})


def _hashed_objects():
    from padicells.cells import CellCondition, coset_of

    f = parse_constructible("3/4*v(x0 + 1)^2*abs(x1)^(1/2) - abs(2*x0) + 5")
    cond = CellCondition(center=parse_dterm("1/3*x0 + 1"), coset=coset_of(P3, 3, 2),
                         upper=Var(0), upper_strict=False, upper_val_residue=1)
    return [f, ConstructibleExpr.zero(), cond,
            CellCondition(center=Const(F(0)), coset=coset_of(P3, 1, 1))]


@pytest.mark.parametrize("obj", _hashed_objects())
def test_cached_hashes_change_nothing_visible(obj):
    import dataclasses

    twin = _uncached_twin(obj)
    assert hash(obj) == hash(twin) == hash(obj)  # first call caches, second reads
    assert "_hash" in obj.__dict__
    assert obj == dataclasses.replace(obj) and hash(dataclasses.replace(obj)) == hash(obj)
    assert repr(obj) == repr(twin)
    assert dataclasses.astuple(obj) == dataclasses.astuple(twin)
    assert [f.name for f in dataclasses.fields(obj)] == [f.name for f in dataclasses.fields(twin)]
    assert "_hash" not in obj.__getstate__()


def test_pickled_condition_hashes_afresh_in_another_process():
    # hash(None) reads an address before Python 3.12, so a hash pickled in
    # one process would be stale in the next
    import pickle
    import subprocess
    import sys

    from padicells.cells import CellCondition, coset_of

    child = (
        "import pickle, sys\n"
        "from fractions import Fraction\n"
        "from padicells.cells import CellCondition, coset_of\n"
        "from padicells.expr import Const, Var\n"
        "from padicells.padic import Prime\n"
        "c = CellCondition(center=Const(Fraction(0)), coset=coset_of(Prime(3), 1, 1),"
        " upper=Var(0))\n"
        "hash(c)\n"
        "sys.stdout.buffer.write(pickle.dumps(c))\n"
    )
    import os

    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    raw = subprocess.run([sys.executable, "-c", child], capture_output=True, check=True,
                         env=env).stdout
    loaded = pickle.loads(raw)
    fresh = CellCondition(center=Const(F(0)), coset=coset_of(P3, 1, 1), upper=Var(0))
    assert loaded.lower is None and "_hash" not in loaded.__dict__
    assert loaded == fresh and hash(loaded) == hash(fresh) == hash(_uncached_twin(fresh))
    assert {loaded: 1}[fresh] == 1


def _reference_free_variables(t):
    """free_variables as an uncached recursion."""
    if isinstance(t, Var):
        return frozenset({t.index})
    if isinstance(t, Const):
        return frozenset()
    if isinstance(t, (Add, Mul)):
        return _reference_free_variables(t.left) | _reference_free_variables(t.right)
    if isinstance(t, Inv):
        return _reference_free_variables(t.arg)
    if isinstance(t, Poly):
        return _reference_free_variables(t.argument)
    out = frozenset()
    for a in t.arguments:
        out |= _reference_free_variables(a)
    return out


def _scales(p):
    """0, +-1, units, and +-p^k for k in -2..2, at p."""
    units = [F(u, w) for u in (2, 4, -5, 7) for w in (1, 5, 7) if u % p and w % p]
    powers = [s * F(p) ** k for s in (1, -1) for k in (-2, -1, 1, 2)]
    return [F(0), F(1), F(-1)] + units + powers


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(TERMS, st.sampled_from((2, 3, 5)))
def test_scaling_and_free_variables_agree_with_the_old_helpers(t, p):
    assert free_variables(t) == _reference_free_variables(t)
    assert free_variables(t) == _reference_free_variables(t)  # the kept set
    for c in _scales(p):
        scaled = d_scale(t, c)
        assert scaled == d_mul(Const(c), t)
        assert print_dterm(scaled) == print_dterm(d_mul(Const(c), t))
    with pytest.raises(TypeError, match="not a DTerm"):
        free_variables("x0")
