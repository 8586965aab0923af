"""Enumeration oracle: frozen closed forms and boundary accounting.

The hand values all come from geometric series over valuation shells: the
shell {v(t) = k} inside Z_p has measure (1 - 1/p) p^-k, so for instance
the integral of |t| over Z_3 is (2/3) * sum 9^-k = 3/4.

The box tree is also checked against flat_reference, the plain
enumeration of every class mod p^N: its boundary mass must never be
larger, and its value must lie within the flat boundary mass.
"""

from fractions import Fraction
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicells import oracle, polys
from padicells.cells import (
    Cell,
    CellCondition,
    coset_of,
    pin_bound_residues,
    point_cell,
    punctured_ball_cell,
    zp_cell,
)
from padicells.expr import (
    Const,
    ConstructibleExpr,
    CTerm,
    EvaluationPrecisionError,
    NormFactor,
    ValFactor,
    Var,
    _constructible_value,
    d_sub,
    parse_constructible,
    parse_dterm,
    pinned_valuation,
)
from padicells.decompose import decompose_univariate
from padicells.integrate import (
    eliminate_last_variable,
    group_prepared,
    integrate_full,
    prepared_power,
)
from padicells.oracle import (
    BOUNDARY,
    DEFAULT_BUDGET,
    DIFF,
    INSIDE,
    LOWER,
    OUTSIDE,
    UPPER,
    BudgetExceeded,
    OracleResult,
    UnboundedDomainError,
    _check_enumerable,
    _decide,
    _reads,
    _stage,
    oracle_integrate,
    oracle_measure,
)
from padicells.padic import (
    INF,
    PAdicScalar,
    Prime,
    coset_representatives,
    in_coset,
    rational_valuation,
    unit_digits,
)
from test_expr import reference_eval
from test_padic import reference_newton_depth

P2, P3, P5 = Prime(2), Prime(3), Prime(5)
PRIMES = {2: P2, 3: P3, 5: P5}
# p^N <= 125 classes per variable, so the flat reference stays cheap
SMALL_N = {2: 6, 3: 4, 5: 3}


def norm_t(power=1):
    return ConstructibleExpr.of([CTerm(F(1), (), (NormFactor(Var(0), F(power)),))])


def window(p: Prime, lo: int, hi: int, mu=1, n: int = 1) -> Cell:
    """{t : lo <= v(t) <= hi, t in mu*P_n}."""
    return Cell(
        (
            CellCondition(
                center=Const(F(0)),
                coset=coset_of(p, mu, n),
                lower=Const(F(p.p) ** hi),
                lower_strict=False,
                upper=Const(F(p.p) ** lo),
                upper_strict=False,
            ),
        )
    )


def below(lower: F) -> Cell:
    """{t in Z_3 : |lower| < |t|}."""
    return Cell(
        (
            CellCondition(
                center=Const(F(0)),
                coset=coset_of(P3, 1, 1),
                lower=Const(lower),
                upper=Const(F(1)),
                upper_strict=False,
            ),
        )
    )


def square_coset_cell() -> Cell:
    return Cell(
        (
            CellCondition(
                center=Const(F(0)),
                coset=coset_of(P3, 1, 2),
                upper=Const(F(1)),
                upper_strict=False,
            ),
        )
    )


def two_stage_cell() -> Cell:
    # x0 in Z_3 (punctured), x1 in ball |x1 - x0| <= 1/3
    c0 = zp_cell(P3).conditions[0]
    c1 = CellCondition(
        center=Var(0),
        coset=coset_of(P3, 1, 1),
        upper=Const(F(3)),
        upper_strict=False,
    )
    return Cell((c0, c1))


def guarded_cell() -> Cell:
    """x0 in Z_3, |x1| <= |x0| with x1 in a P_2 coset: the two-variable
    cell of the guarded elimination test in test_integrate.py."""
    c1 = CellCondition(
        center=Const(F(0)),
        coset=coset_of(P3, 1, 2),
        upper=Var(0),
        upper_strict=False,
    )
    return Cell((zp_cell(P3).conditions[0], c1))


def flat_reference(integrand, domain, p, N):
    """(value, boundary mass) by visiting every class mod p^N of
    Z_p^arity at depth N in every coordinate: a class is dropped at its
    first OUTSIDE stage and counted as boundary at its first undecided
    one, or when the integrand is undetermined on it."""
    arity = domain.arity
    depths = (N,) * arity
    diffs = [d_sub(Var(i), c.center) for i, c in enumerate(domain.conditions)]
    pN = p.p**N
    value = boundary = F(0)

    def rec(lifts, stage):
        nonlocal value, boundary
        if stage == arity:
            try:
                got = _constructible_value(integrand, lifts, depths, p.p)
                value += got * F(1, pN) ** arity
            except (EvaluationPrecisionError, ZeroDivisionError, ValueError):
                boundary += F(1, pN) ** arity
            return
        cond = domain.conditions[stage]
        for r in range(pN):
            here = lifts[:stage] + (F(r),) + lifts[stage + 1:]
            decision, _ = _decide(_stage(cond, diffs[stage]), here, depths)
            if decision == BOUNDARY:
                boundary += F(1, pN) ** (stage + 1)
            elif decision == INSIDE:
                rec(here, stage + 1)

    rec((F(0),) * arity, 0)
    return value, boundary


def assert_gate(integrand, domain, p, N):
    """The box tree never leaves more undecided than the flat reference,
    and agrees with it up to the flat boundary mass."""
    r = oracle_integrate(integrand, domain, p, N)
    flat_value, flat_boundary = flat_reference(integrand, domain, p, N)
    assert r.boundary_mass <= flat_boundary
    assert abs(r.value - flat_value) <= flat_boundary
    return r


def test_abs_t_on_z3():
    r = oracle_integrate(norm_t(), zp_cell(P3), P3, 6)
    assert abs(r.value - F(3, 4)) < F(1, 3**5)
    assert not r.sampled
    # only the zero class is undecided
    assert r.boundary_mass == F(1, 3**6)
    assert abs(r.value - F(3, 4)) <= r.boundary_mass  # sup |t| = 1


def test_abs_t_squared_on_z3():
    r = oracle_integrate(norm_t(2), zp_cell(P3), P3, 6)
    assert abs(r.value - F(9, 13)) < F(1, 3**5)


def test_constant_one_is_exact():
    for p in (P2, P3, P5):
        r = oracle_integrate(ConstructibleExpr.const(1), zp_cell(p), p, 3)
        assert r.value == 1
        assert r.boundary_mass == 0


def test_square_coset_measure():
    r = oracle_measure(square_coset_cell(), P3, 6)
    assert abs(r.value - F(3, 8)) < F(1, 3**4)


def test_open_ball_is_residue_determined():
    cell = punctured_ball_cell(P3, 0, 1)
    for N in (1, 2, 4):
        r = oracle_measure(cell, P3, N)
        assert r.value == F(1, 3)
        assert r.boundary_mass == 0


def test_point_cell_counts_as_boundary():
    r = oracle_measure(point_cell(P3, 2), P3, 4)
    assert r.value == 0
    assert r.boundary_mass == F(1, 3**4)


def test_unbounded_domain_rejected():
    cond = CellCondition(center=Const(F(0)), coset=coset_of(P3, 1, 1))
    with pytest.raises(UnboundedDomainError, match="unbounded domain"):
        oracle_measure(Cell((cond,)), P3, 3)


def ball_stage(center, radius, n=1, mu=1, strict=False) -> CellCondition:
    """{t in mu*P_n : |t - center| <= |radius|}, < when strict."""
    return CellCondition(center=Const(F(center)), coset=coset_of(P3, mu, n),
                         upper=Const(F(radius)), upper_strict=strict)


@pytest.mark.parametrize("at", [0, 1])
@pytest.mark.parametrize("cond, needle", [
    # the boxes cover Z_3 only: alone, these measured 1 and 0 (true 3
    # and 1) and 10/81 with bound 1/81 (true 9/8), all with bound 0
    (ball_stage(0, F(1, 3)), "admits the level -1"),
    (ball_stage(F(1, 3), 1), "its center is outside Z_p"),
    (ball_stage(0, F(1, 3), n=2, mu=3), "admits the level -1"),
    (ball_stage(0, F(1, 9), strict=True), "admits the level -1"),
])
def test_domain_leaving_zp_rejected(cond, needle, at):
    cell = Cell((zp_cell(P3).conditions[0],) * at + (cond,))
    with pytest.raises(UnboundedDomainError, match=f"stage {at} leaves Z_p: .*{needle}"):
        oracle_measure(cell, P3, 3)


@pytest.mark.parametrize("cond, measure", [
    (ball_stage(0, F(1, 3), strict=True), 1),  # levels from 0 on
    (ball_stage(0, F(1, 3), n=2), F(3, 8)),  # the even levels from 0 on
    (ball_stage(2, 1), 1),
])
def test_domain_reaching_zp_only_accepted(cond, measure):
    r = oracle_measure(Cell((cond,)), P3, 5)
    assert abs(r.value - measure) <= r.boundary_mass


def test_integrand_outside_the_domain_rejected():
    # this raised a bare IndexError while choosing the axis to split
    with pytest.raises(ValueError, match="integrand reads x3, but the cell has arity 1"):
        oracle_integrate(parse_constructible("abs(x3)"), zp_cell(P3), P3, 4)


def test_prime_mismatch_rejected():
    with pytest.raises(ValueError):
        oracle_measure(zp_cell(P3), P5, 2)


def test_monotone_boundary_refinement():
    integrand = parse_constructible("v(x0 + 3)*abs(x0)")
    prev = None
    for N in (1, 2, 3, 4, 5):
        r = oracle_integrate(integrand, zp_cell(P3), P3, N)
        if prev is not None:
            assert r.boundary_mass <= prev
        prev = r.boundary_mass


def test_v_factor_zero_goes_to_boundary():
    # v(x0) is undefined on the class of 0; its mass must never be guessed
    integrand = ConstructibleExpr.of([CTerm(F(1), (ValFactor(Var(0), 1),), ())])
    r = oracle_integrate(integrand, zp_cell(P3), P3, 3)
    # sum over k=0..2 of k*(2/3)*3^-k
    assert r.value == F(2, 3) * (F(1, 3) + F(2, 9))
    assert r.boundary_mass == F(1, 27)


def test_two_stage_product_cell():
    r = oracle_measure(two_stage_cell(), P3, 3)
    assert r.value == F(1, 3)
    assert r.boundary_mass == 0


def test_determinism():
    integrand = parse_constructible("abs(x0^2 - 1)")
    a = oracle_integrate(integrand, zp_cell(P5), P5, 3)
    b = oracle_integrate(integrand, zp_cell(P5), P5, 3)
    assert a == b


def test_over_budget_raises():
    # 3^6 classes over a budget of 100: no estimate without a sound bound
    with pytest.raises(BudgetExceeded, match="class budget"):
        oracle_integrate(norm_t(), zp_cell(P3), P3, 6, budget=100)


def test_exactness_on_residue_determined_integrand():
    # |x0| restricted to units is constant on classes mod 3: exact at N=1
    r = oracle_integrate(norm_t(), below(F(3)), P3, 1)  # v < 1, i.e. |t| = 1
    assert r.value == F(2, 3)
    assert r.boundary_mass == 0


def test_bound_at_resolution_depth_is_boundary_not_outside():
    # lower bound v <= 4 at N = 4: the zero class mod 3^4 straddles the
    # window, so its mass must land in the bound, not be dropped
    r = oracle_measure(below(F(243)), P3, 4)
    exact = sum(F(2, 3) * F(3) ** -k for k in range(5))
    assert r.boundary_mass == F(1, 81)
    assert abs(exact - r.value) <= r.boundary_mass


def test_ball_deeper_than_resolution_stays_boundary():
    # ball of radius 3^-6 seen at N = 4: nothing is certain yet
    deep = punctured_ball_cell(P3, F(0), 6)
    r = oracle_measure(deep, P3, 4)
    assert r.value == 0
    assert r.boundary_mass == F(1, 81)
    assert abs(F(3) ** -6 - r.value) <= r.boundary_mass


# ---------------------------------------------------------------------------
# the box tree against the flat reference

def norm_x1():
    return ConstructibleExpr.of([CTerm(F(1), (), (NormFactor(Var(1), F(1)),))])


ONE = ConstructibleExpr.const(1)
GATE_CASES = (
    [("abs(x0) on Z_3", norm_t(), zp_cell(P3), P3, N) for N in (6, 8)]
    + [("abs(x0)^2 on Z_3", norm_t(2), zp_cell(P3), P3, 6)]
    + [(f"1 on Z_{p.p}", ONE, zp_cell(p), p, 3) for p in (P2, P3, P5)]
    + [("square coset", ONE, square_coset_cell(), P3, 6)]
    + [("open ball", ONE, punctured_ball_cell(P3, 0, 1), P3, N) for N in (1, 2, 4, 8)]
    + [("point 2", ONE, point_cell(P3, 2), P3, 4), ("point 0", ONE, point_cell(P3, 0), P3, 4)]
    + [("v(x0 + 3)*abs(x0)", parse_constructible("v(x0 + 3)*abs(x0)"), zp_cell(P3), P3, N)
       for N in (1, 2, 3, 4, 5)]
    + [("v(x0)", parse_constructible("v(x0)"), zp_cell(P3), P3, 3)]
    + [("two stages", ONE, two_stage_cell(), P3, 3)]
    + [("abs(x0^2 - 1) on Z_5", parse_constructible("abs(x0^2 - 1)"), zp_cell(P5), P5, 3)]
    + [("units", norm_t(), below(F(3)), P3, 1), ("v <= 4", ONE, below(F(243)), P3, 4)]
    + [("deep ball", ONE, punctured_ball_cell(P3, F(0), 6), P3, 4)]
    + [(f"guarded {name}", g, guarded_cell(), P3, N)
       for name, g in (("abs(x1)", norm_x1()), ("1", ONE)) for N in (1, 2, 3, 4)]
)


@pytest.mark.parametrize(
    "integrand, domain, p, N",
    [case[1:] for case in GATE_CASES],
    ids=[f"{case[0]} N={case[4]}" for case in GATE_CASES],
)
def test_box_tree_within_flat_reference(integrand, domain, p, N):
    assert_gate(integrand, domain, p, N)


def test_deep_resolution_beyond_the_flat_budget():
    # 3^30 classes would never be enumerated; the tree visits a few hundred
    r = oracle_integrate(parse_constructible("abs(x0^2 - 1)"), zp_cell(P3), P3, 30,
                         budget=3**30)
    assert not r.sampled
    assert r.boundary_mass == 2 * F(1, 3**30)
    # 1/3 from the class of 0, 1/12 from each of the classes of 1 and -1
    assert abs(r.value - F(1, 2)) <= r.boundary_mass


def test_guarded_cell_splits_only_open_coordinates():
    # a box whose x0 has a known valuation splits x1 alone; splitting x0
    # as well would visit about 3^20 boxes here
    r = oracle_integrate(norm_x1(), guarded_cell(), P3, 20, budget=3**40)
    assert not r.sampled
    assert 0 < r.boundary_mass < F(1, 3**19)
    # the closed form of test_full_elimination_with_guards_matches_oracle
    assert abs(r.value - F(1647, 7280)) <= r.boundary_mass  # sup |x1| = 1


# ---------------------------------------------------------------------------
# generated problems: the oracle's rule against the closed forms, and the
# box tree against the flat reference

@st.composite
def split_poly_problems(draw):
    """c*abs(lead * prod (x0 - a_i))^s on Z_p; integer coefficients keep
    |f| <= 1, so sup = c."""
    p = PRIMES[draw(st.sampled_from(sorted(PRIMES)))]
    N = draw(st.integers(1, SMALL_N[p.p]))
    lead = draw(st.integers(1, 3))
    roots = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=3))
    s = draw(st.integers(1, 2))
    c = F(draw(st.integers(1, 4)), draw(st.integers(1, 3)))
    return p, N, lead, roots, s, c


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(split_poly_problems())
def test_generated_polynomial_norms(problem):
    p, N, lead, roots, s, c = problem
    coeffs = (F(lead),)
    for a in roots:
        coeffs = polys.mul(coeffs, (F(-a), F(1)))
    factors = "*".join(f"(x0 - ({a}))" for a in roots)
    g = parse_constructible(f"{c}*abs({lead}*{factors})^{s}")
    terms = decompose_univariate(coeffs, p)
    res = eliminate_last_variable(
        group_prepared(prepared_power(terms, s)), base_point=[]
    )
    exact = c * res.value.constant_value()
    r = assert_gate(g, zp_cell(p), p, N)
    assert abs(exact - r.value) <= r.boundary_mass * c


@st.composite
def annulus_problems(draw):
    """c*v(x0)^l*abs(x0)^e on {lo <= v(x0) <= hi, x0 in mu*P_n}; the
    window keeps negative powers bounded."""
    p = PRIMES[draw(st.sampled_from(sorted(PRIMES)))]
    N = draw(st.integers(1, SMALL_N[p.p]))
    lo = draw(st.integers(0, 1))
    hi = draw(st.integers(lo, lo + 2))
    n = draw(st.integers(1, 2))
    mu = draw(st.sampled_from(coset_representatives(p.p, n)))
    e = draw(st.integers(-2, 2))
    l = draw(st.integers(0, 2))
    c = F(draw(st.integers(1, 5)), draw(st.integers(1, 2)))
    return p, N, window(p, lo, hi, mu, n), lo, hi, e, l, c


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(annulus_problems())
def test_generated_annulus_integrands(problem):
    p, N, cell, lo, hi, e, l, c = problem
    g = ConstructibleExpr.of(
        [CTerm(c, (ValFactor(Var(0), l),) if l else (), (NormFactor(Var(0), F(e)),))]
    )
    res = integrate_full(g, [cell])
    assert res.integrable
    sup = c * max(F(k) ** l * F(p.p) ** (-e * k) for k in range(lo, hi + 1))
    r = assert_gate(g, cell, p, N)
    assert abs(res.value.constant_value() - r.value) <= r.boundary_mass * sup


# ---------------------------------------------------------------------------
# the integer box walk against its plain form: reference_oracle_integrate
# keeps oracle_integrate with Fraction lifts, a Fraction measure per box and
# a Fraction product per decided box, line for line. Both must give the same
# value and boundary mass, as Fractions.

def reference_oracle_integrate(
    integrand: ConstructibleExpr,
    domain: Cell,
    p: Prime,
    N: int,
    budget: int = DEFAULT_BUDGET,
) -> OracleResult:
    """Refine boxes of Z_p^arity while they are undecided, down to depth N
    in every coordinate.

    Boxes certainly inside with a box-determined integrand contribute
    exactly; boxes still undecided at depth N accumulate into
    boundary_mass. Raises BudgetExceeded when the p^(arity*N) classes mod
    p^N exceed the class budget.
    """
    if p != domain.prime:
        raise ValueError("prime does not match the domain's")
    if N < 1:
        raise ValueError("resolution must be >= 1")
    _check_enumerable(domain)
    arity = domain.arity
    if p.p ** (arity * N) > budget:
        raise BudgetExceeded(
            f"{p.p}^({arity}*{N}) classes exceed the class budget of {budget}"
        )

    q = p.p
    conds = domain.conditions
    diffs = [d_sub(Var(i), cond.center) for i, cond in enumerate(conds)]
    # the variables read by each subset of a stage's terms, by bitmask
    stage_reads = [
        [_reads(t for bit, t in zip((DIFF, LOWER, UPPER), (diff, cond.lower, cond.upper))
                if mask & bit)
         for mask in range(8)]
        for diff, cond in zip(diffs, conds)
    ]
    integrand_reads = _reads(
        fac.h for term in integrand.terms
        for fac in term.val_factors + term.norm_factors
    )
    value = Fraction(0)
    boundary = Fraction(0)
    # (lifts, depths, bitmask of the stages known INSIDE on the whole box);
    # a sub-box inherits its parent's INSIDE stages
    stack = [((Fraction(0),) * arity, (0,) * arity, 0)]
    while stack:
        reps, depths, inside = stack.pop()
        first = None
        for s in range(arity):
            if inside >> s & 1:
                continue
            decision, open_terms = _decide(_stage(conds[s], diffs[s]), reps, depths)
            if decision == OUTSIDE:
                break
            if decision == INSIDE:
                inside |= 1 << s
            elif first is None:
                first, axes = s, stage_reads[s][open_terms]
        else:  # no stage is OUTSIDE
            measure = Fraction(1, q ** sum(depths))
            if first is None:
                try:
                    value += _constructible_value(integrand, reps, depths, q) * measure
                    continue
                except (EvaluationPrecisionError, ZeroDivisionError, ValueError):
                    axes = integrand_reads  # the box does not pin the integrand
            axis = min(axes, key=depths.__getitem__, default=None)
            if axis is None or depths[axis] >= N:
                boundary += measure
                continue
            d = depths[axis]
            deeper = depths[:axis] + (d + 1,) + depths[axis + 1:]
            step = q**d
            for j in range(q):
                lift = reps[:axis] + (reps[axis] + j * step,) + reps[axis + 1:]
                stack.append((lift, deeper, inside))
    return OracleResult(value, boundary)


# hand-built cells with integrands they keep bounded, and depths that keep
# each case in the tens of boxes
HAND_CASES = (
    [(two_stage_cell(), g, P3, N) for g in (ONE, norm_x1()) for N in (1, 2, 3)]
    + [(guarded_cell(), g, P3, N)
       for g in (ONE, norm_x1(), parse_constructible("v(x0)*abs(x1)")) for N in (1, 2, 3, 4)]
    + [(square_coset_cell(), g, P3, N) for g in (ONE, norm_t(), norm_t(2)) for N in (2, 4, 6)]
    + [(below(lower), g, P3, N)
       for lower in (F(3), F(27), F(1, 3))
       for g in (ONE, norm_t(-1), parse_constructible("v(x0)^2*abs(x0)")) for N in (1, 3, 5)]
    + [(window(p, 0, 3, mu, n), g, p, N)
       for p, n in ((P2, 2), (P3, 3), (P5, 2))
       for mu in coset_representatives(p.p, n)[:3]
       for g in (ONE, parse_constructible("v(x0)*abs(x0)^(-1)")) for N in (2, SMALL_N[p.p])]
)


@st.composite
def oracle_problems(draw):
    """(integrand, domain, p, N) from split_poly_problems, annulus_problems,
    HAND_CASES or power_coset_problems, which has p = 2 with 4 | n."""
    source = draw(st.sampled_from(("poly", "annulus", "hand", "power")))
    if source == "power":
        return draw(power_coset_problems())
    if source == "poly":
        p, N, lead, roots, s, c = draw(split_poly_problems())
        factors = "*".join(f"(x0 - ({a}))" for a in roots)
        return parse_constructible(f"{c}*abs({lead}*{factors})^{s}"), zp_cell(p), p, N
    if source == "annulus":
        p, N, cell, _, _, e, l, c = draw(annulus_problems())
        g = ConstructibleExpr.of(
            [CTerm(c, (ValFactor(Var(0), l),) if l else (), (NormFactor(Var(0), F(e)),))]
        )
        return g, cell, p, N
    cell, g, p, N = draw(st.sampled_from(HAND_CASES))
    return g, cell, p, N


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(oracle_problems())
def test_integer_walk_matches_reference(problem):
    integrand, domain, p, N = problem
    got = oracle_integrate(integrand, domain, p, N)
    want = reference_oracle_integrate(integrand, domain, p, N)
    assert type(got.value) is Fraction and type(got.boundary_mass) is Fraction
    assert (got.value, got.boundary_mass) == (want.value, want.boundary_mass)
    assert got == want


# ---------------------------------------------------------------------------
# the compiled stage test against its plain form: reference_stage and
# reference_decide keep _stage and _decide as they were before terms were
# compiled, over reference_eval, line for line. Both must give the same
# verdict and the same open terms on every box.

def reference_stage(cond: CellCondition, diff) -> tuple:
    p = cond.prime.p
    bounds = []
    for bound, *rest in (
        (cond.lower, cond.lower_strict, cond.lower_val_residue, True, LOWER),
        (cond.upper, cond.upper_strict, cond.upper_val_residue, False, UPPER),
    ):
        if isinstance(bound, Const):
            bounds.append((None, pinned_valuation(bound.value, INF, p), *rest))
        elif bound is not None:
            bounds.append((bound, None, *rest))
    n = cond.coset.n
    return (diff, p, cond.coset, cond.coset.is_zero(), n,
            unit_digits(n, p), tuple(bounds))


def reference_decide(stage: tuple, reps, depths) -> tuple[int, int]:
    diff, p, coset, graph, n, digits, bounds = stage
    value, dv = reference_eval(diff, reps, depths, p)
    v = rational_valuation(value, p)
    v_exact = v if v < dv else None  # pinned_valuation
    k_low = min(v, dv)

    if graph:
        # a graph stage never contains a whole box; it can only be
        # certainly missed
        return (OUTSIDE, 0) if v_exact is not None else (BOUNDARY, DIFF)

    verdict, open_terms = INSIDE, 0

    if n == 1:
        pass  # membership in mu*P_1 holds off the null puncture
    elif v_exact is None or dv - v_exact < digits:
        verdict, open_terms = BOUNDARY, DIFF
    elif not in_coset(PAdicScalar(value, coset.prime), coset):
        return OUTSIDE, 0

    for bound, bv, strict, pin, is_lower, term in bounds:
        if bound is not None:
            bv = pinned_valuation(*reference_eval(bound, reps, depths, p), p)
        if bv is None:
            verdict, open_terms = BOUNDARY, open_terms | term
            continue
        if pin is not None and bv % n != pin:
            return OUTSIDE, 0
        if is_lower:
            k_max = bv - 1 if strict else bv
            if k_low > k_max:
                return OUTSIDE, 0
            if v_exact is None:
                # k only bounded below; may exceed k_max
                verdict, open_terms = BOUNDARY, open_terms | DIFF
        else:
            k_min = bv + 1 if strict else bv
            if k_low >= k_min:
                continue
            if v_exact is not None:
                return OUTSIDE, 0  # k is pinned below k_min across the box
            verdict, open_terms = BOUNDARY, open_terms | DIFF
    return verdict, open_terms


# centers and bounds of the stage of x1 over x0: constants, the bare
# variable, and polynomials in x0 whose coefficients carry powers of p
STAGE_TERMS = ("0", "1", "-5/2", "x0", "3*x0", "x0^2 - 1", "1/4*x0^3 + 2/3*x0 - 7",
               "x0^2 - 1/9", "1/8*x0 + 1/2")
STAGE_BOUNDS = ("1", "0", "4", "1/25", "27", "x0", "2*x0", "x0^2 - 1", "1/4*x0^3 + 2/3*x0 - 7",
                "x0^2 - 1/9")


@st.composite
def stages_on_boxes(draw):
    """(cond, diff, reps, depths): a stage for x1 with n in {1, 2, 3, 4, 8},
    residue pins and zero cosets, on a box with int or Fraction lifts."""
    p = draw(st.sampled_from((2, 3, 5)))
    prime = PRIMES[p]
    n = draw(st.sampled_from((1, 2, 3, 4, 8)))
    mu = draw(st.sampled_from([F(0)] + coset_representatives(p, n)))
    bound = st.one_of(st.none(), st.sampled_from(STAGE_BOUNDS).map(parse_dterm))
    lower, upper = draw(bound), draw(bound)
    pin = st.one_of(st.none(), st.integers(0, n - 1))
    cond = CellCondition(
        center=parse_dterm(draw(st.sampled_from(STAGE_TERMS))),
        coset=coset_of(prime, mu, n),
        lower=lower,
        upper=upper,
        lower_strict=draw(st.booleans()),
        upper_strict=draw(st.booleans()),
        lower_val_residue=None if lower is None else draw(pin),
        upper_val_residue=None if upper is None else draw(pin),
    )
    depths = tuple(draw(st.sampled_from((0, 1, 2, 3, 5, INF))) for _ in range(2))
    if draw(st.booleans()):
        # the oracle's lifts: nonnegative ints
        reps = tuple(draw(st.integers(0, 40)) * p ** draw(st.integers(0, 3)) for _ in range(2))
    else:
        reps = tuple(F(draw(st.integers(-40, 40)) * p ** draw(st.integers(0, 3)),
                       p ** draw(st.integers(0, 1))) for _ in range(2))
    return cond, d_sub(Var(1), cond.center), reps, depths


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(stages_on_boxes())
def test_compiled_stage_decides_as_the_reference(case):
    cond, diff, reps, depths = case
    stage = _stage(cond, diff)
    as_fractions = tuple(map(Fraction, reps))
    want = reference_decide(reference_stage(cond, diff), as_fractions, depths)
    assert _decide(stage, reps, depths) == want
    # a stage is compiled once and decides box after box
    assert _decide(stage, as_fractions, depths) == want


# ---------------------------------------------------------------------------
# unit digits: a box whose t - center has a known valuation k is decided
# once it fixes unit_digits(n, p) digits past k, the count in_coset reads

def power_coset_cell(p: Prime, mu, n: int) -> Cell:
    """{t in mu*P_n : |t| <= 1}."""
    return Cell((CellCondition(center=Const(F(0)), coset=coset_of(p, mu, n),
                               upper=Const(F(1)), upper_strict=False),))


@pytest.mark.parametrize("p, n, N, bound", [
    (3, 3, 6, F(1, 243)),
    (3, 9, 8, F(1, 729)),
    (2, 4, 6, F(1, 8)),
    (2, 8, 10, F(1, 64)),
    (5, 5, 4, F(1, 125)),
    (3, 2, 6, F(1, 729)),  # p does not divide n: the same as the Newton depth
])
def test_power_coset_bound_at_unit_digits(p, n, N, bound):
    cell = power_coset_cell(PRIMES[p], 1, n)
    exact = integrate_full(ONE, [cell]).value.constant_value()
    r = oracle_measure(cell, PRIMES[p], N)
    assert r.boundary_mass == bound
    assert abs(exact - r.value) <= r.boundary_mass


# (p, n of stage 0, n of stage 1): p divides both, and the second divides
# the first, so the residue pin of |x1| <= |x0| is settled by stage 0
TWO_STAGE_POWERS = [(2, 4, 4), (2, 8, 4), (2, 4, 2), (3, 3, 3), (3, 6, 3), (3, 6, 6), (3, 9, 3)]


@st.composite
def power_coset_problems(draw):
    """(integrand, cell, p, N) with sup |integrand| = 1: a one-stage power
    coset {t in mu*P_n : |t| <= 1} with p | n, or the guarded two-stage
    cell x0 in mu0*P_n0, |x0| <= 1, x1 in mu1*P_n1, |x1| <= |x0|, pinned."""
    N = draw(st.integers(1, 7))
    if draw(st.booleans()):
        p, n = draw(st.sampled_from([(2, 4), (2, 8), (3, 3), (3, 9), (5, 5)]))
        mu = draw(st.sampled_from(coset_representatives(p, n)))
        g = draw(st.sampled_from((ONE, norm_t())))
        return g, power_coset_cell(PRIMES[p], mu, n), PRIMES[p], N
    p, n0, n1 = draw(st.sampled_from(TWO_STAGE_POWERS))
    mu0 = draw(st.sampled_from(coset_representatives(p, n0)))
    mu1 = draw(st.sampled_from(coset_representatives(p, n1)))
    base = power_coset_cell(PRIMES[p], mu0, n0).conditions[0]
    inner = CellCondition(center=Const(F(0)), coset=coset_of(PRIMES[p], mu1, n1),
                          upper=Var(0), upper_strict=False)
    cell = draw(st.sampled_from(pin_bound_residues(Cell((base, inner)))))
    g = draw(st.sampled_from((ONE, norm_x1())))
    return g, cell, PRIMES[p], N


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(power_coset_problems())
def test_unit_digit_bounds_hold_and_never_loosen(problem):
    g, cell, p, N = problem
    exact = integrate_full(g, [cell]).value.constant_value()
    r = oracle_integrate(g, cell, p, N)
    assert abs(exact - r.value) <= r.boundary_mass  # sup |g| = 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "unit_digits", reference_newton_depth)
        newton = oracle_integrate(g, cell, p, N)
    assert r.boundary_mass <= newton.boundary_mass


# varying centers and upper bounds: a floor on the root box

@pytest.mark.parametrize("cond, needle", [
    # at N = 3 these measured 1/9 with bound 0 (true 1) and 182/243 with
    # bound 1/27 (true 9/4), reported as certified
    (CellCondition(center=parse_dterm("1/3*x0"), coset=coset_of(P3, 1, 1),
                   upper=Const(F(1)), upper_strict=False), "its center 1/3\\*x0 may leave Z_p"),
    (CellCondition(center=Const(F(0)), coset=coset_of(P3, 1, 1),
                   upper=parse_dterm("1/3*x0"), upper_strict=False),
     "its upper bound 1/3\\*x0 may admit the level -1"),
    (CellCondition(center=Const(F(0)), coset=coset_of(P3, 1, 1),
                   upper=parse_dterm("inv(x0)"), upper_strict=False), "may admit any level"),
])
def test_varying_domain_leaving_zp_rejected(cond, needle):
    cell = Cell((zp_cell(P3).conditions[0], cond))
    with pytest.raises(UnboundedDomainError, match=f"stage 1 may leave Z_p: .*{needle}"):
        oracle_measure(cell, P3, 3)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(st.sampled_from((2, 3)), st.integers(-1, 1), st.integers(1, 4),
       st.sampled_from(("center", "upper")), st.booleans(), st.integers(1, 2))
def test_varying_center_or_bound_refused_or_within_the_bound(p, vc, u, where, strict, n):
    """Two-stage cells over x0 in Z_p whose stage-1 center or upper bound is
    c*x0 with v(c) = vc: the oracle refuses the cell or its measure is within
    boundary_mass of the exact one. A varying bound keeps n = 1: over an
    n = 2 coset it needs pinned residues that eliminate_stages cannot settle."""
    prime = Prime(p)
    c = F(p) ** vc * (u if u % p else u + 1)
    varying = parse_dterm(f"{c}*x0")
    if where == "center":
        cond = CellCondition(center=varying, coset=coset_of(prime, 1, n),
                             upper=Const(F(1)), upper_strict=strict)
    else:
        cond = CellCondition(center=Const(F(0)), coset=coset_of(prime, 1, 1),
                             upper=varying, upper_strict=strict)
    cell = Cell((zp_cell(prime).conditions[0], cond))
    exact = integrate_full(ConstructibleExpr.const(1), [cell]).value.constant_value()
    try:
        r = oracle_measure(cell, prime, 4)
    except UnboundedDomainError:
        assert vc < 0  # only a center or bound that leaves Z_p is refused
        return
    assert abs(r.value - exact) <= r.boundary_mass
