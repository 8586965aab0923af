import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicells import integrate, polys, sums
from padicells.cells import (
    Cell,
    CellCondition,
    _bound_valuation,
    coset_of,
    fiber_membership,
    level_set_measure,
    pin_bound_residues,
    point_cell,
    punctured_ball_cell,
    stage_window,
    zp_cell,
)
from padicells.decompose import PreparedTerm, decompose_univariate
from padicells.expr import (
    Add,
    Const,
    ConstructibleExpr,
    CTerm,
    NormFactor,
    ValFactor,
    Var,
    cexpr_term,
    d_add,
    d_mul,
    d_neg,
    d_pow,
    d_scale,
    d_sub,
    eval_constructible,
    free_variables,
    parse_constructible,
    parse_dterm,
    print_constructible,
)
from padicells.integrate import (
    CellIntegrand,
    EliminationResult,
    GuardedPiece,
    IntegrandTerm,
    NotIntegrableError,
    ResiduesNotFixedError,
    SimpleFunctionExpr,
    SimpleTerm,
    UnsupportedIntegrandError,
    ZetaRational,
    _decide_integrable,
    _denominator_poly,
    _integrate_symbolic,
    _monomial_parts,
    _pinned_residue,
    _recenter,
    _pin_settled,
    _stage_settled,
    _window_settled,
    eliminate_last_variable,
    eliminate_stages,
    evaluate_pieces,
    evaluate_simple,
    group_prepared,
    igusa_zeta,
    integrate_cell,
    integrate_full,
    poincare_check,
    prepare_integrand,
    prepared_power,
    root_counts,
    sum_eliminate_simple,
)
from padicells.oracle import oracle_integrate
from padicells.padic import (
    INF,
    NEG_INF,
    PAdicScalar,
    Prime,
    coset_representatives,
    rational_valuation,
)
from padicells.sums import DivergentSumError
from test_sums import faulhaber_coeffs, reference_window_coeffs

F = Fraction
P2, P3, P5 = Prime(2), Prime(3), Prime(5)


def norm_pow(var: int, e) -> ConstructibleExpr:
    return cexpr_term(1, (), (NormFactor(Var(var), F(e)),))


def scalars(p: Prime, *xs) -> list[PAdicScalar]:
    return [PAdicScalar(F(x), p) for x in xs]


def annulus(p: Prime, lo_val: int, hi_val: int, n: int = 1) -> Cell:
    """k = v(t) running over lo_val..hi_val (inclusive), coset 1*P_n."""
    cond = CellCondition(
        center=Const(F(0)),
        coset=coset_of(p, 1, n),
        lower=Const(F(p.p) ** hi_val),
        lower_strict=False,
        upper=Const(F(p.p) ** lo_val),
        upper_strict=False,
    )
    return Cell((cond,))


# ---------------------------------------------------------------------------
# reference_concrete keeps the concrete stage integrator that integrate_cell
# replaced, line for line: it sums the progression of attainable levels
# number by number, with its own valuation range, its own window reader
# (_norm_window, as cells had it) and its own pin and empty-window tests.
# integrate_cell(ci, point) evaluates the symbolic closed form instead, and
# must give the same values and errors.


@dataclass(frozen=True)
class ValuationRange:
    """Attainable v(t - center) values: k_min <= k <= k_max, k = residue mod modulus."""

    k_min: int | float
    k_max: int | float
    modulus: int
    residue: int

    def is_empty(self) -> bool:
        if self.k_min == NEG_INF or self.k_max == INF:
            return self.k_min > self.k_max
        return self.first() is None

    def first(self) -> int | None:
        """Smallest attainable k, for finite k_min."""
        if self.k_min == NEG_INF:
            raise ValueError("no smallest valuation in an unbounded-below range")
        k0 = int(self.k_min) + (self.residue - int(self.k_min)) % self.modulus
        if k0 > self.k_max:
            return None
        return k0

    def count(self) -> int | float:
        if self.is_empty():
            return 0
        if self.k_max == INF:
            return INF
        first = self.first()
        assert first is not None
        return (int(self.k_max) - first) // self.modulus + 1


def _norm_window(
    cond: CellCondition, base_point: list[PAdicScalar]
) -> tuple[int | float, int | float, bool]:
    """(k_min, k_max, pins hold) for k = v(t - center) over a base point.

    The lower norm bound caps the valuation above (|lower| < p^-k reads
    k < v(lower)), the upper norm bound cuts it below; a residue pin
    holds when the bound's valuation sits in its class mod n.
    """
    prime, n = cond.prime, cond.coset.n
    k_min: int | float = NEG_INF
    k_max: int | float = INF
    pins_hold = True
    if cond.lower is not None:
        v = _bound_valuation(cond.lower, base_point, prime)
        k_max = v - 1 if cond.lower_strict else v
        pins_hold = cond.lower_val_residue in (None, v % n)
    if cond.upper is not None:
        v = _bound_valuation(cond.upper, base_point, prime)
        k_min = v + 1 if cond.upper_strict else v
        pins_hold = pins_hold and cond.upper_val_residue in (None, v % n)
    return k_min, k_max, pins_hold


def fiber_valuation_range(
    cond: CellCondition, base_point: list[PAdicScalar]
) -> ValuationRange:
    """The progression of valuations the stage admits over a base point:
    the norm bounds' window, with k = v(mu) mod n forced by the coset."""
    if cond.coset.is_zero():
        raise ValueError("a point stage has no valuation progression")
    k_min, k_max, _ = _norm_window(cond, base_point)
    n = cond.coset.n
    return ValuationRange(k_min, k_max, n, int(cond.coset.mu.valuation) % n)


def reference_concrete(ci: CellIntegrand, base_point: list[PAdicScalar]) -> Fraction:
    cond = ci.cell.conditions[-1]
    prime = ci.cell.prime
    if len(base_point) != ci.cell.arity - 1:
        raise ValueError(
            f"base point has {len(base_point)} coordinates, "
            f"cell base has {ci.cell.arity - 1}"
        )
    return _integrate_concrete(ci, cond, list(base_point), prime)


def _integrate_concrete(
    ci: CellIntegrand,
    cond: CellCondition,
    base: list[PAdicScalar],
    prime: Prime,
) -> Fraction:
    if cond.coset.is_zero():
        return Fraction(0)
    for t in ci.terms:
        _decide_integrable(t.a, cond)
    rng = fiber_valuation_range(cond, base)
    n = cond.coset.n
    # the range helper ignores residue pins; a violated pin empties the fiber
    if cond.lower is not None and cond.lower_val_residue is not None:
        v = int(rng.k_max) + (1 if cond.lower_strict else 0)
        if v % n != cond.lower_val_residue:
            return Fraction(0)
    if cond.upper is not None and cond.upper_val_residue is not None:
        v = int(rng.k_min) - (1 if cond.upper_strict else 0)
        if v % n != cond.upper_val_residue:
            return Fraction(0)
    if rng.is_empty():
        return Fraction(0)
    vmu = int(cond.coset.mu.valuation)
    eps = level_set_measure(cond.coset)
    q = prime.p
    total = Fraction(0)
    for t in ci.terms:
        dval = eval_constructible(t.delta, base, prime)
        if dval == 0:
            continue
        u = Fraction(q) ** (-(t.a + n))
        total += dval * _window_value(t.l, u, rng, vmu, n)
    return eps * Fraction(q) ** (-vmu) * total


def _window_value(l: int, u: Fraction, rng, vmu: int, n: int) -> Fraction:
    """sum over attainable k of k^l u^((k - vmu)/n), binomially in j."""
    total = Fraction(0)
    if rng.k_min == NEG_INF:
        k_last = int(rng.k_max) - (int(rng.k_max) - vmu) % n
        j1 = (k_last - vmu) // n
        # j -> -j turns the downward sum into an upward one with ratio 1/u
        for i in range(l + 1):
            c = Fraction(comb(l, i)) * Fraction(vmu) ** (l - i) * Fraction(n) ** i
            if c == 0:
                continue
            s = sums.sum_progression(sums.ProgressionSum(i, 1 / u, 0, 1, -j1, INF))
            total += c * (s if i % 2 == 0 else -s)
        return total
    k0 = rng.first()
    assert k0 is not None
    j0 = (k0 - vmu) // n
    j1 = INF if rng.k_max == INF else j0 + rng.count() - 1
    for i in range(l + 1):
        c = Fraction(comb(l, i)) * Fraction(vmu) ** (l - i) * Fraction(n) ** i
        if c == 0:
            continue
        total += c * sums.sum_progression(sums.ProgressionSum(i, u, 0, 1, j0, j1))
    return total


# ---------------------------------------------------------------------------
# concrete single-stage integrals

def test_norm_t_over_zp():
    ci = prepare_integrand(norm_pow(0, 1), zp_cell(P3))
    assert integrate_cell(ci, []) == F(3, 4)


def test_norm_t_squared_over_zp():
    ci = prepare_integrand(norm_pow(0, 2), zp_cell(P3))
    assert integrate_cell(ci, []) == F(9, 13)


def test_square_coset_measure():
    cell = punctured_ball_cell(P3, 0, 0, coset_of(P3, 1, 2))
    ci = prepare_integrand(ConstructibleExpr.const(1), cell)
    assert integrate_cell(ci, []) == F(3, 8)


def test_valuation_times_norm():
    f = cexpr_term(1, (ValFactor(Var(0), 1),), (NormFactor(Var(0), F(1)),))
    ci = prepare_integrand(f, zp_cell(P3))
    assert integrate_cell(ci, []) == F(3, 32)


def test_single_level_window():
    # k pinned to {1}: the sum collapses to eps * k^l * q^(a-... ) at k=1
    f = cexpr_term(1, (ValFactor(Var(0), 1),), (NormFactor(Var(0), F(-1)),))
    ci = prepare_integrand(f, annulus(P3, 1, 1))
    assert integrate_cell(ci, []) == F(2, 3)


def test_fractional_power_on_square_coset():
    # |t|^(1/2) is exact on P_2 where every level is even
    cell = punctured_ball_cell(P3, 0, 0, coset_of(P3, 1, 2))
    ci = prepare_integrand(norm_pow(0, F(1, 2)), cell)
    assert integrate_cell(ci, []) == F(9, 26)


def test_prepare_folds_constant_coefficients():
    # v(3t)^2 |9t| on Z_3: v(3) = 1 and |9| = 1/9 become numbers
    ci = prepare_integrand(parse_constructible("v(3*x0)^2*abs(9*x0)"), zp_cell(P3))
    for t in ci.terms:
        for term in t.delta.terms:
            assert not term.val_factors and not term.norm_factors
    # sum_k (2/3) 3^-k (1 + k)^2 3^-(k + 2)
    want = sum(F(2, 3) * F(1, 3**k) * (1 + k) ** 2 * F(1, 3 ** (k + 2)) for k in range(80))
    assert abs(integrate_cell(ci, []) - want) < F(1, 3**150)


def test_fractional_constant_norm_still_raises():
    # |3t|^(1/2) on a square coset: a = 1 lands on the grid, but
    # |3|^(1/2) has no integer exponent, so it stays and evaluation says so
    cell = punctured_ball_cell(P3, 0, 0, coset_of(P3, 1, 2))
    ci = prepare_integrand(parse_constructible("abs(3*x0)^(1/2)"), cell)
    with pytest.raises(ValueError, match="fractional norm power"):
        integrate_cell(ci, [])
    with pytest.raises(ValueError, match="fractional norm power"):
        reference_concrete(ci, [])


def test_fractional_power_off_grid_rejected():
    with pytest.raises(UnsupportedIntegrandError):
        prepare_integrand(norm_pow(0, F(1, 2)), zp_cell(P3))


def test_divergent_tail_raises():
    ci = prepare_integrand(norm_pow(0, -1), zp_cell(P3))
    with pytest.raises(NotIntegrableError, match="not integrable"):
        integrate_cell(ci, [])
    ci = prepare_integrand(norm_pow(0, -3), zp_cell(P3))
    with pytest.raises(NotIntegrableError, match="not integrable"):
        integrate_cell(ci, [])


def test_point_stage_is_null():
    ci = prepare_integrand(norm_pow(0, 1), point_cell(P3, 2))
    assert integrate_cell(ci, []) == F(0)
    sym = integrate_cell(ci)
    assert isinstance(sym, ConstructibleExpr) and sym.is_zero()


def test_empty_window_is_zero():
    # lower bound tighter than upper: no attainable level
    cond = CellCondition(
        center=Const(F(0)),
        coset=coset_of(P3, 1, 1),
        lower=Const(F(1)),
        lower_strict=True,
        upper=Const(F(1)),
        upper_strict=False,
    )
    ci = prepare_integrand(norm_pow(0, 1), Cell((cond,)))
    assert integrate_cell(ci, []) == F(0)
    # empty by more than one level: {|1| < |t| < |3|} leaves 2 <= k <= -1,
    # where the closed form of the measure is -8/9, not 0; `measure`
    # printed that before the window was tested
    cond = CellCondition(
        center=Const(F(0)), coset=coset_of(P3, 1, 1),
        lower=Const(F(1)), upper=Const(F(3)),
    )
    one = ConstructibleExpr.const(1)
    ci = prepare_integrand(one, Cell((cond,)))
    assert eval_constructible(_integrate_symbolic(ci, cond, P3), [], P3) == F(-8, 9)
    assert integrate_cell(ci, []) == 0
    assert integrate_cell(ci).is_zero()
    assert integrate_full(one, [Cell((cond,))]).value.constant_value() == 0


def test_downward_window_reflection():
    # k <= v(x) with x = 1/9 and a = -2: mass piles up toward -inf but
    # the ratio decays in that direction
    cond0 = zp_cell(P3).conditions[0]
    cond1 = CellCondition(
        center=Const(F(0)), coset=coset_of(P3, 1, 1), lower=Var(0), lower_strict=False
    )
    ci = prepare_integrand(norm_pow(1, -2), Cell((cond0, cond1)))
    got = integrate_cell(ci, scalars(P3, F(1, 9)))
    # sum_{k <= -2} (2/3) 3^-k 3^(2k) = (2/3) * (1/9) / (1 - 1/3)
    assert got == F(1, 9)


def test_pin_violation_empties_fiber():
    cond0 = zp_cell(P3).conditions[0]
    cond1 = CellCondition(
        center=Const(F(0)),
        coset=coset_of(P3, 1, 2),
        upper=Var(0),
        upper_strict=False,
        upper_val_residue=0,
    )
    ci = prepare_integrand(norm_pow(1, 1), Cell((cond0, cond1)))
    assert integrate_cell(ci, scalars(P3, 3)) == F(0)
    assert integrate_cell(ci, scalars(P3, 1)) == F(1, 3) / (1 - F(1, 81))


# ---------------------------------------------------------------------------
# symbolic mode

def test_symbolic_constant_cell_matches():
    sym = integrate_cell(prepare_integrand(norm_pow(0, 1), zp_cell(P3)))
    assert eval_constructible(sym, [], P3) == F(3, 4)


def test_symbolic_needs_pins():
    cond0 = zp_cell(P3).conditions[0]
    cond1 = CellCondition(
        center=Const(F(0)), coset=coset_of(P3, 1, 2), upper=Var(0), upper_strict=False
    )
    ci = prepare_integrand(norm_pow(1, 1), Cell((cond0, cond1)))
    with pytest.raises(ResiduesNotFixedError, match="residues not fixed"):
        integrate_cell(ci)


def test_symbolic_matches_concrete_on_pinned_cells():
    """On each pinned refinement the symbolic closed form evaluates to
    the concrete integral wherever the pin actually holds."""
    cond0 = zp_cell(P3).conditions[0]
    cond1 = CellCondition(
        center=Const(F(0)), coset=coset_of(P3, 1, 2), upper=Var(0), upper_strict=False
    )
    f = norm_pow(1, 1)
    for pinned in pin_bound_residues(Cell((cond0, cond1))):
        ci = prepare_integrand(f, pinned)
        sym = integrate_cell(ci)
        pin = pinned.conditions[1].upper_val_residue
        for x in (F(1), F(2), F(3), F(9), F(5)):
            xs = scalars(P3, x)
            want = reference_concrete(ci, xs)
            assert integrate_cell(ci, xs) == want
            if int(xs[0].valuation) % 2 != pin:
                assert want == 0
                continue
            assert eval_constructible(sym, xs, P3) == want


def test_symbolic_flat_ratio_uses_faulhaber():
    # a = -n makes every level weigh the same; the count is v(x) + 1
    cond0 = zp_cell(P3).conditions[0]
    cond1 = CellCondition(
        center=Const(F(0)),
        coset=coset_of(P3, 1, 1),
        lower=Var(0),
        lower_strict=False,
        upper=Const(F(1)),
        upper_strict=False,
    )
    ci = prepare_integrand(norm_pow(1, -1), Cell((cond0, cond1)))
    sym = integrate_cell(ci)
    for x in (F(3), F(9), F(27), F(2)):
        xs = scalars(P3, x)
        want = F(2, 3) * (int(xs[0].valuation) + 1)
        assert reference_concrete(ci, xs) == want
        assert integrate_cell(ci, xs) == want
        assert eval_constructible(sym, xs, P3) == want


def test_symbolic_downward_window():
    cond0 = zp_cell(P3).conditions[0]
    cond1 = CellCondition(
        center=Const(F(0)), coset=coset_of(P3, 1, 1), lower=Var(0), lower_strict=False
    )
    ci = prepare_integrand(norm_pow(1, -2), Cell((cond0, cond1)))
    sym = integrate_cell(ci)
    for x in (F(1), F(3), F(1, 3), F(1, 27)):
        xs = scalars(P3, x)
        want = reference_concrete(ci, xs)
        assert eval_constructible(sym, xs, P3) == want
        assert integrate_cell(ci, xs) == want


def test_symbolic_random_windows_match_concrete():
    rng = random.Random(7)
    for _ in range(25):
        p = rng.choice((P2, P3, P5))
        n = rng.choice((1, 1, 2))
        lo = rng.randint(-3, 2)
        hi = lo + rng.randint(0, 5)
        cell = annulus(p, lo, hi, n)
        a = rng.randint(-2 * n, 3 * n)
        l = rng.randint(0, 3)
        term = IntegrandTerm(ConstructibleExpr.const(F(rng.randint(1, 9))), a, l)
        ci = CellIntegrand.of(cell, [term])
        sym = integrate_cell(ci)
        want = reference_concrete(ci, [])
        assert eval_constructible(sym, [], p) == want
        assert integrate_cell(ci, []) == want


# ---------------------------------------------------------------------------
# integrate_cell against the reference on generated stages

UNITS = (1, -1, 7, 11)


@st.composite
def stage_integrals(draw):
    """A one- or two-stage cell integrand and a base point. The last stage
    draws n in {1, 2, 3}, bounds absent, constant or (over x0) varying,
    strict or not, pinned or not; its windows are often empty, and often
    by more than one level."""
    p = draw(st.sampled_from((2, 3, 5)))
    prime = Prime(p)
    arity = draw(st.sampled_from((1, 2)))
    n = draw(st.sampled_from((1, 2, 3)))
    if draw(st.integers(0, 9)) == 0:
        mu = F(0)
    else:
        mu = F(p) ** draw(st.integers(-1, 2)) * draw(st.sampled_from(UNITS))
    kinds = ("none", "const", "var") if arity == 2 else ("none", "const")

    def bound():
        kind = draw(st.sampled_from(kinds + kinds[1:]))
        scale = F(p) ** draw(st.integers(-2, 3)) * draw(st.sampled_from((1, -1)))
        if kind == "none":
            return None, None
        pin = draw(st.sampled_from((None, None) + tuple(range(n))))
        if kind == "const":
            return Const(scale), pin
        return d_scale(Var(0), scale), pin

    lower, lower_pin = bound()
    upper, upper_pin = bound()
    last = CellCondition(
        center=Const(F(0)),
        coset=coset_of(prime, mu, n),
        lower=lower,
        upper=upper,
        lower_strict=draw(st.booleans()),
        upper_strict=draw(st.booleans()),
        lower_val_residue=lower_pin,
        upper_val_residue=upper_pin,
    )
    cell = Cell(zp_cell(prime).conditions * (arity - 1) + (last,))
    terms = []
    for _ in range(draw(st.integers(1, 2))):
        c = F(draw(st.integers(1, 5)), draw(st.integers(1, 3)))
        vfs = nfs = ()
        if arity == 2:
            if draw(st.booleans()):
                vfs = (ValFactor(Var(0), draw(st.integers(1, 2))),)
            e = draw(st.integers(-1, 2))
            nfs = (NormFactor(Var(0), F(e)),) if e else ()
        a = draw(st.integers(-2 * n, 2 * n))
        terms.append(IntegrandTerm(cexpr_term(c, vfs, nfs), a, draw(st.integers(0, 2))))
    point = []
    if arity == 2:
        x0 = F(p) ** draw(st.integers(-2, 4)) * draw(st.sampled_from(UNITS))
        point = scalars(prime, x0)
    return CellIntegrand.of(cell, terms), point


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(stage_integrals())
def test_integrate_cell_matches_reference(case):
    ci, point = case
    try:
        want = reference_concrete(ci, point)
    except (ArithmeticError, ValueError) as exc:
        with pytest.raises(type(exc)):
            integrate_cell(ci, point)
        return
    assert integrate_cell(ci, point) == want


# ---------------------------------------------------------------------------
# The stage integrator and the preparation step as they were when every
# intermediate product, sum and scaling was canonicalized through
# ConstructibleExpr.of, kept line for line. The package now builds each
# stage's closed form as one raw term list and canonicalizes it once; the
# properties below ask for the same expressions, term for term and in the
# same order, or the same error type.

def reference_integrate_symbolic(
    ci: CellIntegrand,
    cond: CellCondition,
    prime: Prime,
    v_lower: int | None = None,
    v_upper: int | None = None,
) -> ConstructibleExpr:
    n = cond.coset.n
    vmu = int(cond.coset.mu.valuation)
    mu = cond.coset.mu.value
    q = prime.p
    eps = level_set_measure(cond.coset)

    h0 = h1 = None
    if cond.upper is not None:
        c = 1 if cond.upper_strict else 0
        r = _pinned_residue(cond, "upper") if v_upper is None else v_upper
        h0 = d_scale(cond.upper, Fraction(q) ** (c + (vmu - r - c) % n) / mu)
    if cond.lower is not None:
        c = 1 if cond.lower_strict else 0
        r = _pinned_residue(cond, "lower") if v_lower is None else v_lower
        h1 = d_scale(cond.lower, 1 / (Fraction(q) ** (c + (r - c - vmu) % n) * mu))

    out = []
    for t in ci.terms:
        u = Fraction(q) ** (-(t.a + n))
        pw = Fraction(t.a + n, n)
        acc = []
        for i, coeff in enumerate(sums.reindex_coeffs(t.l, vmu, n)):
            if coeff != 0:
                acc.append(reference_window_expr(i, u, pw, h0, h1, n, q).scale(coeff))
        out.append(t.delta * ConstructibleExpr.sum_of(acc))
    return ConstructibleExpr.sum_of(out).scale(eps * Fraction(q) ** (-vmu))


def reference_valuation_poly(h, cs, scale: Fraction, q: int) -> ConstructibleExpr:
    if isinstance(h, Const):
        v = int(rational_valuation(h.value, q))
        return ConstructibleExpr.const(polys.evaluate(cs, scale * v))
    terms = []
    for e, c in enumerate(cs):
        if c == 0:
            continue
        terms.append(
            CTerm(c * scale**e, (ValFactor(h, e),) if e else (), ())
        )
    return ConstructibleExpr.of(terms)


def reference_norm_power(h, power: Fraction, q: int) -> ConstructibleExpr:
    if power == 0:
        return ConstructibleExpr.const(1)
    if isinstance(h, Const):
        e = power * int(rational_valuation(h.value, q))
        assert e.denominator == 1, "a grid bound has an integral norm power"
        return ConstructibleExpr.const(Fraction(q) ** -int(e))
    return cexpr_term(1, (), (NormFactor(h, power),))


def reference_window_expr(i, u, pw, h0, h1, n, q) -> ConstructibleExpr:
    if u == 1:
        assert h0 is not None and h1 is not None
        fa = faulhaber_coeffs(i)
        upper_part = reference_valuation_poly(h1, fa, Fraction(1, n), q)
        lower_part = reference_valuation_poly(
            h0, polys.taylor_shift(fa, Fraction(-1)), Fraction(1, n), q
        )
        return upper_part + lower_part.scale(-1)
    if h0 is not None and h1 is not None:
        t = reference_window_coeffs(i, u)
        head = reference_norm_power(h0, pw, q) * reference_valuation_poly(
            h0, t, Fraction(1, n), q
        )
        tail = reference_norm_power(h1, pw, q) * reference_valuation_poly(
            h1, polys.taylor_shift(t, Fraction(1)), Fraction(1, n), q
        )
        return head + tail.scale(-u)
    if h0 is not None:
        t = reference_window_coeffs(i, u)
        return reference_norm_power(h0, pw, q) * reference_valuation_poly(
            h0, t, Fraction(1, n), q
        )
    assert h1 is not None
    t = reference_window_coeffs(i, 1 / u)
    body = reference_norm_power(h1, pw, q) * reference_valuation_poly(
        h1, t, Fraction(-1, n), q
    )
    return body.scale(Fraction(-1) ** i)


def reference_prepare_integrand(f: ConstructibleExpr, cell: Cell) -> CellIntegrand:
    cond = cell.conditions[-1]
    if cond.coset.is_zero():
        return CellIntegrand(cell, ())
    var = cell.arity - 1
    gamma = cond.center
    n = cond.coset.n
    vmu = int(cond.coset.mu.valuation)
    q = cell.prime.p
    out: list[IntegrandTerm] = []
    for term in f.terms:
        by_l = {0: ConstructibleExpr.const(term.coeff)}
        kept_v = []
        kept_n = []
        a_total = 0
        extra = ConstructibleExpr.const(1)
        dead = False
        for vf in term.val_factors:
            if var not in free_variables(vf.h):
                kept_v.append(vf)
                continue
            c, d = _monomial_parts(vf.h, var, gamma)
            if c is None:
                raise UnsupportedIntegrandError(
                    "v-factor vanishes identically on the cell"
                )
            e = vf.power
            vc = int(rational_valuation(c.value, q)) if isinstance(c, Const) else None
            expansion = {
                m: cexpr_term(
                    Fraction(comb(e, m)) * Fraction(d) ** m
                    * (1 if vc is None else Fraction(vc) ** (e - m)),
                    (ValFactor(c, e - m),) if e - m and vc is None else (),
                    (),
                )
                for m in range(e + 1)
            }
            by_l = reference_convolve(by_l, expansion)
        for nf in term.norm_factors:
            if var not in free_variables(nf.h):
                kept_n.append(nf)
                continue
            c, d = _monomial_parts(nf.h, var, gamma)
            if c is None:
                if nf.power > 0:
                    dead = True
                    break
                raise UnsupportedIntegrandError(
                    "norm of an identically-zero factor with a non-positive power"
                )
            a_inc = Fraction(n) * d * nf.power
            comp = Fraction(d) * nf.power * vmu
            if a_inc.denominator != 1 or comp.denominator != 1:
                raise UnsupportedIntegrandError(
                    f"norm power {nf.power} of degree {d} does not land on the "
                    f"coset grid mod {n}"
                )
            a_total += int(a_inc)
            scale = Fraction(q) ** (-int(comp))
            kept_c = (NormFactor(c, nf.power),)
            if isinstance(c, Const):
                ec = nf.power * int(rational_valuation(c.value, q))
                if ec.denominator == 1:
                    scale *= Fraction(q) ** -int(ec)
                    kept_c = ()
            extra = extra * cexpr_term(scale, (), kept_c)
        if dead:
            continue
        base = extra * cexpr_term(1, tuple(kept_v), tuple(kept_n))
        for l, expr in by_l.items():
            out.append(IntegrandTerm(expr * base, a_total, l))
    return CellIntegrand.of(cell, out)


def reference_convolve(a, b):
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            out.setdefault(i + j, []).append(x * y)
    return {k: ConstructibleExpr.sum_of(v) for k, v in out.items()}


def outcome(fn, *args):
    """fn(*args), or the type of the error it raises."""
    try:
        return fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(stage_integrals())
def test_integrate_symbolic_matches_reference(case):
    ci, point = case
    cond, prime = ci.cell.conditions[-1], ci.cell.prime
    if cond.coset.is_zero():
        return
    try:
        for t in ci.terms:
            _decide_integrable(t.a, cond)
    except NotIntegrableError:
        return
    # the symbolic path: residues from the pins
    assert outcome(_integrate_symbolic, ci, cond, prime) == outcome(
        reference_integrate_symbolic, ci, cond, prime
    )
    # the path of a known window: residues read at the point
    window = stage_window(cond, point)
    args = (ci, cond, prime, window.v_lower, window.v_upper)
    assert outcome(_integrate_symbolic, *args) == outcome(
        reference_integrate_symbolic, *args
    )


@st.composite
def integrands_on_cells(draw):
    """An integrand and a cell whose last stage, in t = x_last, has a zero
    or nonzero center gamma. Factors in t are mostly monomials
    c * (t - gamma)^d, sometimes no monomial or identically zero; v-powers
    run over 1-3, norm powers over signed and fractional values."""
    p = draw(st.sampled_from((2, 3, 5)))
    prime = Prime(p)
    arity = draw(st.sampled_from((1, 2)))
    n = draw(st.sampled_from((1, 2, 3)))
    if draw(st.integers(0, 19)) == 19:
        mu = F(0)
    else:
        mu = F(p) ** draw(st.integers(-1, 2)) * draw(st.sampled_from(UNITS))
    base_terms = ("x0", "x0^2 - 1", "inv(x0)") if arity == 2 else ()
    gamma = parse_dterm(draw(st.sampled_from(("0", "0", "1", "-2/3") + base_terms[:1])))
    last = CellCondition(
        center=gamma,
        coset=coset_of(prime, mu, n),
        upper=Const(F(1)),
        upper_strict=False,
    )
    cell = Cell(zp_cell(prime).conditions * (arity - 1) + (last,))
    t = Var(arity - 1)
    shifted = d_sub(t, gamma)

    def factor():
        kind = draw(st.sampled_from(("monomial",) * 30 + ("base",) * 8 + ("other", "zero")))
        if kind == "base" and base_terms:
            return parse_dterm(draw(st.sampled_from(base_terms)))
        if kind == "other":
            return d_add(d_pow(t, 2), Const(F(1)))
        if kind == "zero":
            return Add(t, d_neg(t))  # built bare: zero, yet it names t
        c = parse_dterm(draw(st.sampled_from(("1", "3", "-2/3", "1/4") + base_terms[:2])))
        return d_mul(c, d_pow(shifted, draw(st.integers(0, 2))))

    terms = []
    for _ in range(draw(st.integers(1, 3))):
        coeff = F(draw(st.sampled_from((-2, -1, 1, 3))), draw(st.sampled_from((1, 2))))
        vfs = tuple(
            ValFactor(factor(), draw(st.integers(1, 3)))
            for _ in range(draw(st.integers(0, 2)))
        )
        nfs = tuple(
            NormFactor(factor(), draw(st.sampled_from(
                (F(-1), F(1), F(1), F(2), F(-1, 2), F(1, 2), F(1, 3))
            )))
            for _ in range(draw(st.integers(0, 2)))
        )
        terms.append(CTerm(coeff, vfs, nfs))
    return ConstructibleExpr.of(terms), cell


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(integrands_on_cells())
def test_prepare_integrand_matches_reference(case):
    f, cell = case
    assert outcome(prepare_integrand, f, cell) == outcome(
        reference_prepare_integrand, f, cell
    )


@st.composite
def edge_windows(draw):
    """Stages at the edges of the integer window builders: n = 4 at p = 2,
    where eps = 1/16 has a p-part; v(mu) in -2..3; constant bounds of
    negative valuation; two-sided windows with u = q^-(a+n) > 1, whose
    window denominator (1 - q^(-a-n))^(i+1) is negative for even i; the
    reflected one-sided window (a lower bound only, a + n <= -1); and the
    Faulhaber route u = 1 (a = -n)."""
    p, n = draw(st.sampled_from(((2, 4), (2, 4), (2, 2), (3, 2), (3, 3), (5, 4), (3, 1))))
    prime = Prime(p)
    mu = F(p) ** draw(st.integers(-2, 3)) * draw(st.sampled_from(UNITS))
    arity = draw(st.sampled_from((1, 2)))
    shape = draw(st.sampled_from(("two", "two", "flat", "reflected", "floor")))

    def bound():
        scale = F(p) ** draw(st.integers(-4, 3)) * draw(st.sampled_from((1, -1, 3)))
        if arity == 2 and draw(st.booleans()):
            return d_scale(Var(0), scale), draw(st.sampled_from(tuple(range(n))))
        return Const(scale), None

    lower, lower_pin = bound() if shape != "floor" else (None, None)
    upper, upper_pin = bound() if shape != "reflected" else (None, None)
    last = CellCondition(
        center=Const(F(0)),
        coset=coset_of(prime, mu, n),
        lower=lower,
        upper=upper,
        lower_strict=draw(st.booleans()),
        upper_strict=draw(st.booleans()),
        lower_val_residue=lower_pin,
        upper_val_residue=upper_pin,
    )
    cell = Cell(zp_cell(prime).conditions * (arity - 1) + (last,))
    a_range = {
        "two": st.integers(-3 * n, 2 * n),
        "flat": st.just(-n),
        "reflected": st.integers(-3 * n, -n - 1),
        "floor": st.integers(1 - n, 2 * n),
    }[shape]
    terms = []
    for _ in range(draw(st.integers(1, 2))):
        c = F(draw(st.sampled_from((1, -2, 5))), draw(st.sampled_from((1, 3, 4))))
        vfs = nfs = ()
        if arity == 2 and draw(st.booleans()):
            vfs = (ValFactor(Var(0), 1),)
            nfs = (NormFactor(Var(0), F(draw(st.sampled_from((-1, 1, 2))))),)
        terms.append(IntegrandTerm(cexpr_term(c, vfs, nfs), draw(a_range), draw(st.integers(0, 3))))
    point = []
    if arity == 2:
        point = scalars(prime, F(p) ** draw(st.integers(-3, 4)) * draw(st.sampled_from(UNITS)))
    return CellIntegrand.of(cell, terms), point


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(edge_windows())
def test_integer_window_builders_at_edge_parameters(case):
    ci, point = case
    cond, prime = ci.cell.conditions[-1], ci.cell.prime
    for t in ci.terms:
        _decide_integrable(t.a, cond)
    assert outcome(_integrate_symbolic, ci, cond, prime) == outcome(
        reference_integrate_symbolic, ci, cond, prime
    )
    window = stage_window(cond, point)
    args = (ci, cond, prime, window.v_lower, window.v_upper)
    assert outcome(_integrate_symbolic, *args) == outcome(reference_integrate_symbolic, *args)
    assert outcome(integrate_cell, ci, point) == outcome(reference_concrete, ci, point)


# ---------------------------------------------------------------------------
# preparing integrands

def test_prepare_recenters_monomials():
    cell = punctured_ball_cell(P3, 1, 1)
    with pytest.raises(UnsupportedIntegrandError):
        # t is not a monomial in t - 1
        prepare_integrand(norm_pow(0, 1), cell)
    shifted = cexpr_term(1, (), (NormFactor(polys_minus_one(), F(1)),))
    ci = prepare_integrand(shifted, cell)
    # |t - 1| over v(t-1) >= 1: sum_{k>=1} (2/3) 9^-k
    assert integrate_cell(ci, []) == F(2, 3) * F(1, 9) / (1 - F(1, 9))


def reference_recenter(coeffs, gamma):
    """The general recentering loop, which _recenter skips at the zero center."""
    top = len(coeffs) - 1
    out = []
    for j in range(top + 1):
        s = Const(F(0))
        for i in range(j, top + 1):
            s = d_add(s, d_scale(d_mul(coeffs[i], d_pow(gamma, i - j)), comb(i, j)))
        out.append(s)
    return out


# coefficients and centers as a cell's stage in x1 sees them: terms in x0
X0_TERMS = ("0", "1", "-2/3", "x0", "x0^2 - 1", "3*x0 + 1", "inv(x0)",
            "series([1, 1/3; tail 2], x0)")
CENTERS = ("0", "1", "-2/3", "x0", "x0 + 1", "inv(x0)")


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.lists(st.sampled_from(X0_TERMS).map(parse_dterm), min_size=1, max_size=5),
       st.sampled_from(CENTERS).map(parse_dterm))
def test_recenter_matches_reference(coeffs, gamma):
    assert _recenter(coeffs, gamma) == reference_recenter(coeffs, gamma)


def polys_minus_one():
    from padicells.expr import d_sub

    return d_sub(Var(0), Const(F(1)))


def test_prepare_expands_valuation_powers():
    # v(2t)^2 over Z_2: v(2t) = 1 + v(t), so the K-polynomial spreads
    # over l = 0, 1, 2
    from padicells.expr import d_scale

    f = cexpr_term(1, (ValFactor(d_scale(Var(0), 2), 2),), ())
    ci = prepare_integrand(f, zp_cell(P2))
    assert sorted((t.a, t.l) for t in ci.terms) == [(0, 0), (0, 1), (0, 2)]
    got = integrate_cell(ci, [])
    # sum_{k>=0} (1/2) 2^-k (k+1)^2
    want = F(1, 2) * sum(F(k + 1) ** 2 * F(1, 2**k) for k in range(200))
    assert abs(got - want) < F(1, 2**180)


def test_prepare_rejects_non_monomial():
    f = cexpr_term(1, (), (NormFactor(parse_dterm("x0^2 - 1"), F(1)),))
    with pytest.raises(UnsupportedIntegrandError, match="not a monomial"):
        prepare_integrand(f, zp_cell(P3))


def test_prepare_keeps_base_factors():
    cond0 = zp_cell(P3).conditions[0]
    cond1 = CellCondition(
        center=Const(F(0)),
        coset=coset_of(P3, 1, 1),
        upper=Const(F(1)),
        upper_strict=False,
    )
    f = cexpr_term(
        1, (ValFactor(Var(0), 1),), (NormFactor(Var(0), F(2)), NormFactor(Var(1), F(1)))
    )
    ci = prepare_integrand(f, Cell((cond0, cond1)))
    assert len(ci.terms) == 1
    t = ci.terms[0]
    assert (t.a, t.l) == (1, 0)
    # the x-dependent factors ride along inside delta
    assert eval_constructible(t.delta, scalars(P3, 9), P3) == F(2) * F(1, 81)


def test_prepare_takes_base_factors_out_of_a_product():
    # abs(inv(x0)*(x1 - x0)) was refused: recentering the expanded product
    # left inv(x0)*x0 - 1 uncancelled in the coefficient of x1^0
    g = parse_constructible("abs(inv(x0)*(x1 - x0))")
    inner = CellCondition(
        center=Var(0), coset=coset_of(P3, 1, 1), upper=Const(F(1)), upper_strict=False
    )
    cell = Cell((zp_cell(P3).conditions[0], inner))
    ci = prepare_integrand(g, cell)
    assert [(print_constructible(t.delta), t.a, t.l) for t in ci.terms] == [
        ("abs(inv(x0))", 1, 0)
    ]
    (piece,) = eliminate_stages(g, [cell], 1)
    assert print_constructible(piece.value) == "3/4*abs(inv(x0))"
    # at each base point, the oracle on the fiber |x1 - x0| <= 1
    for x0 in (F(1), F(3), F(9), F(-2), F(5, 7)):
        got = integrate_full(g, [cell], eliminate=1, base_point=(x0,))
        fiber = Cell((CellCondition(
            center=Const(x0), coset=coset_of(P3, 1, 1), upper=Const(F(1)), upper_strict=False
        ),))
        orc = oracle_integrate(parse_constructible(f"abs({1 / x0}*(x0 - {x0}))"), fiber, P3, 6)
        sup = F(3) ** int(rational_valuation(x0, 3))  # |inv(x0)| * |x1 - x0| <= |x0|^-1
        assert abs(got.value.constant_value() - orc.value) <= orc.boundary_mass * sup


def test_cell_integrand_merges_and_validates():
    cell = zp_cell(P3)
    one = ConstructibleExpr.const(1)
    ci = CellIntegrand.of(
        cell, [IntegrandTerm(one, 1, 0), IntegrandTerm(one, 1, 0), IntegrandTerm(one, 0, 1)]
    )
    assert [(t.a, t.l) for t in ci.terms] == [(0, 1), (1, 0)]
    merged = [t for t in ci.terms if (t.a, t.l) == (1, 0)]
    assert merged[0].delta.constant_value() == 2
    with pytest.raises(ValueError, match="different cell"):
        CellIntegrand.of(cell, [PreparedTerm(one, 1, 0, zp_cell(P5))])


# ---------------------------------------------------------------------------
# elimination and the zero convention

def test_zero_convention_is_order_independent():
    good = prepare_integrand(norm_pow(0, 1), annulus(P3, 0, 2))
    bad = prepare_integrand(norm_pow(0, -1), zp_cell(P3))
    for order in ([good, bad], [bad, good]):
        res = eliminate_last_variable(order, [])
        assert res.value.is_zero()
        assert not res.integrable


def test_eliminate_sums_over_partition():
    pieces = [annulus(P3, 0, 0), punctured_ball_cell(P3, 0, 1)]
    cis = [prepare_integrand(norm_pow(0, 1), c) for c in pieces]
    res = eliminate_last_variable(cis, [])
    assert res.integrable
    assert res.value.constant_value() == F(3, 4)


# ---------------------------------------------------------------------------
# multi-variable driver

def two_var_cell(inner_n: int = 2) -> Cell:
    cond0 = zp_cell(P3).conditions[0]
    cond1 = CellCondition(
        center=Const(F(0)),
        coset=coset_of(P3, 1, inner_n),
        upper=Var(0),
        upper_strict=False,
    )
    return Cell((cond0, cond1))


def test_full_elimination_with_guards_matches_oracle():
    """Pins become base guards; refining the base into P_2 cosets lets
    every guard resolve structurally and the total match the oracle."""
    g = norm_pow(1, 1)
    cond1 = two_var_cell().conditions[1]
    cells = []
    for mu in (1, 2, 3, 6):
        base = CellCondition(
            center=Const(F(0)),
            coset=coset_of(P3, mu, 2),
            upper=Const(F(1)),
            upper_strict=False,
        )
        cells.extend(pin_bound_residues(Cell((base, cond1))))
    res = integrate_full(g, cells)
    assert res.integrable
    assert res.value.constant_value() == F(1647, 7280)
    orc = oracle_integrate(g, two_var_cell(), P3, 6)
    assert abs(res.value.constant_value() - orc.value) <= orc.boundary_mass


def test_partial_elimination_keeps_base_variable():
    pinned = pin_bound_residues(two_var_cell())
    g = norm_pow(1, 1)
    at1 = integrate_full(g, pinned, eliminate=1, base_point=(F(3),))
    at0 = integrate_full(g, pinned, eliminate=1, base_point=(F(4),))
    assert at1.value.constant_value() == F(1, 240)
    assert at0.value.constant_value() == F(27, 80)


def window_cell() -> Cell:
    """|9| < |x1| <= |x0| over x0 in Z_3: the window v(x0) <= k <= 1 is
    empty once v(x0) >= 2, and by more than one level once v(x0) >= 3."""
    inner = CellCondition(
        center=Const(F(0)), coset=coset_of(P3, 1, 1),
        lower=Const(F(9)), lower_strict=True, upper=Var(0), upper_strict=False,
    )
    return Cell((zp_cell(P3).conditions[0], inner))


def test_window_guard_zeroes_empty_base_points():
    # abs(x1) at x0 = 27 gave -2/243 from the unguarded closed form
    g = norm_pow(1, 1)
    cell = window_cell()
    ci = prepare_integrand(g, cell)
    for x0, want in ((F(27), F(0)), (F(9), F(0)), (F(3), F(2, 3) * F(1, 9)),
                     (F(1), F(2, 3) * (1 + F(1, 9)))):
        assert reference_concrete(ci, scalars(P3, x0)) == want
        at = integrate_full(g, [cell], eliminate=1, base_point=(x0,))
        assert at.value.constant_value() == want


def test_window_guard_on_an_eliminated_variable_raises():
    # integrating over both variables printed 179/351; the oracle gives 124/243
    with pytest.raises(ValueError, match="eliminated variable"):
        integrate_full(norm_pow(1, 1), [window_cell()])


def test_point_stage_guard_is_null():
    # reading this guard raised OverflowError: a zero coset has v(mu) = INF
    inner = CellCondition(
        center=Const(F(0)), coset=coset_of(P3, 0, 1),
        lower=Const(F(9)), lower_strict=False, upper=Var(0), upper_strict=False,
    )
    cell = Cell((zp_cell(P3).conditions[0], inner))
    for x0 in (F(1), F(3), F(27)):
        at = integrate_full(norm_pow(1, 1), [cell], eliminate=1, base_point=(x0,))
        assert at.value.constant_value() == 0


def prefix_window_cells():
    """Two-sided stages whose one varying bound is x0, over a stage 0 that
    confines v(x0) itself: every strictness, a window never, sometimes or
    always empty, and n = 2 on either stage with every pin."""
    windows = ((0, None), (0, 0), (1, 2))
    for n0, n1, (lo0, hi0), lower_varies, c, lower_strict, upper_strict in product(
        (1, 2), (1, 2), windows, (True, False), (0, 1, 3), (False, True), (False, True)
    ):
        base = CellCondition(
            center=Const(F(0)), coset=coset_of(P3, 1, n0),
            upper=Const(F(3) ** lo0), upper_strict=False,
            lower=None if hi0 is None else Const(F(3) ** hi0), lower_strict=False,
        )
        fixed = Const(F(3) ** c)
        inner = CellCondition(
            center=Const(F(0)), coset=coset_of(P3, 1, n1),
            lower=Var(0) if lower_varies else fixed,
            upper=fixed if lower_varies else Var(0),
            lower_strict=lower_strict, upper_strict=upper_strict,
        )
        yield from pin_bound_residues(Cell((base, inner)))


def test_window_settled_by_the_prefix_matches_oracle():
    # abs(x1) over x0 in Z_3, |x0| <= |x1| <= 1 exited 1; the value is 9/13
    g = norm_pow(1, 1)
    settled = {True: 0, False: 0, None: 0}
    for cell in prefix_window_cells():
        outcome = _stage_settled(cell.conditions[1], cell.conditions[:1])
        settled[outcome] += 1
        if outcome is None:
            with pytest.raises(ValueError, match="eliminated variable"):
                integrate_full(g, [cell])
            continue
        got = integrate_full(g, [cell]).value.constant_value()
        orc = oracle_integrate(g, cell, P3, 5)
        assert abs(got - orc.value) <= orc.boundary_mass, cell
        if outcome is False:
            assert got == 0
    assert min(settled.values()) > 20, settled


def _settling_cases():
    """(base stage, inner stage, the settling test it reaches, its answer):
    every None and False return of _pin_settled and _window_settled."""
    z3 = zp_cell(P3).conditions[0]
    off_zero = CellCondition(center=Const(F(1)), coset=coset_of(P3, 1, 1),
                             upper=Const(F(1)), upper_strict=False)
    # 2 <= v(x0) <= 1
    empty = CellCondition(center=Const(F(0)), coset=coset_of(P3, 1, 1),
                          lower=Const(F(3)), lower_strict=False,
                          upper=Const(F(9)), upper_strict=False)

    def pinned(bound, r):  # x1 in P_2, |x1| <= |bound|, v(bound) = r mod 2
        return CellCondition(center=Const(F(0)), coset=coset_of(P3, 1, 2), upper=bound,
                             upper_strict=False, upper_val_residue=r)

    def two_sided(lower, upper):
        return CellCondition(center=Const(F(0)), coset=coset_of(P3, 1, 1), lower=lower,
                             lower_strict=False, upper=upper, upper_strict=False)

    x0, far = Var(0), Const(F(27))
    return [
        (z3, pinned(d_scale(x0, 3), 1), _pin_settled, None),  # not a bare x0
        (point_cell(P3, 3).conditions[0], pinned(x0, 1), _pin_settled, True),
        (point_cell(P3, 3).conditions[0], pinned(x0, 0), _pin_settled, False),
        (point_cell(P3, 0).conditions[0], pinned(x0, 0), _pin_settled, None),
        (off_zero, pinned(x0, 0), _pin_settled, None),
        (z3, two_sided(d_scale(x0, 9), x0), _window_settled, None),  # both vary
        (z3, two_sided(far, d_scale(x0, 3)), _window_settled, None),  # not a bare x0
        (off_zero, two_sided(far, x0), _window_settled, None),
        (empty, two_sided(far, x0), _window_settled, False),
    ]


@pytest.mark.parametrize("base, inner, settle, want", _settling_cases())
def test_unsettled_pins_and_windows_keep_their_guards(base, inner, settle, want):
    """A settled stage integrates over the base as the oracle does; an
    unsettled one keeps its guard, and its pieces agree with integrate_cell
    at every base point tried."""
    cell, g = Cell((base, inner)), norm_pow(1, 1)
    if settle is _pin_settled:
        assert settle(inner.upper, 2, inner.upper_val_residue, (base,)) is want
    else:
        assert settle(inner, (base,)) is want
    assert _stage_settled(inner, (base,)) is want
    pieces = eliminate_stages(g, [cell], 1)
    guarded = [bool(piece.guards) for piece in pieces]
    assert guarded == ([] if want is False else [want is None])
    ci = prepare_integrand(g, cell)
    for x0 in (1, 2, 3, 4, 6, 9, 18):
        if fiber_membership(Cell((base,)), scalars(P3, x0)):
            assert evaluate_pieces(pieces, (F(x0),), P3) == integrate_cell(ci, scalars(P3, x0))
    if want is not None:
        got = integrate_full(g, [cell]).value.constant_value()
        orc = oracle_integrate(g, cell, P3, 5)
        assert abs(got - orc.value) <= orc.boundary_mass
        assert want or got == 0


# ---------------------------------------------------------------------------
# eliminate_stages integrates each distinct fiber once per level.
# reference_eliminate_stages keeps the loop that integrated every piece's
# fiber afresh, line for line; both must give the same pieces in the same
# order, or the same error.

def reference_eliminate_stages(
    f: ConstructibleExpr, cells: list[Cell], k: int
) -> tuple[GuardedPiece, ...] | None:
    arities = {c.arity for c in cells}
    if len(arities) != 1:
        raise ValueError("cells of mixed arity")
    arity = arities.pop()
    if not 0 <= k <= arity:
        raise ValueError("base point does not match the variables kept")
    pieces = [GuardedPiece(c.conditions, (), f) for c in cells]
    for _ in range(k):
        grouped: dict[tuple, list[ConstructibleExpr]] = {}
        for piece in pieces:
            conds = piece.conditions
            try:
                value = integrate_cell(prepare_integrand(piece.value, Cell(conds)))
            except NotIntegrableError:
                return None
            prefix = conds[:-1]
            settled = _stage_settled(conds[-1], prefix)
            if settled is False:
                continue
            guards = piece.guards if settled else piece.guards + (conds[-1],)
            grouped.setdefault((prefix, guards), []).append(value)
        pieces = [
            GuardedPiece(prefix, guards, ConstructibleExpr.sum_of(values))
            for (prefix, guards), values in grouped.items()
        ]
    for piece in pieces:
        for g in piece.guards:
            bounds = [b for b in (g.lower, g.upper) if b is not None]
            if any(i >= arity - k for b in bounds for i in free_variables(b)):
                raise ValueError(
                    "a pin or window guard references an eliminated variable; "
                    "pin the stages in elimination order, or split the base "
                    "cell so that its windows are decided"
                )
    return tuple(pieces)


def ball(p: Prime, mu, n: int, lo: int = 0, hi: int | None = None) -> CellCondition:
    """{t : lo <= v(t) <= hi, t in mu*P_n}; no lower bound when hi is None."""
    return CellCondition(
        center=Const(F(0)), coset=coset_of(p, mu, n),
        upper=Const(F(p.p) ** lo), upper_strict=False,
        lower=None if hi is None else Const(F(p.p) ** hi), lower_strict=False,
    )


def guarded_split(inner_mu, n: int) -> list[Cell]:
    """pin_bound_residues cells of |x1| <= |x0|, x1 in inner_mu*P_2, over
    the balls mu*P_n at p = 3, one per coset representative mu."""
    inner = CellCondition(
        center=Const(F(0)), coset=coset_of(P3, inner_mu, 2), upper=Var(0), upper_strict=False
    )
    return [
        c for mu in coset_representatives(3, n)
        for c in pin_bound_residues(Cell((ball(P3, mu, n), inner)))
    ]


def monomial(c, e1: int, e0: int, l1: int) -> ConstructibleExpr:
    """c * abs(x1)^e1 * abs(x0)^e0 * v(x1)^l1."""
    nfs = tuple(NormFactor(Var(i), F(e)) for i, e in ((1, e1), (0, e0)) if e)
    return cexpr_term(c, (ValFactor(Var(1), l1),) if l1 else (), nfs)


@st.composite
def shared_fiber_problems(draw, kind: str):
    """An integrand, a cell list whose pieces share fibers, and k."""
    f = monomial(
        F(draw(st.integers(1, 4)), draw(st.integers(1, 3))),
        draw(st.integers(1, 2)), draw(st.integers(0, 1)), draw(st.integers(0, 1)),
    )
    if kind == "pins":
        cells = guarded_split(draw(st.sampled_from((1, 2))), draw(st.sampled_from((2, 4))))
        if draw(st.booleans()):
            cells = draw(st.permutations(cells))[: draw(st.integers(1, len(cells)))]
        return f, cells, draw(st.sampled_from((2, 2, 1)))
    if kind == "three_stages":
        # pieces of the second level share a last stage under distinct
        # prefixes, with values summed over different sets of third stages
        def stage(var):
            return CellCondition(center=Const(F(0)), coset=coset_of(P3, 1, 1),
                                 upper=Var(var), upper_strict=False)

        pools = (
            [ball(P3, 1, 1, 0, None), ball(P3, 1, 1, 1, 2), ball(P3, 2, 2, 0, 3)],
            [ball(P3, 1, 1, 0, 2), stage(0)],
            [ball(P3, 1, 1, -1, 2), stage(1), ball(P3, 2, 2, 0, None), stage(0)],
        )
        picks = st.tuples(*(st.sampled_from(pool) for pool in pools))
        cells = [Cell(c) for c in draw(st.lists(picks, min_size=2, max_size=10))]
        f = f * cexpr_term(1, (ValFactor(Var(2), 1),) if draw(st.booleans()) else (),
                           (NormFactor(Var(2), F(draw(st.integers(1, 2)))),))
        return f, cells, draw(st.sampled_from((3, 3, 2, 1)))
    # two-stage cells at p = 3 whose last stages repeat under distinct prefixes
    bases = [ball(P3, mu, n, lo, hi) for mu, n, lo, hi in
             ((1, 1, 0, None), (1, 1, 0, 2), (2, 2, 1, 3), (1, 2, 0, None))]
    lasts = [
        ball(P3, 1, 1, -1, 2),
        ball(P3, 2, 2, 0, None),
        CellCondition(center=Const(F(0)), coset=coset_of(P3, 1, 1),
                      upper=Var(0), upper_strict=draw(st.booleans())),
    ]
    picks = st.tuples(st.sampled_from(bases), st.sampled_from(lasts))
    cells = [Cell(c) for c in draw(st.lists(picks, min_size=2, max_size=8))]
    if kind == "divergent":
        # |x1| >= 3 is unbounded above, where abs(x1)^e1 does not decay
        bad = CellCondition(center=Const(F(0)), coset=coset_of(P3, 1, 1),
                            lower=Const(F(1, 3)), lower_strict=False)
        for base in draw(st.lists(st.sampled_from(bases), min_size=2, max_size=3)):
            cells.insert(draw(st.integers(0, len(cells))), Cell((base, bad)))
    if kind == "late_error":
        if draw(st.booleans()):
            # n = 2 with the varying bound unpinned
            bad = CellCondition(center=Const(F(0)), coset=coset_of(P3, 1, 2),
                                upper=Var(0), upper_strict=False)
        else:
            # abs(x1 - 1) is no monomial in x1 - 0; the other stages are centered at 1
            f = cexpr_term(f.terms[0].coeff, (), (NormFactor(parse_dterm("x1 - 1"), F(1)),))
            cells = [Cell((c.conditions[0], CellCondition(
                center=Const(F(1)), coset=c.conditions[1].coset,
                upper=Const(F(3)), upper_strict=False))) for c in cells]
            bad = lasts[0]
        cells += [Cell((base, bad)) for base in bases[: draw(st.integers(1, 3))]]
        cells += cells[: draw(st.integers(0, 2))]
    return f, cells, draw(st.sampled_from((2, 2, 1)))


def elimination_outcome(fn, f, cells, k):
    try:
        return fn(f, cells, k)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "kind", ("pins", "repeats", "three_stages", "divergent", "late_error")
)
@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_eliminate_stages_matches_reference(kind, data):
    f, cells, k = data.draw(shared_fiber_problems(kind))
    assert elimination_outcome(eliminate_stages, f, cells, k) == elimination_outcome(
        reference_eliminate_stages, f, cells, k
    )


def test_guarded_split_prepares_each_fiber_once(monkeypatch):
    """The 8 pinned cells of the guarded integrate test: 2 distinct inner
    stages (the pins) at the first level, 4 base cosets at the second."""
    cells = guarded_split(1, 2)
    assert len(cells) == 8
    calls = []

    def counted(f, cell):
        calls.append(cell)
        return prepare_integrand(f, cell)

    monkeypatch.setattr(integrate, "prepare_integrand", counted)
    res = integrate_full(norm_pow(1, 1), cells)
    assert res.value.constant_value() == F(1647, 7280)
    assert len(calls) == 6


def product_cell(p: Prime) -> Cell:
    cond = zp_cell(p).conditions[0]
    inner = CellCondition(
        center=Const(F(0)),
        coset=coset_of(p, 1, 1),
        upper=Const(F(1)),
        upper_strict=False,
    )
    return Cell((cond, inner))


def swap_vars(f: ConstructibleExpr) -> ConstructibleExpr:
    """Exchange x0 and x1 in a product integrand."""
    out = []
    for t in f.terms:
        vfs = tuple(
            ValFactor(Var(1 - v.h.index), v.power) for v in t.val_factors
        )
        nfs = tuple(
            NormFactor(Var(1 - m.h.index), m.power) for m in t.norm_factors
        )
        out.append(type(t)(t.coeff, vfs, nfs))
    return ConstructibleExpr.of(out)


def test_fubini_product_integrands():
    rng = random.Random(11)
    for _ in range(8):
        p = rng.choice((P2, P3, P5))
        e0, e1 = rng.randint(0, 3), rng.randint(0, 3)
        l0, l1 = rng.randint(0, 2), rng.randint(0, 2)
        f = cexpr_term(
            F(rng.randint(1, 5)),
            ((ValFactor(Var(0), l0),) if l0 else ())
            + ((ValFactor(Var(1), l1),) if l1 else ()),
            (NormFactor(Var(0), F(e0)), NormFactor(Var(1), F(e1))),
        )
        cell = product_cell(p)
        one_way = integrate_full(f, [cell])
        other = integrate_full(swap_vars(f), [cell])
        assert one_way.integrable and other.integrable
        assert one_way.value.constant_value() == other.value.constant_value()


def test_fubini_zero_convention_both_orders():
    # divergent in the inner variable either way round
    f = cexpr_term(1, (), (NormFactor(Var(0), F(1)), NormFactor(Var(1), F(-1))))
    cell = product_cell(P3)
    a = integrate_full(f, [cell])
    b = integrate_full(swap_vars(f), [cell])
    assert not a.integrable and not b.integrable
    assert a.value.is_zero() and b.value.is_zero()


@st.composite
def monomial_integrals(draw):
    """c * prod v(x_i)^l_i * |x_i|^e_i over Z_p^2 or Z_p^3; an exponent
    -1 makes that variable's integral diverge."""
    p = Prime(draw(st.sampled_from((2, 3, 5))))
    arity = draw(st.sampled_from((2, 3)))
    c = F(draw(st.integers(1, 5)), draw(st.integers(1, 3)))
    ls = [draw(st.integers(0, 2)) for _ in range(arity)]
    es = [draw(st.sampled_from((0, 1, 2, 3, -1) if i == 0 else (0, 1, 2, 3)))
          for i in range(arity)]
    return p, c, ls, es


def monomial_on(c, ls, es, variables) -> ConstructibleExpr:
    """c * prod v(x_j)^l * |x_j|^e over (j, l, e) in zip(variables, ls, es)."""
    return cexpr_term(
        c,
        tuple(ValFactor(Var(j), l) for j, l in zip(variables, ls) if l),
        tuple(NormFactor(Var(j), F(e)) for j, e in zip(variables, es)),
    )


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(monomial_integrals())
def test_fubini_generated_monomials(case):
    p, c, ls, es = case
    arity = len(ls)
    cell = Cell(zp_cell(p).conditions * arity)
    forward = integrate_full(monomial_on(c, ls, es, range(arity)), [cell])
    backward = integrate_full(monomial_on(c, ls, es, range(arity)[::-1]), [cell])
    assert forward == backward
    # one divergent factor zeroes the whole integral, as in each factor's own
    product = c
    for l, e in zip(ls, es):
        one = integrate_full(monomial_on(1, [l], [e], [0]), [zp_cell(p)])
        product *= one.value.constant_value()
    assert forward.integrable == (-1 not in es)
    assert forward.value.constant_value() == product


# ---------------------------------------------------------------------------
# local zeta functions

def test_zeta_of_t():
    for p in (P3, P5):
        z = igusa_zeta(polys.poly_from([0, 1]), p)
        assert z.numerator == (F(p.p - 1, p.p),)
        assert z.denominator_factors == ((1, 1),)
        q = p.p
        assert z.evaluate(F(1, q)) == F(q - 1, q) / (1 - F(1, q**2))


def test_zeta_of_t_squared():
    for p in (P3, P5):
        z = igusa_zeta(polys.poly_from([0, 0, 1]), p)
        assert z.numerator == (F(p.p - 1, p.p),)
        assert z.denominator_factors == ((1, 2),)


def test_zeta_of_constants():
    z = igusa_zeta(polys.poly_from([1]), P3)
    assert z.numerator == (F(1),) and z.denominator_factors == ()
    z9 = igusa_zeta(polys.poly_from([9]), P3)
    assert z9.numerator == (F(0), F(0), F(1))


def test_zeta_scaling_shifts_by_t_power():
    f = polys.poly_from([-1, 0, 1])
    z = igusa_zeta(f, P3)
    z3 = igusa_zeta(polys.scale(f, F(3)), P3)
    for T0 in (F(1, 3), F(1, 9), F(2, 7)):
        assert z3.evaluate(T0) == T0 * z.evaluate(T0)


def test_zeta_total_measure_at_one():
    for coeffs in ([0, 1], [-1, 0, 1], [2, 1, 1], [0, 0, 1, -1]):
        z = igusa_zeta(polys.poly_from(coeffs), P3)
        assert z.evaluate(F(1)) == 1


def test_zeta_negative_valuation_rejected():
    with pytest.raises(ValueError, match="scale the polynomial"):
        igusa_zeta(polys.poly_from([0, F(1, 3)]), P3)


def test_zeta_matches_elimination_of_norm_powers():
    """Z at T = p^-s0 is the integral of |f|^s0; both sides are exact."""
    for p, coeffs in ((P3, [-1, 0, 1]), (P3, [0, 0, 1]), (P5, [0, -1, 1])):
        f = polys.poly_from(coeffs)
        terms = decompose_univariate(f, p)
        z = igusa_zeta(f, p)
        for s0 in (1, 2, 3):
            cis = group_prepared(prepared_power(terms, s0))
            res = eliminate_last_variable(cis, [])
            assert res.integrable
            assert res.value.constant_value() == z.evaluate(F(1, p.p**s0))


def test_zeta_series_expansion():
    z = igusa_zeta(polys.poly_from([0, 1]), P3)
    # (2/3) / (1 - T/3): coefficients (2/3) 3^-i
    assert z.series(3) == [F(2, 3), F(2, 9), F(2, 27), F(2, 81)]


# ---------------------------------------------------------------------------
# reference zeta: igusa_zeta as it was when it read its pieces back from
# decompose_univariate's prepared terms, kept verbatim. Reading the ball
# records directly must give the same Z(T), or raise the same error.

def reference_igusa_zeta(f, p, precision_N=8):
    terms = decompose_univariate(f, p, None, precision_N)
    pieces = []
    q = p.p
    for t in terms:
        cond = t.cell.conditions[0]
        if cond.coset.is_zero():
            continue
        val = t.delta.constant_value()
        assert val != 0, "ball pieces carry a nonzero unit scale"
        dv = int(rational_valuation(val, q))
        j = int(stage_window(cond, []).k_min)
        degree = dv + t.a * j
        if degree < 0:
            raise ValueError(
                "zeta needs v(f) >= 0 on the domain; scale the polynomial first"
            )
        if t.a == 0:
            pieces.append((Fraction(1, q**j), degree, 0))
        else:
            pieces.append((Fraction(q - 1, q) * Fraction(1, q**j), degree, t.a))
    dens = tuple(sorted({(1, a) for _, _, a in pieces if a != 0}))
    num = ()
    for coeff, degree, a in pieces:
        piece = polys.scale(
            tuple([Fraction(0)] * degree + [Fraction(1)]), coeff
        )
        for c, d in dens:
            if (c, d) == (1, a):
                continue
            piece = polys.mul(piece, _denominator_poly(c, d, q))
        num = polys.add(num, piece)
    return ZetaRational(num, dens, p)


@st.composite
def zeta_inputs(draw):
    """c * prod g_j^m_j over Q with degree <= 5: linear, quadratic and
    cubic g_j, some with roots close p-adically, c a rational that may
    have p in its denominator (v(f) < 0 somewhere) or p^e in its
    numerator; p in {2, 3, 5, 7, 11} and a precision 8 to 10."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    f = polys.poly_from([F(draw(st.integers(-9, 9).filter(bool)), draw(st.sampled_from([1, 2, p])))
                         * p ** draw(st.integers(0, 2))])
    if draw(st.booleans()):
        r, k = draw(st.integers(-6, 6)), draw(st.integers(1, 12))
        f = polys.mul(f, polys.mul(polys.poly_from([-r, 1]), polys.poly_from([-r - p**k, 1])))
    for _ in range(draw(st.integers(0, 3))):
        g = polys.poly_from(draw(st.lists(st.integers(-9, 9), min_size=2, max_size=4)))
        g = polys.pow_int(g, draw(st.integers(1, 2)))
        if g and polys.degree(f) + polys.degree(g) <= 5:
            f = polys.mul(f, g)
    return f, Prime(p), draw(st.integers(8, 10))


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(zeta_inputs())
def test_zeta_matches_reference(problem):
    f, p, N = problem

    def outcome(zeta):
        try:
            return zeta(f, p, N)
        except (ValueError, ArithmeticError) as e:
            return type(e), str(e)

    assert outcome(igusa_zeta) == outcome(reference_igusa_zeta), (f, p.p, N)


def test_root_counts_by_enumeration():
    assert root_counts(polys.poly_from([0, 1]), P3, 3) == [1, 1, 1, 1]
    assert root_counts(polys.poly_from([0, 0, 1]), P3, 2) == [1, 1, 3]
    assert root_counts(polys.poly_from([-1, 0, 1]), P3, 2) == [1, 2, 2]
    with pytest.raises(ValueError, match="integer coefficients"):
        root_counts(polys.poly_from([F(1, 2), 1]), P3, 1)


def reference_root_counts(f, p, i_max):
    """root_counts as it was before it lifted roots: every residue mod p^i
    is tried."""
    cs = [int(c) for c in reversed(f)]
    out = [1]
    for i in range(1, i_max + 1):
        mod = p.p**i
        count = 0
        for x in range(mod):
            acc = 0
            for c in cs:
                acc = (acc * x + c) % mod
            if acc == 0:
                count += 1
        out.append(count)
    return out


@st.composite
def counted_polys(draw):
    """Degree at most 4 over Z: arbitrary, a monomial x^m, or either times
    a constant c*p^e."""
    p = Prime(draw(st.sampled_from([2, 3, 5, 7])))
    if draw(st.booleans()):
        coeffs = [0] * draw(st.integers(0, 4)) + [1]
    else:
        coeffs = draw(st.lists(st.integers(-20, 20), min_size=1, max_size=5))
    scale = draw(st.sampled_from([1, -1, 2, 5])) * p.p ** draw(st.integers(0, 3))
    i_max = {2: 8, 3: 5, 5: 4, 7: 3}[p.p]
    return polys.poly_from([scale * c for c in coeffs]), p, i_max


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(counted_polys())
def test_root_counts_by_lifting_match_enumeration(problem):
    f, p, i_max = problem
    assert root_counts(f, p, i_max) == reference_root_counts(f, p, i_max)


def test_poincare_consistency():
    cases = [
        (P3, [0, 1]),
        (P3, [0, 0, 1]),
        (P3, [-1, 0, 1]),
        (P5, [0, 0, 1]),
        (P3, [2, 3, 0, 1]),
        (P2, [-1, 0, 1]),
    ]
    for p, coeffs in cases:
        report = poincare_check(polys.poly_from(coeffs), p, i_max=5)
        assert report.passed, (p.p, coeffs, report)
    # the expected column really is N_i / p^i
    r = poincare_check(polys.poly_from([0, 0, 1]), P3, i_max=4)
    assert r.expected[2] == F(r.counts[2], 9)


def test_poincare_check_checks_the_zeta_it_is_given():
    f = polys.poly_from([-1, 0, 1])
    z = igusa_zeta(f, P3, 3)
    assert poincare_check(f, P3, 5, z) == poincare_check(f, P3, 5)
    wrong = igusa_zeta(polys.poly_from([0, 1]), P3)
    assert not poincare_check(f, P3, 5, wrong).passed


@st.composite
def factored_polys(draw):
    """c * prod g_j^m_j over Z: one to three linear or quadratic g_j with
    small coefficients, m_j <= 3, so equal or associate factors merge into
    higher multiplicities; p in {2, 3, 5} and a small i."""
    p = Prime(draw(st.sampled_from([2, 3, 5])))
    f = polys.poly_from([draw(st.sampled_from([1, -1, 2, -3, 5, 6]))])
    for _ in range(draw(st.integers(1, 3))):
        g = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=2))
        g = polys.poly_from(g + [draw(st.sampled_from([1, -1, 2, 3]))])
        f = polys.mul(f, polys.pow_int(g, draw(st.integers(1, 3))))
    return f, p, draw(st.integers(1, 4))


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(factored_polys())
def test_poincare_check_on_generated_products(problem):
    """igusa_zeta against the root counts N_i, through the factorizer's
    multiplicities."""
    f, p, i_max = problem
    report = poincare_check(f, p, i_max)
    assert report.passed, (f, p.p, i_max, report)


# ---------------------------------------------------------------------------
# sums over counting variables

def test_simple_sum_geometric():
    f = SimpleFunctionExpr(1, (SimpleTerm(F(1), (0,), (2,), (0,), (INF,)),))
    out = sum_eliminate_simple(f, P3)
    assert evaluate_simple(out, (), 3) == F(9, 8)


def test_simple_sum_window_count():
    f = SimpleFunctionExpr(1, (SimpleTerm(F(1), (0,), (0,), (0,), (2,)),))
    assert evaluate_simple(sum_eliminate_simple(f, P3), (), 3) == 3


def test_simple_sum_with_power():
    f = SimpleFunctionExpr(1, (SimpleTerm(F(1), (1,), (1,), (0,), (INF,)),))
    assert evaluate_simple(sum_eliminate_simple(f, P3), (), 3) == F(3, 4)


def test_simple_sum_divergent():
    f = SimpleFunctionExpr(1, (SimpleTerm(F(1), (0,), (0,), (0,), (INF,)),))
    with pytest.raises(DivergentSumError, match="divergent sum"):
        sum_eliminate_simple(f, P3)


def test_simple_sum_needs_lower_end():
    f = SimpleFunctionExpr(1, (SimpleTerm(F(1), (0,), (2,), (None,), (INF,)),))
    with pytest.raises(ValueError, match="unsupported range"):
        sum_eliminate_simple(f, P3)


def test_simple_sum_two_variables():
    f = SimpleFunctionExpr(
        2, (SimpleTerm(F(1), (1, 0), (2, 1), (1, 0), (INF, 2)),)
    )
    once = sum_eliminate_simple(f, P3)
    twice = sum_eliminate_simple(once, P3)
    want_z0 = sum(F(z) * F(9) ** (-z) for z in range(1, 400))
    want_z1 = sum(F(3) ** (-z) for z in range(0, 3))
    got = evaluate_simple(twice, (), 3)
    assert abs(got - want_z0 * want_z1) < F(1, 9**390)


def test_simple_sum_against_partial_sums():
    rng = random.Random(23)
    for _ in range(10):
        q = rng.choice((2, 3, 5))
        e = rng.randint(0, 3)
        c = rng.randint(1, 3)
        lo = rng.randint(-2, 4)
        f = SimpleFunctionExpr(1, (SimpleTerm(F(1), (e,), (c,), (lo,), (INF,)),))
        got = evaluate_simple(sum_eliminate_simple(f, Prime(q)), (), q)
        partial = sum(F(z) ** e * F(q) ** (-c * z) for z in range(lo, lo + 60))
        # past z1 consecutive terms shrink by ((z+1)/z)^e / q^c, which is
        # maximal at z = z1; the rest sits under that geometric series
        z1 = lo + 60
        ratio = F(z1 + 1, z1) ** e * F(1, q**c)
        tail = F(z1) ** e * F(q) ** (-c * z1) / (1 - ratio)
        assert abs(got - partial) <= abs(tail), (q, e, c, lo)
