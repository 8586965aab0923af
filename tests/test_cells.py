from fractions import Fraction

import pytest

from padicells.cells import (
    BoundZeroError,
    Cell,
    CellCondition,
    cell_from_json,
    cell_to_json,
    coset_of,
    fiber_membership,
    level_set_measure,
    pin_bound_residues,
    point_cell,
    punctured_ball_cell,
    zp_cell,
)
from padicells.expr import Const, ConstructibleExpr, NormFactor, Var, cexpr_term, parse_dterm
from padicells.integrate import NotIntegrableError, integrate_cell, prepare_integrand
from padicells.padic import (
    Prime,
    coset_representatives,
    scalar,
)
from test_padic import reference_newton_depth, reference_nth_power_unit_residues

P2, P3, P5 = Prime(2), Prime(3), Prime(5)
F = Fraction


def cond(prime=P3, mu=1, n=1, center=0, lower=None, upper=None,
         lower_strict=True, upper_strict=True):
    to_term = lambda x: x if x is None or not isinstance(x, (int, F)) else Const(F(x))
    return CellCondition(
        center=to_term(center),
        coset=coset_of(prime, mu, n),
        lower=to_term(lower),
        upper=to_term(upper),
        lower_strict=lower_strict,
        upper_strict=upper_strict,
    )


def test_epsilon_examples():
    assert level_set_measure(coset_of(P3, 1, 1)) == F(2, 3)
    assert level_set_measure(coset_of(P3, 1, 2)) == F(1, 3)
    assert level_set_measure(coset_of(P2, 1, 2)) == F(1, 8)


def test_epsilon_more_counts():
    assert level_set_measure(coset_of(P3, 1, 3)) == F(2, 9)
    assert level_set_measure(coset_of(P5, 1, 4)) == F(1, 5)
    assert level_set_measure(coset_of(P2, 1, 4)) == F(1, 16)


def test_epsilon_independent_of_mu_and_matches_counting():
    for p in (2, 3, 5):
        prime = Prime(p)
        for n in (1, 2, 3, 4):
            eps = {level_set_measure(coset_of(prime, mu, n))
                   for mu in (1, 2, p, 3 * p**2) if mu != 0}
            assert len(eps) == 1, (p, n)
            # independent exhaustive count on the v = 0 shell, two digits
            # beyond where the power map stabilizes
            vp = 0
            while n % p ** (vp + 1) == 0:
                vp += 1
            depth = 2 * vp + 3
            m = p**depth
            nth = {pow(w, n, m) for w in range(1, m) if w % p}
            count = sum(1 for x in range(1, m) if x % p and (x % m) in nth)
            assert eps == {F(count, m)}, (p, n)


def test_epsilon_for_n_1_counts_no_residues():
    # epsilon is a closed form in p and n: no n, 1 or large, enumerates unit
    # residues (n = 1024 at p = 2 used to count 2^23 of them)
    for p in (2, 3, 257):
        assert level_set_measure(coset_of(Prime(p), 1, 1)) == F(p - 1, p)
    assert level_set_measure(coset_of(P3, 1, 2)) == F(1, 3)
    assert level_set_measure(coset_of(P2, 1, 1024)) == F(1, 2**12)
    assert level_set_measure(coset_of(P3, 1, 1024)) == F(1, 3)


def test_epsilon_at_huge_n():
    # [U : U^n] = gcd(n, p - 1 or 2) * p^v_p(n), read without a residue
    assert level_set_measure(coset_of(P2, 1, 2**40)) == F(1, 2**42)
    assert level_set_measure(coset_of(P3, 1, 3**30)) == F(2, 3**31)


def reference_epsilon_counted(p: int, n: int) -> Fraction:
    """The counted density: n-th-power unit residues over p^depth, at the
    Newton depth and two digits deeper, which must agree."""
    depth = reference_newton_depth(n, p)
    counts = {F(len(reference_nth_power_unit_residues(p, n, d)), p**d) for d in (depth, depth + 2)}
    assert len(counts) == 1, (p, n)
    return counts.pop()


def test_epsilon_closed_form_matches_counting():
    for p in (2, 3, 5, 7):
        for n in range(1, 17):
            assert level_set_measure(coset_of(Prime(p), 1, n)) == \
                reference_epsilon_counted(p, n), (p, n)


def test_level_set_measure_rejects_zero():
    with pytest.raises(ValueError):
        level_set_measure(coset_of(P3, 0, 2))
    assert level_set_measure(coset_of(P3, 9, 2)) == F(1, 3)


def measure(c: CellCondition, base=(), integrand=None) -> Fraction:
    """The stage's fiber integral over a base point (of 1 by default),
    through integrate_cell; the base stages are copies of Z_p."""
    prefix = tuple(cond(prime=c.prime, upper=1, upper_strict=False) for _ in base)
    cell = Cell(prefix + (c,))
    f = ConstructibleExpr.const(1) if integrand is None else integrand
    return integrate_cell(prepare_integrand(f, cell), [scalar(x, c.prime) for x in base])


def shells(eps, p, ks) -> Fraction:
    """Measure of the valuation shells v(t) = k, k in ks, of density eps."""
    return sum((eps * F(1, p) ** k for k in ks), F(0))


def test_fiber_valuation_range_examples():
    # k >= 0, every level: sum_{k >= 0} (2/3) 3^-k, all of Z_3
    assert measure(cond(upper=1, upper_strict=False)) == F(2, 3) / (1 - F(1, 3))

    # k <= 1, unbounded below: 1 is not integrable there, |t|^-2 weighs
    # level k by 3^(2k) and gives (2/3) sum_{k <= 1} 3^k = 3
    with pytest.raises(NotIntegrableError):
        measure(cond(lower=9, lower_strict=True))
    got = measure(cond(lower=9, lower_strict=True),
                  integrand=cexpr_term(1, (), (NormFactor(Var(0), F(-2)),)))
    assert got == F(2, 3) * F(3) / (1 - F(1, 3))

    # k in {1, 3}: odd levels of 3*P_2 between v(1) and v(81)
    assert measure(cond(mu=3, n=2, lower=81, upper=1)) == shells(F(1, 3), 3, (1, 3))


def test_fiber_valuation_range_zero_bound_errors():
    with pytest.raises(BoundZeroError):
        measure(cond(lower=0, upper=1))
    with pytest.raises(BoundZeroError):
        integrate_cell(prepare_integrand(ConstructibleExpr.const(1),
                                         Cell((cond(lower=0, upper=1),))))
    assert measure(cond(mu=0)) == 0


def test_fiber_measure_examples():
    assert measure(cond(upper=1, upper_strict=False)) == 1
    assert measure(cond(n=2, upper=1, upper_strict=False)) == F(3, 8)
    assert measure(cond(upper=1, upper_strict=True)) == F(1, 3)


def test_fiber_measure_point_and_empty_and_infinite():
    assert measure(cond(mu=0)) == 0
    assert measure(cond(mu=3, n=2, lower=3, upper=1)) == 0  # k in (0,1) empty
    with pytest.raises(NotIntegrableError):
        measure(cond())  # no upper bound: valuations unbounded below


def test_fiber_measure_finite_window():
    # k in {1, 3} inside 3*P_2: eps/3 + eps/27 with eps = 1/3
    got = measure(cond(mu=3, n=2, lower=81, upper=1))
    assert got == F(1, 3) * (F(1, 3) + F(1, 27))


def test_fiber_measure_with_parametrized_bound():
    c = CellCondition(center=Const(F(0)), coset=coset_of(P3, 1, 1),
                      upper=Var(0), upper_strict=False)
    got = measure(c, base=(9,))
    # |t| <= |9|: measure of 9 Z_3 minus nothing: sum_{k>=2} (2/3) 3^-k = 1/9
    assert got == F(1, 9)


def test_partition_of_unit_ball():
    for p in (2, 3, 5):
        prime = Prime(p)
        for n in (1, 2, 3, 4):
            total = F(0)
            for mu in coset_representatives(p, n):
                total += measure(
                    CellCondition(center=Const(F(0)), coset=coset_of(prime, mu, n),
                                  upper=Const(F(1)), upper_strict=False))
            assert total == 1, (p, n)


def test_membership_examples():
    open_unit = Cell((cond(upper=1, upper_strict=True),))
    assert fiber_membership(open_unit, [scalar(3, P3)]) is True
    assert fiber_membership(open_unit, [scalar(1, P3)]) is False
    pc = point_cell(P3, 5)
    assert fiber_membership(pc, [scalar(5, P3)]) is True
    assert fiber_membership(pc, [scalar(2, P3)]) is False


def test_membership_respects_coset_and_residue_pin():
    squares = Cell((cond(n=2, upper=1, upper_strict=False),))
    assert fiber_membership(squares, [scalar(4, P3)]) is True
    assert fiber_membership(squares, [scalar(2, P3)]) is False  # not a square unit
    assert fiber_membership(squares, [scalar(3, P3)]) is False  # odd valuation

    pinned = pin_bound_residues(squares)
    assert len(pinned) == 2
    hits = [fiber_membership(c, [scalar(4, P3)]) for c in pinned]
    assert hits.count(True) == 1  # exactly the pin matching v(1) = 0 mod 2


def test_membership_exponent_integrality():
    # sampled members of a coset stage satisfy n | (v(t-center) - v(mu))
    c = Cell((cond(mu=3, n=2, upper=1, upper_strict=False),))
    members = [t for t in range(1, 200) if fiber_membership(c, [scalar(t, P3)])]
    assert members, "stage should not be empty"
    for t in members:
        v = scalar(t, P3).valuation
        assert (v - 1) % 2 == 0


def test_stage_scoping_validated():
    good = Cell((cond(), CellCondition(center=Var(0), coset=coset_of(P3, 1, 1),
                                       upper=Const(F(1)), upper_strict=False)))
    assert good.arity == 2
    with pytest.raises(ValueError):
        Cell((CellCondition(center=Var(0), coset=coset_of(P3, 1, 1)),))
    with pytest.raises(ValueError):
        Cell(())


def test_two_stage_membership():
    # stage 1: unit-norm x0; stage 2: |t - x0| <= |9| = 1/9
    c2 = CellCondition(center=Var(0), coset=coset_of(P3, 1, 1),
                       upper=Const(F(9)), upper_strict=False)
    cell = Cell((cond(upper=1, upper_strict=False), c2))
    assert fiber_membership(cell, [scalar(1, P3), scalar(10, P3)]) is True
    assert fiber_membership(cell, [scalar(1, P3), scalar(4, P3)]) is False
    assert fiber_membership(cell, [scalar(0, P3), scalar(9, P3)]) is False


def test_json_round_trip():
    c2 = CellCondition(center=parse_dterm("x0^2 - 3"), coset=coset_of(P3, 6, 2),
                       lower=parse_dterm("9*x0"), upper=Const(F(1)),
                       lower_strict=False, upper_strict=True,
                       lower_val_residue=1, upper_val_residue=0)
    cell = Cell((cond(upper=1, upper_strict=False), c2))
    blob = cell_to_json(cell)
    assert blob["conditions"][1]["gamma"] == "x0^2 - 3"
    assert blob["conditions"][1]["mu"] == "6"
    assert cell_from_json(blob, P3, "cell") == cell


def test_punctured_ball_constructor():
    ball = punctured_ball_cell(P3, 2, 1)
    assert fiber_membership(ball, [scalar(5, P3)]) is True
    assert fiber_membership(ball, [scalar(2, P3)]) is False  # puncture
    assert fiber_membership(ball, [scalar(4, P3)]) is False  # outside radius
    assert measure(ball.conditions[0]) == F(1, 3)


def test_pin_validation():
    with pytest.raises(ValueError):
        CellCondition(center=Const(F(0)), coset=coset_of(P3, 1, 2),
                      lower_val_residue=0)
    with pytest.raises(ValueError):
        CellCondition(center=Const(F(0)), coset=coset_of(P3, 1, 2),
                      lower=Const(F(1)), lower_val_residue=2)
