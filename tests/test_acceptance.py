"""End-to-end gate: eight fixed checks, one test (and one result line) each.

Everything here goes through public entry points only and pins exact
rationals or explicit error bounds; nothing is tuned to intermediate
representations, so these tests double as a compatibility contract.
"""

import random
import time
from fractions import Fraction as F

from padicells import decompose, integrate, oracle, polys
from padicells.cells import (
    Cell,
    CellCondition,
    coset_of,
    level_set_measure,
    zp_cell,
)
from padicells.expr import (
    Const,
    ConstructibleExpr,
    CTerm,
    NormFactor,
    ValFactor,
    Var,
    parse_constructible,
)
from padicells.padic import INF, Prime
from padicells.sums import ProgressionSum, sum_progression
from test_padic import reference_newton_depth

P2, P3, P5 = Prime(2), Prime(3), Prime(5)


def exact_integral(coeffs, prime, power=1):
    prepared = decompose.decompose_univariate(coeffs, prime)
    powered = integrate.prepared_power(prepared, power)
    cis = integrate.group_prepared(powered)
    res = integrate.eliminate_last_variable(cis, base_point=[])
    assert res.integrable
    return res.value.constant_value()


def test_criterion_1_reference_integrals_with_oracle():
    square_coset = Cell(
        (
            CellCondition(
                center=Const(F(0)),
                coset=coset_of(P3, 1, 2),
                upper=Const(F(1)),
                upper_strict=False,
            ),
        )
    )
    jobs = [
        ("abs(x0)", lambda: exact_integral((F(0), F(1)), P3), F(3, 4), zp_cell(P3)),
        ("abs(x0^2)", lambda: exact_integral((F(0), F(0), F(1)), P3), F(9, 13),
         zp_cell(P3)),
        ("1", lambda: integrate.integrate_full(
            ConstructibleExpr.const(F(1)), [square_coset]
        ).value.constant_value(), F(3, 8), square_coset),
    ]
    for text, compute, expected, domain in jobs:
        t0 = time.perf_counter()
        got = compute()
        assert got == expected
        probe = oracle.oracle_integrate(
            parse_constructible(text), domain, P3, 6
        )
        assert abs(got - probe.value) <= F(1, 81)
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_zeta_closed_forms_match_elimination():
    for prime in (P3, P5):
        q = prime.p
        for coeffs, d in (((F(0), F(1)), 1), ((F(0), F(0), F(1)), 2)):
            z = integrate.igusa_zeta(coeffs, prime)
            assert z.numerator == (F(q - 1, q),)
            assert z.denominator_factors == ((1, d),)
            for s in (1, 2):
                T0 = F(1, q) ** s
                closed = F(q - 1, q) / (1 - T0**d / q)
                assert z.evaluate(T0) == closed
                assert exact_integral(coeffs, prime, power=s) == closed


def test_criterion_3_decomposition_verified_on_random_corpus():
    rng = random.Random(321)
    primes = (P2, P3, P5)
    t0 = time.perf_counter()
    done = 0
    while done < 20:
        degree = rng.randrange(5)
        coeffs = polys.normalize(
            tuple(F(rng.randrange(-9, 10)) for _ in range(degree + 1))
        )
        if polys.is_zero(coeffs):
            continue
        prime = primes[done % 3]
        terms = decompose.decompose_univariate(coeffs, prime)
        report = decompose.verify_prepared(terms, coeffs, prime, 6, zp_cell(prime))
        assert report.passed, (coeffs, prime.p, report.counterexamples)
        done += 1
    assert time.perf_counter() - t0 < 60.0


def _product_term(c, first, second):
    (e0, l0), (e1, l1) = first, second
    vals = tuple(ValFactor(Var(i), l) for i, l in ((0, l0), (1, l1)) if l)
    norms = tuple(NormFactor(Var(i), F(e)) for i, e in ((0, e0), (1, e1)) if e)
    return ConstructibleExpr((CTerm(c, vals, norms),))


def test_criterion_4_product_integrands_commute():
    rng = random.Random(4114)
    for trial in range(10):
        prime = (P2, P3, P5)[trial % 3]
        domain = Cell(zp_cell(prime).conditions * 2)
        u = (rng.randrange(4), rng.randrange(3))
        w = (rng.randrange(4), rng.randrange(3))
        c = F(rng.randrange(1, 7), rng.randrange(1, 5))
        a = integrate.integrate_full(
            _product_term(c, u, w), [domain]
        ).value.constant_value()
        b = integrate.integrate_full(
            _product_term(c, w, u), [domain]
        ).value.constant_value()
        assert a == b
        assert a > 0


def test_criterion_5_divergent_integral_is_zero_with_flag():
    g = parse_constructible("abs(x0)^(-1)")
    ci = integrate.prepare_integrand(g, zp_cell(P3))
    res = integrate.eliminate_last_variable([ci], base_point=[])
    assert res.integrable is False
    assert res.value.constant_value() == 0

    full = integrate.integrate_full(g, [zp_cell(P3)])
    assert full.integrable is False
    assert full.value.constant_value() == 0


def test_criterion_6_progression_sums_against_partial_sums():
    rng = random.Random(1206)
    done = 0
    while done < 50:
        l = rng.randrange(4)
        modulus = rng.randrange(1, 4)
        residue = rng.randrange(modulus)
        k_min = rng.randrange(6)
        num = rng.randrange(-5, 6)
        if num == 0:
            continue
        t = F(num, rng.randrange(6, 10))
        ps = ProgressionSum(l, t, residue, modulus, k_min, INF)
        exact = sum_progression(ps)

        ks = [k for k in range(k_min, 61)
              if (k - residue) % modulus == 0]
        partial = sum(F(k) ** l * t**k for k in ks)
        first_out = ks[-1] + modulus if ks else (
            k_min + (residue - k_min) % modulus
        )
        ratio = F(first_out + modulus, first_out) ** l * abs(t) ** modulus
        assert ratio < 1
        tail = F(first_out) ** l * abs(t) ** first_out / (1 - ratio)
        assert abs(exact - partial) <= tail
        done += 1

    # ratio exactly one: the closed form must switch to power sums
    for l in range(4):
        for k_min, k_max in ((0, 12), (3, 9), (5, 5)):
            ps = ProgressionSum(l, F(1), 0, 1, k_min, k_max)
            brute = sum(F(k) ** l for k in range(k_min, k_max + 1))
            assert sum_progression(ps) == brute


def test_criterion_7_level_densities_against_two_modulus_counts():
    for p in (2, 3, 5):
        for n in (1, 2, 3, 4):
            counted = []
            base = reference_newton_depth(n, p) + 1
            for M in (base, base + 1):
                pM = p**M
                image = {pow(y, n, pM) for y in range(1, pM) if y % p != 0}
                counted.append(F(len(image), pM))
            assert counted[0] == counted[1], (p, n, counted)
            eps = level_set_measure(coset_of(Prime(p), 1, n))
            assert eps == counted[0], (p, n, eps, counted)


def test_criterion_8_simple_sums_against_partial_sums():
    cases = [
        (3, integrate.SimpleFunctionExpr(1, (integrate.SimpleTerm(
            F(1), (1,), (1,), (1,), (INF,)),))),
        (3, integrate.SimpleFunctionExpr(1, (integrate.SimpleTerm(
            F(1), (0,), (2,), (0,), (INF,)),))),
        (2, integrate.SimpleFunctionExpr(1, (integrate.SimpleTerm(
            F(1), (2,), (1,), (3,), (INF,)),))),
        (5, integrate.SimpleFunctionExpr(1, (integrate.SimpleTerm(
            F(-2, 3), (1,), (1,), (0,), (INF,)),))),
        (3, integrate.SimpleFunctionExpr(2, (integrate.SimpleTerm(
            F(1), (1, 0), (1, 2), (0, 1), (2, INF)),))),
    ]
    for q, f in cases:
        assert all(c >= 1 for t in f.terms for c in t.q_coeffs)
        prime = Prime(q)
        reduced = integrate.sum_eliminate_simple(f, prime)
        while reduced.arity > 0:
            reduced = integrate.sum_eliminate_simple(reduced, prime)
        exact = integrate.evaluate_simple(reduced, (), q)

        term = f.terms[0]
        outer = range(term.lower[0], int(term.upper[0]) + 1) \
            if f.arity == 2 else [None]
        partial = F(0)
        worst_tail = F(0)
        for z0 in outer:
            lo = term.lower[-1]
            e, c = term.powers[-1], term.q_coeffs[-1]
            environ = F(1)
            if z0 is not None:
                environ = (F(z0) ** term.powers[0]
                           * F(q) ** (-term.q_coeffs[0] * z0))
            for z in range(lo, lo + 61):
                partial += term.coeff * environ * F(z) ** e * F(q) ** (-c * z)
            z1 = lo + 61
            ratio = F(z1 + 1, z1) ** e * F(1, q**c)
            assert ratio < 1
            worst_tail += (abs(term.coeff) * environ * F(z1) ** e
                           * F(q) ** (-c * z1) / (1 - ratio))
        assert abs(exact - partial) <= worst_tail
