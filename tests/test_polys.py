from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicells import polys

F = Fraction


def test_normalize_strips_zeros():
    assert polys.normalize((F(1), F(0), F(0))) == (F(1),)
    assert polys.normalize((F(0),)) == ()
    assert polys.degree(()) == -1
    assert polys.degree((F(0), F(2))) == 1


def test_arithmetic():
    f = polys.poly_from([1, 2])       # 1 + 2x
    g = polys.poly_from([-1, 0, 3])   # -1 + 3x^2
    assert polys.add(f, g) == (F(0), F(2), F(3))
    assert polys.mul(f, g) == (F(-1), F(-2), F(3), F(6))
    assert polys.evaluate(polys.mul(f, g), F(2)) == polys.evaluate(
        f, F(2)
    ) * polys.evaluate(g, F(2))


def test_pow_and_derivative():
    f = polys.poly_from([1, 1])
    assert polys.pow_int(f, 3) == (F(1), F(3), F(3), F(1))
    assert polys.derivative(polys.poly_from([5, 0, 4, 2])) == (F(0), F(8), F(6))


def test_taylor_shift():
    f = polys.poly_from([0, 0, 1])  # x^2
    shifted = polys.taylor_shift(f, F(3))  # (x+3)^2
    assert shifted == (F(9), F(6), F(1))
    for x in (F(0), F(-3), F(7, 2)):
        assert polys.evaluate(shifted, x) == polys.evaluate(f, x + 3)


def test_integerize():
    f = polys.poly_from([F(3, 4), F(0), F(5, 6)])
    ints, scale = polys.integerize(f)
    assert scale * polys.evaluate(tuple(map(F, ints)), F(2)) == polys.evaluate(f, F(2))
    assert gcd(*[abs(c) for c in ints if c]) == 1


def test_evaluate_int_matches():
    f = polys.poly_from([2, -7, 0, 1])
    ints, scale = polys.integerize(f)
    for x in (-3, 0, 11):
        assert scale * polys.evaluate_int(ints, x) == polys.evaluate(f, F(x))


# ---------------------------------------------------------------------------
# references: evaluate and taylor_shift as they were in Fraction
# arithmetic, one Fraction operation per step, kept verbatim. The integer
# versions over one common denominator must give the same values.

def reference_evaluate(f, x):
    acc = Fraction(0)
    for c in reversed(f):
        acc = acc * x + c
    return acc


def reference_taylor_shift(f, c):
    n = len(f)
    out = [Fraction(0)] * n
    for i, a in enumerate(f):
        if a == 0:
            continue
        # a * (x + c)^i
        ci = Fraction(1)
        for k in range(i, -1, -1):
            out[k] += a * comb(i, k) * ci
            ci *= c
    return polys.normalize(tuple(out))


# denominators divisible by p = 2, 3, 5 and by none of them
DENOMINATORS = [1, 2, 3, 4, 5, 7, 8, 9, 12, 25, 27, 45]
rationals = st.builds(F, st.integers(-40, 40), st.sampled_from(DENOMINATORS))
points = st.integers(-30, 30) | rationals


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(st.lists(rationals, max_size=7).map(polys.poly_from), points)
def test_evaluate_and_shift_match_reference(f, x):
    ints, scale = polys.integerize(f)
    assert tuple(scale * c for c in ints) == f
    assert gcd(*ints) in (0, 1) and scale > 0
    got = polys.evaluate(f, x)
    assert type(got) is Fraction and got == reference_evaluate(f, x)
    shifted = polys.taylor_shift(f, x)
    assert shifted == reference_taylor_shift(f, x)
    assert all(type(c) is Fraction for c in shifted)


def test_evaluate_reads_a_float_exactly():
    f = polys.poly_from([F(1, 3), 0, 1])
    assert polys.evaluate(f, 0.5) == F(1, 3) + F(1, 4)
    assert polys.evaluate(f, 0.1) == F(1, 3) + F(0.1) ** 2


def residue_scan(f, p):
    return any(polys.evaluate_int(tuple(f), r) % p == 0 for r in range(p))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.sampled_from([2, 3, 5, 7, 11, 13]), st.lists(st.integers(-40, 40), max_size=8))
def test_has_root_mod_p_matches_a_residue_scan(p, f):
    assert polys.has_root_mod_p(tuple(f), p) == residue_scan(f, p)


@pytest.mark.parametrize("f, p, want", [
    # p divides the leading coefficient: the degree drops mod p
    ((1, 1, 3), 3, True),
    ((1, 0, 1, 3), 3, False),
    ((2, 0, 1, 5), 5, False),
    ((3, 0, 1, 7, 14), 7, True),
    # f mod p is a nonzero constant, or zero
    ((1, 5, 5), 5, False),
    ((3, 4, 0, 2), 2, False),
    ((-1, 3), 3, False),
    ((5, 10), 5, True),
    ((), 7, True),
    # repeated roots, and repeated factors without a root
    ((1, -2, 1), 3, True),
    ((0, 0, 0, 1), 7, True),
    ((1, 0, 2, 0, 1), 3, False),
    ((1, 2, 3, 2, 1), 2, False),
    ((4, -12, 13, -6, 1), 13, True),
    ((-1, 0, 2, 0, -1, 0, 0, 0, 0, 11), 11, True),
])
def test_has_root_mod_p_edge_cases(f, p, want):
    assert polys.has_root_mod_p(f, p) == residue_scan(f, p) == want
