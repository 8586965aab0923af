from fractions import Fraction

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
    from math import gcd

    assert gcd(*[abs(c) for c in ints if c]) == 1


def test_evaluate_int_matches():
    f = polys.poly_from([2, -7, 0, 1])
    ints, scale = polys.integerize(f)
    for x in (-3, 0, 11):
        assert scale * polys.evaluate_int(ints, x) == polys.evaluate(f, F(x))
