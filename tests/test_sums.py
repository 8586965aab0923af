import random
from fractions import Fraction
from functools import lru_cache
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicells import polys
from padicells.padic import INF, NEG_INF
from padicells.sums import (
    DivergentSumError,
    ProgressionSum,
    reindex_coeffs,
    _faulhaber_ints,
    _window_ints,
    sum_progression,
)

F = Fraction


def brute(s: ProgressionSum, upto: int) -> Fraction:
    hi = upto if s.k_max == INF else min(upto, int(s.k_max))
    total = F(0)
    for k in range(int(s.k_min), hi + 1):
        if k % s.modulus == s.residue:
            total += F(k) ** s.l * s.t**k
    return total


def geometric_tail_bound(s: ProgressionSum, K: int) -> Fraction:
    """Exact bound on the omitted tail after k = K: term ratios decrease,
    so the tail is dominated by a geometric series at the first ratio."""
    t = abs(s.t)
    rho = F(K + 2) ** s.l / F(K + 1) ** s.l * t
    assert rho < 1, "K too small for a clean ratio bound"
    first = F(K + 1) ** s.l * t ** (K + 1)
    return first / (1 - rho)


def test_geometric_example():
    assert sum_progression(ProgressionSum(0, F(1, 3))) == F(3, 2)


def test_weighted_example():
    assert sum_progression(ProgressionSum(1, F(1, 3))) == F(3, 4)


def test_odd_progression_example():
    s = ProgressionSum(0, F(1, 3), residue=1, modulus=2, k_min=1)
    assert sum_progression(s) == F(3, 8)


def test_faulhaber_example():
    assert sum_progression(ProgressionSum(2, F(1), k_min=1, k_max=5)) == 55


def test_divergence_rejected():
    with pytest.raises(DivergentSumError):
        sum_progression(ProgressionSum(0, F(1)))
    with pytest.raises(DivergentSumError):
        sum_progression(ProgressionSum(2, F(-1), k_min=0))
    with pytest.raises(DivergentSumError):
        sum_progression(ProgressionSum(0, F(5, 3), residue=0, modulus=2))


def test_validation():
    with pytest.raises(ValueError):
        ProgressionSum(-1, F(1, 2))
    with pytest.raises(ValueError):
        ProgressionSum(0, F(1, 2), residue=3, modulus=2)
    with pytest.raises(ValueError):
        ProgressionSum(0, F(0))
    with pytest.raises(ValueError):
        ProgressionSum(0, F(1, 2), k_min=float("-inf"))


def test_validation_refuses_non_integral_bounds():
    # int() would truncate 5/2 to 2 and add the k = 2 term to [5/2, 3]
    with pytest.raises(ValueError, match="k_min"):
        ProgressionSum(0, F(1, 2), 0, 1, F(5, 2), 3)
    with pytest.raises(ValueError, match="k_min"):
        ProgressionSum(0, F(1, 2), 0, 1, 2.5, 3)
    with pytest.raises(ValueError, match="k_max"):
        ProgressionSum(0, F(1, 2), 0, 1, 0, F(7, 2))
    with pytest.raises(ValueError, match="k_max"):
        ProgressionSum(0, F(1, 2), 0, 1, 0, 3.5)
    # an integral Fraction is an integer
    assert sum_progression(ProgressionSum(0, F(1, 2), 0, 1, F(3), F(3))) == F(1, 8)


def test_validation_refuses_a_float_ratio():
    with pytest.raises(ValueError, match="ratio"):
        ProgressionSum(0, 0.5)
    assert sum_progression(ProgressionSum(1, 2, k_min=0, k_max=2)) == 10


def test_negative_infinite_k_max_is_empty():
    assert sum_progression(ProgressionSum(2, F(1, 3), k_min=0, k_max=NEG_INF)) == 0
    assert sum_progression(ProgressionSum(0, F(3), 1, 2, -4, NEG_INF)) == 0


def test_random_convergent_instances_match_partial_sums():
    rng = random.Random(42)
    for _ in range(50):
        l = rng.randint(0, 4)
        t = F(rng.choice([1, -1]) * rng.randint(1, 4), rng.randint(5, 9))
        modulus = rng.randint(1, 3)
        s = ProgressionSum(l, t, residue=rng.randrange(modulus), modulus=modulus,
                           k_min=rng.randint(-3, 3))
        K = 60
        assert abs(sum_progression(s) - brute(s, K)) <= geometric_tail_bound(s, K)


def test_finite_ranges_exact():
    rng = random.Random(5)
    for _ in range(40):
        l = rng.randint(0, 3)
        t = F(rng.randint(-7, 7) or 2, rng.randint(1, 6))
        modulus = rng.randint(1, 3)
        k_min = rng.randint(-5, 5)
        s = ProgressionSum(l, t, residue=rng.randrange(modulus), modulus=modulus,
                           k_min=k_min, k_max=k_min + rng.randint(0, 12))
        assert sum_progression(s) == brute(s, 50)


def test_splitting_property():
    rng = random.Random(9)
    for _ in range(20):
        l = rng.randint(0, 3)
        t = F(rng.randint(1, 3), rng.randint(4, 7))
        k_min = rng.randint(-2, 2)
        M = k_min + rng.randint(0, 10)
        whole = sum_progression(ProgressionSum(l, t, k_min=k_min))
        head = sum_progression(ProgressionSum(l, t, k_min=k_min, k_max=M))
        tail = sum_progression(ProgressionSum(l, t, k_min=M + 1))
        assert whole == head + tail


def test_shift_recombination():
    # sum (k+1)^l t^k = (1/t) * sum over shifted k of k^l t^k
    t = F(2, 5)
    for l in range(4):
        lhs = sum(
            F(comb(l, i)) * sum_progression(ProgressionSum(i, t, k_min=0))
            for i in range(l + 1)
        )
        rhs = sum_progression(ProgressionSum(l, t, k_min=1)) / t
        assert lhs == rhs


def test_empty_range_is_zero():
    assert sum_progression(ProgressionSum(3, F(1, 2), k_min=5, k_max=4)) == 0
    s = ProgressionSum(0, F(1, 2), residue=1, modulus=3, k_min=5, k_max=6)
    assert sum_progression(s) == brute(s, 10)


def bernoulli_numbers(n: int) -> list[Fraction]:
    """B_0..B_n with B_1 = +1/2, from sum_{j<=m} C(m+1, j) B_j = m + 1."""
    out: list[Fraction] = []
    for m in range(n + 1):
        rest = sum(comb(m + 1, j) * b for j, b in enumerate(out))
        out.append((m + 1 - rest) / Fraction(m + 1))
    return out


@lru_cache(maxsize=None)
def faulhaber_coeffs(l: int) -> polys.PolyQ:
    """S with S(x) = sum_{j=1..x} j^l, exact for every integer endpoint pair
    via S(b) - S(a-1). The formula needs B_1 = +1/2."""
    coeffs = [Fraction(0)] * (l + 2)
    for k, bk in enumerate(bernoulli_numbers(l)):
        coeffs[l + 1 - k] = Fraction(comb(l + 1, k)) * bk / (l + 1)
    return polys.normalize(tuple(coeffs))


def test_faulhaber_ints_match_the_bernoulli_polynomials():
    # the engine's table counts j = 0, so 0^0 = 1 adds one at i = 0
    for l in range(13):
        den, table = _faulhaber_ints(l)
        assert len(table) == l + 1
        for i, P in enumerate(table):
            want = polys.add(faulhaber_coeffs(i), (F(i == 0),))
            assert polys.normalize(tuple(F(c, den) for c in P)) == want, (l, i)


def test_faulhaber_coeffs_windows():
    for l in range(5):
        S = faulhaber_coeffs(l)
        for a, b in [(-6, 4), (1, 1), (-3, -1), (0, 7)]:
            want = sum(F(j) ** l for j in range(a, b + 1))
            got = polys.evaluate(S, F(b)) - polys.evaluate(S, F(a - 1))
            assert got == want, (l, a, b)


def test_bernoulli_recurrence_matches_sympy():
    sympy = pytest.importorskip("sympy")
    got = bernoulli_numbers(30)
    assert len(got) == 31
    # Faulhaber's formula needs B_1 = +1/2, whatever sign sympy's version uses
    assert got[1] == F(1, 2)
    for k in range(31):
        if k != 1:
            b = sympy.bernoulli(k)
            assert got[k] == F(int(b.p), int(b.q)), k


def window_coeffs(i: int, u: Fraction) -> polys.PolyQ:
    """T with sum_{j=x..y} j^i u^j = u^x*T(x) - u^(y+1)*T(y+1), read from
    the engine's integer window W_i = d^(i+1) T_i, u = a/b, d = b - a."""
    a, b = u.as_integer_ratio()
    den = (b - a) ** (i + 1)
    return polys.normalize(tuple(Fraction(w, den) for w in _window_ints(i, a, b)))


def test_window_coeffs_is_the_window_identity():
    for u in (F(1, 3), F(-2), F(5, 2)):
        for i in range(5):
            T = window_coeffs(i, u)
            for x, y in [(0, 4), (-3, 2), (5, 5)]:
                want = sum(F(j) ** i * u**j for j in range(x, y + 1))
                got = u**x * polys.evaluate(T, F(x)) - u ** (y + 1) * polys.evaluate(T, F(y + 1))
                assert got == want, (u, i, x, y)


def test_power_sum():
    # u = 1 reads the Faulhaber polynomial; the j = 0 term 0^0 counts once
    assert sum_progression(ProgressionSum(0, F(1), k_min=0, k_max=4)) == 5
    assert sum_progression(ProgressionSum(2, F(1), k_min=0, k_max=4)) == 30
    assert sum_progression(ProgressionSum(3, F(1), k_min=0, k_max=-1)) == 0


def test_bounded_sum_outside_unit_interval():
    for u in (F(3), F(-2), F(-1), F(7, 2)):
        for i in range(4):
            direct = sum(F(j) ** i * u**j for j in range(9))
            assert sum_progression(ProgressionSum(i, u, k_min=0, k_max=8)) == direct, (u, i)


def test_window_coeffs_tail_reading():
    # for |u| < 1 the far end u^(y+1) T(y+1) vanishes: sum_{j>=x} = u^x T(x)
    u = F(1, 3)
    for i in range(4):
        T = window_coeffs(i, u)
        for x in (-3, 0, 4):
            approx = sum(F(j) ** i * u**j for j in range(x, 300))
            closed = u**x * polys.evaluate(T, F(x))
            assert abs(closed - approx) < F(1, 10**80)


def test_window_coeffs_two_ended_identity():
    """u^x T(x) - u^(y+1) T(y+1) is the window sum for any u != 1,
    including negative endpoints and ratios outside the unit interval."""
    for u in (F(1, 3), F(3), F(-2), F(5, 2)):
        for i in range(4):
            T = window_coeffs(i, u)
            for x, y in [(0, 6), (-4, 2), (3, 3), (2, 1)]:
                direct = sum(F(j) ** i * u**j for j in range(x, y + 1))
                closed = u**x * polys.evaluate(T, F(x)) - u ** (y + 1) * polys.evaluate(
                    T, F(y + 1)
                )
                assert closed == direct, (u, i, x, y)


def reference_reindex_coeffs(l, c, n):
    return tuple(
        Fraction(comb(l, i)) * Fraction(c) ** (l - i) * Fraction(n) ** i
        for i in range(l + 1)
    )


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.integers(0, 8), st.integers(-20, 20), st.integers(1, 9))
def test_reindex_coeffs_matches_reference(l, c, n):
    got = reindex_coeffs(l, c, n)
    assert got == reference_reindex_coeffs(l, c, n)
    assert all(type(x) is int for x in got)


# The plain Fraction forms of the sums, kept as the reference that the
# integer closed form must match value for value.

@lru_cache(maxsize=None)
def reference_numerators(i: int) -> polys.PolyQ:
    """N_i with sum_{j>=0} j^i u^j = N_i(u) / (1-u)^(i+1)."""
    if i == 0:
        return (Fraction(1),)
    prev = reference_numerators(i - 1)
    one_minus_u = (Fraction(1), Fraction(-1))
    u = (Fraction(0), Fraction(1))
    inner = polys.add(polys.mul(polys.derivative(prev), one_minus_u),
                      polys.scale(prev, Fraction(i)))
    return polys.mul(u, inner)


# Bounded: the ratios u are user rationals. typed, so that an int or float
# u never receives a result computed for an equal Fraction.
@lru_cache(maxsize=1024, typed=True)
def reference_head(i: int, u: Fraction) -> Fraction:
    """N_i(u) / (1-u)^(i+1), the closed form of sum_{j>=0} j^i u^j."""
    return polys.evaluate(reference_numerators(i), u) / (1 - u) ** (i + 1)


@lru_cache(maxsize=1024, typed=True)
def reference_window_coeffs(i: int, u: Fraction) -> polys.PolyQ:
    """T with sum_{j=x..y} j^i u^j = u^x*T(x) - u^(y+1)*T(y+1), any u != 1.

    The identity is between rational functions of u, so it needs no
    convergence; only the one-sided tail reading requires |u| < 1."""
    if u == 1:
        raise ValueError("u = 1 follows the Faulhaber route instead")
    return polys.normalize(tuple(
        Fraction(comb(i, m)) * reference_head(m, u) for m in range(i, -1, -1)
    ))


def reference_sum_to(i: int, u: Fraction, J: int | float) -> Fraction:
    """sum_{j=0..J} j^i u^j for J >= 0; J = INF needs |u| < 1."""
    if u == 1:
        # S(J) - S(-1), where S(-1) = -0^i
        return polys.evaluate(faulhaber_coeffs(i), Fraction(J)) + (i == 0)
    T = reference_window_coeffs(i, u)  # u^0 T(0) = T[0]
    if J == INF:
        return T[0]
    return T[0] - u ** (J + 1) * polys.evaluate(T, Fraction(J + 1))


def reference_sum_progression(s: ProgressionSum) -> Fraction:
    """Exact value of the progression sum; DivergentSumError when the
    range is infinite and |t|^modulus >= 1."""
    k_min = int(s.k_min)
    k0 = k_min + (s.residue - k_min) % s.modulus
    if s.k_max != INF and k0 > s.k_max:
        return Fraction(0)
    J: int | float = INF if s.k_max == INF else (int(s.k_max) - k0) // s.modulus
    u = s.t**s.modulus
    if J == INF and not abs(u) < 1:
        raise DivergentSumError(
            f"sum over an unbounded range with ratio {s.t}^{s.modulus}"
        )
    total = Fraction(0)
    for i, coeff in enumerate(reindex_coeffs(s.l, k0, s.modulus)):
        if coeff != 0:
            total += coeff * reference_sum_to(i, u, J)
    return s.t**k0 * total


def _sum_outcome(evaluate, s):
    try:
        value = evaluate(s)
    except DivergentSumError as exc:
        return DivergentSumError, str(exc)
    assert type(value) is Fraction
    return value


_FRACTIONS = st.builds(lambda sign, a, b: F(sign * a, b),
                       st.sampled_from((1, -1)), st.integers(1, 9), st.integers(1, 9))
# u = 1 for t = 1, and for t = -1 at even moduli
RATIOS = st.one_of(_FRACTIONS, _FRACTIONS, st.sampled_from((F(1), F(-1))))


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(st.integers(0, 5), RATIOS, st.integers(1, 3), st.integers(-4, 6), st.integers(-3, 25))
def test_sum_progression_matches_reference(l, t, modulus, k_min, width):
    # a bounded range may have |t| >= 1, for which the unbounded one raises
    for k_max in (k_min + width, INF):
        for residue in range(modulus):
            s = ProgressionSum(l, t, residue, modulus, k_min, k_max)
            assert _sum_outcome(sum_progression, s) == \
                _sum_outcome(reference_sum_progression, s)


def test_window_coeffs_match_reference_at_prime_power_ratios():
    # the ratios that _window_expr passes: q^-k and, reflected, q^k
    for p in (2, 3, 5):
        for k in range(1, 7):
            for u in (F(1, p**k), F(p**k)):
                for i in range(6):
                    got = window_coeffs(i, u)
                    assert got == reference_window_coeffs(i, u), (i, u)
                    assert all(type(c) is Fraction for c in got)
