from fractions import Fraction

import pytest

from padicells import padic
from padicells.padic import (
    INF,
    Coset,
    PAdicScalar,
    Prime,
    coset_representatives,
    in_coset,
    int_valuation,
    rational_valuation,
    scalar,
    unit_class_count,
    unit_digits,
)

P2, P3, P5 = Prime(2), Prime(3), Prime(5)


def reference_newton_depth(n: int, p: int) -> int:
    """A depth D whose unit digits mod p^D decide n-th power membership,
    independent of unit_digits: any witness w mod p^D with w^n = u meets
    Newton's condition v(w^n - u) > 2*v(n*w^(n-1)), so D = 2*v_p(n) + 1
    suffices, though it is not the least such depth."""
    return 2 * int_valuation(n, p) + 1


def test_prime_checked():
    with pytest.raises(ValueError):
        Prime(6)
    for bad in (3.0, True, "3", Fraction(3)):
        with pytest.raises(ValueError):
            Prime(bad)


def test_is_prime_matches_sympy():
    sympy = pytest.importorskip("sympy")
    assert [n for n in range(-3, 4000) if padic.is_prime(n)] == \
        [n for n in range(-3, 4000) if sympy.isprime(n)]
    # Carmichael numbers, strong pseudoprimes to several prime bases, and
    # large numbers just below the deterministic limit
    cases = [561, 41041, 3215031751, 3825123056546413051,
             318665857834031151167461, 2**61 - 1, padic._MR_LIMIT - 2]
    for n in cases:
        assert padic.is_prime(n) == sympy.isprime(n), n
    # at and above the limit primality is refused, not guessed
    for n in (padic._MR_LIMIT, 2**89 - 1, 2**127 - 1):
        with pytest.raises(ValueError, match=str(padic._MR_LIMIT)):
            padic.is_prime(n)


def test_valuation_examples():
    assert scalar(Fraction(9, 2), P3).valuation == 2
    assert scalar(0, P3).valuation == INF
    assert scalar(Fraction(7, 25), P5).valuation == -2


def test_valuation_is_additive_and_ultrametric():
    samples = [Fraction(n, d) for n in (-9, -4, 1, 2, 6, 27) for d in (1, 2, 5, 9)]
    for x in samples:
        for y in samples:
            vx, vy = rational_valuation(x, 3), rational_valuation(y, 3)
            assert rational_valuation(x * y, 3) == vx + vy
            vs = rational_valuation(x + y, 3)
            assert vs >= min(vx, vy)
            if vx != vy:
                assert vs == min(vx, vy)


def test_in_coset_examples():
    c = Coset(scalar(1, P3), 2)
    assert in_coset(scalar(1, P3), c) is True
    assert in_coset(scalar(3, P3), c) is False
    assert in_coset(scalar(-1, P3), c) is False


def test_in_coset_zero_cases():
    zero_coset = Coset(scalar(0, P3), 4)
    assert in_coset(scalar(0, P3), zero_coset) is True
    assert in_coset(scalar(1, P3), zero_coset) is False
    assert in_coset(scalar(0, P3), Coset(scalar(1, P3), 2)) is False


def test_in_coset_p1_is_everything():
    for x in (1, -5, Fraction(7, 9), 81, Fraction(1, 2), 3**40 + 1):
        assert in_coset(scalar(x, P3), Coset(scalar(5, P3), 1)) is True
    assert in_coset(scalar(0, P3), Coset(scalar(5, P3), 1)) is False


def brute_in_power_class(x: Fraction, p: int, n: int) -> bool:
    v = rational_valuation(x, p)
    if v % n != 0:
        return False
    unit = x * Fraction(p) ** (-v)
    exp = reference_newton_depth(n, p) + abs(int(v))
    m = p**exp
    target = (unit.numerator * pow(unit.denominator, -1, m)) % m
    return any(pow(w, n, m) == target for w in range(1, m) if w % p != 0)


def test_in_coset_matches_bruteforce():
    rationals = [
        Fraction(a, b)
        for a in (-8, -3, -1, 1, 2, 5, 9, 20)
        for b in (1, 3, 4, 25)
    ]
    for p in (2, 3, 5):
        prime = Prime(p)
        for n in (1, 2, 3, 4):
            c = Coset(scalar(1, prime), n)
            for x in rationals:
                if abs(rational_valuation(x, p)) > 6:
                    continue
                assert in_coset(scalar(x, prime), c) == brute_in_power_class(x, p, n), (
                    p,
                    n,
                    x,
                )


def test_rational_valuation_of_ints():
    for p in (2, 3, 5):
        for x in (-50, -9, -1, 1, 2, 12, 75, 3**20 * 2**7):
            assert rational_valuation(x, p) == rational_valuation(Fraction(x), p)
        assert rational_valuation(0, p) == INF


def reference_int_valuation(n, p):
    """int_valuation as it was: one division by p per digit."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite; handle separately")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
def test_int_valuation_matches_the_digit_loop(p):
    units = [1, -1, p - 1, -(p + 1), 2 * p + 1, 10**40 + 1]
    ks = list(range(70)) + [127, 128, 129, 255, 256, 1000, 1023, 1024, 2047, 3000]
    for k in ks:
        for u in units:
            assert u % p
            n = p**k * u
            assert int_valuation(n, p) == reference_int_valuation(n, p) == k, (k, u)
    with pytest.raises(ValueError):
        int_valuation(0, p)


def test_in_coset_off_unit_mu_and_at_int_values():
    # x in mu * P_n iff x / mu is an n-th power class member; an int x
    # and the same value as a Fraction get the same answer
    for p in (2, 3, 5):
        prime = Prime(p)
        for n in (2, 3, 4):
            for mu in coset_representatives(p, n)[:4] + [Fraction(-3, 4), Fraction(10, 9)]:
                c = Coset(scalar(mu, prime), n)
                for x in (-12, -1, 1, 2, 3, 7, 9, 16, 18, 50, 81, 1000):
                    want = brute_in_power_class(Fraction(x) / mu, p, n)
                    assert in_coset(PAdicScalar(x, prime), c) is want, (p, n, mu, x)
                    assert in_coset(scalar(x, prime), c) is want, (p, n, mu, x)


def test_cached_in_coset_matches_bruteforce_on_every_unit():
    # every unit residue mod p^(depth+2), twice: an answer does not depend
    # on the calls before it
    for p in (2, 3, 5):
        prime = Prime(p)
        for n in (1, 2, 3, 4):
            c = Coset(scalar(1, prime), n)
            units = [u for u in range(1, p ** (reference_newton_depth(n, p) + 2)) if u % p]
            want = [brute_in_power_class(Fraction(u), p, n) for u in units]
            for _ in range(2):
                assert [in_coset(scalar(u, prime), c) for u in units] == want, (p, n)


# The residue tables that in_coset read before its closed form, kept as the
# reference it must match: the n-th powers of the units mod p^depth at the
# Newton depth, and a root witness of each hit lifted two digits deeper.

def reference_nth_power_unit_residues(p: int, n: int, modulus_exp: int) -> frozenset[int]:
    """Residues mod p^modulus_exp hit by u -> u^n on units."""
    m = p**modulus_exp
    return frozenset(pow(w, n, m) for w in range(1, m) if w % p != 0)


def reference_nth_power_witnesses(p: int, n: int, modulus_exp: int) -> dict[int, int]:
    """One n-th root witness per hit residue class."""
    m = p**modulus_exp
    out: dict[int, int] = {}
    for w in range(1, m):
        if w % p != 0:
            out.setdefault(pow(w, n, m), w)
    return out


def reference_lift_witness(p: int, n: int, witnesses: dict[int, int], target: int) -> bool:
    """Whether the root witness of the unit residue target mod p^(depth+2)
    lifts two digits deeper, witnesses being those mod p^depth."""
    depth = reference_newton_depth(n, p)
    e = int_valuation(n, p)
    m2 = p ** (depth + 2)
    witness = witnesses[target % p**depth]
    step = p ** (depth - e)
    base = witness % step
    return any(
        w2 % p != 0 and pow(w2, n, m2) == target
        for w2 in (base + i * step for i in range(p ** (e + 2)))
    )


def reference_coset_representatives(p: int, n: int) -> list[Fraction]:
    """The greedy cover: each unit mod p^depth, ascending, that no earlier
    representative's class covers."""
    depth = reference_newton_depth(n, p)
    m = p**depth
    image = reference_nth_power_unit_residues(p, n, depth)
    unit_reps: list[int] = []
    covered: set[int] = set()
    for u in range(1, m):
        if u % p == 0 or u in covered:
            continue
        unit_reps.append(u)
        covered.update((u * s) % m for s in image)
    return [Fraction(p) ** j * u for j in range(n) for u in unit_reps]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_in_coset_matches_the_residue_tables(p):
    # every unit mod p^(depth+2) for n <= 16; the largest modulus is 7^5
    prime = Prime(p)
    for n in range(1, 17):
        depth = reference_newton_depth(n, p)
        assert p ** (depth + 2) < 10**5
        table = reference_nth_power_unit_residues(p, n, depth)
        witnesses = reference_nth_power_witnesses(p, n, depth)
        # [U : U^n] units mod p^depth share each n-th power residue
        assert unit_class_count(p, n) * len(table) == (p - 1) * p ** (depth - 1), (p, n)
        c = Coset(scalar(1, prime), n)
        for u in range(1, p ** (depth + 2)):
            if u % p:
                want = u % p**depth in table
                assert not want or reference_lift_witness(p, n, witnesses, u), (p, n, u)
                assert in_coset(PAdicScalar(u, prime), c) is want, (p, n, u)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_coset_representatives_match_the_greedy_cover(p):
    for n in range(1, 37):
        assert coset_representatives(p, n) == reference_coset_representatives(p, n), (p, n)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_unit_digits_decide_membership_and_are_least(p):
    # against the residue tables at the Newton depth: units congruent mod
    # p^D are n-th powers together, in_coset reads them so, and where p
    # divides n two units congruent mod p^(D-1) differ
    prime = Prime(p)
    for n in range(1, 37):
        D = unit_digits(n, p)
        depth = reference_newton_depth(n, p)
        assert 1 <= D <= depth, (p, n)
        table = reference_nth_power_unit_residues(p, n, depth)
        c = Coset(scalar(1, prime), n)
        answers: dict[int, bool] = {}
        for u in range(1, p**depth):
            if u % p:
                want = u in table
                assert answers.setdefault(u % p**D, want) is want, (p, n, u)
                assert in_coset(PAdicScalar(u, prime), c) is want, (p, n, u)
        if n % p == 0:
            coarser: dict[int, set[bool]] = {}
            for r, want in answers.items():
                coarser.setdefault(r % p ** (D - 1), set()).add(want)
            assert any(len(seen) == 2 for seen in coarser.values()), (p, n)


def test_in_coset_at_huge_n():
    # the closed form reads unit_digits(n, p) digits of the unit, so n = 2^40 costs
    # what n = 2 does; a table mod p^(2 v_p(n) + 1) would not fit in memory
    c = Coset(scalar(1, P2), 2**40)
    assert in_coset(scalar(1 + 2**42, P2), c)
    assert not in_coset(scalar(1 + 2**41, P2), c)
    assert not in_coset(scalar(-1, P2), c)
    assert not in_coset(scalar(2, P2), c)
    c = Coset(scalar(1, P3), 3**30)
    assert in_coset(scalar(1 + 3**31, P3), c)
    assert in_coset(scalar(-1, P3), c)  # -1 = (-1)^n for odd n
    assert not in_coset(scalar(1 + 3**30, P3), c)
    assert not in_coset(scalar(3, P3), c)
    assert unit_class_count(2, 2**40) == 2**41
    assert unit_class_count(3, 3**30) == 3**30


def test_power_residue_counts():
    # squares of units mod 8: exactly {1}
    assert reference_nth_power_unit_residues(2, 2, 3) == frozenset({1})
    # cubes of units mod 27 hit 6 classes
    assert len(reference_nth_power_unit_residues(3, 3, 3)) == 6


def test_coset_representatives_partition():
    for p in (2, 3, 5):
        prime = Prime(p)
        for n in (1, 2, 3, 4):
            reps = coset_representatives(p, n)
            cosets = [Coset(scalar(mu, prime), n) for mu in reps]
            probe = [
                Fraction(a) * Fraction(p) ** e
                for a in range(1, 2 * p**2)
                if a % p
                for e in (-1, 0, 1, 2)
            ]
            for x in probe:
                hits = sum(in_coset(scalar(x, prime), c) for c in cosets)
                assert hits == 1, (p, n, x)


def test_scalar_arithmetic_exact():
    a = scalar(Fraction(2, 3), P5)
    b = scalar(Fraction(1, 6), P5)
    assert (a + b).value == Fraction(5, 6)
    assert (a * b).value == Fraction(1, 9)
    assert (a / b).value == 4
    assert (-a).value == Fraction(-2, 3)
    with pytest.raises(ZeroDivisionError):
        a / scalar(0, P5)
    with pytest.raises(ValueError):
        a + scalar(1, P3)
