"""Exact p-adic arithmetic on rationals: valuations, norms, power cosets.

Every quantity is exact: a `fractions.Fraction`, or a Python int where
the oracle's integer box lifts flow in. `rational_valuation` takes an int
as it is, and `in_coset` works on the numerators and denominators of x
and mu as ints, so an int value never becomes a Fraction here. Nothing
in this module rounds.
Approximation lives elsewhere (restricted-series evaluation and the
enumeration oracle), and is always reported with an explicit bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

# Valuation of zero. Absorbing under addition, greater than every integer.
INF = float("inf")
# Below every integer: an unbounded-below valuation window, or a precision
# that certifies nothing.
NEG_INF = float("-inf")


def int_valuation(n: int, p: int) -> int:
    """Multiplicity of p in a nonzero integer.

    Each round divides by the largest p^(2^j) that divides n, found by
    squaring, so v = t costs O(log(t)^2) big-number operations, not t."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite; handle separately")
    if n % p:
        return 0
    if p == 2:
        return (n & -n).bit_length() - 1
    n, v = n // p, 1
    while n % p == 0:
        pk, k = p, 1
        while n % (pk * pk) == 0:
            pk, k = pk * pk, 2 * k
        n //= pk
        v += k
    return v


def rational_valuation(x: int | Fraction, p: int) -> int | float:
    """p-adic valuation of an int or a rational, INF for zero."""
    if x == 0:
        return INF
    if type(x) is int:
        return int_valuation(x, p)
    return int_valuation(x.numerator, p) - int_valuation(x.denominator, p)


# Miller-Rabin with the first 13 primes as bases decides every n below
# _MR_LIMIT, the least strong pseudoprime to all of them (Sorenson and
# Webster).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic primality below _MR_LIMIT; larger n are refused."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"{n!r} is not an integer")
    if n >= _MR_LIMIT:
        raise ValueError(
            f"{n} is too large: primality is decided only below {_MR_LIMIT}"
        )
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Prime:
    """A checked prime p."""

    p: int

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"not a prime: {self.p}")


@dataclass(frozen=True)
class PAdicScalar:
    """An exact rational viewed inside Q_p.

    Arithmetic is plain rational arithmetic; the prime tag only controls
    how valuations are read off.
    """

    value: Fraction
    prime: Prime

    def _check(self, other: "PAdicScalar") -> None:
        if self.prime != other.prime:
            raise ValueError("mixed primes in scalar arithmetic")

    def __add__(self, other: "PAdicScalar") -> "PAdicScalar":
        self._check(other)
        return PAdicScalar(self.value + other.value, self.prime)

    def __sub__(self, other: "PAdicScalar") -> "PAdicScalar":
        self._check(other)
        return PAdicScalar(self.value - other.value, self.prime)

    def __mul__(self, other: "PAdicScalar") -> "PAdicScalar":
        self._check(other)
        return PAdicScalar(self.value * other.value, self.prime)

    def __truediv__(self, other: "PAdicScalar") -> "PAdicScalar":
        self._check(other)
        if other.value == 0:
            raise ZeroDivisionError("division by the zero scalar")
        return PAdicScalar(self.value / other.value, self.prime)

    def __neg__(self) -> "PAdicScalar":
        return PAdicScalar(-self.value, self.prime)

    def is_zero(self) -> bool:
        return self.value == 0

    @property
    def valuation(self) -> int | float:
        return rational_valuation(self.value, self.prime.p)


def scalar(x: int | str | Fraction, prime: Prime) -> PAdicScalar:
    return PAdicScalar(Fraction(x), prime)


@dataclass(frozen=True)
class Coset:
    """The multiplicative coset mu * (Q_p^x)^n, or the singleton {0} when mu = 0.

    mu is a constant scalar, n >= 1 the power. Membership of nonzero x
    requires v(x) = v(mu) mod n together with the unit parts differing by
    an n-th power unit.
    """

    mu: PAdicScalar
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("coset power must be >= 1")

    @property
    def prime(self) -> Prime:
        return self.mu.prime

    def is_zero(self) -> bool:
        return self.mu.is_zero()


# The units U of Z_p are mu x U_1: mu the roots of unity (order p - 1, or
# +-1 for p = 2) and U_1 = 1 + pZ_p (1 + 4Z_2 for p = 2), a copy of Z_p
# (Serre, A Course in Arithmetic, ch. II 3). With k = v_p(n), the n-th
# powers are U^n = mu^g x U_(k+1) for odd p, g = gcd(n, p - 1), and
# U_(k+2) for p = 2 and even n; every unit is an n-th power for p = 2 and
# odd n. So [U : U^n] = gcd(n, p - 1 or 2) * p^k.


def unit_digits(n: int, p: int) -> int:
    """D, the number of unit digits that decide n-th power membership: units
    congruent mod p^D are n-th powers together. D = v_p(n) + 1 for odd p,
    v_p(n) + 2 for p = 2 and even n, and 1 for p = 2 and odd n; it is the
    least such count whenever p divides n, and never 0."""
    k = int_valuation(n, p)
    return k + 1 if p > 2 or not k else k + 2


def unit_class_count(p: int, n: int) -> int:
    """The index [U : U^n] of the n-th powers among the units of Z_p."""
    return gcd(n, p - 1 if p > 2 else 2) * p ** int_valuation(n, p)


def _unit_class(u: int, n: int, p: int, m: int) -> int | tuple[int, int]:
    """The image of the unit u under a homomorphism U -> finite group whose
    kernel is U^n: units u, w lie in one class of U / U^n iff their
    classes are equal. Reads u mod m = p^unit_digits(n, p). The class of
    1, the identity, is 1 for p = 2 and (1, 1) for odd p."""
    if p == 2:
        return u % m
    return pow(u, (p - 1) // gcd(n, p - 1), p), pow(u, p - 1, m)


def in_coset(x: PAdicScalar, coset: Coset) -> bool:
    """Exact membership of x in the coset.

    x is in mu*P_n iff v(x/mu) = 0 mod n and the unit part of x/mu is an
    n-th power, which _unit_class decides from its residue mod
    p^unit_digits(n, p).
    """
    if coset.is_zero():
        return x.is_zero()
    if x.is_zero():
        return False
    x._check(coset.mu)
    n = coset.n
    if n == 1:
        return True  # every nonzero x is a first power times mu
    p = coset.prime.p
    # x / mu = num / den in ints (den may be negative). With the powers of
    # p divided out of both, what is left is a unit, and its residue mod
    # p^unit_digits(n, p) is num * den^-1.
    a, b = x.value.as_integer_ratio()
    c, d = coset.mu.value.as_integer_ratio()
    num, den = a * d, b * c
    vn, vd = int_valuation(num, p), int_valuation(den, p)
    if (vn - vd) % n != 0:
        return False
    m = p ** unit_digits(n, p)
    unit = num // p**vn * pow(den // p**vd, -1, m) % m
    return _unit_class(unit, n, p, m) == (1 if p == 2 else (1, 1))


def coset_representatives(p: int, n: int) -> list[Fraction]:
    """Representatives of Q_p^x modulo n-th powers, deterministic order.

    The returned set {p^j * u} has one u per unit class, the least positive
    one; the cosets they generate partition Q_p^x. Every class is a union
    of unit residues mod p^unit_digits(n, p), so it has a unit below that
    modulus, and the scan stops at the last new class.
    """
    count = unit_class_count(p, n)
    m = p ** unit_digits(n, p)
    unit_reps: dict[int | tuple[int, int], int] = {}  # class -> least unit in it
    for u in range(1, m):
        if u % p:
            unit_reps.setdefault(_unit_class(u, n, p, m), u)
            if len(unit_reps) == count:
                break
    return [Fraction(p) ** j * u for j in range(n) for u in unit_reps.values()]
