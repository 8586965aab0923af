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

import functools
from dataclasses import dataclass
from fractions import Fraction

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


def hensel_power_depth(n: int, p: int) -> int:
    """Modulus exponent D with: a unit u is an n-th power iff some unit w
    has w^n = u mod p^D. D = 2*v_p(n) + 1 suffices (Newton condition
    v(w^n - u) > 2*v(n*w^(n-1)) holds for any witness mod p^D)."""
    return 2 * int_valuation(n, p) + 1


@functools.lru_cache(maxsize=None)
def nth_power_unit_residues(p: int, n: int, modulus_exp: int) -> frozenset[int]:
    """Residues mod p^modulus_exp hit by u -> u^n on units."""
    m = p**modulus_exp
    return frozenset(pow(w, n, m) for w in range(1, m) if w % p != 0)


@functools.lru_cache(maxsize=None)
def _nth_power_witnesses(p: int, n: int, modulus_exp: int) -> dict[int, int]:
    """One n-th root witness per hit residue class."""
    m = p**modulus_exp
    out: dict[int, int] = {}
    for w in range(1, m):
        if w % p != 0:
            out.setdefault(pow(w, n, m), w)
    return out


@functools.lru_cache(maxsize=1 << 14)
def _self_check_witness(p: int, n: int, depth: int, target: int) -> None:
    """Lift the root witness of the unit residue target mod p^(depth+2)
    two digits deeper. Failure would mean the depth bound is wrong, so
    abort loudly rather than return a silent wrong answer. Cached, since
    the check depends only on its arguments; a failure is never cached."""
    e = int_valuation(n, p)
    m2 = p ** (depth + 2)
    witness = _nth_power_witnesses(p, n, depth)[target % p**depth]
    step = p ** (depth - e)
    base = witness % step
    for i in range(p ** (e + 2)):
        w2 = base + i * step
        if w2 % p != 0 and pow(w2, n, m2) == target:
            return
    raise RuntimeError(
        f"power-coset self-check failed lifting witness {witness} for p={p}, n={n}"
    )


def in_coset(x: PAdicScalar, coset: Coset) -> bool:
    """Exact membership of x in the coset.

    The unit n-th power test works modulo p^depth with the Hensel-sufficient
    depth 2*v_p(n) + 1. Positive answers for n > 1 are re-checked by
    lifting a root witness two digits deeper, once per unit residue mod
    p^(depth+2).
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
    depth = hensel_power_depth(n, p)
    # x / mu = num / den in ints (den may be negative). With the powers of
    # p divided out of both, what is left is a unit, and its residue mod
    # p^(depth+2) is num * den^-1.
    a, b = x.value.as_integer_ratio()
    c, d = coset.mu.value.as_integer_ratio()
    num, den = a * d, b * c
    vn, vd = int_valuation(num, p), int_valuation(den, p)
    if (vn - vd) % n != 0:
        return False
    m = p ** (depth + 2)
    target = num // p**vn * pow(den // p**vd, -1, m) % m
    if target % p**depth not in nth_power_unit_residues(p, n, depth):
        return False
    _self_check_witness(p, n, depth, target)
    return True


def coset_representatives(p: int, n: int) -> list[Fraction]:
    """Representatives of Q_p^x modulo n-th powers, deterministic order.

    The returned set {p^j * u} has one u per unit class; the cosets they
    generate partition Q_p^x.
    """
    depth = hensel_power_depth(n, p)
    m = p**depth
    image = nth_power_unit_residues(p, n, depth)
    unit_reps: list[int] = []
    covered: set[int] = set()
    for u in range(1, m):
        if u % p == 0 or u in covered:
            continue
        unit_reps.append(u)
        covered.update((u * s) % m for s in image)
    return [Fraction(p) ** j * u for j in range(n) for u in unit_reps]
