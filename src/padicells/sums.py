"""Closed forms for progression sums  sum k^l t^k  over k = r mod n.

The substitution k = k0 + n*j turns every instance into combinations of
S_i(u, J) = sum_{j=0..J} j^i u^j with u = t^n. Those come from repeated
application of u*d/du to the geometric series: S_i over all j >= 0 is
N_i(u)/(1-u)^(i+1) with polynomial numerators N_i. Every window, finite
or a tail, is read off one polynomial: window_coeffs for u != 1 and the
Faulhaber polynomials for u = 1. Everything is exact rational
arithmetic; convergence of infinite ranges means |u| < 1 as a real
number and is decided exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

from . import polys
from .padic import INF, NEG_INF


class DivergentSumError(ArithmeticError):
    """Infinite range with ratio not inside the unit interval."""


@dataclass(frozen=True)
class ProgressionSum:
    """sum of k^l * t^k over k_min <= k <= k_max with k = residue mod modulus."""

    l: int
    t: Fraction
    residue: int = 0
    modulus: int = 1
    k_min: int = 0
    k_max: int | float = INF

    def __post_init__(self) -> None:
        if self.l < 0:
            raise ValueError("the power l must be >= 0")
        if self.modulus < 1:
            raise ValueError("modulus must be >= 1")
        if not 0 <= self.residue < self.modulus:
            raise ValueError("residue outside 0..modulus-1")
        if self.k_min == NEG_INF or self.k_min == INF:
            raise ValueError("k_min must be a finite integer")
        if self.t == 0:
            raise ValueError("zero ratio")


@lru_cache(maxsize=None)
def _numerators(i: int) -> polys.PolyQ:
    """N_i with sum_{j>=0} j^i u^j = N_i(u) / (1-u)^(i+1)."""
    if i == 0:
        return (Fraction(1),)
    prev = _numerators(i - 1)
    one_minus_u = (Fraction(1), Fraction(-1))
    u = (Fraction(0), Fraction(1))
    inner = polys.add(polys.mul(polys.derivative(prev), one_minus_u),
                      polys.scale(prev, Fraction(i)))
    return polys.mul(u, inner)


# Bounded: the ratios u are user rationals. typed, so that an int or float
# u never receives a result computed for an equal Fraction.
@lru_cache(maxsize=1024, typed=True)
def _head(i: int, u: Fraction) -> Fraction:
    """N_i(u) / (1-u)^(i+1), the closed form of sum_{j>=0} j^i u^j."""
    return polys.evaluate(_numerators(i), u) / (1 - u) ** (i + 1)


@lru_cache(maxsize=1024, typed=True)
def window_coeffs(i: int, u: Fraction) -> polys.PolyQ:
    """T with sum_{j=x..y} j^i u^j = u^x*T(x) - u^(y+1)*T(y+1), any u != 1.

    The identity is between rational functions of u, so it needs no
    convergence; only the one-sided tail reading requires |u| < 1."""
    if u == 1:
        raise ValueError("u = 1 follows the Faulhaber route instead")
    return polys.normalize(tuple(
        Fraction(comb(i, m)) * _head(m, u) for m in range(i, -1, -1)
    ))


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


def reindex_coeffs(l: int, c: int, n: int) -> tuple[int, ...]:
    """(c + n*j)^l as integer coefficients in j: a sum of k^l over
    k = c + n*j is sum_i coeff_i * (the sum of j^i)."""
    return tuple(comb(l, i) * c ** (l - i) * n**i for i in range(l + 1))


def _sum_to(i: int, u: Fraction, J: int | float) -> Fraction:
    """sum_{j=0..J} j^i u^j for J >= 0; J = INF needs |u| < 1."""
    if u == 1:
        # S(J) - S(-1), where S(-1) = -0^i
        return polys.evaluate(faulhaber_coeffs(i), Fraction(J)) + (i == 0)
    T = window_coeffs(i, u)  # u^0 T(0) = T[0]
    if J == INF:
        return T[0]
    return T[0] - u ** (J + 1) * polys.evaluate(T, Fraction(J + 1))


def sum_progression(s: ProgressionSum) -> Fraction:
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
            total += coeff * _sum_to(i, u, J)
    return s.t**k0 * total
