"""Closed forms for progression sums  sum k^l t^k  over k = r mod n.

The substitution k = k0 + n*j turns every instance into the integer
combination sum_i c_i S_i(u, J) of S_i(u, J) = sum_{j=0..J} j^i u^j with
u = t^n and c_i = C(l, i) k0^(l-i) n^i. Repeated application of u*d/du
to the geometric series gives S_i over all j >= 0 as N_i(u)/(1-u)^(i+1),
with N_i the integer Eulerian numerators.

Everything runs in Python ints. For u = a/b != 1, with b > 0 and
d = b - a,

    N_m(u) / (1-u)^(m+1) = b*H_m / d^(m+1),  H_m = sum_j N_m[j] a^j b^(m-j),

so the window polynomial T_i, with sum_{j=x..y} j^i u^j =
u^x T_i(x) - u^(y+1) T_i(y+1), is the integer polynomial W_i over
d^(i+1), W_i[e] = C(i, e) b H_(i-e) d^e. A progression sum is one
Fraction,

    t^k0 (b^(J+1) sum_i c_i d^(l-i) W_i(0) - a^(J+1) sum_i c_i d^(l-i) W_i(J+1))
    / (d^(l+1) b^(J+1)),

with no tail term when J is infinite. For u = 1 every level weighs the
same: S_i(1, J) is a Faulhaber polynomial at J, read off the same
Eulerian numerators by Worpitzky's identity as an integer polynomial
over (l+1)!. Convergence of an infinite range means |u| < 1 as a real
number, |a| < b, and is decided exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from . import polys
from .padic import INF, NEG_INF


class DivergentSumError(ArithmeticError):
    """Infinite range with ratio not inside the unit interval."""


def _is_integer(k) -> bool:
    return isinstance(k, (int, Fraction)) and k.denominator == 1


@dataclass(frozen=True)
class ProgressionSum:
    """sum of k^l * t^k over k_min <= k <= k_max with k = residue mod modulus.

    t is an int or a Fraction, k_min an integer and k_max an integer or
    +-INF; an int-valued Fraction counts as an integer."""

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
        if not _is_integer(self.k_min):
            raise ValueError("k_min must be a finite integer")
        if not (_is_integer(self.k_max) or self.k_max in (INF, NEG_INF)):
            raise ValueError("k_max must be an integer or +-INF")
        if not isinstance(self.t, (int, Fraction)):
            raise ValueError("the ratio t must be an int or a Fraction")
        if self.t == 0:
            raise ValueError("zero ratio")


@lru_cache(maxsize=None)
def _numerators(i: int) -> tuple[int, ...]:
    """N_i with sum_{j>=0} j^i u^j = N_i(u) / (1-u)^(i+1), from
    N_i = u * (N_(i-1)' * (1-u) + i * N_(i-1))."""
    if i == 0:
        return (1,)
    prev = _numerators(i - 1) + (0,)
    return (0,) + tuple((k + 1) * prev[k + 1] + (i - k) * prev[k] for k in range(i))


# Bounded: the ratios a/b are user rationals.
@lru_cache(maxsize=1024)
def _window_ints(i: int, a: int, b: int) -> tuple[int, ...]:
    """W_i = d^(i+1) * T_i for u = a/b != 1, b > 0, d = b - a."""
    d = b - a
    heads = [
        b * sum(c * a**j * b ** (m - j) for j, c in enumerate(_numerators(m)))
        for m in range(i + 1)
    ]
    return tuple(comb(i, e) * heads[i - e] * d**e for e in range(i + 1))


@lru_cache(maxsize=None)
def _faulhaber_ints(l: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(D, (P_0, ..., P_l)) with P_i(x) / D = sum_{j=0..x} j^i for i <= l.

    Worpitzky's identity j^i = sum_m N_i[m] C(j + m - 1, i) sums to
    sum_m N_i[m] C(x + m + [i = 0], i + 1), and D = (l+1)! clears the
    binomials' denominators. P_i(-1) = 0, the empty sum."""
    den = factorial(l + 1)
    out = []
    fall = (1,)
    for i in range(l + 1):
        # x (x-1) ... (x-i) = (i+1)! C(x, i+1)
        fall = tuple(a - i * b for a, b in zip((0,) + fall, fall + (0,)))
        scale = den // factorial(i + 1)
        P = [0] * (i + 2)
        for m, c in enumerate(_numerators(i)):
            for e, w in enumerate(polys.taylor_shift_int(fall, m + (i == 0))):
                P[e] += c * scale * w
        out.append(tuple(P))
    return den, tuple(out)


def reindex_coeffs(l: int, c: int, n: int) -> tuple[int, ...]:
    """(c + n*j)^l as integer coefficients in j: a sum of k^l over
    k = c + n*j is sum_i coeff_i * (the sum of j^i)."""
    return tuple(comb(l, i) * c ** (l - i) * n**i for i in range(l + 1))


def sum_progression(s: ProgressionSum) -> Fraction:
    """Exact value of the progression sum; DivergentSumError when the
    range is infinite and |t|^modulus >= 1."""
    n = s.modulus
    k_min = int(s.k_min)
    k0 = k_min + (s.residue - k_min) % n
    bounded = s.k_max != INF
    if bounded and k0 > s.k_max:
        return Fraction(0)
    ta, tb = s.t.as_integer_ratio()
    a, b = ta**n, tb**n  # u = a/b
    if not bounded and not abs(a) < b:
        raise DivergentSumError(
            f"sum over an unbounded range with ratio {s.t}^{s.modulus}"
        )
    cs = reindex_coeffs(s.l, k0, n)
    if bounded:
        J = (int(s.k_max) - k0) // n
    if a == b:
        # sum_i c_i (P_i(J) - P_i(-1)), where P_i(-1) = 0
        den, fs = _faulhaber_ints(s.l)
        num = sum(c * polys.evaluate_int(f, J) for c, f in zip(cs, fs) if c)
    else:
        d = b - a
        head = tail = 0
        for i, c in enumerate(cs):
            if c:
                w = _window_ints(i, a, b)
                c *= d ** (s.l - i)
                head += c * w[0]
                if bounded:
                    tail += c * polys.evaluate_int(w, J + 1)
        den = d ** (s.l + 1)
        if bounded:
            b_J = b ** (J + 1)
            num = b_J * head - a ** (J + 1) * tail
            den *= b_J
        else:
            num = head
    if k0 >= 0:
        return Fraction(num * ta**k0, den * tb**k0)
    return Fraction(num * tb**-k0, den * ta**-k0)
