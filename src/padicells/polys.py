"""Dense univariate polynomials over exact rationals.

Coefficient tuples, index = degree. The empty tuple is the zero
polynomial. Just enough arithmetic for the decomposer and the zeta
assembly; factorization is delegated to sympy at the call site.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

PolyQ = tuple[Fraction, ...]


def poly_from(coeffs) -> PolyQ:
    return normalize(tuple(Fraction(c) for c in coeffs))


def normalize(coeffs: tuple) -> PolyQ:
    i = len(coeffs)
    while i > 0 and coeffs[i - 1] == 0:
        i -= 1
    return tuple(coeffs[:i])


def degree(f: PolyQ) -> int:
    return len(f) - 1


def is_zero(f: PolyQ) -> bool:
    return len(f) == 0


def evaluate(f: PolyQ, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(f):
        acc = acc * x + c
    return acc


def add(f: PolyQ, g: PolyQ) -> PolyQ:
    n = max(len(f), len(g))
    return normalize(
        tuple(
            (f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n)
        )
    )


def neg(f: PolyQ) -> PolyQ:
    return tuple(-c for c in f)


def mul(f: PolyQ, g: PolyQ) -> PolyQ:
    if not f or not g:
        return ()
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            out[i + j] += a * b
    return normalize(tuple(out))


def scale(f: PolyQ, c: Fraction) -> PolyQ:
    if c == 0:
        return ()
    return tuple(a * c for a in f)


def pow_int(f: PolyQ, e: int) -> PolyQ:
    out: PolyQ = (Fraction(1),)
    for _ in range(e):
        out = mul(out, f)
    return out


def derivative(f: PolyQ) -> PolyQ:
    return normalize(tuple(f[i] * i for i in range(1, len(f))))


def taylor_shift(f: PolyQ, c: Fraction) -> PolyQ:
    """Coefficients of f(x + c)."""
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
    return normalize(tuple(out))


def integerize(f: PolyQ) -> tuple[tuple[int, ...], Fraction]:
    """Write f = s * F with F integer coefficients, content 1. Returns (F, s)."""
    if is_zero(f):
        return (), Fraction(1)
    from math import gcd, lcm

    den = lcm(*(c.denominator for c in f)) if len(f) > 1 else f[0].denominator
    ints = [int(c * den) for c in f]
    g = 0
    for c in ints:
        g = gcd(g, abs(c))
    if g == 0:
        g = 1
    return tuple(c // g for c in ints), Fraction(g, den)


def evaluate_int(f: tuple[int, ...], x: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc
