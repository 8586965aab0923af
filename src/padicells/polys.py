"""Dense univariate polynomials over exact rationals.

Coefficient tuples, index = degree. The empty tuple is the zero
polynomial. Just enough arithmetic for the decomposer and the zeta
assembly. `evaluate` and `taylor_shift` work in Python ints: f as integer
numerators over one common denominator, the point as a/b, and one
`Fraction` per result or output coefficient. `taylor_shift_int`, the
integer shift inside `taylor_shift`, is the one the decomposer's ball
walk and the verifier call on their integer numerators, and it also
shifts the engine's integer window polynomials; `taylor_shift` itself is
no longer the decomposer's.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

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


def over_common_denominator(f) -> tuple[list[int], int]:
    """(nums, den) with f = nums / den and den the lcm of f's denominators."""
    ratios = [c.as_integer_ratio() for c in f]
    den = lcm(*(d for _, d in ratios))
    return [n * (den // d) for n, d in ratios], den


def evaluate(f: PolyQ, x: Fraction) -> Fraction:
    """f(x), exactly, for x an int, a Fraction or a float.

    With f = nums / den and x = a/b, Horner runs on
    sum nums_i a^i b^(n-i), which is f(x) * den * b^n."""
    if not f:
        return Fraction(0)
    nums, den = over_common_denominator(f)
    a, b = x.as_integer_ratio()
    acc, bk = nums[-1], 1
    for c in reversed(nums[:-1]):
        bk *= b
        acc = acc * a + c * bk
    return Fraction(acc, den * bk)


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
    """Coefficients of f(x + c).

    With f = nums / den and c = a/b, h(y) = sum nums_i b^(n-i) y^i is
    den * b^n * f(y/b), so f(x + c) = h(bx + a) / (den * b^n). The integer
    shift h(y + a) = sum e_k y^k runs as repeated synthetic division, and
    the x^k coefficient is e_k / (den * b^(n-k)).
    """
    if not f:
        return ()
    nums, den = over_common_denominator(f)
    a, b = c.as_integer_ratio()
    n = len(f) - 1
    e = taylor_shift_int([nums[i] * b ** (n - i) for i in range(n + 1)], a)
    out = [Fraction(e[k], den * b ** (n - k)) for k in range(n + 1)]
    return normalize(tuple(out))


def taylor_shift_int(f, a: int) -> tuple[int, ...]:
    """Coefficients of f(x + a) for int coefficients f and an int a."""
    e = list(f)
    n = len(e) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            e[j] += a * e[j + 1]
    return tuple(e)


def integerize(f: PolyQ) -> tuple[tuple[int, ...], Fraction]:
    """Write f = s * F with F integer coefficients, content 1. Returns (F, s)."""
    if is_zero(f):
        return (), Fraction(1)
    nums, den = over_common_denominator(f)
    g = gcd(*nums) or 1
    return tuple(c // g for c in nums), Fraction(g, den)


def evaluate_int(f: tuple[int, ...], x: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def has_root_mod_p(f: tuple[int, ...], p: int) -> bool:
    """Whether the integer polynomial f has a root mod the prime p.

    gcd(f mod p, x^p - x) is the product of the distinct linear factors
    of f over F_p. x^p mod (f mod p) comes by square-and-multiply, so the
    test takes O(deg^2 log p) operations in F_p and no loop over residues.
    The zero polynomial has every residue as a root.
    """
    g = _monic_mod_p(f, p)
    if len(g) <= 2:
        return len(g) != 1  # zero: every residue; a constant: none; linear: one
    h = [1]
    for bit in bin(p)[2:]:
        h = _rem_mod_p(_mul_int(h, h), g, p)
        if bit == "1":
            h = _rem_mod_p([0] + h, g, p)
    h += [0] * (2 - len(h))
    h[1] -= 1
    a, b = g, _monic_mod_p(h, p)
    while b:
        a, b = b, _monic_mod_p(_rem_mod_p(a, b, p), p)
    return len(a) > 1


def _mul_int(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _trim_mod_p(a, p: int) -> list[int]:
    a = [c % p for c in a]
    while a and a[-1] == 0:
        a.pop()
    return a


def _rem_mod_p(a: list[int], g: list[int], p: int) -> list[int]:
    """a mod the monic g over F_p."""
    a, n = list(a), len(g) - 1
    for i in range(len(a) - 1, n - 1, -1):
        c = a[i] % p
        for j in range(n):
            a[i - n + j] -= c * g[j]
    return _trim_mod_p(a[:n], p)


def _monic_mod_p(a, p: int) -> list[int]:
    a = _trim_mod_p(a, p)
    if not a:
        return a
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]
