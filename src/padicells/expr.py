"""Terms, constructible functions, and their little surface language.

Field-valued terms (`DTerm`) are built from variables and rationals by
ring operations, inversion with the 0 -> 0 convention, one-variable
polynomials over an inner term, and truncated power series restricted to
the unit polydisc. Constructible functions are rational combinations of
valuations v(h) and norms abs(h) of such terms.

Surface syntax (whitespace-insensitive, '#' starts a line comment):

    expr   := sum
    sum    := prod (('+'|'-') prod)*
    prod   := unary ('*' unary)*
    unary  := '-' unary | power
    power  := atom ('^' exponent)?
    atom   := rational | 'x'<nat> | 'inv(' sum ')' | 'v(' sum ')'
            | 'abs(' sum ')' | series | '(' sum ')'
    series := 'series(' '[' rational (',' rational)* (';' 'tail' int)? ']'
              (',' sum)+ ')'

Exponents are naturals, or a parenthesised signed rational on abs(...)
factors. v() and abs() live at the constructible level only; a bare
field-valued term is not a constructible function. Parsing collapses
single-base polynomial combinations into `Poly` nodes, so printing
followed by parsing is the identity on canonically built terms.

One evaluator values a term on a box of residues, a point being the box
of infinite depth (_eval). Each node is compiled once, on first use, into
a closure (reps, depths, p) -> (value, precision) over its children's
closures; the prime stays an argument, because a node carries none. A
factor argument of a constructible function also gets a reader, which
returns the valuation the box pins straight from ints.

What a node or an expression keeps, each worked out on first use from
its own fields alone (_node, _kept):
- a term node: its hash, its printed text, its free variables, its
  compiled evaluator and its reader;
- a factor (ValFactor, NormFactor): its hash;
- a ConstructibleExpr: its hash and its evaluation plan of its factors'
  readers.
cells.CellCondition keeps its hash the same way. Nothing is cached by
input values, and equality, hashing and repr see only the dataclass
fields. Pickling drops the hash and the compiled closures: a closure does
not pickle, and hash(None) and str hashes differ between processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from . import polys
from .padic import INF, NEG_INF, PAdicScalar, Prime, int_valuation, rational_valuation


class DTerm:
    """Base class for field-valued terms."""

    __slots__ = ()


def _node(cls):
    """A frozen dataclass that computes its (field-tuple) hash once.

    Terms, factors, expressions and cell stages are immutable and hashed
    again and again as dict keys; the cached value is the dataclass hash
    itself, so hashes, equality and every dict or set order stay what they
    would be without the cache.
    """
    cls = dataclass(frozen=True)(cls)
    field_hash = cls.__hash__

    def __hash__(self):
        d = self.__dict__
        h = d.get("_hash")
        if h is None:
            h = d["_hash"] = field_hash(self)
        return h

    cls.__hash__ = __hash__
    cls.__getstate__ = _picklable_state
    return cls


# what _node, _evaluator, _reader and _evaluation_plan keep on an instance
# that a pickle leaves out: closures do not pickle, and a hash need not
# hold in another process (hash(None) reads an address before Python 3.12)
_UNPICKLED = ("_hash", "_eval", "_read", "_plan")


def _picklable_state(self) -> dict:
    """The instance dict without its cached hash and compiled closures: a
    copy works out its own on first use."""
    return {k: v for k, v in self.__dict__.items() if k not in _UNPICKLED}


@_node
class Var(DTerm):
    index: int


@_node
class Const(DTerm):
    value: Fraction


@_node
class Add(DTerm):
    left: DTerm
    right: DTerm


@_node
class Mul(DTerm):
    left: DTerm
    right: DTerm


@_node
class Inv(DTerm):
    """Multiplicative inverse with Inv(0) = 0."""

    arg: DTerm


@_node
class Poly(DTerm):
    """coeffs[i] * argument^i, coefficients exact rationals."""

    coeffs: tuple[Fraction, ...]
    argument: DTerm


@_node
class RestrictedSeries(DTerm):
    """Truncated power series, zero outside the unit polydisc.

    coeffs lists the kept coefficients degree by degree (lexicographic
    within a degree for several arguments); every omitted coefficient has
    valuation >= tail_valuation, which is what makes truncated evaluation
    meaningful.
    """

    coeffs: tuple[Fraction, ...]
    tail_valuation: int
    arguments: tuple[DTerm, ...]

    def __post_init__(self) -> None:
        if not self.arguments:
            raise ValueError("a restricted series needs at least one argument")


# ---------------------------------------------------------------------------
# canonicalizing constructors

def _poly_view(t: DTerm) -> tuple[DTerm | None, polys.PolyQ]:
    """View a term as a polynomial in a base term (None = constant)."""
    if isinstance(t, Const):
        return None, ((t.value,) if t.value != 0 else ())
    if isinstance(t, Poly):
        return t.argument, t.coeffs
    return t, (Fraction(0), Fraction(1))


def _from_view(base: DTerm | None, coeffs: polys.PolyQ) -> DTerm:
    coeffs = polys.normalize(coeffs)
    if base is None or len(coeffs) <= 1:
        return Const(coeffs[0] if coeffs else Fraction(0))
    if coeffs == (Fraction(0), Fraction(1)):
        return base
    return Poly(coeffs, base)


def d_add(a: DTerm, b: DTerm) -> DTerm:
    ba, ca = _poly_view(a)
    bb, cb = _poly_view(b)
    if ba is None and bb is None:
        return _from_view(None, polys.add(ca, cb))
    if ba is None:
        return _from_view(bb, polys.add(cb, ca))
    if bb is None or ba == bb:
        return _from_view(ba, polys.add(ca, cb))
    return Add(a, b)


def d_neg(a: DTerm) -> DTerm:
    base, cs = _poly_view(a)
    return _from_view(base, polys.neg(cs))


def d_sub(a: DTerm, b: DTerm) -> DTerm:
    return d_add(a, d_neg(b))


def d_mul(a: DTerm, b: DTerm) -> DTerm:
    ba, ca = _poly_view(a)
    bb, cb = _poly_view(b)
    if ba is None and bb is None:
        return _from_view(None, polys.mul(ca, cb))
    if ba is None:
        return _from_view(bb, polys.mul(cb, ca))
    if bb is None or ba == bb:
        return _from_view(ba, polys.mul(ca, cb))
    return Mul(a, b)


def d_pow(a: DTerm, e: int) -> DTerm:
    if e < 0:
        raise ValueError("negative powers are written with inv()")
    base, cs = _poly_view(a)
    return _from_view(base, polys.pow_int(cs, e))


def d_inv(a: DTerm) -> DTerm:
    if isinstance(a, Const):
        return Const(Fraction(0) if a.value == 0 else 1 / a.value)
    return Inv(a)


def d_scale(a: DTerm, c) -> DTerm:
    """c * a, the term d_mul(Const(c), a) builds, by scaling a's
    coefficients instead of convolving them with a constant."""
    base, cs = _poly_view(a)
    return _from_view(base, polys.scale(cs, Fraction(c)))


def free_variables(t: DTerm) -> frozenset[int]:
    """The indices of the variables t reads, worked out once per node and
    kept on it (_kept)."""
    if isinstance(t, DTerm):
        return _kept(t, "_free", _free_variables)
    raise TypeError(f"not a DTerm: {t!r}")


def _free_variables(t: DTerm) -> frozenset[int]:
    if isinstance(t, Var):
        return frozenset({t.index})
    if isinstance(t, Const):
        return frozenset()
    if isinstance(t, (Add, Mul)):
        return free_variables(t.left) | free_variables(t.right)
    if isinstance(t, Inv):
        return free_variables(t.arg)
    if isinstance(t, Poly):
        return free_variables(t.argument)
    if isinstance(t, RestrictedSeries):
        out: frozenset[int] = frozenset()
        for a in t.arguments:
            out |= free_variables(a)
        return out
    raise TypeError(f"not a DTerm: {t!r}")


def as_poly_in(t: DTerm, var: int) -> list[DTerm] | None:
    """Coefficients of t as a polynomial in x_var, or None when t is not
    polynomial in that variable (it hides inside inv or a series)."""
    if var not in free_variables(t):
        return [t]
    if isinstance(t, Var):
        return [Const(Fraction(0)), Const(Fraction(1))]
    if isinstance(t, Add):
        la, lb = as_poly_in(t.left, var), as_poly_in(t.right, var)
        if la is None or lb is None:
            return None
        out = [Const(Fraction(0))] * max(len(la), len(lb))
        for i, c in enumerate(la):
            out[i] = d_add(out[i], c)
        for i, c in enumerate(lb):
            out[i] = d_add(out[i], c)
        return out
    if isinstance(t, Mul):
        la, lb = as_poly_in(t.left, var), as_poly_in(t.right, var)
        if la is None or lb is None:
            return None
        out = [Const(Fraction(0))] * (len(la) + len(lb) - 1)
        for i, a in enumerate(la):
            for j, b in enumerate(lb):
                out[i + j] = d_add(out[i + j], d_mul(a, b))
        return out
    if isinstance(t, Poly):
        inner = as_poly_in(t.argument, var)
        if inner is None:
            return None
        out: list[DTerm] = [Const(Fraction(0))]
        power: list[DTerm] = [Const(Fraction(1))]
        for c in t.coeffs:
            for i, q in enumerate(power):
                if i == len(out):
                    out.append(Const(Fraction(0)))
                out[i] = d_add(out[i], d_scale(q, c))
            new_power = [Const(Fraction(0))] * (len(power) + len(inner) - 1)
            for i, a in enumerate(power):
                for j, b in enumerate(inner):
                    new_power[i + j] = d_add(new_power[i + j], d_mul(a, b))
            power = new_power
        return out
    return None


def dterm_to_const_poly(t: DTerm, var: int = 0) -> polys.PolyQ | None:
    """Constant-coefficient polynomial view in x_var, if t has one."""
    extra = free_variables(t) - {var}
    if extra:
        return None
    coeffs = as_poly_in(t, var)
    if coeffs is None:
        return None
    out = []
    for c in coeffs:
        if not isinstance(c, Const):
            return None
        out.append(c.value)
    return polys.poly_from(out)


# ---------------------------------------------------------------------------
# evaluation

class EvaluationPrecisionError(ArithmeticError):
    """A truncated series does not pin the quantity down far enough."""


class VFactorZeroError(ZeroDivisionError):
    """v(h) was requested where h evaluates to exactly zero."""


def _series_exponents(nargs: int, count: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    total = 0
    while len(out) < count:
        for combo in _compositions(total, nargs):
            out.append(combo)
            if len(out) == count:
                break
        total += 1
    return out


def _compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    if parts == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return out


def pinned_valuation(value: Fraction, precision, p: int) -> int | None:
    """The valuation shared by everything within `precision` of value, or
    None when the precision does not pin it (always for an exact zero)."""
    v = rational_valuation(value, p)
    return int(v) if v < precision else None


# A lift is a Fraction, or an int: the oracle's boxes have nonnegative
# integer lifts. Values built from ints alone stay ints.
Lift = int | Fraction
_ZERO = Fraction(0)
_ONE = Fraction(1)


def _kept(node, key: str, build):
    """build(node), made on first use and kept in node.__dict__ under key,
    as _node keeps a node's hash: the dataclass fields, and so equality,
    hashing and repr, stay those of the node."""
    d = node.__dict__
    out = d.get(key)
    if out is None:
        out = d[key] = build(node)
    return out


def _eval(t: DTerm, reps: tuple[Lift, ...], depths: tuple, p: int):
    """Value of t at the lift of a box, and its certified precision.

    The box lets x_i range over reps[i] + p^depths[i] Z_p; a point is the
    box of depth INF in every coordinate. The value is an int or a
    Fraction, never a float: an inverse is always a Fraction. Across the
    box, and against the untruncated series, t differs from the returned
    value by something of valuation >= the returned precision: INF means
    exact, NEG_INF certifies nothing (an inverse of a possible zero, a
    series argument straddling the polydisc boundary, or anything built on
    those).

    This runs t's compiled evaluator (_evaluator), so each node is
    dispatched on its class once, not at every evaluation.
    """
    return _evaluator(t)(reps, depths, p)


def _evaluator(t: DTerm):
    """t's evaluator, a closure (reps, depths, p) -> (value, precision) as
    _eval describes, compiled by _compile on first use and kept on the
    node. The prime stays an argument, because a node carries none."""
    if isinstance(t, DTerm):
        return _kept(t, "_eval", _compile)
    return _compile(t)  # not a term: its evaluator raises TypeError


def _compile(t: DTerm):
    """The evaluator of one node over the evaluators of its children. What
    depends on the node alone (its children, a polynomial's integer
    numerators, a series' exponents) is worked out here, once; the
    precision recurrences, the types of the values and the errors, in
    their order, are those _eval documents."""
    if isinstance(t, Const):
        value = t.value
        return lambda reps, depths, p: (value, INF)
    if isinstance(t, Var):
        i = t.index

        def var(reps, depths, p):
            try:
                return reps[i], depths[i]
            except IndexError:
                raise ValueError(f"point has no coordinate for x{i}") from None

        return var
    if isinstance(t, Add):
        left, right = _evaluator(t.left), _evaluator(t.right)

        def add(reps, depths, p):
            a, da = left(reps, depths, p)
            b, db = right(reps, depths, p)
            return a + b, min(da, db)

        return add
    if isinstance(t, Mul):
        left, right = _evaluator(t.left), _evaluator(t.right)

        def mul(reps, depths, p):
            a, da = left(reps, depths, p)
            b, db = right(reps, depths, p)
            if da == NEG_INF or db == NEG_INF:
                return _ZERO, NEG_INF  # absorbing: INF + NEG_INF is nan
            if da == INF and db == INF:
                return a * b, INF  # what the valuations below would give
            va, vb = rational_valuation(a, p), rational_valuation(b, p)
            return a * b, min(min(va, da) + db, da + min(vb, db))

        return mul
    if isinstance(t, Inv):
        arg = _evaluator(t.arg)

        def inv(reps, depths, p):
            a, da = arg(reps, depths, p)
            # _ONE / a, not 1 / a: an int lift would give a float
            if da == INF:
                return (_ZERO if a == 0 else _ONE / a), INF
            va = rational_valuation(a, p)
            if va < da:
                return _ONE / a, da - 2 * va
            return _ZERO, NEG_INF  # possibly huge: nothing certified

        return inv
    if isinstance(t, Poly):
        ratio = _poly_ratio(t)

        def poly(reps, depths, p):
            num, den, prec = ratio(reps, depths, p)
            return Fraction(num, den), prec

        return poly
    if isinstance(t, RestrictedSeries):
        return _compile_series(t)

    def not_a_term(reps, depths, p):
        raise TypeError(f"not a DTerm: {t!r}")

    return not_a_term


def _poly_ratio(t: Poly):
    """A closure (reps, depths, p) -> (num, den, precision): the value of t
    on the box is the ratio of the ints num / den, den nonzero.

    Horner runs in ints on t's numerators over their common denominator,
    as in polys.evaluate: with the coefficients nums / den and x = a/b,
    the partial value after the leading coefficient and k more is
    acc / (den * b^k). The leading step leaves the precision at INF."""
    arg = _evaluator(t.argument)
    nums, den = polys.over_common_denominator(t.coeffs)
    lead, rest = (nums[-1], nums[-2::-1]) if nums else (0, ())

    def ratio(reps, depths, p):
        x, dx = arg(reps, depths, p)
        if dx == NEG_INF:
            return 0, 1, NEG_INF
        a, b = x.as_integer_ratio()
        acc, bk = lead, 1
        if dx == INF:
            for c in rest:
                bk *= b
                acc = acc * a + c * bk
            return acc, den * bk, INF
        vx = rational_valuation(x, p)
        vb = int_valuation(b, p)
        vden = int_valuation(den, p)  # v(den * b^k)
        dacc = INF
        for c in rest:
            va = int_valuation(acc, p) - vden if acc else INF
            dacc = min(min(va, dacc) + dx, dacc + min(vx, dx))
            bk *= b
            vden += vb
            acc = acc * a + c * bk
        return acc, den * bk, dacc

    return ratio


def _compile_series(t: RestrictedSeries):
    args = [_evaluator(a) for a in t.arguments]
    tail = t.tail_valuation
    exps = _series_exponents(len(args), len(t.coeffs))
    monomials = [(c, alpha) for c, alpha in zip(t.coeffs, exps) if c != 0]
    nonzero = [c for c, _ in monomials]

    def series(reps, depths, p):
        values = [f(reps, depths, p) for f in args]
        lows = [(rational_valuation(a, p), da) for a, da in values]
        if any(va < min(0, da) for va, da in lows):
            return _ZERO, INF  # the whole box sits outside the polydisc
        if any(min(va, da) < 0 for va, da in lows):
            return _ZERO, NEG_INF  # straddles the polydisc boundary
        total = _ZERO
        for c, alpha in monomials:
            mono = c
            for (a, _), e in zip(values, alpha):
                mono *= a**e
            total += mono
        prec: float | int = tail
        inexact = [da for _, da in values if da != INF]
        if inexact:
            cmin = min([tail] + [rational_valuation(c, p) for c in nonzero])
            prec = min(prec, min(inexact) + cmin)
        return total, prec

    return series


def _reader(t: DTerm):
    """t's reader, a closure (reps, depths, p) -> (the valuation the box
    pins, or None; whether t is an exact zero there), compiled on first
    use and kept on the node. A variable's reader reads its lift, and a
    polynomial's takes the valuation from the ints of _poly_ratio, so
    neither builds a Fraction; any other node's reads the value of its
    evaluator."""
    if isinstance(t, DTerm):
        return _kept(t, "_read", _compile_reader)
    return _compile_reader(t)  # not a term: reading it raises TypeError


def _compile_reader(t: DTerm):
    if isinstance(t, Var):
        i = t.index

        def read_var(reps, depths, p):
            try:
                x, dx = reps[i], depths[i]
            except IndexError:
                raise ValueError(f"point has no coordinate for x{i}") from None
            if not x:
                return None, dx == INF
            v = rational_valuation(x, p)
            return (v, False) if v < dx else (None, False)

        return read_var
    if isinstance(t, Poly):
        ratio = _poly_ratio(t)

        def read_poly(reps, depths, p):
            num, den, prec = ratio(reps, depths, p)
            if not num:
                return None, prec == INF
            v = int_valuation(num, p) - int_valuation(den, p)
            return (v, False) if v < prec else (None, False)

        return read_poly
    evaluate = _evaluator(t)

    def read(reps, depths, p):
        value, prec = evaluate(reps, depths, p)
        v = rational_valuation(value, p)
        if v < prec:
            return v, False
        return None, v == INF and prec == INF

    return read


def _point_box(point: list[PAdicScalar], prime: Prime | None):
    """A point as the box of depth INF in every coordinate. The prime
    defaults to that of the first coordinate; a coordinate of another
    prime raises ValueError, as PAdicScalar arithmetic does."""
    if prime is None:
        if not point:
            raise ValueError("prime must be given when the point is empty")
        prime = point[0].prime
    for s in point:
        if s.prime != prime:
            raise ValueError(
                f"mixed primes: a coordinate in Q_{s.prime.p} read at p = {prime.p}"
            )
    return tuple(s.value for s in point), (INF,) * len(point), prime


def eval_dterm(
    t: DTerm, point: list[PAdicScalar], prime: Prime | None = None
) -> tuple[PAdicScalar, float | int]:
    """Evaluate a term at a point of Q_p^m.

    Returns (value, error_valuation): the true value differs from the
    returned one by something of valuation >= error_valuation, with INF
    meaning the evaluation is exact. Only restricted series introduce
    uncertainty; where they leave nothing certified (an inverse not
    separated from zero, undecided polydisc membership), this raises.
    Every coordinate must be a scalar of the prime evaluated at.
    """
    reps, depths, prime = _point_box(point, prime)
    value, err = _eval(t, reps, depths, prime.p)
    if err == NEG_INF:
        raise EvaluationPrecisionError("term not determined at this precision")
    return PAdicScalar(value, prime), err


# ---------------------------------------------------------------------------
# constructible functions

@_node
class ValFactor:
    h: DTerm
    power: int


@_node
class NormFactor:
    # Fractional powers arise from closed-form sums over cosets; their
    # evaluation insists on an integer total exponent.
    h: DTerm
    power: Fraction


@dataclass(frozen=True)
class CTerm:
    coeff: Fraction
    val_factors: tuple[ValFactor, ...]
    norm_factors: tuple[NormFactor, ...]

    def __iter__(self):  # unpacks like a raw (coeff, val_factors, norm_factors) triple
        return iter((self.coeff, self.val_factors, self.norm_factors))


@_node
class ConstructibleExpr:
    """Finite sum of rational multiples of products v(h)^k * abs(h')^e."""

    terms: tuple[CTerm, ...]

    @staticmethod
    def of(terms) -> "ConstructibleExpr":
        """The canonical sum of CTerms or raw (coeff, val_factors,
        norm_factors) triples with int or Fraction coefficients: brought
        over one denominator (raw_ints) and canonicalized by of_ints."""
        return ConstructibleExpr.of_ints(*raw_ints(terms))

    @staticmethod
    def of_ints(den: int, terms) -> "ConstructibleExpr":
        """The canonical sum of raw (num, val_factors, norm_factors) terms
        over the int denominator den: equal factors merged, zero powers
        dropped, numerators of equal factors added as ints, zero terms
        dropped, factors and terms sorted by printed form, and one
        Fraction built per kept term. Every canonical expression comes
        from here; the engine builds a stage's raw terms in ints (see
        raw_product) so that no Fraction arises before this point."""
        merged: dict = {}
        for num, vfs, nfs in terms:
            key = _factor_key(vfs, nfs)
            merged[key] = merged.get(key, 0) + num
        items = merged.items()
        if len(merged) > 1:
            items = sorted(items, key=lambda kv: _cterm_sort_key(kv[0]))
        return ConstructibleExpr(
            tuple(CTerm(Fraction(c, den), vf, nf) for (vf, nf), c in items if c)
        )

    @staticmethod
    def sum_of(exprs) -> "ConstructibleExpr":
        """The sum of several expressions, canonicalized once."""
        return ConstructibleExpr.of(t for e in exprs for t in e.terms)

    @staticmethod
    def const(x) -> "ConstructibleExpr":
        x = Fraction(x)
        if x == 0:
            return ConstructibleExpr(())
        return ConstructibleExpr((CTerm(x, (), ()),))

    @staticmethod
    def zero() -> "ConstructibleExpr":
        return ConstructibleExpr(())

    def is_zero(self) -> bool:
        return not self.terms

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1 and not self.terms[0].val_factors and not self.terms[0].norm_factors:
            return self.terms[0].coeff
        raise ValueError("expression is not a constant")

    def __add__(self, other: "ConstructibleExpr") -> "ConstructibleExpr":
        return ConstructibleExpr.of(self.terms + other.terms)

    def scale(self, c) -> "ConstructibleExpr":
        """c times a canonical expression: a nonzero c keeps every factor
        key and so the term order, and nothing is merged or sorted again."""
        c = Fraction(c)
        if c == 0:
            return ConstructibleExpr(())
        return ConstructibleExpr(
            tuple(CTerm(t.coeff * c, t.val_factors, t.norm_factors) for t in self.terms)
        )

    def __mul__(self, other: "ConstructibleExpr") -> "ConstructibleExpr":
        return ConstructibleExpr.of_ints(
            *raw_product(raw_ints(self.terms), raw_ints(other.terms))
        )


# A raw term list (den, [(num, val_factors, norm_factors), ...]) is the sum
# of num/den times each term's factors, with den a nonzero int of either
# sign: nothing merged, reduced or sorted until ConstructibleExpr.of_ints.


def raw_ints(terms) -> tuple[int, list]:
    """CTerms or raw triples with int or Fraction coefficients as a raw
    term list over the lcm of their denominators."""
    terms = [tuple(t) for t in terms]
    den = lcm(*(c.denominator for c, _, _ in terms))
    return den, [(c.numerator * (den // c.denominator), vf, nf) for c, vf, nf in terms]


def raw_product(a: tuple[int, list], b: tuple[int, list]) -> tuple[int, list]:
    """The product of two raw term lists, term by term in order."""
    (da, ta), (db, tb) = a, b
    return da * db, [(na * nb, va + vb, fa + fb) for na, va, fa in ta for nb, vb, fb in tb]


def raw_scale(a: tuple[int, list], num: int, den: int = 1) -> tuple[int, list]:
    """num/den times a raw term list."""
    d, ts = a
    return d * den, [(n * num, vf, nf) for n, vf, nf in ts]


def raw_sum(parts) -> tuple[int, list]:
    """The sum of raw term lists over the lcm of their denominators, their
    terms concatenated in order."""
    parts = list(parts)
    if len(parts) == 1:
        return parts[0]
    den = lcm(*(d for d, _ in parts))
    out = []
    for d, ts in parts:
        m = den // d
        out += [(n * m, vf, nf) for n, vf, nf in ts]
    return den, out


def _factor_key(vfs, nfs) -> tuple:
    """A term's factors in canonical form: (val factors, norm factors)."""
    if len(vfs) < 2 and len(nfs) < 2:
        # nothing to merge or sort: keep the factors unless a power is zero
        # or not of the type a merge gives (int for v, Fraction for abs)
        vf = nf = ()
        if vfs:
            f = vfs[0]
            if type(f.power) is not int:
                return _merged_factor_key(vfs, nfs)
            if f.power:
                vf = (f,)
        if nfs:
            f = nfs[0]
            if type(f.power) is not Fraction:
                return _merged_factor_key(vfs, nfs)
            if f.power:
                nf = (f,)
        return vf, nf
    return _merged_factor_key(vfs, nfs)


def _merged_factor_key(vfs, nfs) -> tuple:
    vals: dict[DTerm, int] = {}
    for f in vfs:
        vals[f.h] = vals.get(f.h, 0) + f.power
    norms: dict[DTerm, Fraction] = {}
    for f in nfs:
        norms[f.h] = norms.get(f.h, Fraction(0)) + f.power
    vf = tuple(
        ValFactor(h, e)
        for h, e in sorted(vals.items(), key=lambda kv: print_dterm(kv[0]))
        if e != 0
    )
    nf = tuple(
        NormFactor(h, e)
        for h, e in sorted(norms.items(), key=lambda kv: print_dterm(kv[0]))
        if e != 0
    )
    return vf, nf


def _cterm_sort_key(key):
    vf, nf = key
    return (
        tuple((print_dterm(f.h), f.power) for f in vf),
        tuple((print_dterm(f.h), f.power) for f in nf),
    )


def cexpr_term(coeff, val_factors=(), norm_factors=()) -> ConstructibleExpr:
    return ConstructibleExpr.of(
        [CTerm(Fraction(coeff), tuple(val_factors), tuple(norm_factors))]
    )


def _evaluation_plan(f: ConstructibleExpr) -> tuple:
    """f's terms with every factor argument replaced by its index.

    (readers, rows): readers holds the reader (_reader) of each distinct
    factor argument, in the order the terms first read them (term by
    term, v-factors before norm factors); each row is (coeff numerator,
    coeff denominator, ((arg index, power), ...) for the v-factors, ((arg
    index, power numerator, power denominator), ...) for the norm
    factors). Built once per expression and kept on it, as _node keeps a
    term's hash: the plan depends on the terms alone, so equality, hashing
    and the dataclass fields stay those of the terms.
    """
    return _kept(f, "_plan", _build_plan)


def _build_plan(f: ConstructibleExpr) -> tuple:
    index: dict[DTerm, int] = {}  # argument -> its index, in first-use order
    rows = []
    for term in f.terms:
        c = term.coeff
        rows.append((
            c.numerator,
            c.denominator,
            [(index.setdefault(vf.h, len(index)), vf.power) for vf in term.val_factors],
            [(index.setdefault(nf.h, len(index)), nf.power.numerator, nf.power.denominator)
             for nf in term.norm_factors],
        ))
    return [_reader(h) for h in index], rows


def _plan_ints(plan: tuple, reps: tuple[Lift, ...], depths: tuple, p: int) -> tuple[int, int]:
    """An expression on a box, from its evaluation plan, as a pair of ints
    num/den, den nonzero but of either sign; the checks and errors of
    _constructible_value."""
    readers, rows = plan
    read: list = [None] * len(readers)
    total_num, total_den = 0, 1
    for num, den, vfs, nfs in rows:
        for i, power in vfs:
            r = read[i]
            if r is None:
                r = read[i] = readers[i](reps, depths, p)
            v, zero = r
            if v is None:
                if zero:
                    raise VFactorZeroError("v() of an exact zero inside a constructible term")
                raise EvaluationPrecisionError("valuation undetermined at this precision")
            if power >= 0:
                num *= v**power
            elif v:
                den *= v**-power
            else:
                raise ZeroDivisionError("negative power of a zero valuation")
        exponent = 0
        for i, pnum, pden in nfs:
            r = read[i]
            if r is None:
                r = read[i] = readers[i](reps, depths, p)
            v, zero = r
            if zero:
                if pnum < 0:
                    raise ZeroDivisionError("negative power of the norm of zero")
                num = 0
                continue
            if v is None:
                raise EvaluationPrecisionError("norm undetermined at this precision")
            e, rem = divmod(pnum * v, pden)
            if rem:
                raise ValueError(
                    "fractional norm power does not give an integer exponent here"
                )
            exponent += e
        if num:
            if exponent > 0:
                den *= p**exponent
            elif exponent < 0:
                num *= p**-exponent
            total_num, total_den = _add_ratio(total_num, total_den, num, den)
    return total_num, total_den


def _add_ratio(num: int, den: int, n: int, d: int) -> tuple[int, int]:
    """num/den + n/d as an int pair over the lcm of the denominators."""
    if d == den:
        return num + n, den
    g = gcd(d, den)
    return num * (d // g) + n * (den // g), den // g * d


def _constructible_value(
    f: ConstructibleExpr, reps: tuple[Lift, ...], depths: tuple, p: int
) -> Fraction:
    """Exact value of f on a box, given as for _eval, or at a point.

    Raises VFactorZeroError for v() of an exact zero, ZeroDivisionError
    for a negative power of the norm of an exact zero, ValueError for a
    fractional norm power that gives no integer exponent, and
    EvaluationPrecisionError where the box leaves a needed valuation open.

    The lifts may be ints or Fractions. The evaluation runs f's cached
    plan (_evaluation_plan): each distinct factor argument is evaluated
    once, when a term first reads it, so the checks still run factor by
    factor in term order and the first error is the same. The sum is kept
    as a pair of ints num/den, with den the least common multiple of the
    term denominators (_plan_ints, which the oracle calls directly with
    the integrand's plan), and one Fraction is built at the end.
    """
    return Fraction(*_plan_ints(_evaluation_plan(f), reps, depths, p))


def eval_constructible(
    f: ConstructibleExpr, point: list[PAdicScalar], prime: Prime | None = None
) -> Fraction:
    """Exact rational value of a constructible function at a point.

    Errors when some v-factor argument vanishes, when series truncation
    leaves a needed valuation or norm undetermined, or when a coordinate
    is a scalar of another prime than the one evaluated at.
    """
    reps, depths, prime = _point_box(point, prime)
    return _constructible_value(f, reps, depths, prime.p)


# ---------------------------------------------------------------------------
# printing

_ATOM, _POW, _UNARY, _MUL, _ADD = 5, 4, 3, 2, 1


def _render(t: DTerm) -> tuple[str, int]:
    if isinstance(t, Var):
        return f"x{t.index}", _ATOM
    if isinstance(t, Const):
        s = str(t.value)
        return s, (_UNARY if t.value < 0 else _ATOM)
    if isinstance(t, Inv):
        return f"inv({_rendered(t.arg)[0]})", _ATOM
    if isinstance(t, RestrictedSeries):
        cs = ", ".join(str(c) for c in t.coeffs)
        args = ", ".join(_rendered(a)[0] for a in t.arguments)
        return f"series([{cs}; tail {t.tail_valuation}], {args})", _ATOM
    if isinstance(t, Add):
        left = _rendered(t.left)[0]
        right, rp = _rendered(t.right)
        # a sum-shaped or signed right operand would reassociate bare
        if rp <= _ADD or right.startswith("-"):
            right = f"({right})"
        return f"{left} + {right}", _ADD
    if isinstance(t, Mul):
        left, lp = _rendered(t.left)
        if lp < _MUL:
            left = f"({left})"
        right, rp = _rendered(t.right)
        # a signed or product-shaped right operand would reassociate bare
        if rp <= _MUL or right.startswith("-"):
            right = f"({right})"
        return f"{left}*{right}", _MUL
    if isinstance(t, Poly):
        return _render_poly(t)
    raise TypeError(f"not a DTerm: {t!r}")


def _render_poly(t: Poly) -> tuple[str, int]:
    base, bprec = _rendered(t.argument)
    if bprec < _ATOM:
        base = f"({base})"
    pieces: list[tuple[int, Fraction]] = [
        (i, c) for i, c in enumerate(t.coeffs) if c != 0
    ]
    pieces.reverse()
    chunks: list[str] = []
    for idx, (i, c) in enumerate(pieces):
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            powed = base if i == 1 else f"{base}^{i}"
            body = powed if mag == 1 else f"{mag}*{powed}"
        if idx == 0:
            chunks.append(f"-{body}" if c < 0 else body)
        else:
            chunks.append(f" - {body}" if c < 0 else f" + {body}")
    text = "".join(chunks)
    if len(pieces) > 1:
        return text, _ADD
    c = pieces[0][1]
    if c < 0:
        return text, _UNARY
    return text, (_MUL if abs(c) != 1 or pieces[0][0] == 0 else _POW)


def _rendered(t: DTerm) -> tuple[str, int]:
    """_render(t), computed once per node: the text is also the sort key
    of every factor in a constructible function."""
    if not isinstance(t, DTerm):
        raise TypeError(f"not a DTerm: {t!r}")
    return _kept(t, "_text", _render)


def print_dterm(t: DTerm) -> str:
    return _rendered(t)[0]


def _render_exponent(e: Fraction) -> str:
    if e.denominator == 1 and e >= 0:
        return f"^{e.numerator}" if e != 1 else ""
    return f"^({e})"


def print_constructible(f: ConstructibleExpr) -> str:
    if not f.terms:
        return "0"
    chunks: list[str] = []
    for idx, term in enumerate(f.terms):
        factors = [f"v({print_dterm(vf.h)})" + _render_exponent(Fraction(vf.power))
                   for vf in term.val_factors]
        factors += [f"abs({print_dterm(nf.h)})" + _render_exponent(nf.power)
                    for nf in term.norm_factors]
        mag = abs(term.coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if idx == 0:
            chunks.append(f"-{body}" if term.coeff < 0 else body)
        else:
            chunks.append(f" - {body}" if term.coeff < 0 else f" + {body}")
    return "".join(chunks)


# ---------------------------------------------------------------------------
# parsing

@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int


class ParseError(ValueError):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{message} (at characters {span.start}..{span.end})")
        self.message = message
        self.span = span


_KEYWORDS = {"inv", "v", "abs", "series", "tail"}
_PUNCT = set("+-*^()[],;/")


def _tokenize(text: str):
    tokens: list[tuple[str, object, int, int]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("INT", int(text[i:j]), i, j))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word in _KEYWORDS:
                tokens.append(("NAME", word, i, j))
            elif word[0] == "x" and word[1:].isdigit():
                tokens.append(("VAR", int(word[1:]), i, j))
            else:
                raise ParseError(f"unknown name '{word}'", SourceSpan(i, j))
            i = j
            continue
        if ch in _PUNCT:
            tokens.append((ch, ch, i, i + 1))
            i += 1
            continue
        raise ParseError(f"unexpected character '{ch}'", SourceSpan(i, i + 1))
    tokens.append(("EOF", None, n, n))
    return tokens


# Parsed fragments: ("dterm", t) for field-valued pieces, ("expr", e) once
# v()/abs() has entered, plus transient ("vfac", h) / ("absfac", h).
_Frag = tuple[str, object]


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(
                f"expected {kind}, found {tok[0]}", SourceSpan(tok[2], tok[3])
            )
        self.pos += 1
        return tok

    def span(self):
        tok = self.peek()
        return SourceSpan(tok[2], tok[3])

    # --- fragments ---------------------------------------------------

    def parse_all(self) -> _Frag:
        """The whole text as one sum; anything left over is an error."""
        frag = self.parse_sum()
        tok = self.peek()
        if tok[0] != "EOF":
            raise ParseError("trailing input", SourceSpan(tok[2], tok[3]))
        return frag

    def parse_sum(self) -> _Frag:
        acc = self.parse_prod()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.parse_prod()
            if op == "-":
                rhs = self._neg(rhs)
            acc = self._add(acc, rhs)
        return acc

    def parse_prod(self) -> _Frag:
        acc = self.parse_unary()
        while self.peek()[0] == "*":
            self.take()
            acc = self._mul(acc, self.parse_unary())
        return acc

    def parse_unary(self) -> _Frag:
        if self.peek()[0] == "-":
            self.take()
            return self._neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> _Frag:
        atom = self.parse_atom()
        if self.peek()[0] != "^":
            return self._settle(atom)
        start = self.span()
        self.take()
        e = self._parse_exponent()
        kind, payload = atom
        if kind == "vfac":
            if e.denominator != 1 or e < 0:
                raise ParseError("valuation factors take natural powers", start)
            return ("expr", cexpr_term(1, [ValFactor(payload, int(e))] if e else []))
        if kind == "absfac":
            return ("expr", cexpr_term(1, [], [NormFactor(payload, e)] if e else []))
        if e.denominator != 1 or e < 0:
            raise ParseError("only abs() factors take signed or fractional powers", start)
        if kind == "dterm":
            return ("dterm", d_pow(payload, int(e)))
        out = ConstructibleExpr.const(1)
        for _ in range(int(e)):
            out = out * payload
        return ("expr", out)

    def _parse_exponent(self) -> Fraction:
        tok = self.peek()
        if tok[0] == "INT":
            self.take()
            return Fraction(tok[1])
        if tok[0] == "(":
            self.take()
            e = self._sign() * self._parse_rational()
            self.take(")")
            return e
        raise ParseError("expected an exponent", self.span())

    def parse_atom(self) -> _Frag:
        tok = self.peek()
        if tok[0] == "INT":
            return ("dterm", Const(self._parse_rational()))
        if tok[0] == "VAR":
            self.take()
            return ("dterm", Var(tok[1]))
        if tok[0] == "(":
            self.take()
            inner = self.parse_sum()
            self.take(")")
            return inner
        if tok[0] == "NAME":
            name = tok[1]
            if name == "series":
                return ("dterm", self._parse_series())
            if name in ("inv", "v", "abs"):
                self.take()
                self.take("(")
                arg = self._dterm(self.parse_sum(), name)
                self.take(")")
                if name == "inv":
                    return ("dterm", d_inv(arg))
                return ("vfac" if name == "v" else "absfac", arg)
        raise ParseError("expected a term", self.span())

    def _parse_rational(self) -> Fraction:
        num = self.take("INT")[1]
        if self.peek()[0] == "/":
            self.take()
            den = self.take("INT")[1]
            if den == 0:
                raise ParseError("zero denominator", self.span())
            return Fraction(num, den)
        return Fraction(num)

    def _sign(self) -> int:
        """-1 after taking a leading minus, else 1."""
        if self.peek()[0] == "-":
            self.take()
            return -1
        return 1

    def _parse_series(self) -> RestrictedSeries:
        self.take("NAME")
        self.take("(")
        self.take("[")
        coeffs = [self._sign() * self._parse_rational()]
        while self.peek()[0] == ",":
            self.take()
            coeffs.append(self._sign() * self._parse_rational())
        tail = 0
        if self.peek()[0] == ";":
            self.take()
            word = self.take("NAME")
            if word[1] != "tail":
                raise ParseError("expected 'tail'", SourceSpan(word[2], word[3]))
            tail = self._sign() * self.take("INT")[1]
        self.take("]")
        args = []
        while self.peek()[0] == ",":
            self.take()
            args.append(self._dterm(self.parse_sum(), "series"))
        self.take(")")
        if not args:
            raise ParseError("series needs at least one argument", self.span())
        return RestrictedSeries(tuple(coeffs), tail, tuple(args))

    # --- fragment algebra ---------------------------------------------

    def _settle(self, frag: _Frag) -> _Frag:
        kind, payload = frag
        if kind == "vfac":
            return ("expr", cexpr_term(1, [ValFactor(payload, 1)]))
        if kind == "absfac":
            return ("expr", cexpr_term(1, [], [NormFactor(payload, Fraction(1))]))
        return frag

    def _dterm(self, frag: _Frag, where: str) -> DTerm:
        kind, payload = frag
        if kind != "dterm":
            raise ParseError(
                f"{where}() takes a field-valued term, not a constructible function",
                self.span(),
            )
        return payload

    def _coerce_expr(self, frag: _Frag) -> ConstructibleExpr:
        kind, payload = self._settle(frag)
        if kind == "expr":
            return payload
        if isinstance(payload, Const):
            return ConstructibleExpr.const(payload.value)
        raise ParseError(
            "field-valued term used outside v() or abs()", self.span()
        )

    def _add(self, a: _Frag, b: _Frag) -> _Frag:
        a, b = self._settle(a), self._settle(b)
        if a[0] == "dterm" and b[0] == "dterm":
            return ("dterm", d_add(a[1], b[1]))
        return ("expr", self._coerce_expr(a) + self._coerce_expr(b))

    def _mul(self, a: _Frag, b: _Frag) -> _Frag:
        a, b = self._settle(a), self._settle(b)
        if a[0] == "dterm" and b[0] == "dterm":
            return ("dterm", d_mul(a[1], b[1]))
        return ("expr", self._coerce_expr(a) * self._coerce_expr(b))

    def _neg(self, a: _Frag) -> _Frag:
        a = self._settle(a)
        if a[0] == "dterm":
            return ("dterm", d_neg(a[1]))
        return ("expr", a[1].scale(-1))


def parse_dterm(text: str) -> DTerm:
    frag = _Parser(text).parse_all()
    if frag[0] != "dterm":
        raise ParseError(
            "v() and abs() build constructible functions, not terms",
            SourceSpan(0, len(text)),
        )
    return frag[1]


def parse_constructible(text: str) -> ConstructibleExpr:
    p = _Parser(text)
    return p._coerce_expr(p.parse_all())
