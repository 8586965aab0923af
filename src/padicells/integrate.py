"""Exact one-variable elimination and what it unlocks.

A prepared term delta * |(t-gamma)^a mu^-a|^(1/n) * v(t-gamma)^l lives on
one cell stage. Writing k = v(t-gamma), the stage confines k to a
progression k = v(mu) + n*j inside a window cut by the norm bounds, and
each level k carries measure eps * q^-k. The integral over the fiber is
therefore

    eps * delta * sum_k q^(-a(k - v(mu))/n) * k^l * q^-k
  = eps * delta * q^-v(mu) * sum_j (v(mu) + n j)^l * u^j,   u = q^-(a+n),

a progression sum with a rational ratio. Its closed form is a
constructible function of the base: with the bound-valuation residues
fixed, the window ends j0, j1 become v(h)/n for bound terms h rescaled
into the coset grid, so u^j0 is a norm power of h and the tail/Faulhaber
polynomials in j0 become v-powers of h. A concrete value is that closed
form evaluated at the base point, once the point's window is known to
be non-empty.

A term is integrable exactly when its window is cut on every side where
the geometric ratio does not already decay; this is read off (a, n, the
bound pattern, mu) alone, before any values. Elimination over a cell
list follows the all-or-nothing convention: one divergent cell zeroes
the entire level.

As in cell decomposition, a cell is a base cell plus a fiber condition,
and the fiber integral is uniform in the base, so eliminate_stages
integrates each distinct (integrand, last stage) pair of a level once,
however many base cells (pin or coset splits) share it. The closed forms
are built in ints: prepare_integrand and _integrate_symbolic keep raw
term lists as int numerators over one int denominator (expr.raw_product,
raw_scale, raw_sum), the window polynomials come as the integer
polynomials of sums over one denominator, and
ConstructibleExpr.of_ints builds one coefficient Fraction per kept term.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from . import polys, sums
from .cells import (
    Cell,
    CellCondition,
    StageWindow,
    _bound_valuation,
    fiber_membership,
    level_set_measure,
    stage_window,
)
from .decompose import PreparedTerm, _ball_tree, _walk
from .expr import (
    Const,
    ConstructibleExpr,
    DTerm,
    Mul,
    NormFactor,
    ValFactor,
    Var,
    as_poly_in,
    d_add,
    d_mul,
    d_pow,
    d_scale,
    eval_constructible,
    free_variables,
    print_dterm,
    raw_ints,
    raw_product,
    raw_scale,
    raw_sum,
)
from .padic import INF, PAdicScalar, Prime, rational_valuation


class NotIntegrableError(ArithmeticError):
    """A term's valuation window is unbounded on a non-decaying side."""


class ResiduesNotFixedError(ValueError):
    """Symbolic elimination needs pinned bound-valuation residues."""


class UnsupportedIntegrandError(ValueError):
    """Integrand does not reduce to monomials in t - center on the cell."""


# ---------------------------------------------------------------------------
# cell integrands

@dataclass(frozen=True)
class IntegrandTerm:
    delta: ConstructibleExpr
    a: int
    l: int

    def __post_init__(self) -> None:
        if self.l < 0:
            raise ValueError("l must be >= 0")


@dataclass(frozen=True)
class CellIntegrand:
    """Prepared terms to integrate against one cell's last stage."""

    cell: Cell
    terms: tuple[IntegrandTerm, ...]

    @staticmethod
    def of(cell: Cell, terms) -> "CellIntegrand":
        merged: dict[tuple[int, int], list[ConstructibleExpr]] = {}
        for t in terms:
            if isinstance(t, PreparedTerm) and t.cell != cell:
                raise ValueError("prepared term belongs to a different cell")
            merged.setdefault((t.a, t.l), []).append(t.delta)
        out = tuple(
            IntegrandTerm(ConstructibleExpr.sum_of(ds), a, l)
            for (a, l), ds in sorted(merged.items())
        )
        return CellIntegrand(cell, out)


def group_prepared(terms: list[PreparedTerm]) -> list[CellIntegrand]:
    """One CellIntegrand per distinct cell, first-seen order."""
    by_cell: dict[Cell, list[PreparedTerm]] = {}
    for t in terms:
        by_cell.setdefault(t.cell, []).append(t)
    return [CellIntegrand.of(c, ts) for c, ts in by_cell.items()]


def _decide_integrable(a: int, cond: CellCondition) -> None:
    # u = q^-(a+n); a capped window always converges, a one-sided window
    # only when the open side decays.
    n = cond.coset.n
    has_floor = cond.upper is not None
    has_ceil = cond.lower is not None
    if has_floor and has_ceil:
        return
    if has_floor and a + n >= 1:
        return
    if has_ceil and a + n <= -1:
        return
    raise NotIntegrableError(
        f"not integrable: exponent a={a} over an unbounded valuation window"
    )


# ---------------------------------------------------------------------------
# one stage

def integrate_cell(
    ci: CellIntegrand, base_point: list[PAdicScalar] | None = None
) -> Fraction | ConstructibleExpr:
    """Integrate the prepared terms over the cell's last stage.

    Without base_point the result is the stage's closed form, a
    constructible function of the base. It holds where the bound residue
    pins hold and the valuation window is not empty: over an empty window
    the closed form need not vanish. A stage with constant bounds decides
    both here; eliminate_stages guards the others. With base_point (scalars
    for the earlier stages) the result is 0 where the zero coset, a failed
    pin or an empty window rules the point out, and otherwise the closed
    form built with the bound residues read at the point, evaluated there.
    Raises NotIntegrableError when some term diverges structurally.
    """
    cond = ci.cell.conditions[-1]
    prime = ci.cell.prime
    if base_point is not None and len(base_point) != ci.cell.arity - 1:
        raise ValueError(
            f"base point has {len(base_point)} coordinates, "
            f"cell base has {ci.cell.arity - 1}"
        )
    zero = ConstructibleExpr.zero() if base_point is None else Fraction(0)
    if cond.coset.is_zero():
        return zero
    for t in ci.terms:
        _decide_integrable(t.a, cond)
    if base_point is None and not _constant_bounds(cond):
        return _integrate_symbolic(ci, cond, prime)
    base = list(base_point or ())
    window = stage_window(cond, base)
    if window.empty():
        return zero
    form = _integrate_symbolic(ci, cond, prime, window.v_lower, window.v_upper)
    return form if base_point is None else eval_constructible(form, base, prime)


def _constant_bounds(cond: CellCondition) -> bool:
    return all(b is None or isinstance(b, Const) for b in (cond.lower, cond.upper))


def _pinned_residue(cond: CellCondition, side: str) -> int:
    """v(bound) mod n over every base point the pins admit."""
    n = cond.coset.n
    bound = cond.lower if side == "lower" else cond.upper
    pin = cond.lower_val_residue if side == "lower" else cond.upper_val_residue
    if isinstance(bound, Const):
        # a pin that contradicts a constant bound empties the stage, where
        # the closed form holds vacuously
        return _bound_valuation(bound, [], cond.prime) % n
    if pin is not None:
        return pin
    if n == 1:
        return 0
    raise ResiduesNotFixedError(
        f"residues not fixed: the {side} bound needs a pinned valuation "
        f"residue mod {n}"
    )


def _integrate_symbolic(
    ci: CellIntegrand,
    cond: CellCondition,
    prime: Prime,
    v_lower: int | None = None,
    v_upper: int | None = None,
) -> ConstructibleExpr:
    """The closed form over the base points where the pins hold and the
    window is not empty. The bound residues mod n come from the bound
    valuations read at one base point when given, else from
    _pinned_residue."""
    n = cond.coset.n
    vmu = int(cond.coset.mu.valuation)
    mu = cond.coset.mu.value
    q = prime.p
    eps = level_set_measure(cond.coset)

    # h0, h1 are the bounds rescaled onto the coset grid: v(h0) = n*j0 and
    # v(h1) = n*j1 for the first and last attainable j.
    h0 = h1 = None
    if cond.upper is not None:
        c = 1 if cond.upper_strict else 0
        r = _pinned_residue(cond, "upper") if v_upper is None else v_upper
        h0 = d_scale(cond.upper, Fraction(q) ** (c + (vmu - r - c) % n) / mu)
    if cond.lower is not None:
        c = 1 if cond.lower_strict else 0
        r = _pinned_residue(cond, "lower") if v_lower is None else v_lower
        h1 = d_scale(cond.lower, 1 / (Fraction(q) ** (c + (r - c - vmu) % n) * mu))

    # eps * q^-vmu as sn / sd
    sn, sd = eps.numerator, eps.denominator
    if vmu >= 0:
        sd *= q**vmu
    else:
        sn *= q**-vmu
    parts = []
    for t in ci.terms:
        e = t.a + n
        u = (1, q**e) if e >= 0 else (q**-e, 1)  # q^-(a+n) as an int pair
        pw = Fraction(e, n)
        delta = raw_ints(t.delta.terms)
        for i, coeff in enumerate(sums.reindex_coeffs(t.l, vmu, n)):
            if coeff != 0:
                delta_i = raw_scale(delta, coeff * sn, sd)
                parts.append(raw_product(delta_i, _window_expr(i, u, pw, h0, h1, n, q)))
    return ConstructibleExpr.of_ints(*raw_sum(parts))


def _valuation_poly(h: DTerm, cs: tuple[int, ...], den: int, sign: int, n: int, q: int):
    """The polynomial cs/den evaluated at sign * v(h)/n, as a raw term list
    over den * n^deg(cs); a number for constant h. cs is not empty."""
    top = len(cs) - 1
    out_den = den * n**top
    if isinstance(h, Const):
        v = sign * int(rational_valuation(h.value, q))
        return out_den, [(sum(c * v**e * n ** (top - e) for e, c in enumerate(cs)), (), ())]
    return out_den, [
        (c * sign**e * n ** (top - e), (ValFactor(h, e),) if e else (), ())
        for e, c in enumerate(cs) if c
    ]


def _norm_power(h: DTerm, power: Fraction, q: int):
    """|h|^power as a raw term list; a number for constant h, whose
    valuation the coset grid makes a multiple of power's denominator."""
    if isinstance(h, Const):
        e = power * int(rational_valuation(h.value, q))
        assert e.denominator == 1, "a grid bound has an integral norm power"
        e = int(e)
        return (q**e, [(1, (), ())]) if e >= 0 else (1, [(q**-e, (), ())])
    return 1, [(1, (), (NormFactor(h, power),))]


def _window_expr(
    i: int,
    u: tuple[int, int],
    pw: Fraction,
    h0: DTerm | None,
    h1: DTerm | None,
    n: int,
    q: int,
):
    """sum_{j0 <= j <= j1} j^i u^j with j0 = v(h0)/n, j1 = v(h1)/n, as a raw
    term list; u = ua/ub is a pair of positive ints.

    |h|^pw realizes u^j because pw * v(h) = (a+n) * j; a missing end means
    the window runs to infinity on that side (the caller has already
    checked that the ratio decays there), and a missing h1 drops the tail
    term u^(j1+1) T_i(j1+1). The window polynomial T_i is
    sums._window_ints over (ub - ua)^(i+1), a negative denominator when
    u > 1 and i is even. At u = 1 the window is S(j1) - S(j0 - 1) for
    the power sum S = P_i / D of sums._faulhaber_ints."""
    ua, ub = u

    def edge(h, cs, den, sign):  # |h|^pw * (cs/den)(sign * v(h)/n)
        return raw_product(_norm_power(h, pw, q), _valuation_poly(h, cs, den, sign, n, q))

    if ua == ub:
        # a = -n: every level weighs the same, only counting remains
        assert h0 is not None and h1 is not None
        den, fs = sums._faulhaber_ints(i)
        upper_part = _valuation_poly(h1, fs[i], den, 1, n, q)
        lower_part = _valuation_poly(h0, polys.taylor_shift_int(fs[i], -1), den, 1, n, q)
        return raw_sum((upper_part, raw_scale(lower_part, -1)))
    den = (ub - ua) ** (i + 1)
    if h0 is not None:
        w = sums._window_ints(i, ua, ub)
        head = edge(h0, w, den, 1)
        if h1 is None:
            return head
        tail = edge(h1, polys.taylor_shift_int(w, 1), den, 1)
        return raw_sum((head, raw_scale(tail, -ua, ub)))
    # reflect j -> -j: sum_{j <= j1} j^i u^j = (-1)^i sum_{m >= -j1} m^i (1/u)^m
    body = edge(h1, sums._window_ints(i, ub, ua), (ua - ub) ** (i + 1), -1)
    return raw_scale(body, (-1) ** i)


# ---------------------------------------------------------------------------
# preparing an integrand against a cell

def _is_zero_term(t: DTerm) -> bool:
    return isinstance(t, Const) and t.value == 0


def _recenter(coeffs: list[DTerm], gamma: DTerm) -> list[DTerm]:
    """Coefficients of the same polynomial in (t - gamma)."""
    if _is_zero_term(gamma):
        return coeffs
    top = len(coeffs) - 1
    out = []
    for j in range(top + 1):
        s: DTerm = Const(Fraction(0))
        for i in range(j, top + 1):
            s = d_add(s, d_scale(d_mul(coeffs[i], d_pow(gamma, i - j)), comb(i, j)))
        out.append(s)
    return out


def _monomial_parts(h: DTerm, var: int, gamma: DTerm) -> tuple[DTerm | None, int]:
    """(c, d) with h = c * (t - gamma)^d, or (None, 0) when h is the zero
    polynomial in the variable; anything else is unsupported.

    A side of a product that is free of the variable is taken out before
    recentering and multiplied back onto c, so that a coefficient such as
    inv(gamma) need not cancel against gamma inside the expansion."""
    outer: list[DTerm] = []
    g = h
    while isinstance(g, Mul):
        if var not in free_variables(g.left):
            outer.append(g.left)
            g = g.right
        elif var not in free_variables(g.right):
            outer.append(g.right)
            g = g.left
        else:
            break
    coeffs = as_poly_in(g, var)
    if coeffs is None:
        raise UnsupportedIntegrandError(
            f"factor {print_dterm(h)} is not polynomial in the integration variable"
        )
    shifted = _recenter(coeffs, gamma)
    nz = [(d, c) for d, c in enumerate(shifted) if not _is_zero_term(c)]
    if not nz:
        return None, 0
    if len(nz) > 1:
        raise UnsupportedIntegrandError(
            f"factor {print_dterm(h)} is not a monomial in t - center on this cell"
        )
    d, c = nz[0]
    for side in reversed(outer):
        c = d_mul(side, c)
    return c, d


def prepare_integrand(f: ConstructibleExpr, cell: Cell) -> CellIntegrand:
    """Rewrite f on the cell as prepared terms in the last variable.

    Each factor touching the variable must become a monomial
    c * (t - center)^d once recentered. Norm powers then feed the
    exponent a (compensated by the coset scale), v-powers expand
    binomially into powers of v(t - center). A point stage (zero coset)
    is a Haar null set and gets no terms.
    """
    cond = cell.conditions[-1]
    if cond.coset.is_zero():
        return CellIntegrand(cell, ())
    var = cell.arity - 1
    gamma = cond.center
    n = cond.coset.n
    vmu = int(cond.coset.mu.valuation)
    q = cell.prime.p
    out: dict[tuple[int, int], list] = {}
    for term in f.terms:
        coeff = term.coeff
        by_l: dict[int, tuple] = {0: (coeff.denominator, [(coeff.numerator, (), ())])}
        kept_v: list[ValFactor] = []
        kept_n: list[NormFactor] = []
        a_total = 0
        extra = (1, [(1, (), ())])
        dead = False
        for vf in term.val_factors:
            if var not in free_variables(vf.h):
                kept_v.append(vf)
                continue
            c, d = _monomial_parts(vf.h, var, gamma)
            if c is None:
                raise UnsupportedIntegrandError(
                    "v-factor vanishes identically on the cell"
                )
            # (v(c) + d*K)^e with K = v(t - gamma); v(c) is a number for constant c
            e = vf.power
            vc = int(rational_valuation(c.value, q)) if isinstance(c, Const) else None
            expansion = {
                m: (1, [(comb(e, m) * d**m * (1 if vc is None else vc ** (e - m)),
                         (ValFactor(c, e - m),) if e - m and vc is None else (), ())])
                for m in range(e + 1)
            }
            by_l = _convolve(by_l, expansion)
        for nf in term.norm_factors:
            if var not in free_variables(nf.h):
                kept_n.append(nf)
                continue
            c, d = _monomial_parts(nf.h, var, gamma)
            if c is None:
                if nf.power > 0:
                    dead = True
                    break
                raise UnsupportedIntegrandError(
                    "norm of an identically-zero factor with a non-positive power"
                )
            # e = pn/pd; a grows by n*d*e, and d*e*vmu is the exponent below
            pn, pd = nf.power.numerator, nf.power.denominator
            a_inc, a_rem = divmod(n * d * pn, pd)
            comp, comp_rem = divmod(d * pn * vmu, pd)
            if a_rem or comp_rem:
                raise UnsupportedIntegrandError(
                    f"norm power {nf.power} of degree {d} does not land on the "
                    f"coset grid mod {n}"
                )
            a_total += a_inc
            # |c (t-gamma)^d|^e = |c|^e q^(-de vmu) * q^(-a(k - vmu)/n); |c|^e
            # is a number for constant c unless e v(c) is fractional, which
            # evaluation reports
            s = -comp  # the exponent of q
            kept_c = (NormFactor(c, nf.power),)
            if isinstance(c, Const):
                ec, ec_rem = divmod(pn * int(rational_valuation(c.value, q)), pd)
                if not ec_rem:
                    s -= ec
                    kept_c = ()
            scale = (1, [(q**s, (), kept_c)]) if s >= 0 else (q**-s, [(1, (), kept_c)])
            extra = raw_product(extra, scale)
        if dead:
            continue
        base = raw_product(extra, (1, [(1, tuple(kept_v), tuple(kept_n))]))
        for l, terms in by_l.items():
            out.setdefault((a_total, l), []).append(raw_product(terms, base))
    # as CellIntegrand.of merges them: one term per (a, l), in that order
    return CellIntegrand(cell, tuple(
        IntegrandTerm(ConstructibleExpr.of_ints(*raw_sum(parts)), a, l)
        for (a, l), parts in sorted(out.items())
    ))


def _convolve(a: dict[int, tuple], b: dict[int, tuple]) -> dict[int, tuple]:
    out: dict[int, list] = {}
    for i, x in a.items():
        for j, y in b.items():
            out.setdefault(i + j, []).append(raw_product(x, y))
    return {k: raw_sum(parts) for k, parts in out.items()}


def prepared_power(terms: list[PreparedTerm], s0: int) -> list[PreparedTerm]:
    """Prepared description of |f|^s0 from a norm-only description of f.

    On each cell |f| = |delta| * |(t-gamma)^a mu^-a|^(1/n), so raising to
    s0 scales a and replaces delta by q^(-s0 v(delta)). Requires l = 0
    and constant deltas, which is what decomposition emits.
    """
    if s0 < 1:
        raise ValueError("the power must be a positive integer")
    out = []
    for t in terms:
        if t.l != 0:
            raise ValueError("only norm-only prepared terms can be raised to a power")
        val = t.delta.constant_value()
        p = t.cell.prime.p
        if val == 0:
            delta = ConstructibleExpr.zero()
        else:
            v = rational_valuation(val, p)
            delta = ConstructibleExpr.const(Fraction(p) ** (-s0 * int(v)))
        out.append(PreparedTerm(delta, t.a * s0, 0, t.cell, t.center_floor))
    return out


# ---------------------------------------------------------------------------
# elimination over a cell list

@dataclass(frozen=True)
class EliminationResult:
    value: ConstructibleExpr
    integrable: bool


def eliminate_last_variable(
    integrands: list[CellIntegrand],
    base_point: list[PAdicScalar] | None = None,
) -> EliminationResult:
    """Sum of the stage integrals over the cells.

    All-or-nothing: one structurally divergent cell makes the whole level
    zero with integrable=False, no matter the cell order.
    """
    pieces = []
    for ci in integrands:
        try:
            piece = integrate_cell(ci, base_point)
        except NotIntegrableError:
            return EliminationResult(ConstructibleExpr.zero(), False)
        assert isinstance(piece, ConstructibleExpr if base_point is None else Fraction)
        pieces.append(piece)
    if base_point is None:
        return EliminationResult(ConstructibleExpr.sum_of(pieces), True)
    return EliminationResult(ConstructibleExpr.const(sum(pieces, Fraction(0))), True)


def _pin_settled(bound: DTerm, n: int, r: int, conds) -> bool | None:
    """Decide a pin v(bound) = r mod n from the prefix structure alone, if
    possible. A pin on x_i is settled by stage i when that stage fixes
    v(x_i) mod n itself: a zero-centered coset whose modulus n_i is a
    multiple of n, or a constant point."""
    if not isinstance(bound, Var) or bound.index >= len(conds):
        return None
    cond = conds[bound.index]
    if cond.coset.is_zero():
        if isinstance(cond.center, Const) and cond.center.value != 0:
            v = rational_valuation(cond.center.value, cond.prime.p)
            return int(v) % n == r
        return None
    if not _is_zero_term(cond.center):
        return None
    if cond.coset.n % n == 0:
        return int(cond.coset.mu.valuation) % n == r
    return None


def _window_settled(cond: CellCondition, prefix) -> bool | None:
    """Decide from the prefix structure alone whether a two-sided window
    whose pins hold is non-empty, if possible. That takes one varying
    bound, a bare x_i whose stage i confines v(x_i) by itself: zero
    centered, a nonzero coset and constant bounds. The window grows or
    shrinks monotonically with v(x_i): it is non-empty everywhere when it
    is at the least favorable admissible v(x_i), and empty everywhere when
    it is at the most favorable one."""
    lower_varies = not isinstance(cond.lower, Const)
    if lower_varies == (not isinstance(cond.upper, Const)):
        return None
    bound, fixed = (cond.lower, cond.upper) if lower_varies else (cond.upper, cond.lower)
    if not isinstance(bound, Var) or bound.index >= len(prefix):
        return None
    base = prefix[bound.index]
    if base.coset.is_zero() or not _is_zero_term(base.center) or not _constant_bounds(base):
        return None
    lo, hi = stage_window(base, []).levels()
    if lo > hi:
        return False  # the prefix cell is empty
    v_fixed = _bound_valuation(fixed, [], cond.prime)

    def empty_at(v) -> bool:
        if lower_varies:
            return StageWindow.of(cond, v, v_fixed).empty()
        return StageWindow.of(cond, v_fixed, v).empty()

    # a larger v(lower) raises the window's top, a larger v(upper) its floor;
    # an infinite extreme is never reached
    worst, best = (lo, hi) if lower_varies else (hi, lo)
    if isinstance(worst, int) and not empty_at(worst):
        return True
    if isinstance(best, int) and empty_at(best):
        return False
    return None


def _stage_settled(cond: CellCondition, prefix) -> bool | None:
    """Whether a stage's symbolic result holds on its whole prefix cell
    (True), nowhere on it (False), or only where the base point passes the
    stage as a guard (None): where its pins on varying bounds hold and,
    when it is two-sided, its window is not empty. Derived residues (n = 1)
    are facts, and integrate_cell decides constant bounds itself."""
    if _constant_bounds(cond):
        return True
    held = [
        _pin_settled(bound, cond.coset.n, pin, prefix)
        for bound, pin in (
            (cond.lower, cond.lower_val_residue),
            (cond.upper, cond.upper_val_residue),
        )
        if pin is not None and not isinstance(bound, Const)
    ]
    if False in held:
        return False
    if None in held:
        return None
    if cond.lower is None or cond.upper is None:
        return True  # a one-sided window is never empty
    return _window_settled(cond, prefix)


@dataclass(frozen=True)
class GuardedPiece:
    """A symbolic result on the base cell `conditions` (empty: no base
    variables left), valid where the base point passes every guard stage
    (see _stage_settled)."""

    conditions: tuple[CellCondition, ...]
    guards: tuple[CellCondition, ...]
    value: ConstructibleExpr


def eliminate_stages(
    f: ConstructibleExpr, cells: list[Cell], k: int
) -> tuple[GuardedPiece, ...] | None:
    """Eliminate the last k variables of every cell symbolically, stage by
    stage, merging results over common cell prefixes. A stage whose result
    depends on the base point becomes a guard; a guard left on an
    eliminated variable raises ValueError. None when some stage is not
    integrable: one divergent cell zeroes the whole integral.

    A cell is a base cell plus a fiber condition, and the integral over the
    fiber is uniform in the base: prepare_integrand and integrate_cell read
    only the last stage, the prime and the arity, which one level shares.
    So each level integrates each distinct fiber (piece value, last stage)
    once, when a piece first meets it, and pieces that differ only in their
    prefix (pin and coset splits of the base) reuse that closed form; the
    table lives for one level of one call. The stage test, the guards and
    the grouping by (prefix, guards) still run per piece, in order, and an
    error comes from the first piece that meets its fiber, as it would if
    every piece were integrated afresh. Each closed form is built as raw
    int numerators over one denominator and canonicalized once: a
    (prefix, guards) group that holds one closed form keeps it as it is,
    already canonical, and only a group of two or more is summed again.
    The table keys hash their expressions and stages once (expr._node).
    """
    arities = {c.arity for c in cells}
    if len(arities) != 1:
        raise ValueError("cells of mixed arity")
    arity = arities.pop()
    if not 0 <= k <= arity:
        raise ValueError("base point does not match the variables kept")
    pieces = [GuardedPiece(c.conditions, (), f) for c in cells]
    for _ in range(k):
        grouped: dict[tuple, list[ConstructibleExpr]] = {}
        fibers: dict[tuple, ConstructibleExpr] = {}
        for piece in pieces:
            conds = piece.conditions
            fiber = (piece.value, conds[-1])
            value = fibers.get(fiber)
            if value is None:
                try:
                    value = integrate_cell(prepare_integrand(piece.value, Cell(conds)))
                except NotIntegrableError:
                    return None
                fibers[fiber] = value
            prefix = conds[:-1]
            settled = _stage_settled(conds[-1], prefix)
            if settled is False:
                continue
            guards = piece.guards if settled else piece.guards + (conds[-1],)
            grouped.setdefault((prefix, guards), []).append(value)
        pieces = [
            GuardedPiece(prefix, guards,
                         values[0] if len(values) == 1 else ConstructibleExpr.sum_of(values))
            for (prefix, guards), values in grouped.items()
        ]
    for piece in pieces:
        for g in piece.guards:
            bounds = [b for b in (g.lower, g.upper) if b is not None]
            if any(i >= arity - k for b in bounds for i in free_variables(b)):
                raise ValueError(
                    "a pin or window guard references an eliminated variable; "
                    "pin the stages in elimination order, or split the base "
                    "cell so that its windows are decided"
                )
    return tuple(pieces)


def evaluate_pieces(
    pieces: tuple[GuardedPiece, ...], base_point: tuple, prime: Prime
) -> Fraction:
    """The eliminated integral at base_point (rationals for the kept
    variables): each piece counts where the point lies in its base cell
    and its guards hold."""
    point = [PAdicScalar(Fraction(x), prime) for x in base_point]
    total = Fraction(0)
    for piece in pieces:
        if piece.conditions and not fiber_membership(Cell(piece.conditions), point):
            continue
        if any(stage_window(g, point).empty() for g in piece.guards):
            continue
        total += eval_constructible(piece.value, point, prime)
    return total


def integrate_full(
    f: ConstructibleExpr,
    cells: list[Cell],
    eliminate: int | None = None,
    base_point: tuple = (),
) -> EliminationResult:
    """Eliminate the trailing variables of every cell and evaluate.

    All cells must share one arity. eliminate_stages runs once; its
    pieces are evaluated at base_point (rationals for the untouched
    leading variables). Cells with n >= 2 symbolic bounds must come in
    pinned already.
    """
    if not cells:
        return EliminationResult(ConstructibleExpr.zero(), True)
    if eliminate is None:
        eliminate = cells[0].arity - len(base_point)
    if cells[0].arity - eliminate != len(base_point):
        raise ValueError("base point does not match the variables kept")
    pieces = eliminate_stages(f, cells, eliminate)
    if pieces is None:
        return EliminationResult(ConstructibleExpr.zero(), False)
    value = evaluate_pieces(pieces, base_point, cells[0].prime)
    return EliminationResult(ConstructibleExpr.const(value), True)


# ---------------------------------------------------------------------------
# local zeta functions

@dataclass(frozen=True)
class ZetaRational:
    """numerator(T) / prod over (c, d) of (1 - q^-c T^d)."""

    numerator: polys.PolyQ
    denominator_factors: tuple[tuple[int, int], ...]
    prime: Prime

    def evaluate(self, T0) -> Fraction:
        T0 = Fraction(T0)
        den = Fraction(1)
        for c, d in self.denominator_factors:
            den *= 1 - Fraction(self.prime.p) ** (-c) * T0**d
        if den == 0:
            raise ZeroDivisionError(f"pole at T = {T0}")
        return polys.evaluate(self.numerator, T0) / den

    def series(self, order: int) -> list[Fraction]:
        """Power-series coefficients of Z(T) through T^order."""
        out = [Fraction(0)] * (order + 1)
        for i, c in enumerate(self.numerator[: order + 1]):
            out[i] = c
        q = self.prime.p
        for c, d in self.denominator_factors:
            expanded = [Fraction(0)] * (order + 1)
            for start in range(order + 1):
                if out[start] == 0:
                    continue
                m = 0
                while start + m * d <= order:
                    expanded[start + m * d] += out[start] * Fraction(q) ** (-c * m)
                    m += 1
            out = expanded
        return out


def _denominator_poly(c: int, d: int, q: int) -> polys.PolyQ:
    out = [Fraction(0)] * (d + 1)
    out[0] = Fraction(1)
    out[d] = -Fraction(q) ** (-c)
    return tuple(out)


def igusa_zeta(f: polys.PolyQ, p: Prime, precision_N: int = 8) -> ZetaRational:
    """Z(T) = integral over Z_p of T^v(f(t)) dt, exactly.

    Decomposition writes |f| = |d_m| q^-mk on each ball of radius q^-j
    about gamma, k = v(t - gamma), so the ball contributes
    sum_{k >= j} T^(v(d_m) + mk) * (1 - 1/q) q^-k, a geometric progression
    with ratio q^-1 T^m; its center is null. The balls come as the
    decomposer's records, (v(d_m), m, j) read straight off each, with no
    cell or prepared term built.
    """
    # the pieces sharing a denominator factor 1 - q^-1 T^a are summed
    # first, then each sum is brought over the common denominator once
    groups: dict[int, list[Fraction]] = {}
    q = p.p
    for ball in _ball_tree(f, p, None, precision_N):
        assert ball.d_m != 0, "ball pieces carry a nonzero unit scale"
        dv = int(rational_valuation(ball.d_m, q))
        a, j = ball.m, ball.j
        degree = dv + a * j
        if degree < 0:
            raise ValueError(
                "zeta needs v(f) >= 0 on the domain; scale the polynomial first"
            )
        group = groups.setdefault(a, [])
        group.extend([Fraction(0)] * (degree + 1 - len(group)))
        group[degree] += Fraction(1, q**j) if a == 0 else Fraction(q - 1, q ** (j + 1))
    dens = tuple(sorted((1, a) for a in groups if a != 0))
    num: polys.PolyQ = ()
    for a, group in groups.items():
        piece = tuple(group)
        for c, d in dens:
            if (c, d) == (1, a):
                continue
            piece = polys.mul(piece, _denominator_poly(c, d, q))
        num = polys.add(num, piece)
    return ZetaRational(num, dens, p)


def root_counts(f: polys.PolyQ, p: Prime, i_max: int) -> list[int]:
    """N_i = #{x mod p^i : f(x) = 0 mod p^i}; N_0 = 1. A root mod p^i is a
    root mod p^(i-1), so the classes are counted on decompose's ball walk,
    which splits only the roots mod p^i for i < i_max: about
    p * (N_0 + ... + N_(i_max-1)) evaluations."""
    for c in f:
        if Fraction(c).denominator != 1:
            raise ValueError("integer coefficients required for residue counting")
    fi = tuple(int(c) for c in f)
    out = [0] * (i_max + 1)

    def visit(x: int, i: int):
        if polys.evaluate_int(fi, x) % p.p**i:
            return None
        out[i] += 1
        return () if i < i_max else None

    _walk(visit, p.p, 0, 0)
    return out


@dataclass(frozen=True)
class PoincareReport:
    passed: bool
    counts: tuple[int, ...]
    expected: tuple[Fraction, ...]


def poincare_check(
    f: polys.PolyQ, p: Prime, i_max: int = 6, z: ZetaRational | None = None
) -> PoincareReport:
    """Consistency check between Z(T) and the root counts N_i.

    With M_i = meas{v(f) >= i} = N_i p^-i, the series P(T) = sum M_i T^i
    satisfies (1 - T) P = 1 - T Z, because Z = sum_k (M_k - M_{k+1}) T^k
    telescopes. So the partial sums of the series of 1 - T*Z must hit
    N_i p^-i, which this verifies by direct counting. z is the Z(T) to
    check, computed here when None; Z(T) is exact, so the precision it
    was decomposed at does not matter.
    """
    if z is None:
        z = igusa_zeta(f, p, max(8, i_max + 4))
    zs = z.series(i_max)
    counts = root_counts(f, p, i_max)
    expected = [Fraction(1)]
    for i in range(1, i_max + 1):
        expected.append(expected[-1] - zs[i - 1])
    passed = all(
        Fraction(counts[i], p.p**i) == expected[i] for i in range(i_max + 1)
    )
    return PoincareReport(passed, tuple(counts), tuple(expected))


# ---------------------------------------------------------------------------
# sums over counting variables

@dataclass(frozen=True)
class SimpleTerm:
    """coeff * prod z_i^powers[i] * q^(-sum q_coeffs[i] z_i) over the box
    lower[i] <= z_i <= upper[i] (None: unbounded below, INF: above)."""

    coeff: Fraction
    powers: tuple[int, ...]
    q_coeffs: tuple[int, ...]
    lower: tuple[int | None, ...]
    upper: tuple[int | float, ...]

    def __post_init__(self) -> None:
        k = len(self.powers)
        if not (len(self.q_coeffs) == len(self.lower) == len(self.upper) == k):
            raise ValueError("per-variable tuples of unequal length")
        if any(e < 0 for e in self.powers):
            raise ValueError("powers must be >= 0")


@dataclass(frozen=True)
class SimpleFunctionExpr:
    arity: int
    terms: tuple[SimpleTerm, ...]

    def __post_init__(self) -> None:
        for t in self.terms:
            if len(t.powers) != self.arity:
                raise ValueError("term arity mismatch")


def evaluate_simple(f: SimpleFunctionExpr, z: tuple[int, ...], q: int) -> Fraction:
    if len(z) != f.arity:
        raise ValueError("point arity mismatch")
    total = Fraction(0)
    for t in f.terms:
        inside = all(
            (t.lower[i] is None or z[i] >= t.lower[i])
            and (t.upper[i] == INF or z[i] <= t.upper[i])
            for i in range(f.arity)
        )
        if not inside:
            continue
        acc = t.coeff
        for i in range(f.arity):
            acc *= Fraction(z[i]) ** t.powers[i]
            acc *= Fraction(q) ** (-t.q_coeffs[i] * z[i])
        total += acc
    return total


def sum_eliminate_simple(f: SimpleFunctionExpr, p: Prime) -> SimpleFunctionExpr:
    """Sum out the last counting variable exactly.

    sum_z z^e q^(-cz) over lo <= z <= hi is the progression sum with ratio
    q^-c. Divergent tails raise, as does a range with no lower end.
    """
    if f.arity == 0:
        raise ValueError("no variable left to sum")
    last = f.arity - 1
    merged: dict[tuple, Fraction] = {}
    for t in f.terms:
        lo, hi = t.lower[last], t.upper[last]
        if lo is None:
            raise ValueError(f"unsupported range: z_{last} has no lower end")
        ratio = Fraction(p.p) ** -t.q_coeffs[last]
        try:
            value = sums.sum_progression(
                sums.ProgressionSum(t.powers[last], ratio, 0, 1, lo, hi)
            )
        except sums.DivergentSumError as exc:
            raise sums.DivergentSumError(f"divergent sum over z_{last}") from exc
        if value == 0:
            continue
        key = (t.powers[:last], t.q_coeffs[:last], t.lower[:last], t.upper[:last])
        merged[key] = merged.get(key, Fraction(0)) + t.coeff * value
    terms = tuple(
        SimpleTerm(v, *k) for k, v in merged.items() if v != 0
    )
    return SimpleFunctionExpr(f.arity - 1, terms)
