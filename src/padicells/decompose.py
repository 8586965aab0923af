"""Univariate cell decomposition of |f| over balls in Z_p.

The strategy is a ball tree. Factor f over Q once; locate the Z_p-roots
of each irreducible factor (exact for linear factors, certified Hensel
lifts otherwise); then refine balls until each one either contains no
root and |f| is provably constant on it, or contains exactly one root
gamma and |f(t)| = |delta| * |t - gamma|^multiplicity holds on it. Both
facts are read off the Taylor coefficients of f at the ball center: on
|u| <= p^-j the term d_i u^i wins the ultrametric race iff
v(d_i) + i*k is the strict minimum for every attainable k = v(u).

Every finished ball is emitted as a punctured cell plus the 0-cell at
its center, so the output partitions the ball exactly, points included.

Centers of non-rational roots are approximations certified to a stated
depth. Below valuation center_floor the description is not certified;
the lift depth is chosen so that floor lies beyond working precision,
where no residue class can determine either side of the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from . import polys
from .cells import (
    Cell,
    CellCondition,
    cell_to_json,
    point_cell,
    punctured_ball_cell,
    stage_center,
    stage_window,
)
from .expr import Const, ConstructibleExpr
from .padic import (
    INF,
    PAdicScalar,
    Prime,
    in_coset,
    int_valuation,
    rational_valuation,
)


class HenselConditionError(ValueError):
    """Seed does not dominate its derivative strongly enough to lift."""


class PrecisionExhausted(ArithmeticError):
    """Subdivision hit the precision cap without certifying constancy."""


@dataclass(frozen=True)
class HenselRoot:
    """A Z_p-root known mod p^precision through its representative approx."""

    approx: Fraction
    precision: int


@dataclass(frozen=True)
class PreparedTerm:
    """One summand delta * |(t-gamma)^a mu^-a|^(1/n) * v(t-gamma)^l on a cell.

    center_floor, when set, is the valuation depth down to which the
    description is certified; the center is only a class representative
    of a non-rational root below it.
    """

    delta: ConstructibleExpr
    a: int
    l: int
    cell: Cell
    center_floor: int | None = None

    def __post_init__(self) -> None:
        if self.l < 0:
            raise ValueError("l must be >= 0")


# ---------------------------------------------------------------------------
# Hensel lifting

def hensel_lift(f: polys.PolyQ, p: Prime, seed, target_N: int) -> HenselRoot:
    """Newton-lift a seed residue to a root class mod p^target_N.

    Requires v(f(seed)) > 2*v(f'(seed)); then the sequence converges to
    the unique root in the seed's dominance ball and the returned approx
    satisfies v(f(approx)) >= target_N with the root congruent to approx
    mod p^target_N.
    """
    if target_N < 1:
        raise ValueError("target_N must be >= 1")
    x = Fraction(seed)
    df = polys.derivative(f)
    fx = polys.evaluate(f, x)
    e = rational_valuation(polys.evaluate(df, x), p.p)
    w = rational_valuation(fx, p.p)
    if not w > 2 * e:
        raise HenselConditionError(
            f"Hensel condition fails: v(f(seed)) = {w} is not > 2*v(f'(seed)) = {2 * e}"
        )
    # invariant: v(f(x)) = w keeps doubling relative to e, v(f'(x)) stays e
    while w != INF and w - e < target_N:
        x = x - fx / polys.evaluate(df, x)
        fx = polys.evaluate(f, x)
        w = rational_valuation(fx, p.p)
    if w == INF or rational_valuation(x, p.p) < 0:
        return HenselRoot(x, target_N)
    assert isinstance(e, int)
    modulus = p.p ** (target_N + max(e, 0))
    num, den = x.numerator, x.denominator
    approx = Fraction(num * pow(den, -1, modulus) % modulus)
    return HenselRoot(approx, target_N)


def _zp_root_seeds(g: polys.PolyQ, p: Prime, depth_cap: int) -> list[Fraction]:
    """Seeds in Z_p from which g Hensel-lifts, one per root, by breadth-first
    refinement of the residue classes on which g can vanish."""
    dg = polys.derivative(g)
    seeds: list[Fraction] = []
    level = [(Fraction(r), 1) for r in range(p.p)]
    while level:
        nxt = []
        for r, k in level:
            w = rational_valuation(polys.evaluate(g, r), p.p)
            if w < k:
                continue
            e = rational_valuation(polys.evaluate(dg, r), p.p)
            # Hensel's lemma gives one root per class only inside its
            # uniqueness ball: the class must be narrower than |g'(r)|
            if w > 2 * e and k > e:
                seeds.append(r)
                continue
            if k >= depth_cap:
                raise PrecisionExhausted(
                    "precision exhausted: root isolation stalled at depth "
                    f"{k} for a degree-{polys.degree(g)} factor"
                )
            nxt.extend((r + i * p.p**k, k + 1) for i in range(p.p))
        level = nxt
    return seeds


@dataclass(frozen=True)
class _TrackedRoot:
    root: HenselRoot
    exact: bool
    factor: polys.PolyQ  # squarefree factor the root came from
    multiplicity: int

    def deepen(self, p: Prime, target_N: int) -> "_TrackedRoot":
        if self.exact or self.root.precision >= target_N:
            return self
        lifted = hensel_lift(self.factor, p, self.root.approx, target_N)
        return replace(self, root=lifted)


def _factor_over_q(f: polys.PolyQ):
    """The irreducible factors of f over Q with their multiplicities:
    primitive integer polynomials with positive leading coefficient,
    ordered by degree, then by coefficients."""
    # loaded only where a polynomial is factored: sympy is slow to import
    from sympy.polys.domains import ZZ
    from sympy.polys.factortools import dup_factor_list

    ints, _ = polys.integerize(f)
    _, factors = dup_factor_list(list(reversed(ints)), ZZ)
    # int(): ZZ's elements are gmpy2 integers where gmpy2 is installed
    out = [(polys.poly_from(int(c) for c in reversed(g)), m) for g, m in factors]
    out.sort(key=lambda fe: (polys.degree(fe[0]), fe[0]))
    return out


def _zp_roots(f: polys.PolyQ, p: Prime, lift_N: int) -> list[_TrackedRoot]:
    roots: list[_TrackedRoot] = []
    for g, m in _factor_over_q(f):
        if polys.degree(g) < 1:
            continue
        if polys.degree(g) == 1:
            r = -g[0] / g[1]
            if rational_valuation(r, p.p) < 0:
                continue
            roots.append(_TrackedRoot(HenselRoot(r, lift_N), True, g, m))
            continue
        for seed in _zp_root_seeds(g, p, lift_N):
            lifted = hensel_lift(g, p, seed, lift_N)
            if any(
                not rt.exact
                and rt.factor == g
                and rational_valuation(rt.root.approx - lifted.approx, p.p)
                >= min(rt.root.precision, lift_N)
                for rt in roots
            ):
                continue
            roots.append(_TrackedRoot(lifted, False, g, m))
    roots.sort(key=lambda rt: rt.root.approx)
    return roots


# ---------------------------------------------------------------------------
# ball tree

def _ball_hull(domain: Cell | None, p: Prime) -> tuple[Fraction, int]:
    """(center, j) of the closed ball the domain fills, puncture aside."""
    if domain is None:
        return Fraction(0), 0
    if domain.arity != 1:
        raise ValueError("decomposition domain must be a 1-variable cell")
    cond = domain.conditions[0]
    if not isinstance(cond.center, Const):
        raise ValueError("domain center must be constant")
    if cond.coset.is_zero() or cond.coset.n != 1:
        raise ValueError("domain must be a punctured ball with a trivial coset")
    if cond.lower is not None or cond.lower_val_residue is not None:
        raise ValueError("domain must be a full ball, not an annulus")
    if cond.upper is None or not isinstance(cond.upper, Const):
        raise ValueError("domain must carry a constant radius bound")
    j = stage_window(cond, []).k_min
    c = cond.center.value
    if j < 0 or rational_valuation(c, p.p) < 0:
        raise ValueError("domain escapes Z_p")
    assert isinstance(j, int)
    return c, j


def _emit_pair(
    out: list[PreparedTerm],
    p: Prime,
    center: Fraction,
    j: int,
    a: int,
    delta_ball: Fraction,
    delta_point: Fraction,
    floor: int | None,
) -> None:
    out.append(
        PreparedTerm(
            ConstructibleExpr.const(delta_ball), a, 0, punctured_ball_cell(p, center, j),
            floor,
        )
    )
    out.append(
        PreparedTerm(
            ConstructibleExpr.const(delta_point), 0, 0, point_cell(p, Const(center)), floor
        )
    )


def _constant_norm_on_ball(d: polys.PolyQ, j: int, p: int) -> bool:
    """|sum d_i u^i| = |d_0| for every v(u) >= j."""
    if not d or d[0] == 0:
        return False
    v0 = rational_valuation(d[0], p)
    return all(
        v0 < rational_valuation(d[i], p) + i * j for i in range(1, len(d)) if d[i]
    )


def _dominant_root_floor(d: polys.PolyQ, m: int, j: int, p: int):
    """Largest K with |f(gamma+u)| = |d_m||u|^m for all j <= v(u) <= K,
    or None when the m-th Taylor term never dominates down the ball."""
    vm = rational_valuation(d[m], p)
    for i in range(m + 1, len(d)):
        if d[i] and not vm < rational_valuation(d[i], p) + (i - m) * j:
            return None
    floor: int | float = INF
    for i in range(m):
        if not d[i]:
            continue
        gap = rational_valuation(d[i], p) - vm
        if gap <= (m - i) * j:
            return None
        # (m-i)*k < gap, i.e. k <= ceil(gap/(m-i)) - 1
        floor = min(floor, -(-gap // (m - i)) - 1)
    return floor


def decompose_univariate(
    f: polys.PolyQ,
    p: Prime,
    domain: Cell | None = None,
    precision_N: int = 8,
) -> list[PreparedTerm]:
    """Partition a ball into cells on which |f| has a prepared description.

    Deterministic: balls split into their p children in residue order and
    pieces are emitted in depth-first order.
    """
    if polys.is_zero(f):
        raise ValueError("f must not be identically zero")
    if precision_N < 1:
        raise ValueError("precision must be >= 1")
    hull_center, hull_j = _ball_hull(domain, p)
    lift_N = max(2 * precision_N, precision_N + 16)
    roots = [
        rt
        for rt in _zp_roots(f, p, lift_N)
        if rational_valuation(rt.root.approx - hull_center, p.p) >= hull_j
    ]
    out: list[PreparedTerm] = []

    def handle(center: Fraction, j: int) -> None:
        nonlocal roots
        if j > precision_N:
            raise PrecisionExhausted(
                f"precision exhausted: subdivision passed depth {precision_N}"
            )
        local = [
            k
            for k, rt in enumerate(roots)
            if rational_valuation(rt.root.approx - center, p.p) >= j
        ]
        if len(local) == 1:
            rt = roots[local[0]]
            m = rt.multiplicity
            while True:
                gamma = rt.root.approx
                d = polys.taylor_shift(f, gamma)
                floor = _dominant_root_floor(d, m, j, p.p)
                if floor is None:
                    break
                if rt.exact or floor >= precision_N + 2:
                    _emit_pair(
                        out,
                        p,
                        gamma,
                        j,
                        m,
                        d[m],
                        d[0],
                        None if floor == INF else int(floor),
                    )
                    return
                deeper = rt.deepen(p, 2 * rt.root.precision)
                roots[local[0]] = rt = deeper
        elif not local:
            d = polys.taylor_shift(f, center)
            if _constant_norm_on_ball(d, j, p.p):
                _emit_pair(out, p, center, j, 0, d[0], d[0], None)
                return
        for i in range(p.p):
            handle(center + i * Fraction(p.p) ** j, j + 1)

    handle(hull_center, hull_j)
    return out


# ---------------------------------------------------------------------------
# exhaustive verification

@dataclass(frozen=True)
class VerifyReport:
    passed: bool
    classes_checked: int
    equality_checks: int
    counterexamples: tuple[str, ...]


@dataclass(frozen=True)
class _ReadTerm:
    """A prepared term as the verifier reads it, once: the center of its
    cell, the lifts r mod p^N the cell holds with k = v(r - center), and
    the constants of the prepared value."""

    center: Fraction
    lifts: dict[int, int | float]
    point: bool
    vd: int | float  # v(delta), INF for delta = 0
    a: int
    vmu: int | float
    n: int

    def prepared_valuation(self, k: int):
        """v of the prepared description at v(t-gamma) = k; None if not integral."""
        if self.vd == INF or self.a == 0:
            return self.vd
        e, rem = divmod(self.a * (k - self.vmu), self.n)
        return None if rem else self.vd + e


def _level_lifts(c0: int, k: int, p: int, N: int):
    """The lifts r mod p^N with v(r - c0) = k, for 0 <= k < N: c0 + j*p^k
    reduced mod p^N, for 0 < j < p^(N-k) with p not dividing j."""
    pN, step = p**N, p**k
    return ((c0 + j * step) % pN for j in range(1, pN // step) if j % p)


def _read_term(term: PreparedTerm, p: Prime, N: int) -> _ReadTerm:
    """Read a term's cell once and list its members among the lifts
    r mod p^N, level by level, with k = v(r - center).

    With center a/b, p | b puts every lift at level -v(b). Otherwise
    c0 = a/b mod p^N is the one lift whose level can reach N or INF, and
    the lifts at each level k < N are listed directly; only the levels
    the coset admits are visited, and only a coset with n > 1 asks
    in_coset of those members. The cost is the number of lifts listed
    plus one step per level, not p^N."""
    cell = term.cell
    if cell.arity != 1:
        raise ValueError(f"point has 1 coordinates, cell has {cell.arity}")
    cond = cell.conditions[0]
    center = stage_center(cond, []).value
    window = stage_window(cond, [])
    _center_value(cond)  # prepared cells have constant centers
    delta = term.delta.constant_value()
    a, b = center.numerator, center.denominator
    vb = int_valuation(b, p.p)
    k_min, k_max = window.k_min, window.k_max
    coset = cond.coset
    zero, n, vmu = coset.is_zero(), coset.n, coset.mu.valuation
    pN = p.p**N
    lifts: dict[int, int | float] = {}
    if vb > 0:
        # p divides b but not a, so r*b - a is a unit for every r
        if not zero and k_min <= -vb <= k_max and (-vb - vmu) % n == 0:
            lifts = dict.fromkeys(range(pN), -vb)
    else:
        c0 = a * pow(b, -1, pN) % pN
        x0 = c0 * b - a  # divisible by p^N
        k0 = int_valuation(x0, p.p) if x0 else INF
        # membership in a zero coset is r = center, in any other r != center
        if k_min <= k0 <= k_max and (x0 == 0) == zero:
            lifts[c0] = k0
        lo, hi = max(k_min, 0), min(k_max, N - 1)
        if not zero and lo <= hi:
            first = int(lo) + (vmu - int(lo)) % n  # least level on the coset's grid
            for k in range(first, int(hi) + 1, n):
                lifts.update(dict.fromkeys(_level_lifts(c0, k, p.p, N), k))
    if n > 1 and not zero:
        lifts = {
            r: k for r, k in lifts.items()
            if in_coset(PAdicScalar(Fraction(r * b - a, b), p), coset)
        }
    return _ReadTerm(
        center,
        lifts,
        zero,
        INF if delta == 0 else rational_valuation(delta, p.p),
        term.a,
        vmu,
        n,
    )


def verify_prepared(
    terms: list[PreparedTerm],
    f: polys.PolyQ,
    p: Prime,
    N: int,
    domain: Cell | None = None,
) -> VerifyReport:
    """Check every residue lift mod p^N: disjointness, coverage of the
    domain's ball hull, and |f| = prepared value wherever the class
    determines both sides. Point cells are checked exactly at their
    single member. Coverage is judged against the hull because the
    punctures in 1-cells are null points supplied by companion 0-cells.

    Each cell is read once (center, valuation window, coset) and its
    members are listed level by level, so the cost is O(p^N + members)
    rather than O(cells * p^N). Overlaps and gaps are still found per
    lift: every lift counts the cells that listed it.
    """
    fi, fscale = polys.integerize(f)
    vscale = rational_valuation(fscale, p.p)
    var_min = min((rational_valuation(c, p.p) for c in f[1:] if c), default=0)
    if domain is None:
        hull_a, hull_b, hull_m = 0, 1, 1
    else:
        center, j = _ball_hull(domain, p)
        # the hull center is in Z_p, so v(r - center) >= j iff p^j divides r*b - a
        hull_a, hull_b, hull_m = center.numerator, center.denominator, p.p**j
    counterexamples: list[str] = []
    checks = 0
    pN = p.p**N
    read = [_read_term(term, p, N) for term in terms]
    members: list[list[int]] = [[] for _ in range(pN)]
    for i, rt in enumerate(read):
        for r in rt.lifts:
            members[r].append(i)

    def note(msg: str) -> None:
        if len(counterexamples) < 5:
            counterexamples.append(msg)

    for r in range(pN):
        here = members[r]
        in_hull = (r * hull_b - hull_a) % hull_m == 0
        if len(here) > 1:
            note(f"lift {r} lies in {len(here)} cells")
            continue
        if not here:
            if in_hull and terms:
                note(f"lift {r} is in the domain but in no cell")
            continue
        if not in_hull:
            note(f"lift {r} is outside the domain but in a cell")
            continue
        rt = read[here[0]]
        fr = polys.evaluate_int(fi, r)
        vf = int_valuation(fr, p.p) + vscale if fr else INF
        if rt.point:
            # the lift IS the center: compare exactly at the point
            checks += 1
            if vf != rt.vd:
                note(f"point cell at {rt.center}: v(f) = {vf}, prepared {rt.vd}")
            continue
        k = rt.lifts[r]
        if k >= N or not vf < N + var_min:
            continue  # class does not determine both sides
        want = rt.prepared_valuation(k)
        checks += 1
        if want is None:
            note(f"lift {r}: prepared exponent not integral at k = {k}")
        elif vf != want:
            note(f"lift {r}: v(f) = {vf}, prepared description gives {want}")
    return VerifyReport(not counterexamples, pN, checks, tuple(counterexamples))


def _center_value(cond: CellCondition) -> Fraction:
    if not isinstance(cond.center, Const):
        raise ValueError("verification needs constant centers")
    return cond.center.value


# ---------------------------------------------------------------------------
# serialization

def _rat(x: Fraction) -> str:
    return str(Fraction(x))


def prepared_to_json(terms: list[PreparedTerm]) -> dict:
    cells = []
    rows = []
    for term in terms:
        cond = term.cell.conditions[-1]
        if not isinstance(cond.center, Const):
            raise ValueError("only constant centers serialize to the terms table")
        cells.append(cell_to_json(term.cell))
        rows.append(
            {
                "delta": _rat(term.delta.constant_value()),
                "a": term.a,
                "l": term.l,
                "gamma": _rat(cond.center.value),
                "mu": _rat(cond.coset.mu.value),
                "n": cond.coset.n,
            }
        )
    return {"cells": cells, "terms": rows}
