"""Univariate cell decomposition of |f| over balls in Z_p.

The strategy is a ball tree. Factor f over Q once, with sympy's dense
integer factorizer on f's primitive integer part, and only when
polys.has_root_mod_p finds that part a root mod p (every Z_p-root
reduces to one; without one, sympy is not imported). Locate the
Z_p-roots of each irreducible factor (exact for linear factors,
otherwise Hensel-lifted once, deep enough for every ball: see
_ball_tree); then refine balls until each one holds at most one root
gamma, of multiplicity m, and |f(t)| = |delta| * |t - gamma|^m holds on
it. A ball without a root is the case m = 0 with gamma its center, where
|f| is constant. The fact is read off the Taylor coefficients d_i of f
at gamma: on |u| <= p^-j the term d_m u^m wins the ultrametric race iff
v(d_m) + m*k is the strict minimum for every attainable k = v(u).

Four univariate trees share one walk, _walk, depth first on an explicit
stack, so the interpreter's recursion limit bounds none of them: the
root seeds of each factor, the ball tree, verify_prepared's balls and
integrate.root_counts. The ball tree, _ball_tree, runs in Python ints:
f's integer numerators are taken once, each ball's Taylor coefficients
come from polys.taylor_shift_int and are compared by valuation, roots
are lifted mod a power of p, and only a finished ball's two
coefficients become Fractions. It returns plain ball records
(gamma, j, m, d_m, d_0, cut), which two readers share: decompose_univariate emits each finished ball
as a punctured cell plus the 0-cell at its center, so the output
partitions the ball exactly, points included, and integrate.igusa_zeta
reads v(d_m), m and j straight off the records.

Centers of non-rational roots are approximations certified to a stated
depth. Below valuation center_floor the description is not certified;
the lift depth is chosen so that floor lies beyond working precision,
where no residue class can determine either side of the identity, and
verify_prepared checks no residue class below it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

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
    Coset,
    PAdicScalar,
    Prime,
    in_coset,
    int_valuation,
    rational_valuation,
    unit_digits,
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

    f must lie in Z_p[x] and the seed in Z_p, and the lift follows an
    irreducible factor of f, as _zp_roots calls it. Requires
    v(f(seed)) > 2*e, e = v(f'(seed)); then the Newton iterates converge
    to the unique root in the seed's dominance ball.
    The first iterate x with v(f(x)) >= M = target_N + e is returned as
    the int x mod p^M, which is congruent to the root mod p^target_N. A
    seed that is a root, and the root of a linear f, come back exact.

    The iterates run in ints mod p^M. Newton's map keeps points of the
    dominance ball that agree mod p^M agreeing mod p^M, so the next
    iterate mod p^M follows from the current one mod p^M, once f and f'
    are taken mod p^(M+e) to divide by f'.
    """
    if target_N < 1:
        raise ValueError("target_N must be >= 1")
    q = p.p
    x = Fraction(seed)
    if rational_valuation(x, q) < 0 or any(rational_valuation(c, q) < 0 for c in f):
        raise ValueError("hensel_lift needs f in Z_p[x] and a seed in Z_p")
    w = rational_valuation(polys.evaluate(f, x), q)
    e = rational_valuation(polys.evaluate(polys.derivative(f), x), q)
    if not w > 2 * e:
        raise HenselConditionError(
            f"Hensel condition fails: v(f(seed)) = {w} is not > 2*v(f'(seed)) = {2 * e}"
        )
    if w == INF:
        return HenselRoot(x, target_N)
    assert isinstance(e, int)
    M = target_N + e
    if w < M and polys.degree(f) == 1:
        # Newton's first step lands on the root itself
        return HenselRoot(-f[0] / f[1], target_N)
    # f = F / den with den a p-unit: F and f share their roots and valuations
    F, _ = polys.over_common_denominator(f)
    dF = polys.derivative(F)
    mod, wide, pe = q**M, q ** (M + e), q**e
    r = x.numerator * pow(x.denominator, -1, mod) % mod
    while True:
        fr = polys.evaluate_int(F, r) % wide
        if not fr % mod:
            break
        # f(r) / f'(r) mod p^M: both are divisible by p^e
        r = (r - fr // pe * pow(polys.evaluate_int(dF, r) % wide // pe, -1, mod)) % mod
    return HenselRoot(Fraction(r), target_N)


def _walk(visit, p: int, c: int, d: int, *state, unit: int = 1) -> None:
    """Walk the balls c + unit*p^d Z_p below one ball, depth first, each
    ball's p children c + i*unit*p^d + unit*p^(d+1) Z_p in residue order
    i. visit(c, d, *state) settles a ball and returns None, or returns the
    state its children start from. The stack is explicit, so the depth is
    not bounded by the interpreter's recursion limit."""
    stack = [(c, d, state)]
    while stack:
        c, d, state = stack.pop()
        state = visit(c, d, *state)
        if state is not None:
            step = unit * p**d
            stack.extend((c + i * step, d + 1, state) for i in range(p - 1, -1, -1))


def _zp_root_seeds(g: polys.PolyQ, p: Prime, depth_cap: int) -> list[int]:
    """Seeds in Z_p from which g Hensel-lifts, one per root, by depth-first
    refinement of the residue classes on which g can vanish.

    No root is seeded twice: the classes are disjoint, and a seed's root,
    at distance p^-s from r with s = w - e > e, lies in its class
    r + p^k Z_p. At k = 1, k > e gives e = 0 and s = w >= k. At k > 1, a
    root with s < k would be as close to the parent's representative, where
    v(g) >= e + s > 2e and v(g') = e, so the parent (k - 1 >= s > e) would
    have passed the same test and been seeded instead of refined.
    """
    q = p.p
    G, den = polys.over_common_denominator(g)
    vden = int_valuation(den, q)
    dG = polys.derivative(G)
    seeds: list[int] = []

    def visit(r: int, k: int):
        w = rational_valuation(polys.evaluate_int(G, r), q) - vden
        if w < k:
            return None
        e = rational_valuation(polys.evaluate_int(dG, r), q) - vden
        # Hensel's lemma gives one root per class only inside its
        # uniqueness ball: the class must be narrower than |g'(r)|
        if w > 2 * e and k > e:
            seeds.append(r)
            return None
        if k >= depth_cap:
            raise PrecisionExhausted(
                "precision exhausted: root isolation stalled at depth "
                f"{k} for a degree-{polys.degree(g)} factor"
            )
        return ()

    for r in range(q):
        _walk(visit, q, r, 1)
    return seeds


@dataclass(frozen=True)
class _TrackedRoot:
    root: HenselRoot
    exact: bool
    factor: polys.PolyQ  # squarefree factor the root came from
    multiplicity: int


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
    # a Z_p-root of f reduces to a root of its primitive part mod p, and
    # without one no factor has a root class to seed from: skip factoring
    if not polys.has_root_mod_p(polys.integerize(f)[0], p.p):
        return []
    roots: list[_TrackedRoot] = []
    for g, m in _factor_over_q(f):
        if polys.degree(g) == 1:
            r = -g[0] / g[1]
            if rational_valuation(r, p.p) < 0:
                continue
            roots.append(_TrackedRoot(HenselRoot(r, lift_N), True, g, m))
            continue
        for seed in _zp_root_seeds(g, p, lift_N):
            roots.append(_TrackedRoot(hensel_lift(g, p, seed, lift_N), False, g, m))
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


def _dominant_root_floor(v, m: int, j: int):
    """Largest K with |f(gamma+u)| = |d_m||u|^m for all j <= v(u) <= K,
    or None when the m-th Taylor term never dominates down the ball. At
    m = 0 it is INF when |f| = |d_0| on the whole ball, else None. v holds
    the valuations v(d_i) of f's Taylor coefficients at gamma, INF for 0."""
    vm = v[m]
    for i in range(m + 1, len(v)):
        if v[i] != INF and not vm < v[i] + (i - m) * j:
            return None
    floor: int | float = INF
    for i in range(m):
        if v[i] == INF:
            continue
        gap = v[i] - vm
        if gap <= (m - i) * j:
            return None
        # (m-i)*k < gap, i.e. k <= ceil(gap/(m-i)) - 1
        floor = min(floor, -(-gap // (m - i)) - 1)
    return floor


class _Ball(NamedTuple):
    """A finished ball |t - gamma| <= p^-j of the tree: |f(t)| =
    |d_m| |t - gamma|^m on it, punctured at gamma, and f(gamma) = d_0.
    cut is the center_floor of both pieces."""

    gamma: Fraction
    j: int
    m: int
    d_m: Fraction
    d_0: Fraction
    cut: int | None


def _ball_tree(
    f: polys.PolyQ, p: Prime, domain: Cell | None, precision_N: int
) -> list[_Ball]:
    """The balls decompose_univariate emits, in its depth-first order.

    The walk runs in ints. f = nums / den once; a ball's center is
    c / cden with cden the hull center's denominator, a p-unit, and a
    root is a / b. A root lies in the ball c/cden + p^j Z_p iff p^j
    divides a*cden - c*b, and the Taylor coefficients of f at a/b are
    e_k / (den * b^(n-k)), with e the integer shift of
    sum nums_i b^(n-i) y^i by a: v(d_k) = v(e_k) - v(den).
    """
    if polys.is_zero(f):
        raise ValueError("f must not be identically zero")
    if precision_N < 1:
        raise ValueError("precision must be >= 1")
    hull_center, hull_j = _ball_hull(domain, p)
    lift_N = max(2 * precision_N, precision_N + 16)
    q = p.p
    roots = [
        (rt.root.approx, rt.multiplicity)
        for rt in _zp_roots(f, p, lift_N)
        if rational_valuation(rt.root.approx - hull_center, q) >= hull_j
    ]
    nums, den = polys.over_common_denominator(f)
    vden = int_valuation(den, q)
    n = len(nums) - 1
    cden = hull_center.denominator
    out: list[_Ball] = []

    def handle(c: int, j: int):
        if j > precision_N:
            raise PrecisionExhausted(
                f"precision exhausted: subdivision passed depth {precision_N}"
            )
        pj = q**j
        local = [(g, m) for g, m in roots if not (g.numerator * cden - c * g.denominator) % pj]
        if len(local) > 1:
            return ()
        # a ball without a root is the case m = 0 about its center
        gamma, m = local[0] if local else (Fraction(c, cden), 0)
        b = gamma.denominator
        e = polys.taylor_shift_int(
            [nums[i] * b ** (n - i) for i in range(n + 1)], gamma.numerator
        )
        floor = _dominant_root_floor([rational_valuation(x, q) - vden for x in e], m, j)
        if floor is None:
            return ()
        # One lift suffices: gamma is its root rho mod p^lift_N, so D = v(rho - gamma)
        # >= lift_N > j. The i > m test passed at j, so of the roots of f(gamma + u)
        # only the m copies of rho - gamma reach valuation j: the Newton polygon's
        # first side has slope -D and floor = D - 1 >= N + 15. Exact or no roots give INF.
        assert floor >= precision_N + 2
        out.append(_Ball(
            gamma, j, m, Fraction(e[m], den * b ** (n - m)),
            Fraction(e[0], den * b**n), None if floor == INF else int(floor),
        ))
        return None

    _walk(handle, q, hull_center.numerator, hull_j, unit=cden)
    return out


def decompose_univariate(
    f: polys.PolyQ,
    p: Prime,
    domain: Cell | None = None,
    precision_N: int = 8,
) -> list[PreparedTerm]:
    """Partition a ball into cells on which |f| has a prepared description.

    Deterministic: balls split into their p children in residue order and
    pieces are emitted in depth-first order, each ball as its punctured
    cell and the 0-cell at its center.
    """
    out: list[PreparedTerm] = []
    for ball in _ball_tree(f, p, domain, precision_N):
        gamma = ball.gamma
        out.append(PreparedTerm(
            ConstructibleExpr.const(ball.d_m), ball.m, 0,
            punctured_ball_cell(p, gamma, ball.j), ball.cut,
        ))
        out.append(PreparedTerm(
            ConstructibleExpr.const(ball.d_0), 0, 0, point_cell(p, Const(gamma)), ball.cut,
        ))
    return out


# ---------------------------------------------------------------------------
# verification by a walk over balls

@dataclass(frozen=True)
class VerifyReport:
    passed: bool
    classes_checked: int
    equality_checks: int
    counterexamples: tuple[str, ...]


# _TermReading.on_ball's answer for a ball that holds some of the cell's
# members, perhaps not all of them
_SPLIT = "split"


@dataclass(frozen=True)
class _TermReading:
    """A prepared term as the verifier reads it, once: its center num/den,
    the valuation window its bounds and residue pins admit, its coset and
    the constants of the prepared value."""

    center: Fraction
    prime: Prime
    N: int
    num: int
    den: int
    vb: int  # v(den)
    k_min: int | float
    k_max: int | float
    coset: Coset
    point: bool
    n: int
    vmu: int | float
    depth: int  # unit_digits(n, p): the unit digits that decide in_coset
    vd: int | float  # v(delta), INF for delta = 0
    a: int
    floor: int | None  # the term's center_floor

    def on_ball(self, c: int, d: int):
        """The cell's members among the residues r = c + m*p^d mod p^N:
        their common level k = v(r - center) when the cell holds every one
        of them, None when it holds none, _SPLIT otherwise. One rule reads
        every depth: r - center = x/den + m*p^d with x = c*den - num, so
        k = v(x) while v(x) < d. At d = N the ball is its own lift c, and
        k = v(x) exactly, N or more, INF at the center itself."""
        p = self.prime.p
        x = c * self.den - self.num
        if self.vb:
            k = -self.vb  # p divides den but not num: x is a unit
        elif d < self.N and not x % p**d:
            # the ball holds residues at every level from d up
            return _SPLIT
        else:
            k = int_valuation(x, p) if x else INF
        # membership in a zero coset is r = center, in any other r != center
        if (k == INF) != self.point or not self.k_min <= k <= self.k_max:
            return None
        if self.point or self.n == 1:
            return k
        if (k - self.vmu) % self.n:
            return None
        # the unit part of r - center is fixed mod p^(d-k) on the ball
        if d - k < self.depth and d < self.N:
            return _SPLIT
        x = PAdicScalar(Fraction(x, self.den), self.prime)
        return k if in_coset(x, self.coset) else None

    def prepared_valuation(self, k: int):
        """v of the prepared description at v(t-gamma) = k; None if not integral."""
        if self.vd == INF or self.a == 0:
            return self.vd
        e, rem = divmod(self.a * (k - self.vmu), self.n)
        return None if rem else self.vd + e


def _read_term(term: PreparedTerm, p: Prime, N: int) -> _TermReading:
    """Read a term's cell once: center num/den, window and coset."""
    cell = term.cell
    if cell.arity != 1:
        raise ValueError(f"point has 1 coordinates, cell has {cell.arity}")
    cond = cell.conditions[0]
    center = stage_center(cond, []).value
    window = stage_window(cond, [])
    _center_value(cond)  # prepared cells have constant centers
    delta = term.delta.constant_value()
    coset = cond.coset
    n = coset.n
    return _TermReading(
        center, p, N, center.numerator, center.denominator,
        int_valuation(center.denominator, p.p), window.k_min, window.k_max,
        coset, coset.is_zero(), n, coset.mu.valuation, unit_digits(n, p.p),
        INF if delta == 0 else rational_valuation(delta, p.p),
        term.a, term.center_floor,
    )


class _BallWalk:
    """verify_prepared's walk over the balls c + p^d Z_p, 0 <= c < p^d,
    for 0 <= d <= N, on _walk. Each visit settles its ball or asks for its
    p children."""

    def __init__(self, terms, f, p: Prime, N: int, domain: Cell | None):
        self.p, self.N = p.p, N
        self.fi, fscale = polys.integerize(f)
        self.vscale = rational_valuation(fscale, p.p)
        self.var_min = min((rational_valuation(c, p.p) for c in f[1:] if c), default=0)
        self.hull_c, self.hull_j = 0, 0
        if domain is not None:
            center, self.hull_j = _ball_hull(domain, p)
            m = p.p**self.hull_j
            self.hull_c = center.numerator * pow(center.denominator, -1, m) % m
        self.read = [_read_term(term, p, N) for term in terms]
        self.checks = 0
        self.found: list[tuple[int, str]] = []  # (lift, counterexample)

    def run(self) -> None:
        _walk(self.visit, self.p, 0, 0, [], self.read)

    def visit(self, c: int, d: int, holders, open_):
        """Settle the ball c + p^d Z_p and return None, or return the
        (holders, open cells) its children start from. holders are
        (reading, level) for the cells holding every residue of the ball;
        the open cells may hold some of them."""
        undecided = []
        for rt in open_:
            k = rt.on_ball(c, d)
            if k is _SPLIT:
                undecided.append(rt)
            elif k is not None:
                holders = holders + [(rt, k)]
        if not undecided and self._settle(c, d, holders):
            return None
        return holders, undecided

    def _settle(self, c: int, d: int, holders) -> bool:
        """Check a ball on which every cell holds all of its residues or
        none; False when the hull test or v(f) varies on it."""
        if d < self.hull_j and d < self.N:
            if (c - self.hull_c) % self.p**d == 0:
                return False
            in_hull = False
        else:
            in_hull = (c - self.hull_c) % self.p**self.hull_j == 0
        if len(holders) > 1:
            self._bad(c, d, f" lies in {len(holders)} cells")
        elif not holders:
            if in_hull and self.read:
                self._bad(c, d, " is in the domain but in no cell")
        elif not in_hull:
            self._bad(c, d, " is outside the domain but in a cell")
        else:
            return self._check_value(c, d, *holders[0])
        return True

    def _check_value(self, c: int, d: int, rt: _TermReading, k) -> bool:
        """|f| against the prepared value on a ball one cell holds at
        level k; False when v(f) is not shown constant on it."""
        N = self.N
        if rt.point:
            # the ball is the one residue c, the center itself: compare exactly
            vf = self._value_at(c)
            self.checks += 1
            if vf != rt.vd:
                self.found.append(
                    (c, f"point cell at {rt.center}: v(f) = {vf}, prepared {rt.vd}")
                )
            return True
        if k >= N or rt.floor is not None and k > rt.floor:
            # the class does not determine both sides, or the center is
            # not certified that deep
            return True
        vf = self._value_at(c) if d == N else self._value_on_ball(c, d)
        if vf is None:
            return False
        if not vf < N + self.var_min:
            return True  # the class does not determine both sides
        want = rt.prepared_valuation(k)
        self.checks += self.p ** (N - d)
        if want is None:
            self._bad(c, d, f": prepared exponent not integral at k = {k}")
        elif vf != want:
            self._bad(c, d, f": v(f) = {vf}, prepared description gives {want}")
        return True

    def _value_at(self, r: int):
        fr = polys.evaluate_int(self.fi, r)
        return int_valuation(fr, self.p) + self.vscale if fr else INF

    def _value_on_ball(self, c: int, d: int):
        """v(f) on c + p^d Z_p when the Taylor coefficients e_i of f at c
        show it constant: e_0 != 0 and v(e_0) < v(e_i) + i*d for all
        i >= 1. None otherwise."""
        if not self.fi:
            return INF
        e = polys.taylor_shift_int(self.fi, c)
        if not e[0]:
            return None
        v0 = int_valuation(e[0], self.p)
        for i in range(1, len(e)):
            need = v0 - i * d + 1  # v(e_i) >= need
            if need > 0 and e[i] % self.p**need:
                return None
        return v0 + self.vscale

    def _bad(self, c: int, d: int, tail: str) -> None:
        """Note a ball whose every residue fails alike, by its five least
        residues: no other can be among the five least over all balls."""
        step = self.p**d
        for m in range(min(5, self.p ** (self.N - d))):
            r = c + m * step
            self.found.append((r, f"lift {r}{tail}"))


def verify_prepared(
    terms: list[PreparedTerm],
    f: polys.PolyQ,
    p: Prime,
    N: int,
    domain: Cell | None = None,
) -> VerifyReport:
    """Check every residue lift r mod p^N: disjointness, coverage of the
    domain's ball hull, and |f| = prepared value wherever the class
    determines both sides and the center is certified (level k at most
    the term's center_floor). Point cells are checked exactly at their
    single member. Coverage is judged against the hull because the
    punctures in 1-cells are null points supplied by companion 0-cells.

    The lifts are visited as balls c + p^d Z_p, d = 0..N, on _walk. A
    cell reads a ball and a lift by one rule, the valuation of c*b - a
    for its center a/b; at d = N the ball is one lift and the reading is
    exact. A ball is settled whole when every cell holds all of its
    residues or none, the hull test is constant on it, and, where one
    cell holds it, v(f) is constant on it by its Taylor coefficients at
    c. Any other ball splits into its p children. Only balls near a cell
    center or a root of f split, so the cost is O((cells + roots) * p * N)
    balls, not p^N lifts. The report is the per-lift one: a
    settled ball adds one equality check per lift it checks, and the
    counterexamples are those of the five least failing lifts.
    """
    walk = _BallWalk(terms, f, p, N, domain)
    walk.run()
    found = sorted(walk.found)[:5]
    return VerifyReport(
        not found, p.p**N, walk.checks, tuple(message for _, message in found)
    )


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
