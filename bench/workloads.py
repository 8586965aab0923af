"""Seeded corpora for the padicells benchmark, one generator per workload.

A workload is a list of operations. Running an operation calls padicells on
one generated input and checks the output: a check that fails raises
CheckFailed, and anything padicells raises counts as a failed operation.
Every library call goes through a module attribute (``integrate.integrate_full``
rather than a name imported from it), so the tracer's patches see it.

The same seed always gives the same operations, in the same order. What
sets an operation's cost (kind, prime, degree, cell shape) depends only on
its slot in the corpus and the seed draws the values, so every seed, and
every prefix of a corpus (a run stops after a time, not a count), has the
same mix.
"""

from __future__ import annotations

import functools
import json
import os
import random
import subprocess
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Callable

from padicells import cells, decompose, expr, integrate, oracle, padic, polys, sums

PRIMES = {p: padic.Prime(p) for p in (2, 3, 5)}
# p^N near 10^3: the depth of every one-variable oracle and verifier run
DEPTH = {2: 10, 3: 6, 5: 4}
# about 10^3 classes over two variables
DEPTH2 = {2: 5, 3: 3, 5: 2}
# small depths for the command line, which pays process start on every call
CLI_DEPTH = {2: 6, 3: 4, 5: 3}
POINCARE_DEPTH = {2: 6, 3: 5, 5: 4}
# operations per corpus; a run cycles through its corpus
ORACLE_OPS = 120
UNIVARIATE_OPS = 90
ENGINE_OPS = 90
CLI_ROUNDS = 3  # problems per subcommand
# engine.pinned: valuations of x0, and points per valuation
PINNED_LEVELS = 4
PINNED_POINTS = 40

# ROADMAP 4(a): both raise PrecisionExhausted at p=2 at the seed commit.
# They stay in the univariate corpus; screen() takes them out of the timed
# loop, and they count against ok_ratio.
CONJUGATE_PAIRS = {6: (F(-17), F(0), F(1)), 15: (F(7), F(0), F(1))}
# Degrees of the univariate slots, in turn. Degrees 0 and 1 are cheap, so
# they are rarer: the median operation then lies among the costly ones
# instead of in the gap between the two groups.
DEGREES = (0, 1, 2, 3, 4, 2, 3, 4, 3, 4)


class CheckFailed(Exception):
    """An operation produced a wrong output."""


class SampledResult(Exception):
    """The oracle answered with a point-sampled estimate instead of a bound."""


@dataclass(frozen=True)
class Op:
    label: str  # names the generated input exactly
    run: Callable[[], None]
    # univariate only: decomposes the input, for screen()
    decompose: Callable[[], object] | None = None


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# shared input pieces

def _linear_text(a: int) -> str:
    if a == 0:
        return "x0"
    return f"x0 - {a}" if a > 0 else f"x0 + {-a}"


def _split_poly(rng: random.Random, degree: int):
    """lead * prod (x0 - a_i) with integer roots: (DSL text, coefficients).

    Rational roots need no Hensel lifting, so only the univariate workload
    reaches the lifting code and its known defect."""
    lead = rng.choice((1, 2, 3))
    roots = [rng.randint(-6, 6) for _ in range(degree)]
    coeffs: polys.PolyQ = (F(lead),)
    for a in roots:
        coeffs = polys.mul(coeffs, (F(-a), F(1)))
    text = "*".join([str(lead)] + [f"({_linear_text(a)})" for a in roots])
    return text, coeffs


def _ball(prime: padic.Prime, mu, n: int) -> cells.CellCondition:
    """{t : |t| <= 1, t in mu*P_n}."""
    return cells.CellCondition(
        center=expr.Const(F(0)),
        coset=cells.coset_of(prime, mu, n),
        upper=expr.Const(F(1)),
        upper_strict=False,
    )


def _monomial_text(c: F, factors) -> str:
    """c * prod v(x_i)^l * abs(x_i)^e over factors (i, e, l)."""
    parts = [str(c)]
    for i, e, l in factors:
        if l:
            parts.append(f"v(x{i})^{l}")
        if e:
            parts.append(f"abs(x{i})^({e})")
    return "*".join(parts)


def _level_max(p: int, e: int, l: int, levels) -> F:
    """max over k in levels of k^l p^(-e k): sup of v(x)^l |x|^e there."""
    return max(F(k) ** l * F(p) ** (-e * k) for k in levels)


def _auto_integral(coeffs, prime: padic.Prime, s: int) -> F:
    """Integral of |f|^s over Z_p by decomposition, as `integrate` does for
    "auto" cells."""
    terms = decompose.decompose_univariate(coeffs, prime)
    cis = integrate.group_prepared(integrate.prepared_power(terms, s))
    res = integrate.eliminate_last_variable(cis, base_point=[])
    check(res.integrable, "a power of a polynomial norm is integrable")
    return res.value.constant_value()


def _full_value(g, cell_list) -> F:
    res = integrate.integrate_full(g, cell_list)
    check(res.integrable, "bounded integrand is integrable")
    return res.value.constant_value()


def _check_oracle(exact: F, g, domain, prime: padic.Prime, N: int, sup: F) -> None:
    """The oracle's rule: |exact - oracle| <= boundary_mass * sup|integrand|."""
    res = oracle.oracle_integrate(g, domain, prime, N)
    if res.sampled:
        raise SampledResult(f"sampled at N={N}")
    check(
        abs(exact - res.value) <= res.boundary_mass * sup,
        f"exact {exact} vs oracle {res.value} beyond {res.boundary_mass} * {sup}",
    )


# ---------------------------------------------------------------------------
# oracle: the enumeration oracle and padic.in_coset take over 95% of the
# time. ROADMAP item 2 (adaptive ball tree, cached in_coset, d_sub hoisted
# out of the class loop) and item 3 (one evaluator) show here.

def _oracle_poly_norm(rng: random.Random, p: int, shape: int) -> Op:
    prime, N = PRIMES[p], DEPTH[p]
    poly_text, coeffs = _split_poly(rng, 1 + shape % 3)
    s = rng.choice((1, 2))
    c = F(rng.randint(1, 4), rng.randint(1, 3))
    text = f"{c}*abs({poly_text})^{s}"

    def run():
        g = expr.parse_constructible(text)
        exact = c * _auto_integral(coeffs, prime, s)
        # integer coefficients: |f| <= 1 on Z_p
        _check_oracle(exact, g, cells.zp_cell(prime), prime, N, c)

    return Op(f"oracle.poly_norm p={p} N={N} {text}", run)


def _oracle_annulus(rng: random.Random, p: int, shape: int) -> Op:
    """v() and negative powers on an annulus lo <= v(x0) <= hi, which keeps
    the integrand bounded."""
    prime, N = PRIMES[p], DEPTH[p]
    lo = shape // 2 % 2
    hi = lo + 1 + shape // 4 % max(1, N - 3 - lo)
    n = 1 + shape % 2
    e, l = rng.randint(-2, 2), rng.randint(0, 2)
    c = F(rng.randint(1, 5), rng.randint(1, 2))
    text = _monomial_text(c, [(0, e, l)])
    cell = cells.Cell((cells.CellCondition(
        center=expr.Const(F(0)),
        coset=cells.coset_of(prime, 1, n),
        lower=expr.Const(F(p) ** hi),
        lower_strict=False,
        upper=expr.Const(F(p) ** lo),
        upper_strict=False,
    ),))
    sup = c * _level_max(p, e, l, range(lo, hi + 1))

    def run():
        g = expr.parse_constructible(text)
        _check_oracle(_full_value(g, [cell]), g, cell, prime, N, sup)

    return Op(f"oracle.annulus p={p} N={N} n={n} v in [{lo},{hi}] {text}", run)


def _oracle_guarded(rng: random.Random, _p: int, shape: int) -> Op:
    """The guarded two-variable cell of the integrate tests at p=3, N=4:
    the inner stage |x1| <= |x0| in a P_2 coset, pinned by residue, over a
    base split into P_2 cosets so every guard resolves."""
    prime, N = PRIMES[3], 4
    inner = cells.CellCondition(
        center=expr.Const(F(0)),
        coset=cells.coset_of(prime, 1 + shape // 4 % 2, 2),
        upper=expr.Var(0),
        upper_strict=False,
    )
    pinned = []
    for mu in padic.coset_representatives(3, 2):
        pinned.extend(cells.pin_bound_residues(cells.Cell((_ball(prime, mu, 2), inner))))
    domain = cells.Cell((_ball(prime, 1, 1), inner))
    c = F(rng.randint(1, 4), rng.randint(1, 3))
    text = _monomial_text(c, [(1, 1 + shape % 2, 0), (0, shape // 2 % 2, 0)])

    def run():
        g = expr.parse_constructible(text)
        _check_oracle(_full_value(g, pinned), g, domain, prime, N, c)

    return Op(f"oracle.guarded p=3 N={N} mu={inner.coset.mu.value} {text}", run)


def _oracle_product(rng: random.Random, p: int, shape: int) -> Op:
    prime, N = PRIMES[p], DEPTH2[p]
    domain = cells.Cell(cells.zp_cell(prime).conditions * 2)
    factors = []
    sup = c = F(rng.randint(1, 4), rng.randint(1, 3))
    # the shape fixes the (norm, v) exponent pairs, the seed their order
    pairs = [(max((shape // 3 + i) % 3, 1 if (shape + i) % 3 else 0), (shape + i) % 3)
             for i in range(2)]
    rng.shuffle(pairs)
    for i, (e, l) in enumerate(pairs):
        factors.append((i, e, l))
        sup *= _level_max(p, e, l, range(0, 64))
    text = _monomial_text(c, factors)

    def run():
        g = expr.parse_constructible(text)
        _check_oracle(_full_value(g, [domain]), g, domain, prime, N, sup)

    return Op(f"oracle.product p={p} N={N} {text}", run)


def _oracle_power_coset(rng: random.Random, p: int, shape: int) -> Op:
    prime, N = PRIMES[p], DEPTH[p]
    n = 2 + shape % 2
    reps = padic.coset_representatives(p, n)
    mu = reps[shape // 2 % len(reps)]
    cell = cells.Cell((_ball(prime, mu, n),))
    l = rng.randint(0, 2)
    e = rng.randint(1 if l else 0, 2)
    c = F(rng.randint(1, 4), rng.randint(1, 3))
    text = _monomial_text(c, [(0, e, l)])
    sup = c * _level_max(p, e, l, range(0, 64))

    def run():
        g = expr.parse_constructible(text)
        _check_oracle(_full_value(g, [cell]), g, cell, prime, N, sup)

    return Op(f"oracle.power_coset p={p} N={N} mu={mu} n={n} {text}", run)


def oracle_ops(seed: int) -> list[Op]:
    """Slot i gets kind i % 5, prime (2, 3, 5)[i // 5 % 3] and shape i // 15.
    The shape fixes what sets an operation's cost (degree, annulus, coset,
    exponents), so every seed gets the same mix; the seed draws the values."""
    rng = random.Random(seed)
    kinds = (_oracle_poly_norm, _oracle_annulus, _oracle_guarded,
             _oracle_product, _oracle_power_coset)
    return [kinds[i % 5](rng, (2, 3, 5)[i // 5 % 3], i // 15) for i in range(ORACLE_OPS)]


# ---------------------------------------------------------------------------
# univariate: decompose_univariate, then verify_prepared at p^N near 10^3,
# then the closed forms. verify_prepared and cells.fiber_membership take
# most of the time, so ROADMAP item 2's integer-residue verifier shows here;
# the oracle does no work, so an oracle change should show nothing.

def _univariate_op(f, p: int) -> Op:
    prime = PRIMES[p]

    def run():
        terms = decompose.decompose_univariate(f, prime)
        report = decompose.verify_prepared(terms, f, prime, DEPTH[p], cells.zp_cell(prime))
        check(report.passed, f"verify_prepared: {report.counterexamples}")
        cis = integrate.group_prepared(integrate.prepared_power(terms, 1))
        res = integrate.eliminate_last_variable(cis, base_point=[])
        check(res.integrable, "|f| is integrable")
        value = res.value.constant_value()
        zeta = integrate.igusa_zeta(f, prime)
        check(zeta.evaluate(F(1, p)) == value, "Z(1/p) is the integral of |f|")
        poincare = integrate.poincare_check(f, prime, POINCARE_DEPTH[p])
        check(poincare.passed, "root counts match the zeta series")

    coeffs = ",".join(str(c) for c in f)
    return Op(f"univariate p={p} N={DEPTH[p]} f=[{coeffs}]", run,
              functools.partial(decompose.decompose_univariate, f, prime))


def screen(ops: list[Op]) -> tuple[list[Op], list[Op]]:
    """Splits off the operations whose polynomial decompose_univariate
    cannot decompose at all (PrecisionExhausted: the conjugate pairs of
    ROADMAP 4(a), and random polynomials with the same defect). No timed
    operation may fail, so these are run once at set-up instead of in the
    loop, and count as failed in ok_ratio. Returns (kept, known defects)."""
    kept, known = [], []
    for op in ops:
        try:
            if op.decompose is not None:
                op.decompose()
        except decompose.PrecisionExhausted:
            known.append(op)
            continue
        kept.append(op)
    return kept, known


def univariate_ops(seed: int) -> list[Op]:
    """Integer coefficients in [-9, 9]; slot i has prime (2, 3, 5)[i % 3] and
    degree DEGREES[i // 3 % 10], so every seed gets the same mix. The
    ROADMAP 4(a) conjugate pairs sit at fixed slots."""
    rng = random.Random(seed)
    out = []
    for i in range(UNIVARIATE_OPS):
        if i in CONJUGATE_PAIRS:
            out.append(_univariate_op(CONJUGATE_PAIRS[i], 2))
            continue
        lead = rng.choice([c for c in range(-9, 10) if c])
        f = tuple(F(rng.randint(-9, 9)) for _ in range(DEGREES[i // 3 % 10])) + (F(lead),)
        out.append(_univariate_op(f, (2, 3, 5)[i % 3]))
    return out


# ---------------------------------------------------------------------------
# engine: closed forms only, no oracle and no verifier. Without it the
# integrate and sums layers go unmeasured, and so does expr's exact-point
# evaluator, which ROADMAP item 3 merges with the oracle's.

def _engine_fubini(rng: random.Random, p: int, shape: int) -> Op:
    """A product integrand over Z_p^k and the same with its variables
    reversed have the same integral."""
    prime = PRIMES[p]
    arity = 2 + shape % 2
    domain = cells.Cell(cells.zp_cell(prime).conditions * arity)
    c = F(rng.randint(1, 6), rng.randint(1, 4))
    # the shape fixes the (norm, v) exponent pairs, the seed their order
    exps = [((shape + i) % 4, (shape + 2 * i) % 3) for i in range(arity)]
    rng.shuffle(exps)

    def product(order):
        vals = tuple(expr.ValFactor(expr.Var(i), l) for i, (_, l) in zip(order, exps) if l)
        norms = tuple(expr.NormFactor(expr.Var(i), F(e)) for i, (e, _) in zip(order, exps) if e)
        return expr.cexpr_term(c, vals, norms)

    forward, backward = product(range(arity)), product(range(arity - 1, -1, -1))

    def run():
        a, b = _full_value(forward, [domain]), _full_value(backward, [domain])
        check(a == b and a > 0, f"Fubini: {a} != {b}")

    return Op(f"engine.fubini p={p} c={c} exps={exps}", run)


def _inner_stage() -> cells.CellCondition:
    """|x1| <= |x0| with x1 in P_2, at p=3."""
    return cells.CellCondition(
        center=expr.Const(F(0)),
        coset=cells.coset_of(PRIMES[3], 1, 2),
        upper=expr.Var(0),
        upper_strict=False,
    )


# 3-adic units a/b with 0 < |a| < 80 and 0 < b < 30
_UNITS_3 = tuple(F(a, b) for a in range(-79, 80) for b in range(1, 30) if a % 3 and b % 3)


@functools.cache
def _pinned_split(mu: F, n: int) -> tuple[cells.Cell, ...]:
    """pin_bound_residues cells of the inner stage over the base ball mu*P_n."""
    stage = cells.Cell((_ball(PRIMES[3], mu, n), _inner_stage()))
    return tuple(cells.pin_bound_residues(stage))


def _engine_pinned(rng: random.Random, _p: int, shape: int) -> Op:
    """Symbolic elimination on pin_bound_residues refinements agrees with
    concrete elimination, and the full integral of one of the integrands
    over a P_2 coset ball equals the sum over the P_4 coset balls it
    contains. Always at p=3: the refinements have many more cells at p=2,
    and one prime keeps the cost of this kind even. Every operation has one
    integrand without and one with v(x1): the v() factor makes elimination
    about twice as costly.

    The inner stage |x1| <= |x0| and the integrands depend on x0 only
    through |x0|, so each pinned cell is eliminated concretely once per
    valuation of x0 and its symbolic result is evaluated at PINNED_POINTS
    points of that valuation (units drawn by the seed), all of which must
    give the concrete value. The evaluations give expr's exact-point
    evaluator a real share of this workload."""
    p = 3
    prime = PRIMES[p]
    pinned = cells.pin_bound_residues(
        cells.Cell((cells.zp_cell(prime).conditions[0], _inner_stage())))
    c = F(rng.randint(1, 4), rng.randint(1, 3))
    norms = tuple(expr.NormFactor(expr.Var(i), F(e))
                  for i, e in ((1, 1 + shape % 3), (0, shape // 3 % 2)) if e)
    integrands = [expr.cexpr_term(c, (expr.ValFactor(expr.Var(1), 1),) if l else (), norms)
                  for l in (0, 1)]

    # x0 = p^k * unit for k = 0..PINNED_LEVELS-1
    points = [[F(p) ** k * rng.choice(_UNITS_3) for _ in range(PINNED_POINTS)]
              for k in range(PINNED_LEVELS)]
    # the slot picks the integrand and the P_2 coset of the split check
    split_g = integrands[shape % 2]
    mu = padic.coset_representatives(p, 2)[shape // 2 % 4]
    coset = cells.coset_of(prime, mu, 2)
    inside = [nu for nu in padic.coset_representatives(p, 4)
              if padic.in_coset(padic.PAdicScalar(nu, prime), coset)]
    fine = [cell for nu in inside for cell in _pinned_split(nu, 4)]
    coarse = list(_pinned_split(mu, 2))

    def run():
        for g in integrands:
            for cell in pinned:
                ci = integrate.prepare_integrand(g, cell)
                sym = integrate.eliminate_last_variable([ci]).value
                pin = cell.conditions[1].upper_val_residue
                for k, level in enumerate(points):
                    at = integrate.integrate_full(g, [cell], eliminate=1, base_point=(level[0],))
                    concrete = at.value.constant_value()
                    if k % 2 != pin:
                        check(concrete == 0, f"pin {pin} fails at v(x0)={k} but value {concrete}")
                        continue
                    for x in level:
                        got = expr.eval_constructible(sym, [padic.PAdicScalar(x, prime)], prime)
                        check(got == concrete, f"symbolic {got} at {x} vs concrete {concrete}")
        a, b = _full_value(split_g, coarse), _full_value(split_g, fine)
        check(a == b, f"{mu}*P_2 base gives {a}, its P_4 cosets give {b}")

    first = [level[0] for level in points]
    return Op(f"engine.pinned p={p} g={[expr.print_constructible(g) for g in integrands]} "
              f"split {expr.print_constructible(split_g)} over {mu}*P_2 points={first}...", run)


def _engine_zeta(rng: random.Random, p: int, shape: int) -> Op:
    """Z(p^-s) equals the elimination of |f|^s for s = 1, 2 and one larger s."""
    prime = PRIMES[p]
    text, coeffs = _split_poly(rng, 1 + shape % 3)
    powers = (1, 2, rng.randint(3, 4))

    def run():
        terms = decompose.decompose_univariate(coeffs, prime)
        zeta = integrate.igusa_zeta(coeffs, prime)
        for s in powers:
            cis = integrate.group_prepared(integrate.prepared_power(terms, s))
            res = integrate.eliminate_last_variable(cis, base_point=[])
            check(res.integrable, "|f|^s is integrable")
            want = zeta.evaluate(F(1, p**s))
            check(res.value.constant_value() == want, f"s={s}: elimination vs Z(p^-s)")

    return Op(f"engine.zeta p={p} f={text} s={powers}", run)


def _progression_checks(rng: random.Random, l: int, bounded: bool) -> Callable[[], None]:
    """sum k^l t^k over [k_min, k_max] with k = r mod m: splitting the range
    at a cut and splitting it by residue mod m give the same total. An
    unbounded range has |t| < 1."""
    num = rng.randint(1, 6)
    den = rng.randint(1, 6) if bounded else num + rng.randint(1, 5)
    t = F(rng.choice((-1, 1)) * num, den)
    modulus = rng.randint(2, 3)
    k_min = rng.randint(0, 4)
    cut = k_min + rng.randint(2, 12)
    k_max = cut + rng.randint(1, 24) if bounded else padic.INF

    def run():
        for r in range(modulus):
            whole = sums.sum_progression(sums.ProgressionSum(l, t, r, modulus, k_min, k_max))
            head = sums.sum_progression(sums.ProgressionSum(l, t, r, modulus, k_min, cut))
            tail = sums.sum_progression(sums.ProgressionSum(l, t, r, modulus, cut + 1, k_max))
            check(whole == head + tail, f"range split at {cut}: l={l} t={t} r={r} m={modulus}")
        total = sums.sum_progression(sums.ProgressionSum(l, t, 0, 1, k_min, k_max))
        parts = sum(sums.sum_progression(sums.ProgressionSum(l, t, r, modulus, k_min, k_max))
                    for r in range(modulus))
        check(total == parts, f"residue split mod {modulus}: l={l} t={t} [{k_min}, {k_max}]")

    run.label = f"l={l} t={t} m={modulus} [{k_min}, {cut}, {k_max}]"
    return run


def _engine_sums(rng: random.Random, p: int, shape: int) -> Op:
    """Lattice sums over boxes eliminated by sum_eliminate_simple equal the
    product of progression sums; progression sums split consistently over
    their range and over residues (powers l = 2..4 every operation, half
    of them over unbounded ranges); one bounded progression sum with a
    modulus equals its term-by-term value."""
    arity = 2 + shape % 2
    terms = []
    for _ in range(2):
        lower = tuple(rng.randint(0, 3) for _ in range(arity))
        upper = tuple(lo + rng.randint(0, 6) if rng.random() < 0.5 else padic.INF
                      for lo in lower)
        terms.append(integrate.SimpleTerm(
            F(rng.randint(-4, 4) or 1, rng.randint(1, 3)),
            tuple(rng.randint(0, 2) for _ in range(arity)),
            tuple(rng.randint(1, 3) for _ in range(arity)),
            lower,
            upper,
        ))
    f = integrate.SimpleFunctionExpr(arity, tuple(terms))
    splits = [_progression_checks(rng, l, bounded) for l in (2, 3, 4) for bounded in (True, False)]
    modulus = rng.randint(1, 3)
    prog = sums.ProgressionSum(
        rng.randint(0, 3), F(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(2, 9)),
        rng.randrange(modulus), modulus, rng.randint(0, 4), rng.randint(5, 30),
    )

    def run():
        reduced = f
        while reduced.arity:
            reduced = integrate.sum_eliminate_simple(reduced, PRIMES[p])
        want = F(0)
        for t in f.terms:
            term = t.coeff
            for e, c, lo, hi in zip(t.powers, t.q_coeffs, t.lower, t.upper):
                term *= sums.sum_progression(sums.ProgressionSum(e, F(1, p**c), 0, 1, lo, hi))
            want += term
        got = integrate.evaluate_simple(reduced, (), p)
        check(got == want, f"simple sum {got} vs progression product {want}")
        for split in splits:
            split()
        brute = sum(F(k) ** prog.l * prog.t**k
                    for k in range(prog.k_min, int(prog.k_max) + 1)
                    if (k - prog.residue) % prog.modulus == 0)
        check(sums.sum_progression(prog) == brute, f"progression sum {prog}")

    labels = "; ".join(split.label for split in splits)
    return Op(f"engine.sums p={p} f={f} prog={prog} splits: {labels}", run)


def engine_ops(seed: int) -> list[Op]:
    """Each operation runs one input of every kind at one prime: the kinds
    cost from 5 to 120 ms apiece, and their sum varies much less, so the
    latency percentiles do not jump between kinds from run to run."""
    rng = random.Random(seed)
    kinds = (_engine_fubini, _engine_pinned, _engine_zeta, _engine_sums)
    out = []
    for i in range(ENGINE_OPS):
        parts = [kind(rng, (2, 3, 5)[i % 3], i // 3) for kind in kinds]

        def run(parts=parts):
            for part in parts:
                part.run()

        out.append(Op("; ".join(part.label for part in parts), run))
    return out


# ---------------------------------------------------------------------------
# cli: one subprocess per call, over all six subcommands. Interpreter start
# and the sympy import dominate, so lazy or removed sympy (ROADMAP item 3)
# shows only here and in setup_s.

SUBCOMMANDS = ("parse", "decompose", "integrate", "measure", "verify", "zeta")


class Launcher:
    """Runs padicells' command line in a child process.

    With a tracer set, the child runs under cli_child.py, which traces it
    the same way, and its trace is merged as operation tracer.op."""

    def __init__(self, python: str, env: dict, workdir: str):
        self.python, self.env, self.workdir = python, env, workdir
        self.tracer = None

    def __call__(self, argv: list[str]) -> subprocess.CompletedProcess:
        if self.tracer is None:
            return self._run([self.python, "-m", "padicells.cli", *argv])
        path = os.path.join(self.workdir, "child-trace.json")
        child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")
        done = self._run([self.python, child, path, str(self.tracer.op), *argv])
        with open(path, encoding="utf-8") as fh:
            self.tracer.merge(json.load(fh))
        os.remove(path)
        return done

    def _run(self, command: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(command, capture_output=True, env=self.env,
                              timeout=150, check=False)


def _cli_call(launch: Launcher, argv: list[str], expected: dict) -> Callable[[], None]:
    def run():
        done = launch(argv)
        check(done.returncode == 0,
              f"exit {done.returncode}: {done.stderr.decode(errors='replace')[-300:]}")
        check(json.loads(done.stdout) == expected, f"stdout differs: {done.stdout[:300]!r}")
    return run


def _verify_payload(exact: F, res) -> dict:
    return {"symbolic": str(exact), "oracle": str(res.value),
            "bound": str(res.boundary_mass),
            "pass": abs(exact - res.value) <= res.boundary_mass}


def _cli_problem(sub: str, rng: random.Random, p: int, shape: int, path: str):
    """Writes one problem file for a subcommand; returns (argv, expected
    stdout computed in-process from the library, problem). The shape fixes
    the degree, the power and the coset depth; the seed draws the values."""
    prime, N = PRIMES[p], CLI_DEPTH[p]
    poly_text, coeffs = _split_poly(rng, 1 + shape % 3)
    s = 1 + shape % 2
    # coefficient 1 keeps sup|integrand| <= 1, where the CLI's raw bound holds
    problem = {"version": 1, "p": p, "integrand": f"abs({poly_text})^{s}"}
    if sub == "parse":
        g = expr.parse_constructible(problem["integrand"])
        expected = {"ok": True, "p": p, "params": 0, "integrate": 1, "mode": "concrete",
                    "integrand": expr.print_constructible(g), "cells": "auto"}
        argv = ["parse", path]
    elif sub == "decompose":
        expected = decompose.prepared_to_json(decompose.decompose_univariate(coeffs, prime))
        argv = ["decompose", path]
    elif sub in ("integrate", "verify"):
        exact = _auto_integral(coeffs, prime, s)
        res = oracle.oracle_integrate(expr.parse_constructible(problem["integrand"]),
                                      cells.zp_cell(prime), prime, N)
        report = _verify_payload(exact, res)
        if sub == "verify":
            expected, argv = report, ["verify", path, "--verify-N", str(N)]
        else:
            expected = {"mode": "concrete", "values": [str(exact)],
                        "nonintegrable": False, "verify": report}
            argv = ["integrate", path, "--verify-N", str(N)]
    elif sub == "measure":
        n = 2 + shape % 2
        cell = cells.Cell((_ball(prime, rng.choice(padic.coset_representatives(p, n)), n),))
        problem = {"version": 1, "p": p, "cells": [cells.cell_to_json(cell)]}
        one = expr.ConstructibleExpr.const(F(1))
        exact = _full_value(one, [cell])
        expected = {"measures": [str(exact)],
                    "verify": _verify_payload(exact, oracle.oracle_measure(cell, prime, N))}
        argv = ["measure", path, "--verify-N", str(N)]
    else:
        report = integrate.poincare_check(coeffs, prime, POINCARE_DEPTH[p])
        zeta = integrate.igusa_zeta(coeffs, prime)
        expected = {
            "numerator": [str(c) for c in zeta.numerator],
            "denominator_factors": [{"c": c, "d": d} for c, d in zeta.denominator_factors],
            "poincare": {"passed": report.passed, "counts": list(report.counts),
                         "expected": [str(m) for m in report.expected]},
        }
        argv = ["zeta", json.dumps([str(c) for c in coeffs]), "--p", str(p),
                "--check-poincare", str(POINCARE_DEPTH[p])]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(problem, fh)
    return argv, expected, problem


def cli_ops(seed: int, launch: Launcher) -> list[Op]:
    """CLI_ROUNDS problems per subcommand, written under the launcher's workdir."""
    rng = random.Random(seed)
    out = []
    for r in range(CLI_ROUNDS):
        for k, sub in enumerate(SUBCOMMANDS):
            p = (2, 3, 5)[(r + k) % 3]
            path = os.path.join(launch.workdir, f"{sub}-{r}.json")
            argv, expected, problem = _cli_problem(sub, rng, p, r, path)
            args = " ".join(a for a in argv[1:] if a != path)
            label = f"cli.{sub} p={p} {args} {json.dumps(problem, sort_keys=True)}"
            out.append(Op(label, _cli_call(launch, argv, expected)))
    return out


# ---------------------------------------------------------------------------
# verify_depth: the deepest N the oracle finishes within a time budget

def reference_oracle_problems() -> list[tuple[str, Callable[[int], object]]]:
    """abs(x0^2 - 1) on Z_3, and |x1| over the guarded cell of
    test_full_elimination_with_guards_matches_oracle; each maps N to the
    oracle's result at depth N."""
    p3 = PRIMES[3]
    problems = [
        ("abs(x0^2 - 1) on Z_3", "abs(x0^2 - 1)", cells.zp_cell(p3)),
        ("abs(x1) on the guarded cell", "abs(x1)",
         cells.Cell((cells.zp_cell(p3).conditions[0], _inner_stage()))),
    ]
    # a class budget high enough that the oracle never falls back to sampling
    unlimited = 10**40
    return [(label, functools.partial(oracle.oracle_integrate, expr.parse_constructible(text),
                                      domain, p3, budget=unlimited))
            for label, text, domain in problems]
